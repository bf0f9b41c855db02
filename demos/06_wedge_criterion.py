"""Magnetic wedge: the criterion function and the assembled operator.

With a homogeneous magnetic field, attraction concentrated near a wedge of
opening angle phi creates discrete spectrum below the essential threshold
whenever inf F < 0 for the criterion function

  F(x, y) = 1 + x^4/4 - x^2 Theta
          + (alpha/sqrt(pi)) x exp(-y^2 tan^2(phi/2)) (1 + erf(y)),

Theta being the (supplied) essential-spectrum infimum of the wedge
operator.  The lab run evaluates the criterion and assembles the complex
magnetic form with the concentrated term on the two wedge rays.
"""

import numpy as np

from deltasqueeze.lab import run_wedge
from deltasqueeze.oracles import WedgeParams, wedge_F_infimum

print("criterion scan at phi = pi/3, alpha -> 0-:")
for theta in (1.5, 1.0, 0.5):
    out = wedge_F_infimum(WedgeParams(phi=np.pi / 3, alpha=-1e-6, theta=theta))
    print(
        f"  Theta = {theta}: inf F = {out.value:+.6f} "
        f"(calculus limit 1 - Theta^2 = {1 - theta**2:+.4f}), "
        f"discrete spectrum predicted: {out.negative}"
    )

cfg = {
    "phi": np.pi / 3.0,
    "alpha": -2.0,
    "theta": 1.5,
    "b": 1.0,
    "mesh": {"box": [[-1.5, 1.5], [-1.5, 1.5]], "h": 1.0 / 32.0},
}
report, status = run_wedge(cfg)
print(f"\nassembled magnetic form (b = 1, two rays, alpha = -2):")
print(f"  hermiticity residual = {report['hermiticity_residual']:.2e}")
print(f"  lam1 = {report['lam1']:+.6f}")
print(f"  below Theta*b = {cfg['theta'] * cfg['b']}: {report['below_field_threshold']}")
print(f"  criterion inf F = {report['criterion']['inf_F']:+.6f}")
