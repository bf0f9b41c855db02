"""Fixed benchmark workloads: a `lab` runner, its config, and its output check.

The configs are verbatim: the acceptance configs of criteria 3, 5 and 7, one
magnetic spectrum case, and the criterion-9 base config.  The benchmark's
seed is passed only as the config's `seed`, and `threads` is left out so the
program default applies.  A check returns the list of its failed assertions
(empty when the run is correct).

This module imports neither numpy nor the package, so the generator process
can read workload names without paying the import.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    runner: str  # name of the `deltasqueeze.lab` runner the CLI subcommand calls
    config: dict
    check: Callable[[dict, int], list]

    def config_for(self, seed: int) -> dict:
        cfg = copy.deepcopy(self.config)
        cfg["seed"] = seed
        return cfg


def _require(errors, ok, text):
    if not ok:
        errors.append(text)


def _check_converge(report, status):
    """Acceptance criterion 3, windows unchanged."""
    errors = []
    norms = report["res_norms"]
    _require(errors, all(b < a for a, b in zip(norms, norms[1:])),
             f"norms not strictly decreasing: {norms}")
    slope = report["norm_fit"]["slope"]
    _require(errors, 0.35 <= slope <= 0.8, f"norm slope {slope} outside [0.35, 0.8]")
    gap_slope = report["gap_fit"]["slope"]
    _require(errors, gap_slope >= 0.45, f"gap slope {gap_slope} below 0.45")
    _require(errors, all(report["res_converged"]), "power iteration not converged")
    _require(errors, status == 0 and not report["flags"],
             f"status {status}, flags {sorted(report['flags'])}")
    return errors


def _check_star(report, status):
    """Acceptance criterion 5, windows unchanged."""
    errors = []
    est = report["mesh_error_estimate"]
    _require(errors, report["lam_sigma"] < report["lam_gamma"],
             f"lam_sigma {report['lam_sigma']} not below lam_gamma {report['lam_gamma']}")
    _require(errors, report["gap"] > 5.0 * est,
             f"gap {report['gap']} not above 5 x mesh error {est}")
    _require(errors, report["rotation_gap"] <= est,
             f"rotation gap {report['rotation_gap']} above mesh error {est}")
    _require(errors, status == 0, f"status {status}")
    return errors


def _check_cusp(report, status):
    """Acceptance criterion 7, windows unchanged."""
    errors = []
    devs = report["r_deviations"]
    _require(errors, len(devs) == 3, f"expected 3 deviations, got {devs}")
    _require(errors, len(devs) == 3 and devs[0] > devs[1] > devs[2],
             f"deviation not strictly decreasing: {devs}")
    target = report["target_constant"]
    _require(errors, abs(target - 4.2426) <= 1e-3, f"target constant {target} != 4.2426")
    _require(errors, status == 0, f"status {status}")
    return errors


# Eigenvalues of the magnetic-spline config at seed 7.  A quarter of their
# smallest consecutive gap (about 0.74) catches a skipped or spurious
# eigenvalue but still admits a more accurate quadrature of the potential.
MAGNETIC_REFERENCE = (-2.792298175066879, -1.6063318096270898,
                      -0.8656249326601788, 1.2771224087433737)


def _check_magnetic(report, status):
    errors = []
    solver = report["solver"]
    _require(errors, max(solver["residuals"]) <= 1e-8,
             f"residuals {solver['residuals']} above 1e-8")
    _require(errors, report["hermiticity_residual"] <= 1e-12,
             f"hermiticity residual {report['hermiticity_residual']} above 1e-12")
    _require(errors, solver["rayleigh_imag"] <= 1e-10,
             f"rayleigh_imag {solver['rayleigh_imag']} above 1e-10")
    ref = MAGNETIC_REFERENCE
    window = 0.25 * min(b - a for a, b in zip(ref, ref[1:]))
    eigs = report["eigenvalues"]
    _require(errors, len(eigs) == len(ref) and all(
        abs(e - r) <= window for e, r in zip(eigs, ref)),
        f"eigenvalues {eigs} not within {window:.4f} of {list(ref)}")
    _require(errors, status == 0, f"status {status}")
    return errors


def _check_status(report, status):
    return [] if status == 0 else [f"status {status}, flags {sorted(report['flags'])}"]


# why each workload was chosen: BENCHMARK.json and README.md
WORKLOADS = {
    "cusp-trend": Workload(
        "run_cusp",
        {
            "d": 2.0,
            "alpha_list": [-6.0, -10.0, -14.0],
            "x_max": 0.75,
            "mesh": {"box": [[-0.75, 3.0], [-1.75, 1.75]], "h": 1.0 / 64.0},
        },
        _check_cusp,
    ),
    "magnetic-spline": Workload(
        "run_spectrum",
        {
            "mesh": {"box": [[-2.0, 2.0], [-2.0, 2.0]], "h": 1.0 / 64.0},
            "network": {
                "beta_cap": 0.3,
                "segments": [
                    {"kind": "spline",
                     "points": [[-1.5, -0.5], [-0.8, 0.4], [0.0, 0.1],
                                [0.7, 0.6], [1.5, -0.2]]},
                    {"kind": "arc", "center": [0.0, -0.6], "radius": 0.8,
                     "theta0": 3.6, "theta1": 5.8},
                ],
            },
            "alpha": -4.0,
            "eps": 0.1,
            "k": 4,
            "field_b": 1.5,
        },
        _check_magnetic,
    ),
    "converge-line": Workload(
        "run_convergence",
        {
            "mesh": {"box": [[-3.0, 3.0], [-3.0, 3.0]], "h": 1.0 / 64.0},
            "network": {
                "beta_cap": 0.5,
                "segments": [{"kind": "line", "p0": [-2.0, 0.0], "p1": [2.0, 0.0]}],
            },
            "alpha": -5.0,
            "eps_grid": [0.4, 0.28, 0.2, 0.14, 0.1],
        },
        _check_converge,
    ),
    "star-refine": Workload(
        "run_stargraph",
        {
            "N": 3,
            "L": 1.0,
            "angles": [150.0, 150.0, 60.0],
            "alpha": -5.0,
            "mesh": {"box": [[-2.0, 2.0], [-2.0, 2.0]], "h": 1.0 / 64.0},
        },
        _check_star,
    ),
    # the criterion-9 base config; small enough for the benchmark's own test
    "smoke": Workload(
        "run_convergence",
        {
            "mesh": {"box": [[-2.0, 2.0], [-2.0, 2.0]], "h": 1.0 / 16.0},
            "network": {
                "beta_cap": 1.0,
                "segments": [{"kind": "line", "p0": [-1.0, 0.0], "p1": [1.0, 0.0]}],
            },
            "alpha": -5.0,
            "eps_grid": [0.5, 0.35, 0.25],
        },
        _check_status,
    ),
}
