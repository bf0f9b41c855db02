"""Norm-resolvent convergence of squeezed potentials, desk scale.

One straight attractive segment: the concentrated-interaction operator is
compared with its squeezed regularizations on a shared mesh.  The discrete
resolvent-difference norm and the ground-state gap both shrink as the tube
width eps goes to zero; the log-log slopes are the measured rates.

This demo runs a coarse mesh for speed; the acceptance-grade run
(h = 1/64 on [-3,3]^2) is scripted in the test suite and reachable as
  delta-squeeze converge --config <cfg.json>
"""

from deltasqueeze.lab import run_convergence

cfg = {
    "mesh": {"box": [[-2.0, 2.0], [-2.0, 2.0]], "h": 1.0 / 32.0},
    "network": {
        "beta_cap": 0.5,
        "segments": [{"kind": "line", "p0": [-1.0, 0.0], "p1": [1.0, 0.0]}],
    },
    "alpha": -5.0,
    "eps_grid": [0.5, 0.35, 0.25, 0.175, 0.125],
}

report, status = run_convergence(cfg)

print(f"ground state of the concentrated form: {report['lam_delta']:+.6f}")
print(f"resolvent shift lambda = {report['shift']:+.6f}\n")
print("     eps      resolvent-diff norm    eigenvalue gap")
for eps, nrm, gap in zip(report["config"]["eps_grid"], report["res_norms"],
                         report["eig_gaps"]):
    print(f"  {eps:7.4f}     {nrm:.6e}       {gap:.6e}")

print(f"\nnorm slope: {report['norm_fit']['slope']:.3f} "
      f"(95% CI {report['norm_fit']['ci95'][0]:.3f}..{report['norm_fit']['ci95'][1]:.3f})")
print(f"gap  slope: {report['gap_fit']['slope']:.3f}")
print(f"alpha roundtrip self-check error: "
      f"{report['self_check']['alpha_roundtrip_max_error']:.2e}")
print(f"flags: {sorted(report['flags']) or 'none'}")
