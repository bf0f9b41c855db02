"""Command-line entry point: `delta-squeeze <scenario> --config file.json`.

Each subcommand is one entry of `_COMMANDS`: a function of the config dict
that returns (report, status), the config keys it also accepts as flags,
and the one-line summary printed for its report.

Exit codes: 0 on success, 2 on flagged-but-complete runs, 1 on errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import lab, oracles


def _wedge_f(cfg):
    c = lab._check("wedge-f", cfg, reals={"phi": ..., "alpha": ..., "theta": ...})
    out = lab._wedge_criterion(c["phi"], c["alpha"], c["theta"])
    # calculus cross-check: for |alpha| -> 0 the infimum is 1 - Theta^2
    quartic_min = 1.0 - c["theta"] ** 2
    report = {
        "scenario": "wedge-f",
        "inputs": dict(cfg),
        "outputs": out,
        "oracle_cross_check": {
            "quartic_calculus_small_alpha": quartic_min,
            "consistent": bool(out["inf_F"] <= quartic_min + 1e-8),
        },
    }
    return report, 0 if out["refined"] else 2


def _oracle1d(cfg):
    c = lab._check("oracle1d", cfg, counts={"cells_per_eps": 8},
                   reals={"alpha": ..., "beta": 0.02, "eps": None})
    alpha, beta = c["alpha"], c["beta"]
    eps = beta if c["eps"] is None else c["eps"]  # the tube fills the strip by default
    g = lambda t: np.full_like(t, alpha / (2.0 * beta))
    lam = oracles.squeezed_1d_eigenvalue(g, eps, beta, cells_per_eps=c["cells_per_eps"])
    checks = {"point_delta": oracles.delta_point_eigenvalue(alpha)}
    checks["square_well_bisection"] = oracles.square_well_ground_state(
        depth=abs(alpha) / (2.0 * eps), halfwidth=eps
    )
    report = {
        "scenario": "oracle1d",
        "inputs": {"alpha": alpha, "beta": beta, "eps": eps},
        "outputs": {"lam_eps": lam},
        "oracle_cross_check": checks,
    }
    return report, 0


def _cusp_b(cfg):
    c = lab._check("cusp-b", cfg, counts={"k": 3, "n": None}, reals={"d": ..., "x_max": None})
    d, k, n = c["d"], c["k"], c["n"]
    eigs = oracles.cusp_operator_eigs(d, k=k, x_max=c["x_max"], **({} if n is None else {"n": n}))
    cross = {}
    if d == 2.0:
        cross["odd_harmonic_levels"] = [4.0 * j - 1.0 for j in range(1, k + 1)]
        cross["max_deviation"] = float(
            np.max(np.abs(eigs - np.asarray(cross["odd_harmonic_levels"])))
        )
    report = {
        "scenario": "cusp-b",
        "inputs": {"d": d, "k": k},
        "outputs": {"eigenvalues": eigs.tolist()},
        "oracle_cross_check": cross,
    }
    return report, 0


def _flags(r):
    return f"flags={sorted(r['flags'])}"


def _join(values, spec):
    return ", ".join(format(v, spec) for v in values)


_RUNNER_FLAGS = ("out", "dump_mm")

# name: (function of the config dict, config keys it accepts as flags,
# one-line summary of its report)
_COMMANDS = {
    "converge": (lab.run_convergence, _RUNNER_FLAGS, lambda r: (
        f"converge: lam_delta={r['lam_delta']:.6f} norm_slope="
        f"{r['norm_fit']['slope'] if r['norm_fit'] else float('nan'):.3f} {_flags(r)}")),
    "stargraph": (lab.run_stargraph, _RUNNER_FLAGS, lambda r: (
        f"stargraph: lam(Sigma)={r['lam_sigma']:.6f} lam(Gamma)={r['lam_gamma']:.6f} "
        f"gap={r['gap']:.6f} mesh_error={r['mesh_error_estimate']:.2e} {_flags(r)}")),
    "cusp": (lab.run_cusp, _RUNNER_FLAGS, lambda r: (
        f"cusp: target={r['target_constant']:.5f} "
        f"|r-target|=[{_join(r['r_deviations'], '.4f')}] "
        f"decreasing={r['trend_decreasing']} {_flags(r)}")),
    "wedge-f": (_wedge_f, (), lambda r: (
        f"wedge-f: inf={r['outputs']['inf_F']:.8f} "
        f"negative={r['outputs']['predicts_discrete_spectrum']}")),
    "wedge": (lab.run_wedge, _RUNNER_FLAGS, lambda r: "wedge: " + (
        f"infF={r['criterion']['inf_F']:.6f}" if r["criterion"] else "no-criterion")
        + f" lam1={r['lam1']:.6f} herm={r['hermiticity_residual']:.2e} {_flags(r)}"),
    "spectrum": (lab.run_spectrum, _RUNNER_FLAGS, lambda r: (
        f"spectrum: [{_join(r['eigenvalues'], '.6f')}]")),
    "oracle1d": (_oracle1d, (), lambda r: (
        f"oracle1d: lam_eps={r['outputs']['lam_eps']} "
        f"point_delta={r['oracle_cross_check']['point_delta']}")),
    "cusp-b": (_cusp_b, (), lambda r: (
        "cusp-b: " + _join(r["outputs"]["eigenvalues"], ".6f"))),
}

_FLAG_ARGS = {
    "out": dict(default=None, help="output directory"),
    "dump_mm": dict(default=None, help="Matrix Market dump directory"),
}


def _run(args):
    """Run the command on its config with the flags given on the command
    line; print the summary line, then the report unless it went to --out."""
    fn, flags, summary = _COMMANDS[args.command]
    with open(args.config) as fh:
        cfg = json.load(fh)
    for flag in flags:
        if getattr(args, flag) is not None:
            cfg[flag] = getattr(args, flag)
    report, status = fn(cfg)
    print(summary(report))
    if "out" not in flags or cfg.get("out") is None:
        json.dump(report, sys.stdout, indent=2, sort_keys=True, default=float)
        sys.stdout.write("\n")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="delta-squeeze",
        description="Concentrated interactions on curve networks and their "
        "squeezed-potential approximations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags, _) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        for flag in flags:
            p.add_argument("--" + flag.replace("_", "-"), **_FLAG_ARGS[flag])
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except Exception as err:  # noqa: BLE001 - report and signal failure
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
