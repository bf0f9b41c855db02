"""Benchmark of the deltasqueeze scenario runners.

    python3 perfbench/run.py --workload NAME [--seed 7] [--seconds 12] [--trace 0|1]
                             [--work-dir DIR]

This process generates the runs: each run is a fresh interpreter
(`child.py`) that imports `deltasqueeze` and calls the `lab` runner that the
matching `delta-squeeze` subcommand calls, with `out` set to a fresh
directory, then checks the outputs.  Runs repeat, one after another, until
`--seconds` have passed (at least one).  Children get `src/` on their path
and one OpenBLAS/OpenMP thread each.

`--trace 0` reports the end-to-end metrics: the runner's wall time, the
set-up time from spawn until the child is ready to call the runner (median
over `SETUP_PROBES` extra set-up-only processes and the runs), and the peak
resident memory read from each child's rusage; medians over the runs.
`--trace 1` runs the children with the span tracer (`tracer.py`) and
reports the per-layer metrics.  A run fails when it raises, returns a status
other than 0, fails its workload check, writes a `data.csv` whose hash
differs from an earlier run of the same workload and seed on the same code,
or, traced, leaves more than 5 % of the runner's wall time outside the
traced spans.  The work dir (`--work-dir`, default `.perfbench/` in the
checkout) holds the runs' output directories and the hash ledger.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_PROBES = 5
MIN_COVERAGE = 0.95  # ROADMAP item-1 gate on trace.coverage
CHILD_TIMEOUT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SECONDS, COUNT, RATIO = "s", "count", "ratio"
LAYER_UNITS = {
    "spectral.factor.count": COUNT,
    "spectral.factor_s": SECONDS,
    "spectral.lu_nnz": COUNT,
    "spectral.factors_per_pencil": RATIO,
    "spectral.solve.count": COUNT,
    "spectral.solve_s": SECONDS,
    "spectral.solves_per_eigsolve": RATIO,
    "spectral.power.iterations": COUNT,
    "spectral.resolvent_diff_norm_self_s": SECONDS,
    "spectral.lowest_eigs.calls": COUNT,
    "spectral.eigsh.calls": COUNT,
    "spectral.shift_retries": COUNT,
    "spectral.lowest_eigs_self_s": SECONDS,
    "geometry.sampled_distance.points": COUNT,
    "geometry.sampled_distance_s": SECONDS,
    "geometry.project.points": COUNT,
    "geometry.project_s": SECONDS,
    "geometry.network_init.calls": COUNT,
    "geometry.network_init_s": SECONDS,
    "potentials.squeezed_eval.points": COUNT,
    "potentials.squeezed_eval_self_s": SECONDS,
    "fem.build_mesh.calls": COUNT,
    "fem.build_mesh_s": SECONDS,
    "fem.build_form.calls": COUNT,
    "fem.build_form_self_s": SECONDS,
    "fem.stiffness_s": SECONDS,
    "fem.mass_s": SECONDS,
    "fem.volume_potential_self_s": SECONDS,
    "fem.delta_term_s": SECONDS,
    "fem.restrict_s": SECONDS,
    "fem.form_nnz": COUNT,
    "oracles.calls": COUNT,
    "oracles.cusp_operator_eigs_s": SECONDS,
    "lab.runner_self_s": SECONDS,
    "lab.trial_upper_bound.calls": COUNT,
    "lab.trial_upper_bound_self_s": SECONDS,
    "lab.write_report_s": SECONDS,
    "lab.report_bytes": "bytes",
    "process.cpu_s": SECONDS,
    "trace.coverage": RATIO,
    "trace.overhead": RATIO,
}


class SetupError(RuntimeError):
    """A child could not get ready to call the runner."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(name, seed, mode, work):
    """Run child.py in `mode` and wait for it; returns its record with the
    set-up time and the child's own rusage."""
    cmd = [sys.executable, str(HERE / "child.py"), name, str(seed), mode, str(work)]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        lines = proc.stdout.read().splitlines()
    finally:
        timer.cancel()
        proc.stdout.close()
        # wait4, not Popen.wait: it returns the rusage of this child alone
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    ready = [float(line.split()[1]) for line in lines if line.startswith("READY ")]
    if not ready:
        raise SetupError(f"{mode} process for {name!r} exited with code "
                         f"{proc.returncode} before it was ready")
    record = {}
    if mode != "setup":
        ok = proc.returncode == 0 and lines[-1].startswith("{")
        record = json.loads(lines[-1]) if ok else {
            "errors": [f"exited with code {proc.returncode}"]}
    record.update(setup_s=ready[0] - t_spawn, peak_rss_mb=usage.ru_maxrss / 1024.0,
                  cpu_s=usage.ru_utime + usage.ru_stime)
    return record


def code_digest():
    """SHA-256 of the package sources and the workload configs: the code whose
    CSV output the ledger compares."""
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("deltasqueeze/**/*.py")) + [HERE / "workloads.py"]:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def check_ledger(record, ledger_path, code):
    """Every run of a workload and seed on the same code and library versions
    writes the same CSV."""
    if record["errors"]:
        return
    versions = json.dumps(record.get("versions"), sort_keys=True)
    key = "/".join([record["workload"], str(record["seed"]), code,
                    hashlib.sha256(versions.encode()).hexdigest()[:16]])
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    first = ledger.setdefault(key, record["csv_sha256"])
    if first != record["csv_sha256"]:
        record["errors"].append(f"csv_sha256 {record['csv_sha256']} differs from "
                                f"{first} of an earlier run")
        return
    tmp = ledger_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, ledger_path)


def check_coverage(record):
    """A traced run must spend at least MIN_COVERAGE of its wall time in
    traced spans, or the per-layer times miss work."""
    coverage = record.get("layers", {}).get("trace.coverage")
    if coverage is not None and coverage < MIN_COVERAGE:
        record["errors"].append(f"trace.coverage {coverage:.4f} below {MIN_COVERAGE}")


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env={**os.environ, "GIT_DIR": str(ROOT / ".git")})
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def measure(name, seed, seconds, trace, work):
    """Set-up probes (untraced runs only), then runs until `seconds` passed."""
    probes = [] if trace else [spawn(name, seed, "setup", work)
                               for _ in range(SETUP_PROBES)]
    ledger, code = work / "csv_sha256.json", code_digest()
    runs = []
    t0 = time.monotonic()
    while not runs or time.monotonic() - t0 < seconds:
        run = spawn(name, seed, "traced" if trace else "plain", work)
        check_ledger(run, ledger, code)
        if trace:
            check_coverage(run)
        runs.append(run)
    return probes, runs


def summarize(probes, runs, trace):
    """The result object: failed runs against attempted runs, and medians."""
    def med(values):
        values = list(values)
        return statistics.median(values) if values else 0.0  # 0: every run crashed

    if trace:
        layers = [
            {**r["layers"], "lab.report_bytes": r.get("report_bytes", 0),
             "process.cpu_s": r["cpu_s"]}
            for r in runs if "layers" in r
        ]
        metrics = {k: med(x[k] for x in layers) for k in LAYER_UNITS}
        units = LAYER_UNITS
    else:
        metrics = {
            "wall_s": med(r["wall_s"] for r in runs if "wall_s" in r),
            "setup_s": med(r["setup_s"] for r in probes + runs),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in runs),
        }
        units = END_TO_END_UNITS
    failed = sum(1 for r in runs if r["errors"])
    return {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, default=WORK,
                        help="run outputs and the CSV hash ledger (default: %(default)s)")
    args = parser.parse_args(argv)
    if not (SRC / "deltasqueeze" / "__init__.py").is_file():
        print(f"no deltasqueeze sources under {SRC}", file=sys.stderr)
        return 2
    work = args.work_dir.resolve()
    work.mkdir(parents=True, exist_ok=True)
    try:
        probes, runs = measure(args.workload, args.seed, args.seconds, args.trace, work)
    except SetupError as err:
        print(f"benchmark could not start: {err}", file=sys.stderr)
        return 1
    for r in runs:
        for err in r["errors"]:
            print(f"FAILED {args.workload} seed {args.seed}: {err}", file=sys.stderr)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        **runs[0].get("versions", {}),
        "runs": [{k: r.get(k) for k in ("wall_s", "setup_s", "peak_rss_mb", "cpu_s",
                                        "csv_sha256")} for r in runs],
        "setup_probes_s": [p["setup_s"] for p in probes],
    }
    print("record " + json.dumps(env))
    print(json.dumps(summarize(probes, runs, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
