"""One benchmark run in a fresh process.

    python3 perfbench/child.py <workload> <seed> <mode> <work dir>

Imports `deltasqueeze`, prints `READY <time.monotonic()>` once it could call
the runner (the generator process times set-up from that line), and stops
there in mode `setup`.  In mode `plain` or `traced` it calls the workload's
`lab` runner with `out` set to a fresh directory under the work dir, checks
the report and the files written, and prints one JSON result line.  The
traced mode also writes the spans to `<work dir>/spans-<workload>-<seed>.json`.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile
import time
import traceback

import numpy
import scipy
from deltasqueeze import lab

import workloads


def check_files(out_dir, report):
    """The CSV hash recomputed from data.csv must match the report's, both as
    returned and as written to report.json."""
    with open(os.path.join(out_dir, "data.csv"), "rb") as fh:
        sha = hashlib.sha256(fh.read()).hexdigest()
    with open(os.path.join(out_dir, "report.json")) as fh:
        written = json.load(fh)["csv_sha256"]
    errors = []
    if not sha == report["csv_sha256"] == written:
        errors.append(f"data.csv hashes to {sha}; report has {report['csv_sha256']}, "
                      f"report.json has {written}")
    return sha, errors


def versions():
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run(name, seed, traced, work_dir):
    """Call the workload's runner once; returns the result record."""
    wl = workloads.WORKLOADS[name]
    cfg = wl.config_for(seed)
    runner = getattr(lab, wl.runner)
    tracer = None
    if traced:
        from tracer import Tracer, install

        tracer = Tracer()
        runner = install(tracer, lab)(runner)
    out = tempfile.mkdtemp(prefix=f"{name}-", dir=work_dir)
    record = {"workload": name, "seed": seed, "traced": traced}
    t0 = time.perf_counter()
    try:
        report, status = runner({**cfg, "out": out})
        record["wall_s"] = time.perf_counter() - t0
        sha, errors = check_files(out, report)
        errors += wl.check(report, status)
        record.update(
            csv_sha256=sha,
            report_bytes=sum(e.stat().st_size for e in os.scandir(out)),
            errors=errors,
        )
    except Exception:  # a raising run is a failed run, not a crashed benchmark
        record.setdefault("wall_s", time.perf_counter() - t0)
        record["errors"] = [traceback.format_exc(limit=4)]
    finally:
        shutil.rmtree(out, ignore_errors=True)
    record["versions"] = versions()
    if tracer is not None:
        record["layers"] = tracer.metrics()
        with open(os.path.join(work_dir, f"spans-{name}-{seed}.json"), "w") as fh:
            json.dump(tracer.spans(), fh)
    return record


def main(argv):
    name, seed, mode, work_dir = argv[1], int(argv[2]), argv[3], argv[4]
    print(f"READY {time.monotonic()!r}", flush=True)
    if mode == "setup":
        return 0
    record = run(name, seed, mode == "traced", work_dir)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
