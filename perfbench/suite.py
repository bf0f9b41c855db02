"""Run every scenario workload once through run.py and print one table.

    python3 perfbench/suite.py [--seed 7] [--seconds 12] [--trace 0|1]

Each row gives the workload's metrics with their units and its failed
against attempted runs.  Exits with code 1 when any run failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SCENARIOS = [name for name in WORKLOADS if name != "smoke"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    all_ok = True
    for name in SCENARIOS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        all_ok = all_ok and result["correct"]
        cells = [f"{k}={v['value']:{'d' if isinstance(v['value'], int) else '.6g'}} "
                 f"{v['unit']}" for k, v in result["metrics"].items()]
        print(f"{name:16s} failed/attempted={result['failed']}/{result['attempted']}  "
              + "  ".join(cells), flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
