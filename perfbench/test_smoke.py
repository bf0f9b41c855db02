"""Smoke test of the benchmark on the criterion-9 base config (h = 1/16).

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 11


def bench(trace, work_dir):
    """(record line, result object) of one run.py call on the smoke workload."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--work-dir", str(work_dir)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=170,
    )
    lines = proc.stdout.splitlines()
    record = json.loads(next(x for x in lines if x.startswith("record "))[len("record "):])
    return record, json.loads(lines[-1])


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """Both runs share a fresh ledger, so earlier runs in the checkout do not
    count and the traced run is checked against the untraced one."""
    work_dir = tmp_path_factory.mktemp("perfbench")
    return {trace: bench(trace, work_dir) for trace in (0, 1)}


def test_every_named_metric_printed_with_its_unit(results):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        _, result = results[trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[group]}
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_traced_run_writes_the_untraced_csv(results):
    hashes = {r["csv_sha256"] for trace in (0, 1) for r in results[trace][0]["runs"]}
    assert len(hashes) == 1


def test_layer_counts_match_the_report(results):
    from deltasqueeze import lab

    cfg = workloads.WORKLOADS["smoke"].config_for(SEED)
    report, _ = lab.run_convergence(cfg)
    layers = {k: v["value"] for k, v in results[1][1]["metrics"].items()}
    assert layers["spectral.power.iterations"] == sum(report["solver"]["power_iterations"])
    assert layers["spectral.lowest_eigs.calls"] == 1 + len(cfg["eps_grid"])
    assert layers["trace.coverage"] >= 0.95


def test_tampered_csv_is_a_failed_run(tmp_path, monkeypatch):
    from deltasqueeze import lab

    write_report = lab.write_report

    def tampering(out_dir, *args):
        report = write_report(out_dir, *args)
        with open(Path(out_dir) / "data.csv", "a") as fh:
            fh.write("0\n")
        return report

    monkeypatch.setattr(lab, "write_report", tampering)
    record = child.run("smoke", SEED, False, str(tmp_path))
    assert any("hashes to" in e for e in record["errors"])
    record["cpu_s"] = record["setup_s"] = record["peak_rss_mb"] = 1.0
    result = run.summarize([], [record], trace=0)
    assert result["failed"] == 1 and result["attempted"] == 1 and not result["correct"]


def test_ledger_compares_runs_of_the_same_code_only(tmp_path):
    ledger = tmp_path / "csv_sha256.json"

    def record(sha):
        return {"workload": "smoke", "seed": SEED, "versions": {}, "csv_sha256": sha,
                "errors": []}

    first, changed_code, same_code = record("a"), record("b"), record("b")
    run.check_ledger(first, ledger, "code-1")
    run.check_ledger(changed_code, ledger, "code-2")
    run.check_ledger(same_code, ledger, "code-1")
    assert not first["errors"] and not changed_code["errors"]
    assert any("differs" in e for e in same_code["errors"])


def test_low_trace_coverage_is_a_failed_run():
    low = {"layers": {"trace.coverage": 0.9}, "errors": []}
    high = {"layers": {"trace.coverage": 0.99}, "errors": []}
    run.check_coverage(low)
    run.check_coverage(high)
    assert low["errors"] and not high["errors"]


# lowest_eigs on a 1D Laplacian pencil whose first factorization raises, as a
# singular shift would: the retry happens before any eigsh call
RETRY_SCRIPT = """
import json
import numpy as np
import scipy.sparse as sp
from deltasqueeze import lab, spectral
from tracer import Tracer, install

tracer = Tracer()
install(tracer, lab)
traced_splu, raised = spectral.spla.splu, []

def flaky_splu(*args, **kwargs):
    if not raised:
        raised.append(True)
        raise RuntimeError("Factor is exactly singular")
    return traced_splu(*args, **kwargs)

spectral.spla.splu = flaky_splu
n = 200
S = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]) * (n + 1) ** 2
spectral.lowest_eigs(S, sp.identity(n), k=1, shift=-1.0, upper_estimate=10.0)
print(json.dumps(tracer.metrics()))
"""


def test_shift_retry_after_a_failed_factorization_is_counted():
    proc = subprocess.run([sys.executable, "-c", RETRY_SCRIPT], cwd=HERE, env=run.child_env(),
                          stdout=subprocess.PIPE, text=True, check=True, timeout=170)
    layers = json.loads(proc.stdout.splitlines()[-1])
    assert layers["spectral.shift_retries"] == 1
    assert layers["spectral.eigsh.calls"] == 1
    assert layers["spectral.lowest_eigs.calls"] == 1
