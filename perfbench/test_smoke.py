"""Smoke tests of the benchmark harness: every workload at minimal size.

    python3 -m pytest -q perfbench/test_smoke.py

They check the output contract and the metric names, not performance.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

END_TO_END = {"wall_s", "unit_p50_ms", "unit_tail_ms", "setup_s",
              "peak_rss_mb", "passed_frac"}
# Per-layer metrics every traced run must report.
LAYERS = {
    "construction.moment_bilinear": ("self_s", "calls", "term_pairs"),
    "construction.gram_block": ("self_s", "calls"),
    "ttr.ttr_from_gram": ("self_s", "calls", "total_s"),
    "construction.expand_P": ("self_s", "calls", "distinct", "max_terms"),
    "construction.ladder": ("self_s", "calls"),
    "univariate.adjacent_down": ("self_s", "calls"),
    "univariate.adjacent_up": ("self_s", "calls"),
    "ttr.first_ttr": ("self_s", "calls"),
    "ttr.second_ttr": ("self_s", "calls"),
    "numerics.rank_exact": ("self_s", "calls"),
    "ttr.rank_conditions": ("self_s", "calls"),
    "numerics.poly_mul": ("self_s", "calls"),
    "verify.verify_relation.exact": ("self_s", "calls"),
    "verify.verify_relation.float": ("self_s", "calls"),
    "verify.verify_orthonormal_transpose": ("self_s", "calls"),
    "catalog.make_system": ("self_s", "calls"),
    "catalog.closed_form_ttr": ("self_s", "calls"),
    "catalog.cross_check": ("self_s", "calls"),
    "cli.main": ("self_s", "calls"),
    "cli.canonical_json": ("self_s", "calls"),
}
PER_LAYER = {f"{layer}.{what}" for layer, whats in LAYERS.items()
             for what in whats} | {
    "ttr.gram_entry.max_bits", "construction.w_moment.max_bits",
    "cli.import_s", "trace.wall_s", "trace.overhead_s", "trace.oracle_share"}


def run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
    return record, result


def test_spec_names_the_issue_metrics():
    assert {m["name"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"] for m in SPEC["per_layer"]} == PER_LAYER
    assert WORKLOADS == ["pinned-crosscheck", "sweep-crosscheck",
                         "structural-deep", "cli-cold"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    record, result = result_of(run(workload, 0))
    assert set(result["metrics"]) == END_TO_END
    assert all(result["metrics"][m]["value"] > 0 for m in END_TO_END)
    for key in ("backend", "python", "nproc", "cpu", "tail_percentile",
                "unit_samples", "unscaled", "reference_ms"):
        assert key in record


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    _, result = result_of(run(workload, 1))
    metrics = result["metrics"]
    assert set(metrics) == PER_LAYER
    oracle_calls = sum(metrics[f"{layer}.calls"]["value"] for layer in (
        "construction.moment_bilinear", "construction.gram_block",
        "ttr.ttr_from_gram"))
    if workload == "structural-deep":
        assert oracle_calls == 0
    elif workload != "cli-cold":
        assert oracle_calls > 0


def test_cli_known_defects_count_against_passed_frac():
    record, result = result_of(run("cli-cold", 0))
    assert len(record["known_defects"]) == 2
    assert result["metrics"]["passed_frac"]["value"] < 1


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path,
               script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_refuses_mixed_backends(tmp_path):
    record = {"workload": "cli-cold", "trace": 0, "smoke": False,
              "metrics": {}}
    base, new = tmp_path / "base.txt", tmp_path / "new.txt"
    base.write_text(json.dumps(
        {"record": dict(record, backend="gmpy2.mpq")}) + "\n")
    new.write_text(json.dumps(
        {"record": dict(record, backend="fractions.Fraction")}) + "\n")
    proc = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(base), str(new)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "different rational backends" in proc.stderr
