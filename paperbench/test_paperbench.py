"""Tests of the full-paper-scenario benchmark, on a tiny scenario.

Run from the repository root::

    python -m pytest paperbench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402

from repro.sim import Scenario  # noqa: E402

TINY_DAYS = 10.0


def tiny_run(workload, trace, out_dir):
    return harness.run(
        workload,
        7,
        0,
        trace,
        root=ROOT,
        t_start=time.perf_counter(),
        scenario=Scenario.smoke(7, days=TINY_DAYS),
        out_dir=out_dir,
    )


def declared(section):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


def test_declared_metrics_match_the_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} <= set(harness.WORKLOADS)
    assert declared("end_to_end") == dict(harness.END_TO_END)
    assert declared("per_layer") == dict(harness.PER_LAYER)


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric(workload, trace, tmp_path):
    result = tiny_run(workload, trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= (2 * harness.MIN_OPS if trace else harness.MIN_OPS)
    expected = declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if trace:
        (report,) = (tmp_path / "traces").glob(f"{workload}-seed7-*.json")
        doc = json.loads(report.read_text())
        assert doc["warmup_op"]["spans"] and doc["steady_ops"]
        # The program's own sim sub-stages are copied in, from set-up or op.
        stages = doc["program_stages"]
        assert "sim.inject" in {
            **stages["setup"]["stages"], **stages["steady_ops"][0]["stages"]
        }
    else:
        assert result["metrics"]["ok_ops"]["value"] == 1.0
        assert result["metrics"]["observations_ok"]["value"] > 0
    # Stores are scratch: nothing but trace reports is left behind.
    assert [p.name for p in tmp_path.iterdir()] in ([], ["traces"])


def test_altered_digest_fails_every_op(monkeypatch, tmp_path):
    original = harness.PaperWarm.reference

    def altered(self, first):
        doc = json.loads(json.dumps(original(self, first)))
        doc["figures"]["fig13"]["sha256"] = "0" * 64
        return doc

    monkeypatch.setattr(harness.PaperWarm, "reference", altered)
    result = tiny_run("paper_warm", False, tmp_path)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= harness.MIN_OPS
    assert result["metrics"]["ok_ops"]["value"] == 0.0


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert harness.tail_percentile(2) == 50.0
    assert harness.tail_percentile(20) == 50.0
    assert harness.tail_percentile(100) == 90.0


def test_exits_without_result_when_program_source_is_absent(tmp_path):
    bench = tmp_path / "paperbench"
    bench.mkdir()
    for name in ("run.py", "harness.py"):
        shutil.copy(ROOT / "paperbench" / name, bench / name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "paperbench/run.py", "--workload", "paper_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
