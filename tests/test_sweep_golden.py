"""The sweep engine's Titan-scale anchor against the golden trace.

The all-baseline point of a ``base="paper"`` sweep *is* the paper
scenario — same content address, same figures, same scorecard — so the
sweep engine must reproduce ``tests/golden/paper.json`` exactly:
figure digests, headline statistics and observation verdicts, cold,
on a warm resume, and across a kill -9 at a journal barrier.

The session ``paper_dataset`` fixture is persisted into this module's
store first, so the engine warm-loads the 21-month telemetry instead
of re-simulating it; only the figure pipeline runs cold here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cache import ArtifactStore, persist_dataset
from repro.sweep import SweepSpec, expand, load_sweep_table, run_sweep
from repro.sweep.engine import point_summary_doc

_SRC = Path(__file__).resolve().parents[1] / "src"
_GOLDEN = Path(__file__).resolve().parent / "golden" / "paper.json"


def _spec(name):
    return SweepSpec(name=name, base="paper")


@pytest.fixture(scope="module")
def golden():
    return json.loads(_GOLDEN.read_text())


@pytest.fixture(scope="module")
def store(tmp_path_factory, paper_dataset):
    """A store pre-seeded with the session's paper telemetry."""
    store = ArtifactStore(tmp_path_factory.mktemp("sweep-golden-store"))
    persist_dataset(store, paper_dataset)
    return store


class TestTitanAnchor:
    def test_anchor_point_reproduces_the_golden_document(
        self, store, golden
    ):
        (anchor,) = expand(_spec("golden"))
        assert anchor.is_anchor
        doc = point_summary_doc(anchor, store)
        assert doc["point"]["scenario"] == golden["scenario"]
        assert doc["figures"] == {
            name: fig["sha256"] for name, fig in golden["figures"].items()
        }
        assert doc["scorecard"] == golden["scorecard"]
        assert doc["headline"] == golden["headline"]

    def test_cold_run_then_warm_resume_byte_identical(self, store, golden):
        spec = _spec("golden")
        cold = run_sweep(spec, store)
        assert cold.n_computed == 1
        row = cold.document["rows"][0]
        assert row["is_anchor"]
        assert row["dbe_mtbf_hours"] == golden["headline"]["dbe_mtbf_hours"]
        assert row["n_nodes"] == 18_688

        warm = run_sweep(spec, store, resume=True)
        assert warm.n_verified == 1 and warm.n_computed == 0
        assert warm.document_sha256 == cold.document_sha256

    def test_kill_resume_matches_a_clean_run(self, store, tmp_path):
        spec = _spec("golden-chaos")
        specfile = tmp_path / "spec.json"
        specfile.write_text(json.dumps(spec.to_doc()))
        env = dict(os.environ)
        env["PYTHONPATH"] = str(_SRC) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        env.pop("REPRO_CACHE_DIR", None)
        argv = [
            sys.executable, "-m", "repro", "sweep", "run",
            "--spec", str(specfile),
            "--cache-dir", str(store.root), "--quiet",
        ]
        killed = subprocess.run(
            argv,
            env={**env, "REPRO_PROCFAULT": "kill:2"},
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert killed.returncode == -9, killed.stderr
        resumed = subprocess.run(
            argv + ["--resume"],
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
            check=True,
        )
        assert "table sha256" in resumed.stdout
        _table, after_kill = load_sweep_table(spec, store)

        # a clean run of the same sweep must land on the same bytes
        report = run_sweep(spec, store, resume=True)
        _table, clean = load_sweep_table(spec, store)
        assert clean == after_kill
        assert report.document_sha256 == _sha(after_kill)


def _sha(payload: bytes) -> str:
    import hashlib

    return hashlib.sha256(payload).hexdigest()
