"""Golden-trace regression suite: the pipeline's bit-for-bit contract.

The canonical scenario (``Scenario.paper()``, seed 20131001) is run
through every figure, the Observation scorecard and the headline
statistics, and the resulting :func:`~repro.core.golden.golden_document`
is compared against the committed ``tests/golden/paper.json``:

* **cold** — a store-less :class:`TitanStudy` straight off the session
  dataset;
* **store-backed** — ``figs_all()`` on a study attached to a freshly
  persisted artifact store, writing every figure result into it;
* **warm** — a fresh study whose dataset *and* figure results all come
  back from the artifact store populated by the store-backed run.

All three must agree with the golden file on every figure digest
(SHA-256 of the canonical ``float.hex`` encoding — bit-equality of
every array element), every scorecard verdict, and every headline
statistic.

After an *intentional* pipeline change, regenerate with::

    PYTHONPATH=src python -m pytest tests/test_golden.py --regen-golden

and bump ``repro.cache.keys.PIPELINE_EPOCH`` in the same commit (see
tests/golden/README.md).
"""

import json
from pathlib import Path

import pytest

from repro.cache import ArtifactStore, persist_dataset, load_dataset
from repro.core.golden import (
    GOLDEN_VERSION,
    golden_diff,
    golden_document,
)
from repro.core.study import FIGURES, TitanStudy

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_FILE = GOLDEN_DIR / "paper.json"

#: Scorecard entries covering the paper's Observations 1-14 (adjacent
#: observations sharing a single measurable claim are merged in
#: repro.core.observations.observation_scorecard).
N_OBSERVATION_CHECKS = 12


@pytest.fixture(scope="module")
def golden_store(tmp_path_factory):
    return ArtifactStore(tmp_path_factory.mktemp("golden-store"))


@pytest.fixture(scope="module")
def cold_document(paper_dataset):
    """Store-less serial run: the reference the others must match."""
    return golden_document(TitanStudy(paper_dataset))


@pytest.fixture(scope="module")
def stored_document(paper_dataset, golden_store):
    """``figs_all()`` over a freshly persisted store.

    This populates the figure artifacts the warm run reads back.
    """
    persist_dataset(golden_store, paper_dataset)
    study = TitanStudy(paper_dataset, store=golden_store)
    figs = study.figs_all()
    assert set(figs) == set(FIGURES)
    return golden_document(study)


@pytest.fixture(scope="module")
def warm_document(stored_document, paper_dataset, golden_store):
    """Everything — dataset layers and figures — read from the store."""
    cached = load_dataset(golden_store, paper_dataset.scenario)
    assert cached is not None, "store-backed run should have persisted layers"
    assert cached.provenance == "cache"
    study = TitanStudy(cached, store=golden_store)
    doc = golden_document(study)
    # The figures genuinely came from the artifact store, not compute.
    assert golden_store.stats.hits >= len(FIGURES)
    return doc


class TestGoldenFile:
    def test_golden_file_exists(self):
        assert GOLDEN_FILE.exists(), (
            "tests/golden/paper.json missing; generate it with "
            "`pytest tests/test_golden.py --regen-golden`"
        )

    def test_schema(self):
        doc = json.loads(GOLDEN_FILE.read_text())
        assert doc["version"] == GOLDEN_VERSION
        assert set(doc["figures"]) == set(FIGURES)
        assert len(doc["scorecard"]) == N_OBSERVATION_CHECKS
        assert doc["scenario"]["seed"] == 20131001
        for entry in doc["figures"].values():
            assert len(entry["sha256"]) == 64

    def test_scorecard_all_pass_in_golden(self):
        """The committed contract: the paper scenario reproduces all 14."""
        doc = json.loads(GOLDEN_FILE.read_text())
        failing = [c["name"] for c in doc["scorecard"] if not c["ok"]]
        assert failing == [], f"golden scorecard has failures: {failing}"


class TestAgainstGolden:
    def test_cold_matches_golden(self, cold_document, regen_golden):
        if regen_golden:
            GOLDEN_DIR.mkdir(exist_ok=True)
            GOLDEN_FILE.write_text(
                json.dumps(cold_document, indent=2, sort_keys=True) + "\n"
            )
            pytest.skip("regenerated tests/golden/paper.json")
        expected = json.loads(GOLDEN_FILE.read_text())
        problems = golden_diff(expected, cold_document)
        assert not problems, (
            "pipeline drifted from tests/golden/paper.json:\n"
            + "\n".join(problems)
            + "\n(if intentional: --regen-golden and bump PIPELINE_EPOCH)"
        )

    def test_stored_matches_cold(self, cold_document, stored_document):
        assert golden_diff(cold_document, stored_document) == []

    def test_warm_matches_cold(self, cold_document, warm_document):
        assert golden_diff(cold_document, warm_document) == []

    def test_documents_byte_identical(
        self, cold_document, stored_document, warm_document
    ):
        """Stronger than golden_diff: the serialized JSON is identical."""
        cold = json.dumps(cold_document, sort_keys=True)
        assert json.dumps(stored_document, sort_keys=True) == cold
        assert json.dumps(warm_document, sort_keys=True) == cold


class TestGoldenDiffReporting:
    """golden_diff must *explain* drift, not just detect it."""

    def test_digest_drift_reported_with_summary(self, cold_document):
        doctored = json.loads(json.dumps(cold_document))
        entry = doctored["figures"]["fig2"]
        entry["sha256"] = "0" * 64
        for key in entry["summary"]:
            if isinstance(entry["summary"][key], float):
                entry["summary"][key] += 1.0
                break
        problems = golden_diff(cold_document, doctored)
        assert any("fig2" in p and "digest drift" in p for p in problems)

    def test_scorecard_flip_reported(self, cold_document):
        doctored = json.loads(json.dumps(cold_document))
        doctored["scorecard"][0]["ok"] = not doctored["scorecard"][0]["ok"]
        problems = golden_diff(cold_document, doctored)
        assert any("scorecard" in p for p in problems)

    def test_headline_drift_reported(self, cold_document):
        doctored = json.loads(json.dumps(cold_document))
        key = next(iter(doctored["headline"]))
        doctored["headline"][key] = -1.0
        problems = golden_diff(cold_document, doctored)
        assert any("headline" in p and key in p for p in problems)

    def test_missing_figure_reported(self, cold_document):
        doctored = json.loads(json.dumps(cold_document))
        doctored["figures"].pop("fig21")
        problems = golden_diff(cold_document, doctored)
        assert any("fig21" in p and "missing" in p for p in problems)

    def test_identical_documents_clean(self, cold_document):
        assert golden_diff(cold_document, cold_document) == []
