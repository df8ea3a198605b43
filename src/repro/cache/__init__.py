"""Content-addressed artifact cache and incremental study engine.

The dataset a Titan study analyzes is a pure function of
``(scenario, seed, pipeline epoch)``; the paper's own workflow was
*collect once, analyze many times*.  This package makes the repository
behave the same way:

* :mod:`keys` — canonical scenario fingerprints and content addresses
  (``fingerprint ⊕ seed ⊕ epoch``); bump :data:`~repro.cache.keys.PIPELINE_EPOCH`
  whenever pipeline code changes any emitted number;
* :mod:`serde` — self-describing payload codecs (text/json/npz/pickle);
* :mod:`store` — the on-disk :class:`ArtifactStore`: atomic writes,
  checksum-verified corruption-safe loads (damage degrades to a miss,
  never a wrong answer), LRU-style eviction;
* :mod:`pipeline` — dataset layer persistence and
  :func:`load_or_simulate`, the warm/cold front door every analysis
  entry point goes through;
* :mod:`cli` — ``python -m repro cache info|clear|evict``.

The golden-trace regression suite (``tests/test_golden.py``) pins the
contract: cold, store-backed and warm runs of the canonical scenario
must produce bit-identical statistics.
"""

from __future__ import annotations

from repro.cache.keys import (
    PIPELINE_EPOCH,
    artifact_key,
    canonical_encode,
    canonical_json,
    dataset_key,
    scenario_fingerprint,
    sweep_point_key,
)
from repro.cache.pipeline import (
    DATASET_LAYERS,
    GroundTruthUnavailable,
    load_dataset,
    load_or_simulate,
    persist_dataset,
)
from repro.cache.serde import SerdeError
from repro.cache.store import (
    ArtifactInfo,
    ArtifactStore,
    CorruptArtifact,
    StoreInfo,
    StoreStats,
)

__all__ = [
    "PIPELINE_EPOCH",
    "canonical_encode",
    "canonical_json",
    "scenario_fingerprint",
    "dataset_key",
    "artifact_key",
    "sweep_point_key",
    "ArtifactStore",
    "ArtifactInfo",
    "StoreInfo",
    "StoreStats",
    "CorruptArtifact",
    "SerdeError",
    "DATASET_LAYERS",
    "GroundTruthUnavailable",
    "persist_dataset",
    "load_dataset",
    "load_or_simulate",
]
