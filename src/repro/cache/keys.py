"""Content-addressed cache keys for simulation artifacts.

A cached artifact is valid only if it is still a *pure function* of the
inputs that produced it.  For this repository the inputs are exactly:

* the **scenario** — every calibration rate, workload knob and window
  bound (a frozen dataclass tree, canonically serialized here);
* the **seed** — the RngTree root;
* the **pipeline epoch** — a manually-bumped integer identifying the
  *code generation* of the simulate → render → parse pipeline.  Any
  change that alters emitted events, console formatting, SEC parsing or
  figure statistics must bump :data:`PIPELINE_EPOCH`; the old cache
  generation then simply never hits again (invalidation by key, not by
  deletion).

Keys must be stable across processes and Python versions, so the
canonical form avoids ``repr`` (float repr is stable but field order
and nested containers are fragile) and the builtin ``hash`` (salted).
Floats are encoded with :meth:`float.hex` — bit-exact, locale-free —
and the whole tree is serialized to sorted-key JSON before SHA-256.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any

import numpy as np

__all__ = [
    "PIPELINE_EPOCH",
    "PIPELINE_SURFACE",
    "canonical_encode",
    "canonical_json",
    "scenario_fingerprint",
    "dataset_key",
    "artifact_key",
    "sweep_point_key",
]

#: Code generation of the simulate → render → parse → analyze pipeline.
#: Bump on any change that can move a cached number; see
#: docs/PERFORMANCE.md ("Invalidation rules") for the contract.
PIPELINE_EPOCH: int = 1

#: Digest of the public API surface (function/class signatures) of the
#: deterministic pipeline modules (sim, faults, workload, telemetry,
#: chaos, cache).  ``repro lint`` rule RL103 recomputes this and fails
#: when the surface drifts without this constant — and, by policy,
#: :data:`PIPELINE_EPOCH` — being revisited.  Regenerate with::
#:
#:     python -c "from repro.lint import lint_paths  # registers rules
#:     from repro.lint.context import build_context
#:     from repro.lint.engine import iter_python_files
#:     from repro.lint.project import build_project
#:     from repro.lint.flow import surface_digest
#:     ctxs = [build_context(p) for p in iter_python_files(['src'])]
#:     print(surface_digest(build_project(ctxs)))"
PIPELINE_SURFACE: str = "a9350fdd613efa71"


def canonical_encode(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-able tree with a unique canonical form.

    Handles the types that appear in :class:`~repro.sim.scenario.Scenario`
    trees (dataclasses, dicts, tuples, floats, enums) plus numpy arrays
    and scalars for robustness.  Floats are encoded via ``float.hex`` so
    equality of the encoding is bit-equality of the value.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return ["f", float(obj).hex()]
    if isinstance(obj, enum.Enum):
        return ["enum", type(obj).__name__, obj.name]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = [
            [f.name, canonical_encode(getattr(obj, f.name))]
            for f in dataclasses.fields(obj)
        ]
        return ["dc", type(obj).__name__, fields]
    if isinstance(obj, dict):
        items = [
            [canonical_encode(k), canonical_encode(v)] for k, v in obj.items()
        ]
        items.sort(key=lambda kv: json.dumps(kv[0], sort_keys=True))
        return ["dict", items]
    if isinstance(obj, (list, tuple)):
        return ["seq", [canonical_encode(v) for v in obj]]
    if isinstance(obj, np.ndarray):
        return [
            "nd",
            str(obj.dtype),
            list(obj.shape),
            [canonical_encode(v) for v in obj.ravel().tolist()],
        ]
    if isinstance(obj, np.generic):  # numpy scalar
        return canonical_encode(obj.item())
    raise TypeError(
        f"cannot canonically encode {type(obj).__name__!r} for cache keying"
    )


def canonical_json(obj: Any) -> str:
    """Canonical JSON string of :func:`canonical_encode`."""
    return json.dumps(
        canonical_encode(obj),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
    )


def _sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def scenario_fingerprint(scenario: Any) -> str:
    """Content hash of a scenario's *configuration*, excluding the seed.

    Two scenarios with identical calibration/workload/window but
    different seeds share a fingerprint; :func:`dataset_key` folds the
    seed back in.  Keeping the axes separate lets replica sweeps group
    artifacts by configuration.
    """
    fields = [
        [f.name, canonical_encode(getattr(scenario, f.name))]
        for f in dataclasses.fields(scenario)
        if f.name != "seed"
    ]
    payload = json.dumps(
        ["scenario", type(scenario).__name__, fields],
        sort_keys=True,
        separators=(",", ":"),
    )
    return _sha256_hex(payload)


def dataset_key(scenario: Any, *, epoch: int = PIPELINE_EPOCH) -> str:
    """The content address of one simulated dataset.

    ``fingerprint ⊕ seed ⊕ epoch`` — any change to the scenario
    configuration, the root seed, or the pipeline code generation
    produces a fresh key and therefore a transparent cold rebuild.
    """
    doc = json.dumps(
        {
            "epoch": int(epoch),
            "fingerprint": scenario_fingerprint(scenario),
            "seed": int(scenario.seed),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return _sha256_hex(doc)[:32]


def artifact_key(dataset_key_: str, layer: str) -> str:
    """Store key of one artifact layer inside a dataset's namespace."""
    return f"{dataset_key_}/{layer}"


def sweep_point_key(
    scenario: Any,
    *,
    corruption: float = 0.0,
    ground_truth: bool = False,
    epoch: int = PIPELINE_EPOCH,
) -> str:
    """The content address of one sweep point's summary artifact.

    A sweep point is a scenario plus the *post-simulation* knobs that
    shape its summary without entering the scenario fingerprint: the
    observable-stream ``corruption`` level applied to the rendered
    console log, and whether the summary was computed with simulator
    ``ground_truth`` (the availability section exists only then).  Both
    are folded into the key so summaries produced under different knobs
    can never shadow each other; the scenario axes themselves arrive
    through :func:`dataset_key`.
    """
    doc = json.dumps(
        {
            "corruption": float(corruption).hex(),
            "dataset": dataset_key(scenario, epoch=epoch),
            "ground_truth": bool(ground_truth),
            "kind": "sweep-point",
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return _sha256_hex(doc)[:32]
