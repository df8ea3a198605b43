"""Golden-trace documents: the regression contract of the pipeline.

A golden document condenses one :class:`~repro.core.study.TitanStudy`
into exactly the numbers the repository promises not to change without
noticing:

* a **per-figure digest** — SHA-256 of the figure result's canonical
  encoding (:func:`repro.cache.keys.canonical_json`: ``float.hex`` for
  floats, sorted keys, stable dataclass field order), so "bit-for-bit
  identical" is a literal statement about every array element — plus a
  small human-readable scalar summary for diagnosing drift;
* the **Observation 1–14 scorecard** verdicts;
* the **headline statistics**
  (:func:`repro.core.observations.headline_statistics`) — the same
  single definition the sweep's replica bands are computed from.

``tests/test_golden.py`` asserts the canonical scenario's document
matches the committed ``tests/golden/*.json`` files for cold,
store-backed ``figs_all()`` and warm (artifact-cache) runs; regenerate
after an *intentional* pipeline change with ``pytest
tests/test_golden.py --regen-golden`` and bump
:data:`repro.cache.keys.PIPELINE_EPOCH` in the same commit (see
docs/PERFORMANCE.md, "Invalidation rules").
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.cache.keys import canonical_json, scenario_fingerprint
from repro.core.observations import headline_statistics, observation_scorecard
from repro.core.study import FIGURES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.study import TitanStudy

__all__ = [
    "GOLDEN_VERSION",
    "figure_digest",
    "figure_summary",
    "golden_document",
    "golden_diff",
]

#: Schema version of the golden document (bump on layout changes).
GOLDEN_VERSION = 1


def figure_digest(result: Any) -> str:
    """SHA-256 of the figure result's canonical encoding.

    Equality of digests is bit-equality of every number the figure
    carries, including full cabinet grids and heatmap matrices.
    """
    return hashlib.sha256(canonical_json(result).encode("ascii")).hexdigest()


def _scalars(obj: Any, prefix: str, out: dict[str, Any]) -> None:
    if isinstance(obj, (bool, int, str)) or obj is None:
        out[prefix] = obj
    elif isinstance(obj, float):
        out[prefix] = obj
    elif isinstance(obj, np.generic):
        out[prefix] = obj.item()
    elif isinstance(obj, np.ndarray):
        out[f"{prefix}.sum"] = float(obj.sum()) if obj.size else 0.0
        out[f"{prefix}.shape"] = "x".join(str(s) for s in obj.shape)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for field in dataclasses.fields(obj):
            _scalars(getattr(obj, field.name), f"{prefix}.{field.name}", out)
    elif isinstance(obj, dict):
        for key in sorted(obj, key=str):
            _scalars(obj[key], f"{prefix}.{key}", out)
    # tuples/lists/enums etc. are covered by the digest; the summary
    # only exists so a human can see *roughly* what moved.


def figure_summary(result: Any) -> dict[str, Any]:
    """Flat scalar summary of one figure result (drift diagnostics)."""
    out: dict[str, Any] = {}
    _scalars(result, "", out)
    return {key.lstrip("."): value for key, value in sorted(out.items())}


def golden_document(study: "TitanStudy") -> dict[str, Any]:
    """The full golden-trace document of one study."""
    scenario = study.ds.scenario
    figures = {
        name: {
            "sha256": figure_digest(result),
            "summary": figure_summary(result),
        }
        for name, result in study.figs_all().items()
    }
    return {
        "version": GOLDEN_VERSION,
        "scenario": {
            "name": scenario.name,
            "seed": int(scenario.seed),
            "fingerprint": scenario_fingerprint(scenario),
        },
        "figures": figures,
        "scorecard": [
            {"name": check.name, "ok": check.ok}
            for check in observation_scorecard(study)
        ],
        "headline": headline_statistics(study),
    }


def golden_diff(
    expected: dict[str, Any], actual: dict[str, Any]
) -> list[str]:
    """Human-readable mismatches between two golden documents.

    Empty list ⇔ the documents agree bit-for-bit on every figure
    digest, scorecard verdict and headline statistic.
    """
    problems: list[str] = []
    if expected.get("version") != actual.get("version"):
        problems.append(
            f"golden schema version {expected.get('version')} != "
            f"{actual.get('version')}"
        )
    if expected.get("scenario") != actual.get("scenario"):
        problems.append(
            f"scenario identity differs: {expected.get('scenario')} != "
            f"{actual.get('scenario')}"
        )
    exp_figs = expected.get("figures", {})
    act_figs = actual.get("figures", {})
    for name in FIGURES:
        exp = exp_figs.get(name)
        act = act_figs.get(name)
        if exp is None or act is None:
            problems.append(f"{name}: missing from "
                            f"{'expected' if exp is None else 'actual'}")
            continue
        if exp["sha256"] != act["sha256"]:
            drift = [
                f"    {key}: {exp['summary'].get(key)!r} -> "
                f"{act['summary'].get(key)!r}"
                for key in sorted(set(exp["summary"]) | set(act["summary"]))
                if exp["summary"].get(key) != act["summary"].get(key)
            ]
            problems.append(
                f"{name}: digest drift {exp['sha256'][:12]} -> "
                f"{act['sha256'][:12]}" + ("\n" + "\n".join(drift) if drift else "")
            )
    exp_card = {c["name"]: c["ok"] for c in expected.get("scorecard", [])}
    act_card = {c["name"]: c["ok"] for c in actual.get("scorecard", [])}
    for name in sorted(set(exp_card) | set(act_card)):
        if exp_card.get(name) != act_card.get(name):
            problems.append(
                f"scorecard {name!r}: {exp_card.get(name)} -> "
                f"{act_card.get(name)}"
            )
    exp_head = expected.get("headline", {})
    act_head = actual.get("headline", {})
    for name in sorted(set(exp_head) | set(act_head)):
        if exp_head.get(name) != act_head.get(name):
            problems.append(
                f"headline {name!r}: {exp_head.get(name)!r} -> "
                f"{act_head.get(name)!r}"
            )
    return problems
