"""Streaming reduction of per-point summaries into a sensitivity table.

The engine feeds one summary document per completed grid point into a
:class:`SensitivityReducer` (in whatever order the shards finish); the
reducer keys everything by the point's grid index, so the assembled
table — and therefore its canonical JSON serialization and SHA-256 —
is independent of execution order, worker count, and resume history.
Each row carries the point's headline numbers, its scorecard flips
against the anchor and its parse damage (``corrupt_fraction``,
``resynced_lines``), so a sweep over the ``corruptions`` axis is the
telemetry degradation curve.

Each grid cell's replicas also reduce to ``bands``: ``[p05, median,
p95]`` of every headline statistic all of them report, and how many of
them pass each scorecard check.

Two derived views ride on the table:

* :func:`scaling_projection` — the MTBF-vs-node-count rows backing the
  paper-style scaling figure, with the analytic ``MTBF(anchor)/s``
  expectation next to each simulated value;
* :func:`render_sensitivity` / :func:`render_projection` /
  :func:`write_table_csv` — terminal and CSV renderers (this repo's
  figures are ASCII + CSV, not rasterized plots).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Optional

import numpy as np

from repro.sweep.spec import SweepSpec
from repro.topology.machine import N_COMPUTE_NODES
from repro.viz.ascii import render_bar, render_table
from repro.viz.csvout import write_rows_csv

__all__ = [
    "TABLE_VERSION",
    "SensitivityReducer",
    "scaling_projection",
    "render_sensitivity",
    "render_bands",
    "render_projection",
    "write_table_csv",
]

#: Schema version of the assembled sensitivity table.
TABLE_VERSION = 3

#: Band columns of ``render_bands``: statistic and number format.
_BAND_COLUMNS = (
    ("dbe_mtbf_hours", ".1f"), ("dbe_total", ".0f"), ("otb_total", ".0f"),
)

#: Headline statistics lifted verbatim into each table row.
_HEADLINE_FIELDS = (
    "dbe_mtbf_hours",
    "dbe_total",
    "otb_total",
    "retirements",
    "sbe_fraction",
)

#: Parse-damage fields lifted from each summary's ``telemetry`` section.
_TELEMETRY_FIELDS = ("corrupt_fraction", "resynced_lines")


class SensitivityReducer:
    """Accumulates per-point summary docs; emits the sensitivity table.

    Summary docs are grid-position-free (the same scenario point may
    sit at different indices in different sweeps, sharing one cached
    summary), so the caller names the index and the reducer takes the
    label/anchor-ness from its *own* expansion of the spec — verifying
    that the doc's content address matches the grid's expectation.

    ``add`` is idempotent per index (a resumed run may feed a point
    twice — verified then recomputed — and the later doc wins), and the
    final :meth:`table` is a pure function of the ``{index: doc}`` map.
    """

    def __init__(self, spec: SweepSpec) -> None:
        from repro.sweep.grid import expand

        spec.validate()
        self.spec = spec
        self.points = expand(spec)
        self._docs: dict[int, dict[str, Any]] = {}

    def add(self, index: int, doc: dict[str, Any]) -> None:
        index = int(index)
        if not 0 <= index < self.spec.n_points:
            raise ValueError(
                f"point index {index} outside grid of {self.spec.n_points}"
            )
        point = doc.get("point")
        if not isinstance(point, dict) or "key" not in point:
            raise ValueError("summary doc lacks a point.key")
        expected = self.points[index].key
        if point["key"] != expected:
            raise ValueError(
                f"summary doc at index {index} has key {point['key']}, "
                f"grid expects {expected}"
            )
        self._docs[index] = doc

    @property
    def missing(self) -> list[int]:
        return [
            i for i in range(self.spec.n_points) if i not in self._docs
        ]

    def table(self) -> dict[str, Any]:
        """The full sensitivity table; raises while points are missing."""
        missing = self.missing
        if missing:
            raise ValueError(
                f"sweep incomplete: missing point indices {missing}"
            )
        docs = [self._docs[i] for i in range(self.spec.n_points)]
        anchor_index = next(
            (p.index for p in self.points if p.is_anchor), None
        )
        anchor_scorecard = (
            {
                c["name"]: c["ok"]
                for c in docs[anchor_index].get("scorecard", [])
            }
            if anchor_index is not None
            else None
        )
        rows = [
            _row(point, doc, anchor_scorecard)
            for point, doc in zip(self.points, docs)
        ]
        cells: dict[tuple, list[int]] = {}
        for p in self.points:  # a cell is every axis but the replica
            cell = (p.scale, p.rates, p.window_days, p.burst, p.corruption)
            cells.setdefault(cell, []).append(p.index)
        return {
            "version": TABLE_VERSION,
            "sweep": {
                "name": self.spec.name,
                "key": self.spec.key(),
                "base": self.spec.base,
                "seed": int(self.spec.seed),
                "n_points": self.spec.n_points,
                "replicas": int(self.spec.replicas),
            },
            "anchor_index": anchor_index,
            "rows": rows,
            "bands": [
                _band(self.points[indices[0]].label, indices, docs)
                for indices in cells.values()
            ],
        }


def _spread(values: list[float]) -> list[float]:
    """``[p05, median, p95]`` of one statistic over a cell's replicas."""
    return [
        float(np.quantile(values, 0.05)),
        float(np.median(values)),
        float(np.quantile(values, 0.95)),
    ]


def _band(
    label: str, indices: list[int], docs: list[dict[str, Any]]
) -> dict[str, Any]:
    """One cell's spread over its replicas (the points at ``indices``)."""
    headlines = [docs[i].get("headline", {}) for i in indices]
    checks = [c for i in indices for c in docs[i].get("scorecard", [])]
    common = set(headlines[0]).intersection(*headlines[1:])
    return {
        "label": label,
        "indices": indices,
        "n_replicas": len(indices),
        "headline": {
            name: _spread([h[name] for h in headlines])
            for name in sorted(common)
        },
        "pass_counts": {
            name: sum(c["ok"] for c in checks if c["name"] == name)
            for name in sorted({c["name"] for c in checks})
        },
    }


def _row(
    point: Any,
    doc: dict[str, Any],
    anchor_scorecard: Optional[dict[str, bool]],
) -> dict[str, Any]:
    summary = doc["point"]
    headline = doc.get("headline", {})
    scorecard = doc.get("scorecard", [])
    flips: Optional[list[str]] = None
    if anchor_scorecard is not None:
        flips = sorted(
            c["name"]
            for c in scorecard
            if c["name"] in anchor_scorecard
            and c["ok"] != anchor_scorecard[c["name"]]
        )
    row: dict[str, Any] = {
        "index": int(point.index),
        "label": point.label,
        "replica": int(point.replica),
        "axes": summary["axes"],
        "n_nodes": int(summary["n_nodes"]),
        "is_anchor": bool(point.is_anchor),
        "key": summary["key"],
        "dataset_key": summary["dataset_key"],
        "n_pass": sum(1 for c in scorecard if c["ok"]),
        "n_checks": len(scorecard),
        "scorecard_flips": flips,
        "availability": doc.get("availability"),
    }
    for name in _HEADLINE_FIELDS:
        row[name] = headline.get(name)
    telemetry = doc["telemetry"]
    for name in _TELEMETRY_FIELDS:
        row[name] = telemetry[name]
    return row


def _is_scale_only(axes: dict[str, Any]) -> bool:
    """Only the machine-scale axis departs from baseline (or none do)."""
    rates = axes.get("rates", {})
    return (
        all(value == 1.0 for value in rates.values())
        and axes.get("window_days") is None
        and axes.get("burst") == 1.0
        and axes.get("corruption") == 0.0
    )


def scaling_projection(table: dict[str, Any]) -> dict[str, Any]:
    """MTBF vs node count, anchored at Titan scale.

    One row per grid cell where only the scale axis varies, carrying
    the cell's replica-band median DBE MTBF (with one replica, that
    replica's own value).  The analytic expectation next to each
    simulated MTBF is the paper's projection argument — fleet failure
    processes superpose, so a fleet ``s`` times larger fails ``s``
    times as often: ``MTBF(s) = MTBF(1)/s``, anchored on the scale-1
    cell's median.
    """
    cells = []
    for band in table["bands"]:
        first = table["rows"][band["indices"][0]]
        if _is_scale_only(first["axes"]):
            spread = band["headline"].get("dbe_mtbf_hours")
            median = None if spread is None else spread[1]
            cells.append((first, median))
    cells.sort(key=lambda cell: (cell[0]["n_nodes"], cell[0]["index"]))
    anchor_mtbf = next(
        (median for r, median in cells if r["axes"]["scale"] == 1.0), None
    )
    out = []
    for r, median in cells:
        scale = float(r["axes"]["scale"])
        expected = (
            anchor_mtbf / scale if anchor_mtbf is not None else None
        )
        out.append(
            {
                "scale": scale,
                "n_nodes": r["n_nodes"],
                "dbe_mtbf_hours": median,
                "expected_mtbf_hours": expected,
            }
        )
    return {
        "titan_nodes": N_COMPUTE_NODES,
        "anchor_mtbf_hours": anchor_mtbf,
        "rows": out,
    }


def _fmt(value: Any, spec: str = "g") -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return format(value, spec)
    return str(value)


def render_sensitivity(table: dict[str, Any]) -> str:
    """The sensitivity table as a fixed-width terminal table."""
    headers = [
        "idx", "label", "nodes", "mtbf_h", "dbe", "otb", "corrupt",
        "pass", "flips", "avail",
    ]
    rows = []
    for r in table["rows"]:
        avail = r.get("availability")
        flips = r.get("scorecard_flips")
        rows.append(
            [
                r["index"],
                r["label"],
                r["n_nodes"],
                _fmt(r.get("dbe_mtbf_hours"), ".2f"),
                _fmt(r.get("dbe_total"), ".0f"),
                _fmt(r.get("otb_total"), ".0f"),
                f"{r['corrupt_fraction']:.3%}",
                f"{r['n_pass']}/{r['n_checks']}",
                "-" if flips is None else (",".join(flips) or "none"),
                "-" if avail is None else f"{avail['availability']:.6f}",
            ]
        )
    title = (
        f"sensitivity table: sweep {table['sweep']['name']!r} "
        f"({table['sweep']['n_points']} points, base "
        f"{table['sweep']['base']})"
    )
    return title + "\n" + render_table(headers, rows)


def render_bands(table: dict[str, Any]) -> str:
    """Per-cell replica bands (``p05/median/p95``) as a terminal table;
    a line under it names each check that fails in some replica."""
    rows, notes = [], []
    for band in table["bands"]:
        n, stats, counts = (
            band["n_replicas"], band["headline"], band["pass_counts"]
        )
        rows.append(
            [band["label"], n]
            + [
                "-" if stats.get(name) is None
                else "/".join(format(v, spec) for v in stats[name])
                for name, spec in _BAND_COLUMNS
            ]
            + [f"{sum(c == n for c in counts.values())}/{len(counts)}"]
        )
        notes += [
            f"  {band['label']}: {name!r} passes in {count}/{n} replicas"
            for name, count in counts.items()
            if count < n
        ]
    headers = ["cell", "n", "mtbf_h", "dbe", "otb", "checks"]
    return "\n".join(
        [
            "replica bands: p05/median/p95 over "
            f"{table['sweep']['replicas']} replicas per cell",
            render_table(headers, rows),
            *notes,
        ]
    )


def render_projection(projection: dict[str, Any]) -> str:
    """The scaling-projection figure as an ASCII chart."""
    rows = projection["rows"]
    if not rows:
        return "scaling projection: no scale-only points in this sweep"
    scale_max = max(
        (r["dbe_mtbf_hours"] or 0.0) for r in rows
    ) or 1.0
    lines = [
        "scaling projection: DBE MTBF vs fleet size "
        f"(anchor = {projection['titan_nodes']} nodes)"
    ]
    def fmt8(value: Any) -> str:
        return f"{'-':>8}" if value is None else f"{value:8.2f}"

    for r in rows:
        mtbf = r["dbe_mtbf_hours"]
        bar = render_bar(mtbf or 0.0, scale_max, width=32)
        expected = r["expected_mtbf_hours"]
        mark = " *titan*" if r["n_nodes"] == projection["titan_nodes"] else ""
        lines.append(
            f"{r['n_nodes']:>8d} nodes  mtbf={fmt8(mtbf)}h  "
            f"expected={fmt8(expected)}h  |{bar}{mark}"
        )
    return "\n".join(lines)


def write_table_csv(path: str | Path, table: dict[str, Any]) -> Path:
    """Export the sensitivity table for external re-plotting (a missing
    value is an empty cell)."""
    headers = [
        "index", "label", "scale", "window_days", "burst", "corruption",
        "replica", "n_nodes", *_HEADLINE_FIELDS, *_TELEMETRY_FIELDS,
        "n_pass", "n_checks", "availability",
    ]
    rows = []
    for r in table["rows"]:
        axes, avail = r["axes"], r.get("availability")
        values = [
            r["index"], r["label"], axes["scale"], axes["window_days"],
            axes["burst"], axes["corruption"], r["replica"], r["n_nodes"],
            *(r.get(name) for name in _HEADLINE_FIELDS),
            *(r[name] for name in _TELEMETRY_FIELDS),
            r["n_pass"], r["n_checks"],
            None if avail is None else avail["availability"],
        ]
        rows.append(["" if value is None else value for value in values])
    return write_rows_csv(path, headers, rows)
