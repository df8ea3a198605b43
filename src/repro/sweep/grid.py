"""Deterministic grid expansion: spec axes in, scenario points out.

:func:`expand` turns a :class:`~repro.sweep.spec.SweepSpec` into the
full cartesian grid of :class:`SweepPoint`\\ s in a fixed iteration
order (scales, then rate multipliers, windows, bursts, replicas,
corruption levels), so the same spec always yields the same indices,
labels, seeds and keys — the property the journal, the cache and the
golden anchor test all lean on.  The replica loop sits inside the
burst loop and outside the corruption loop, so ``replicas=1`` keeps
every index of the unreplicated grid.

Two invariants matter more than the transforms themselves:

* **anchor identity** — the all-baseline point reuses the base
  scenario *object*: same fingerprint, same seed, same dataset key,
  hence figure digests bit-identical to the single-scenario run;
* **per-point RNG branches** — every non-baseline point derives its
  seed through ``RngTree(base.seed).child(...)`` keyed by the exact
  (``float.hex``) axis values, so points are statistically independent
  samples, stable across processes, and never collide with the base
  stream;
* **replicas re-seed only** — replica ``r >= 1`` of a cell is the
  cell's scenario with its seed moved to
  ``RngTree(cell.seed).child(f"sweep.replica:{r}")``: same name and
  configuration fingerprint, a new dataset key.  Replica 0 is the cell
  itself, so the anchor stays the golden scenario.

Machine scale is modeled at the *fleet-rate* level (see the spec module
docstring): the simulated machine keeps Titan's physical 18,688 nodes
while fleet-level arrival processes scale by ``s``; ``n_nodes`` records
the modeled fleet size for the scaling-projection figure.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import Any, Optional

from repro.cache.keys import dataset_key, sweep_point_key
from repro.rng import RngTree
from repro.sweep.spec import RateMultipliers, SweepSpec
from repro.topology.machine import N_COMPUTE_NODES
from repro.units import DAY

__all__ = ["SweepPoint", "expand"]

#: Fleet-level XID arrival-rate fields (events/hour) scaled by the
#: machine-scale and ``xid`` multiplier axes.
_XID_RATE_FIELDS = (
    "xid13_burst_rate_per_hour",
    "xid31_rate_per_hour",
    "xid43_rate_per_hour",
    "xid44_rate_per_hour",
    "xid59_rate_per_hour",
    "xid62_rate_per_hour",
)

#: Sparse driver errors calibrated as expected totals over the window —
#: totals scale linearly with fleet size too.
_XID_TOTAL_FIELDS = (
    "xid32_expected_total",
    "xid38_expected_total",
    "xid42_expected_total",
    "xid56_expected_total",
    "xid57_expected_total",
    "xid58_expected_total",
    "xid64_expected_total",
    "xid65_expected_total",
)


@dataclass(frozen=True)
class SweepPoint:
    """One fully-resolved grid point: axes plus the derived scenario."""

    index: int
    label: str
    scale: float
    rates: RateMultipliers
    window_days: Optional[float]
    burst: float
    corruption: float
    #: Replica number within the cell (0 = the cell's own scenario).
    replica: int
    #: Ground-truth simulation requested (availability section).
    availability: bool
    scenario: Any
    #: Modeled fleet size (``18688 * scale``, half-up rounded).
    n_nodes: int
    #: All scenario axes at baseline, no corruption, replica 0: this
    #: point's figures are the single-scenario golden trace.
    is_anchor: bool

    @property
    def key(self) -> str:
        """Content address of this point's summary artifact."""
        return sweep_point_key(
            self.scenario,
            corruption=self.corruption,
            ground_truth=self.availability,
        )

    @property
    def dataset_key(self) -> str:
        return dataset_key(self.scenario)


def _branch_name(
    scale: float,
    rates: RateMultipliers,
    window: Optional[float],
    burst: float,
) -> str:
    """Exact (bit-level) axis encoding used for the RNG seed branch."""
    return "|".join(
        [
            f"scale:{float(scale).hex()}",
            f"dbe:{float(rates.dbe).hex()}",
            f"otb:{float(rates.otb).hex()}",
            f"sbe:{float(rates.sbe).hex()}",
            f"xid:{float(rates.xid).hex()}",
            f"window:{'base' if window is None else float(window).hex()}",
            f"burst:{float(burst).hex()}",
        ]
    )


def _scaled_nodes(scale: float) -> int:
    """Modeled fleet size: ``18688 * scale`` rounded half away from
    zero.

    ``round()`` is banker's rounding — ties go to the *even* integer,
    so ``round(18688 * 2.5)`` and a neighboring half-integer product
    can round in opposite directions and two nearby scales land on the
    same fleet size.  ``floor(x + 0.5)`` rounds every ``.5`` up, which
    is the monotone behavior a scale axis needs (larger scale never
    maps to a smaller fleet).
    """
    return int(math.floor(N_COMPUTE_NODES * scale + 0.5))


def _human_label(
    scale: float,
    rates: RateMultipliers,
    window: Optional[float],
    burst: float,
    corruption: float,
    replica: int = 0,
    encode: Optional[Callable[[float], str]] = None,
) -> str:
    """Human label for one axis tuple; baseline axes are omitted.

    ``encode`` overrides the float rendering (default ``%g``).  With an
    *exact* encoder (``repr``, ``float.hex``) the label is injective
    over distinct axis tuples — the collision-escalation pass in
    :func:`_dedup_labels` relies on that.
    """
    if encode is None:
        enc = lambda x: f"{x:g}"  # noqa: E731
    else:
        enc = encode
    parts: list[str] = []
    if scale != 1.0:
        parts.append(f"scale={enc(scale)}")
    if not rates.is_baseline:
        if encode is None:
            parts.append(rates.label())
        else:
            parts.extend(
                f"{name}*{enc(value)}"
                for name, value in (
                    ("dbe", rates.dbe),
                    ("otb", rates.otb),
                    ("sbe", rates.sbe),
                    ("xid", rates.xid),
                )
                if value != 1.0
            )
    if window is not None:
        parts.append(f"window={enc(window)}d")
    if burst != 1.0:
        parts.append(f"burst={enc(burst)}")
    if replica:
        parts.append(f"rep={replica}")
    if corruption != 0.0:
        parts.append(f"corr={enc(corruption)}")
    return ",".join(parts) if parts else "anchor"


def _dedup_labels(points: list[SweepPoint]) -> list[SweepPoint]:
    """Make point labels collision-free by escalating the encoding.

    ``%g`` keeps six significant digits, so two distinct axis values
    like ``1.0000001`` and ``1.0000002`` both label ``scale=1`` — the
    journal and summaries then show two points under one name.  Any
    label shared by more than one point is re-rendered with ``repr``
    (shortest round-tripping form) and, should reprs still collide,
    with ``float.hex`` — exact, so distinct axis tuples are guaranteed
    distinct labels.  Unique labels keep their friendly ``%g`` form,
    and hex-form labels can never collide with ``%g``/``repr`` ones
    (only hex renderings contain ``0x``).
    """
    labels = [p.label for p in points]
    for encode in (repr, lambda x: float(x).hex()):
        counts = Counter(labels)
        if all(n == 1 for n in counts.values()):
            break
        labels = [
            _human_label(
                p.scale,
                p.rates,
                p.window_days,
                p.burst,
                p.corruption,
                p.replica,
                encode=encode,
            )
            if counts[label] > 1
            else label
            for p, label in zip(points, labels)
        ]
    return [
        p if p.label == label else replace(p, label=label)
        for p, label in zip(points, labels)
    ]


def _transformed_rates(
    rates: Any, *, scale: float, rm: RateMultipliers, burst: float
) -> Any:
    """Apply the fleet-scale/category/burst factors to a RateConfig."""
    changes: dict[str, Any] = {}
    dbe_factor = scale * rm.dbe
    if dbe_factor != 1.0:
        # MTBF is the reciprocal of the fleet arrival rate.
        changes["dbe_mtbf_hours"] = rates.dbe_mtbf_hours / dbe_factor
    otb_factor = scale * rm.otb
    if otb_factor != 1.0:
        changes["otb_rate_before_fix_per_hour"] = (
            rates.otb_rate_before_fix_per_hour * otb_factor
        )
        changes["otb_rate_after_fix_per_hour"] = (
            rates.otb_rate_after_fix_per_hour * otb_factor
        )
    xid_factor = scale * rm.xid
    if xid_factor != 1.0:
        for name in _XID_RATE_FIELDS + _XID_TOTAL_FIELDS:
            changes[name] = getattr(rates, name) * xid_factor
    # SBE calibration is per-card, not per-fleet: only the explicit
    # category multiplier and the burstiness axis touch it.
    if rm.sbe != 1.0:
        changes["sbe_rate_per_proneness_hour"] = (
            rates.sbe_rate_per_proneness_hour * rm.sbe
        )
    if burst != 1.0:
        changes["sbe_burst_rate_per_sqrt_proneness_hour"] = (
            rates.sbe_burst_rate_per_sqrt_proneness_hour * burst
        )
    return rates.evolve(**changes) if changes else rates


def _windowed(scenario: Any, window_days: Optional[float]) -> Any:
    """Clamp the study window (and the workload/jobsnap that track it)."""
    if window_days is None:
        return scenario
    end = scenario.start + window_days * DAY
    changes: dict[str, Any] = {
        "end": end,
        "workload": replace(scenario.workload, end_time=end),
    }
    if not scenario.start <= scenario.jobsnap_deployed_at <= end:
        # Keep the snapshot framework inside the (shorter) window, at
        # the same relative position the smoke scenario uses.
        changes["jobsnap_deployed_at"] = (
            scenario.start + 0.5 * (end - scenario.start)
        )
    return scenario.evolve(**changes)


def _point_scenario(
    base: Any,
    *,
    scale: float,
    rm: RateMultipliers,
    window: Optional[float],
    burst: float,
) -> tuple[Any, bool]:
    """``(scenario, scenario_axes_at_baseline)`` for one axis tuple."""
    baseline = (
        scale == 1.0 and rm.is_baseline and window is None and burst == 1.0
    )
    if baseline:
        return base, True
    scenario = _windowed(base, window)
    branch = _branch_name(scale, rm, window, burst)
    scenario = scenario.evolve(
        name=f"{base.name}~{_human_label(scale, rm, window, burst, 0.0)}",
        seed=RngTree(base.seed).child(f"sweep.{branch}").seed,
        rates=_transformed_rates(
            scenario.rates, scale=scale, rm=rm, burst=burst
        ),
    )
    scenario.validate()
    return scenario, False


def expand(spec: SweepSpec) -> tuple[SweepPoint, ...]:
    """The spec's full grid, in deterministic axis-major order."""
    spec.validate()
    base = spec.base_scenario()
    points: list[SweepPoint] = []
    for scale, rm, window, burst in itertools.product(
        spec.scales, spec.rates, spec.windows, spec.bursts
    ):
        cell, baseline = _point_scenario(
            base, scale=scale, rm=rm, window=window, burst=burst
        )
        for replica in range(spec.replicas):
            scenario = cell if replica == 0 else cell.evolve(
                seed=RngTree(cell.seed).child(f"sweep.replica:{replica}").seed
            )
            for corruption in spec.corruptions:
                points.append(
                    SweepPoint(
                        index=len(points),
                        label=_human_label(
                            scale, rm, window, burst, corruption, replica
                        ),
                        scale=float(scale),
                        rates=rm,
                        window_days=window,
                        burst=float(burst),
                        corruption=float(corruption),
                        replica=replica,
                        availability=spec.availability,
                        scenario=scenario,
                        n_nodes=_scaled_nodes(scale),
                        is_anchor=(
                            baseline and replica == 0 and corruption == 0.0
                        ),
                    )
                )
    return tuple(_dedup_labels(points))
