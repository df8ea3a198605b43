"""Telemetry coverage: which time spans were actually observed.

The paper's statistics implicitly assume the SMW console stream covers
the whole study window.  Real collection does not: the workstation
reboots, disks fill, log rotation tears, and every such outage removes
a span of *observation time* — events during it are simply missing.
Dividing the full window by the surviving event count then *overstates*
MTBF (gap bias).  Field follow-ups (Cui et al. on H100 clusters; Haque
& Pande) both call this out as a first-order hazard of fleet studies.

:class:`ObservedWindows` models coverage as a set of merged, half-open
``[start, end)`` intervals inside the study window.  It can be built
from known outage windows (the chaos injector reports its ground
truth), inferred from suspicious gaps in a parsed event stream, or
taken as full coverage.  The MTBF/rate analyses accept it and
normalize by *observed* seconds instead of the nominal span; results
carry a ``low_coverage`` confidence flag once the observed fraction
drops below :data:`LOW_COVERAGE_THRESHOLD`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ObservedWindows",
    "LOW_COVERAGE_THRESHOLD",
    "infer_outage_windows",
]

#: Below this observed fraction, statistics are flagged low-confidence.
LOW_COVERAGE_THRESHOLD: float = 0.9


def _merge(
    windows: Iterable[tuple[float, float]], start: float, end: float
) -> tuple[tuple[float, float], ...]:
    """Clip windows to ``[start, end)``, sort, and merge overlaps."""
    clipped = []
    for lo, hi in windows:
        lo = max(float(lo), start)
        hi = min(float(hi), end)
        if hi > lo:
            clipped.append((lo, hi))
    clipped.sort()
    merged: list[tuple[float, float]] = []
    for lo, hi in clipped:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


@dataclass(frozen=True)
class ObservedWindows:
    """Merged half-open ``[lo, hi)`` intervals of observed time.

    Construct via :meth:`full`, :meth:`from_windows` or
    :meth:`from_outages`; the raw constructor assumes already-merged
    input and is not validated.
    """

    start: float
    end: float
    windows: tuple[tuple[float, float], ...]

    # -- constructors ------------------------------------------------------

    @classmethod
    def full(cls, start: float, end: float) -> "ObservedWindows":
        """Complete coverage of ``[start, end)``."""
        if end <= start:
            raise ValueError("empty observation span")
        return cls(float(start), float(end), ((float(start), float(end)),))

    @classmethod
    def from_windows(
        cls,
        start: float,
        end: float,
        windows: Iterable[tuple[float, float]],
    ) -> "ObservedWindows":
        """Coverage from explicit observed intervals."""
        if end <= start:
            raise ValueError("empty observation span")
        return cls(float(start), float(end), _merge(windows, start, end))

    @classmethod
    def from_outages(
        cls,
        start: float,
        end: float,
        outages: Iterable[tuple[float, float]],
    ) -> "ObservedWindows":
        """Coverage as the complement of outage intervals."""
        if end <= start:
            raise ValueError("empty observation span")
        gaps = _merge(outages, start, end)
        observed: list[tuple[float, float]] = []
        cursor = float(start)
        for lo, hi in gaps:
            if lo > cursor:
                observed.append((cursor, lo))
            cursor = max(cursor, hi)
        if cursor < end:
            observed.append((cursor, float(end)))
        return cls(float(start), float(end), tuple(observed))

    # -- properties --------------------------------------------------------

    @property
    def observed_seconds(self) -> float:
        """Total observed time."""
        return float(sum(hi - lo for lo, hi in self.windows))

    @property
    def span_seconds(self) -> float:
        return self.end - self.start

    @property
    def coverage_fraction(self) -> float:
        """Observed fraction of the nominal span, in [0, 1]."""
        return self.observed_seconds / self.span_seconds

    @property
    def n_outages(self) -> int:
        """Number of unobserved gaps inside the span."""
        n = len(self.windows) - 1 if self.windows else 0
        if not self.windows:
            return 1
        if self.windows[0][0] > self.start:
            n += 1
        if self.windows[-1][1] < self.end:
            n += 1
        return n

    def is_low(self, threshold: float = LOW_COVERAGE_THRESHOLD) -> bool:
        """True when coverage drops below the confidence threshold."""
        return self.coverage_fraction < threshold

    # -- queries -----------------------------------------------------------

    def contains(self, times: np.ndarray) -> np.ndarray:
        """Boolean mask: which timestamps fall in observed time."""
        times = np.asarray(times, dtype=np.float64)
        if not self.windows:
            return np.zeros(times.shape, dtype=bool)
        edges = np.asarray(
            [edge for window in self.windows for edge in window],
            dtype=np.float64,
        )
        idx = np.searchsorted(edges, times, side="right")
        return (idx % 2) == 1


def infer_outage_windows(
    times: Sequence[float] | np.ndarray,
    start: float,
    end: float,
    *,
    min_gap_s: float,
) -> ObservedWindows:
    """Infer coverage from suspicious silences in an event stream.

    Any inter-arrival gap (including the edges of the span) longer than
    ``min_gap_s`` is treated as a collection outage; the outage is
    assumed to begin/end ``min_gap_s / 2`` away from the surrounding
    events, so a healthy stream with natural spacing just below the
    threshold infers full coverage.  This is a heuristic — when the
    injector's ground-truth windows are available, prefer
    :meth:`ObservedWindows.from_outages`.

    ``min_gap_s`` must exceed the stream's largest *natural* silence,
    or quiet stretches of a healthy stream are read as outages.  The
    clean 21-month paper log (seed 20131001) has silences of up to
    3.46 days: a 2-day threshold infers 14 outages there (coverage
    0.9876) although nothing was dropped.
    """
    if min_gap_s <= 0:
        raise ValueError("min_gap_s must be positive")
    ts = np.sort(np.asarray(times, dtype=np.float64))
    ts = ts[(ts >= start) & (ts < end)]
    if ts.size == 0:
        # Nothing observed at all: one outage covering the whole span.
        return ObservedWindows(float(start), float(end), ())
    margin = min_gap_s / 2.0
    # Virtual anchors sit ``margin`` outside both edges so an edge-
    # adjacent silence is measured like an interior one; the inferred
    # outage then clamps exactly to ``start``/``end``.  (An earlier
    # version shaved 1e-9 s off the end anchor, which left a phantom
    # observed sliver ``(end - 1e-9, end)`` behind any trailing outage
    # — the outage effectively vanished from the window set,
    # overstating coverage and biasing gap-corrected MTBF.)
    anchors = np.concatenate(([start - margin], ts, [end + margin]))
    gaps = np.diff(anchors)
    outages = [
        (float(anchors[i] + margin), float(anchors[i + 1] - margin))
        for i in np.flatnonzero(gaps > min_gap_s)
    ]
    return ObservedWindows.from_outages(start, end, outages)
