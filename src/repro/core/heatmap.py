"""XID→XID temporal re-occurrence heatmaps (Fig. 13, Observation 9).

For an ordered pair of error types (i, j), the heatmap cell is the
fraction of type-i events that see at least one type-j event anywhere
on the machine within the following ``window_s`` seconds (the paper
uses 300 s "to allow more time for child events to show up").  The
figure's two variants — all pairs, and same-type pairs excluded — are
both supported; the diagonal of the first variant is what exposes
job-wide echoes ("many XID errors often occur multiple times (or at
multiple nodes in the same job)").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors.event import EventLog
from repro.errors.xid import ErrorType

__all__ = ["FollowMatrix", "follow_probability_matrix", "DEFAULT_HEATMAP_TYPES"]

#: The types the paper's Fig. 13 axes carry (streams with enough events).
DEFAULT_HEATMAP_TYPES: tuple[ErrorType, ...] = (
    ErrorType.GRAPHICS_ENGINE_EXCEPTION,  # 13
    ErrorType.MEM_PAGE_FAULT,  # 31
    ErrorType.PUSH_BUFFER,  # 32
    ErrorType.DRIVER_FIRMWARE,  # 38
    ErrorType.GPU_STOPPED,  # 43
    ErrorType.CTXSW_FAULT,  # 44
    ErrorType.PREEMPTIVE_CLEANUP,  # 45
    ErrorType.DBE,  # 48
    ErrorType.MCU_HALT_OLD,  # 59
    ErrorType.MCU_HALT_NEW,  # 62
    ErrorType.ECC_PAGE_RETIREMENT,  # 63
    ErrorType.OFF_THE_BUS,
)


@dataclass(frozen=True)
class FollowMatrix:
    """P(type j within window after a type-i event), row i → column j."""

    types: tuple[ErrorType, ...]
    window_s: float
    matrix: np.ndarray  # shape (k, k)
    counts: np.ndarray  # per-type event counts (denominator per row)

    def value(self, previous: ErrorType, following: ErrorType) -> float:
        i = self.types.index(previous)
        j = self.types.index(following)
        return float(self.matrix[i, j])

    def without_same_type(self) -> "FollowMatrix":
        """Fig. 13's bottom variant: diagonal removed."""
        m = self.matrix.copy()
        np.fill_diagonal(m, 0.0)
        return FollowMatrix(self.types, self.window_s, m, self.counts)

    def labels(self) -> list[str]:
        return [
            str(t.xid) if t.xid is not None else t.name for t in self.types
        ]


def follow_probability_matrix(
    log: EventLog,
    *,
    types: tuple[ErrorType, ...] = DEFAULT_HEATMAP_TYPES,
    window_s: float = 300.0,
) -> FollowMatrix:
    """Compute the Fig. 13 heatmap from an event log.

    A type-i event at ``t`` is followed by type j iff some type-j event
    ``s`` has ``t < s <= t + window_s`` (machine-wide, like the paper),
    with ``t + window_s`` rounded once as a float; cell (i, j) is the
    fraction of type-i events followed.  Each pair is counted with one
    binary search per event of its *smaller* side:

    * type i no larger: the first type-j event after ``t`` is
      ``tj[searchsorted(tj, t, "right")]``; test it against ``t + w``;
    * type j smaller: each ``s`` covers the type-i events ``k`` with
      ``ti[k] < s <= (ti + w)[k]``, the index range
      ``[searchsorted(ti + w, s), searchsorted(ti, s))``.  The sorted
      ``ti + w`` array is searched (never ``s - w``, which rounds
      differently), and the union of these ranges -- both ends grow
      with ``s`` -- is counted in one pass.
    """
    if not window_s > 0:  # also rejects NaN, which no window means
        raise ValueError(f"window must be positive, got {window_s!r}")
    in_order = log.is_sorted()
    times_by_type = []
    for etype in types:
        times = log.time[log.etype == etype.code]
        times_by_type.append(times if in_order else np.sort(times, kind="stable"))
    k = len(types)
    counts = np.asarray([t.size for t in times_by_type], dtype=np.int64)
    ends = [t + window_s for t in times_by_type]
    matrix = np.zeros((k, k), dtype=np.float64)
    for i in range(k):
        ti = times_by_type[i]
        if ti.size == 0:
            continue
        for j in range(k):
            tj = times_by_type[j]
            if tj.size == 0:
                continue
            if ti.size <= tj.size:
                nxt = tj.searchsorted(ti, side="right")
                inside = nxt < tj.size
                followed = np.count_nonzero(tj[nxt[inside]] <= ends[i][inside])
            else:
                lo = ends[i].searchsorted(tj)
                hi = ti.searchsorted(tj)
                lo[1:] = np.maximum(lo[1:], hi[:-1])
                followed = int(np.maximum(hi - lo, 0).sum())
            matrix[i, j] = followed / ti.size
    return FollowMatrix(tuple(types), float(window_s), matrix, counts)
