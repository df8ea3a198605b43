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
    fraction of type-i events followed.

    A same-type pair is counted in one pass over its sorted stream, by
    runs of equal times: the first later event of every event in a run
    is the first event of the next run, so the whole run is followed
    iff that time is at most the run's ``t + window_s``.  Each event
    that ends its run is compared with its array neighbour, and only
    the events tied with their neighbour search for their run's end.
    Every other pair of types is counted from the binary searches of
    its *smaller* stream's times ``s`` in the larger stream ``tb``, one
    pass for both directions: ``left = searchsorted(tb, s)``, from which
    ``searchsorted(tb, s, "right")`` differs only where ``s`` equals a
    ``tb`` time (there it is searched again).

    * small to large: the first large event after ``s`` is
      ``tb[right]``; test it against ``s + w``;
    * large to small: each ``s`` covers the large events ``k`` with
      ``tb[k] < s <= (tb + w)[k]``, the index range
      ``[searchsorted(tb + w, s), left)``.  The sorted ``tb + w`` array
      is searched (never ``s - w``, which rounds differently), and the
      union of these ranges -- both ends grow with ``s`` -- is counted
      in one pass.
    """
    if not window_s > 0:  # also rejects NaN, which no window means
        raise ValueError(f"window must be positive, got {window_s!r}")
    in_order = log.is_sorted()
    times_by_type = []
    for etype in types:
        times = log.time[log.rows_of_type(etype)]
        times_by_type.append(times if in_order else np.sort(times, kind="stable"))
    k = len(types)
    counts = np.asarray([t.size for t in times_by_type], dtype=np.int64)
    ends = [t + window_s for t in times_by_type]
    matrix = np.zeros((k, k), dtype=np.float64)
    for i in range(k):
        ti = times_by_type[i]
        if ti.size == 0:
            continue
        # ti[k + 1] is the first later event of ti[k] when ti[k] ends its
        # run; an event tied with the next one shares its run's answer,
        # read at the run's end.
        run_end = ti[1:] != ti[:-1]
        end_followed = run_end & (ti[1:] <= ends[i][:-1])
        followed = np.count_nonzero(end_followed)
        tied = ti[:-1][~run_end]
        if tied.size:
            last = ti.searchsorted(tied, side="right") - 1
            inside = last < ti.size - 1
            followed += np.count_nonzero(end_followed[last[inside]])
        matrix[i, i] = followed / ti.size
        for j in range(i + 1, k):
            if times_by_type[j].size == 0:
                continue
            small, large = (i, j) if ti.size <= times_by_type[j].size else (j, i)
            ts, tl = times_by_type[small], times_by_type[large]
            left = tl.searchsorted(ts)
            right = left.copy()
            # Only a key not below the time it lands on can equal it.
            tied = np.flatnonzero(~(ts < tl.take(left, mode="clip")))
            right[tied] = tl.searchsorted(ts[tied], side="right")
            inside = right < tl.size
            matrix[small, large] = (
                np.count_nonzero(tl[right[inside]] <= ends[small][inside]) / ts.size
            )
            lo = ends[large].searchsorted(ts)
            lo[1:] = np.maximum(lo[1:], left[:-1])
            matrix[large, small] = int(np.maximum(left - lo, 0).sum()) / tl.size
    return FollowMatrix(tuple(types), float(window_s), matrix, counts)
