"""Loop references for the vectorized figure kernels.

``repro.core`` computes the global sequential dedup, the Fig. 13 follow
matrix and average ranks with numpy kernels.  The per-event loops they
replaced live here unchanged, as oracles: the tests (and the CI chaos
job, on a whole corrupted log) require each kernel to equal its loop
bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.heatmap import DEFAULT_HEATMAP_TYPES
from repro.errors.event import EventLog
from repro.errors.xid import ErrorType

__all__ = [
    "sequential_keep_mask_loop",
    "follow_matrix_loop",
    "rankdata_average_loop",
]


def sequential_keep_mask_loop(times: np.ndarray, window_s: float) -> np.ndarray:
    """Keep an event iff it is not closer than ``window_s`` to the last
    kept one (the first event is always kept; a zero window keeps all)."""
    n = len(times)
    keep = np.ones(n, dtype=bool)
    if window_s > 0 and n:
        last = -np.inf
        for i in range(n):
            if times[i] - last < window_s:
                keep[i] = False
            else:
                last = times[i]
    return keep


def follow_matrix_loop(
    log: EventLog,
    *,
    types: tuple[ErrorType, ...] = DEFAULT_HEATMAP_TYPES,
    window_s: float = 300.0,
) -> tuple[np.ndarray, np.ndarray]:
    """``(matrix, counts)`` of the Fig. 13 heatmap: two binary searches
    per event of every row type, for every column type."""
    if not log.is_sorted():
        log = log.sorted_by_time()
    k = len(types)
    times_by_type = [log.of_type(t).time for t in types]
    counts = np.asarray([t.size for t in times_by_type], dtype=np.int64)
    matrix = np.zeros((k, k), dtype=np.float64)
    for i in range(k):
        ti = times_by_type[i]
        if ti.size == 0:
            continue
        for j in range(k):
            tj = times_by_type[j]
            if tj.size == 0:
                continue
            lo = np.searchsorted(tj, ti, side="right")
            hi = np.searchsorted(tj, ti + window_s, side="right")
            matrix[i, j] = float(np.count_nonzero(hi > lo) / ti.size)
    return matrix, counts


def rankdata_average_loop(x) -> np.ndarray:
    """1-based ranks; a run of ``==``-equal sorted values shares the
    average of its positions."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    sx = x[order]
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks
