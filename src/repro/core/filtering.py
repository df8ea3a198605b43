"""Event filtering: separating parent events from their children.

Section 2.2: "there may be one real 'parent' event and multiple 'child'
events. One can exclude these 'child' error events by applying a
filtering to avoid bias in failure characterization."  The toolkit
offers the filters the paper applies:

* :func:`sequential_dedup` — the Fig. 12 time-threshold filter: walk a
  (same-type) event stream in time order; any event closer than the
  threshold to the **last kept** event is dropped as a child.  With a
  5-second window this "effectively counts only one XID 13 event per
  job because the job would crash after the error".
* :func:`sequential_keep_mask` — the same global filter as a keep mask
  over a sorted time array, for callers that hold only the time column
  (the study's Fig. 10/12 path never copies the XID 13 stream).
* :func:`dedup_by_card` — count at most one event per GPU card
  ("counting only one DBE error per card", Fig. 3(b)).
* :func:`split_parents_children` — both halves at once, for analyses
  that also need the children (Fig. 12 bottom panel).

Filters operate on the *parsed* console log, which carries no parent
annotations — exactly the authors' situation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors.event import EventLog

__all__ = [
    "FilterResult",
    "sequential_dedup",
    "sequential_keep_mask",
    "split_parents_children",
    "dedup_by_card",
    "first_of_each_card",
]


@dataclass(frozen=True)
class FilterResult:
    """Outcome of a parent/child split.

    Only the mask is computed eagerly; each half is selected from the
    input log on first access, so a caller that reads ``kept`` or
    ``n_kept`` never builds the (usually much larger) child log.
    """

    log: EventLog  # the filtered input
    kept_mask: np.ndarray  # over the input log

    @cached_property
    def kept(self) -> EventLog:
        """Estimated parent events."""
        return self.log.select_with_parent_remap(self.kept_mask)

    @cached_property
    def dropped(self) -> EventLog:
        """Estimated child events."""
        return self.log.select_with_parent_remap(~self.kept_mask)

    @property
    def n_kept(self) -> int:
        return int(np.count_nonzero(self.kept_mask))

    @property
    def n_dropped(self) -> int:
        return len(self.log) - self.n_kept


_UNSORTED = "filtering requires a time-sorted log; call log.sorted_by_time() first"


def _require_sorted(log: EventLog) -> None:
    if not log.is_sorted():
        raise ValueError(_UNSORTED)


def _check_window(window_s: float) -> None:
    if not window_s >= 0:  # also rejects NaN, which no threshold means
        raise ValueError(f"window must be a non-negative number, got {window_s!r}")


def sequential_dedup(
    log: EventLog,
    window_s: float,
    *,
    per_job: bool = False,
) -> FilterResult:
    """Time-threshold child filter over a (typically single-type) log.

    Keeps an event iff it is at least ``window_s`` seconds after the
    previously *kept* event; with ``per_job=True`` the threshold applies
    per job id instead of globally (events without a job tag are then
    always kept).

    A zero window keeps everything; an infinite one keeps only the first
    event (per job); a negative or NaN window raises ``ValueError``.
    """
    if not per_job:
        return FilterResult(log, sequential_keep_mask(log.time, window_s))
    _require_sorted(log)
    _check_window(window_s)
    n = len(log)
    keep = np.ones(n, dtype=bool)
    if window_s > 0:
        last_kept: dict[int, float] = {}
        for i in range(n):
            job = int(log.job[i])
            if job < 0:
                continue
            t = float(log.time[i])
            prev = last_kept.get(job)
            if prev is not None and t - prev < window_s:
                keep[i] = False
            else:
                last_kept[job] = t
    return FilterResult(log, keep)


def sequential_keep_mask(times: np.ndarray, window_s: float) -> np.ndarray:
    """Keep mask of the global :func:`sequential_dedup` over sorted ``times``.

    Event ``i`` is kept iff ``times[i] - last < window_s`` is false, where
    ``last`` is the time of the previously kept event (the first event is
    always kept).  The mask is exact -- it uses that predicate verbatim --
    and costs O(n) vectorized plus one binary search per kept event that
    follows a gap shorter than the window:

    * an event whose gap to its *predecessor* is not below the window is
      kept whatever came before, because ``last`` is at most that
      predecessor and float subtraction is monotone;
    * those events cut the stream into segments, and inside a segment the
      next kept event after one at ``t`` is the first ``j`` with
      ``times[j] - t < window_s`` false.  ``searchsorted(times, t +
      window_s)`` guesses ``j``; the guess is moved, one run of tied
      times at a time, until the predicate holds at ``j`` and fails just
      before it, which pins the exact boundary because the predicate is
      monotone in ``j``.
    """
    times = np.asarray(times)
    _check_window(window_s)
    gaps = np.diff(times)
    if not np.all(gaps >= 0):
        raise ValueError(_UNSORTED)
    n = times.size
    keep = np.ones(n, dtype=bool)
    if window_s == 0 or n < 2:
        return keep
    keep[1:] = ~(gaps < window_s)
    starts = np.flatnonzero(keep)
    ends = np.append(starts[1:], n)
    dense = ends - starts > 1
    for i, end in zip(starts[dense].tolist(), ends[dense].tolist()):
        while True:
            t = times[i]
            j = max(int(times.searchsorted(t + window_s)), i + 1)
            while j < n and times[j] - t < window_s:
                j = int(times.searchsorted(times[j], "right"))
            while j - 1 > i and not times[j - 1] - t < window_s:
                j = int(times.searchsorted(times[j - 1]))
            if j >= end:
                break
            keep[j] = True
            i = j
    return keep


def split_parents_children(
    log: EventLog, window_s: float, **kwargs
) -> tuple[EventLog, EventLog]:
    """Convenience: (parents, children) halves of a sequential dedup."""
    result = sequential_dedup(log, window_s, **kwargs)
    return result.kept, result.dropped


def dedup_by_card(log: EventLog) -> FilterResult:
    """Keep only the first event per GPU (card) — Fig. 3(b)'s
    "distinct GPU cards" counting."""
    _require_sorted(log)
    n = len(log)
    keep = np.zeros(n, dtype=bool)
    seen: set[int] = set()
    for i in range(n):
        gpu = int(log.gpu[i])
        if gpu not in seen:
            seen.add(gpu)
            keep[i] = True
    return FilterResult(log, keep)


def first_of_each_card(log: EventLog) -> EventLog:
    """Shorthand for ``dedup_by_card(log).kept``."""
    return dedup_by_card(log).kept
