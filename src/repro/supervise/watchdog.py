"""Start markers and hang detection for supervised worker pools.

A worker that *crashes* already fails fast — its future raises and the
pool's retry path resubmits the item.  A worker that *wedges* (NFS
stall, deadlocked extension, livelocked loop) is worse: the future
never completes and an unsupervised ``result()`` blocks forever.  This
module supplies the pieces :func:`repro.parallel.pool.parallel_map`
uses to close that gap:

* :func:`mark_started` — worker side: one empty marker file per item,
  created as the item starts.  It tells a running item from a queued
  one, so a new worker's start-up time (spawn plus imports) is never
  charged to the item's deadline, and it names the item running right
  now.  No timestamps — the *parent* owns the clock, so workers stay
  free of wall-clock reads;
* :class:`ChunkWatch` — parent side: notes when an item's marker first
  appeared, against the parent's monotonic clock, and says whether the
  item has run past its deadline;
* :func:`kill_executor_workers` — SIGKILL every worker process of a
  :class:`~concurrent.futures.ProcessPoolExecutor`; the only reliable
  way to reclaim a wedged worker, after which unfinished items are
  resubmitted to a fresh pool.

This module lives outside the deterministic subtree on purpose:
supervision reads real time (the parent's ``time.monotonic``) while
the supervised work stays a pure function of ``(scenario, seed,
epoch)``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

__all__ = [
    "mark_started",
    "ChunkWatch",
    "kill_executor_workers",
]


def mark_started(path: str | Path) -> None:
    """Worker side: record that the item owning ``path`` has started."""
    Path(path).touch()


class ChunkWatch:
    """Parent-side hang detector for one in-flight item.

    Feed it the parent's monotonic ``now`` on every poll; it checks the
    item's start marker and answers whether the item is hung.  The
    deadline counts from the first poll that sees the marker.  An item
    whose marker has not appeared yet is *queued*, not hung — it gets
    resubmitted for free when a genuinely hung item forces the round to
    be killed.
    """

    def __init__(self, marker: str | Path) -> None:
        self.marker = Path(marker)
        self._started_at: Optional[float] = None

    def is_hung(self, now: float, *, timeout_s: float) -> bool:
        """Whether the item has run longer than ``timeout_s`` by ``now``."""
        if self._started_at is None:
            if not self.marker.exists():
                return False  # queued: the worker has not picked it up yet
            self._started_at = now
        return now - self._started_at > timeout_s


def kill_executor_workers(executor: object) -> int:
    """SIGKILL every live worker process of a ProcessPoolExecutor.

    Returns the number of processes signalled.  Reaches into the
    executor's process table (there is no public API for "reclaim a
    wedged worker"); tolerates processes that exit racing the kill.
    """
    processes = getattr(executor, "_processes", None) or {}
    killed = 0
    for process in list(processes.values()):
        try:
            process.kill()
            killed += 1
        except (OSError, ValueError, AttributeError):
            continue
    return killed
