"""Process-pool map with crash *and hang* resilience.

A thin, dependency-free wrapper over :mod:`concurrent.futures` with the
discipline HPC codes need:

* the work function must be a **module-level picklable callable**
  (enforced early with a clear error instead of a deep pickle
  traceback);
* ``n_workers <= 1`` degrades to serial execution in-process, so tests
  and small runs pay no spawn cost and tracebacks stay readable;
* every item is its own task, and at most ``n_workers`` are in flight:
  the next item is submitted only as one finishes, so a caller that
  aborts (its ``on_result`` raises) waits only for the items already
  running;
* a failed item — ``fn`` raised, or its worker died (OOM kill,
  segfault: the failure mode a fleet-scale replica sweep hits) — is
  retried on a fresh pool; after :data:`MAX_RETRIES` retries the
  surviving items run serially in-process, so a deterministic error in
  the work function still surfaces with a clean traceback;
* with ``timeout_s`` set, a **watchdog** gives every item one deadline,
  counted from its start marker (:mod:`repro.supervise.watchdog`): a
  worker that *wedges* is SIGKILLed and its item retried like a crash.
  An item still hanging on its final attempt raises
  :class:`ChunkTimeout` rather than entering the serial fallback (which
  would hang the parent on a deterministic hang);
* results preserve input order regardless of completion order.
"""

from __future__ import annotations

import concurrent.futures as cf
import multiprocessing as mp
import pickle
import tempfile
import time
from collections import deque
from collections.abc import Callable, Sequence
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Optional, TypeVar

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["parallel_map", "ChunkTimeout", "MAX_RETRIES"]

#: Fresh-pool retries of a failed item before it runs serially
#: in-process (read at call time, so tests can patch it).
MAX_RETRIES = 2

#: Bounds on the watchdog's poll interval (seconds).
_MIN_POLL_S = 0.05
_MAX_POLL_S = 1.0

#: How long to wait for a killed pool's futures to settle before
#: declaring them failed anyway.
_KILL_SETTLE_S = 30.0


class ChunkTimeout(TimeoutError):
    """An item still hung after exhausting its supervised retries."""

    def __init__(self, indices: Sequence[int], timeout_s: float) -> None:
        self.indices = tuple(indices)
        self.timeout_s = timeout_s
        super().__init__(
            f"item(s) {list(self.indices)} hung (timeout_s={timeout_s}) "
            "and did not recover within the retry budget"
        )


def _check_picklable(fn: Callable) -> None:
    try:
        pickle.dumps(fn)
    except Exception as exc:
        raise ValueError(
            f"work function {fn!r} is not picklable; use a module-level "
            "function (lambdas and closures cannot cross process "
            "boundaries)"
        ) from exc


def _run_item(fn: Callable[[T], R], item: T, marker: str) -> R:
    """Worker-side: mark the item started, then apply ``fn`` to it."""
    from repro.supervise.watchdog import mark_started

    mark_started(marker)
    return fn(item)


def _pool_round(
    fn: Callable[[T], R],
    items: list[T],
    pending: list[int],
    n_workers: int,
    timeout_s: Optional[float],
    finish: Callable[[int, R], None],
) -> tuple[list[int], list[int]]:
    """One fresh pool's pass over ``pending``: ``(unfinished, hung)``.

    Finished items are handed to ``finish``.  An item whose ``fn``
    raised is collected for the next round while the others go on.  A
    dead worker breaks the whole pool, and a hang makes the round
    SIGKILL it (a wedged worker cannot be reclaimed any other way):
    either way no further item is submitted and every unfinished item
    is returned for the next round.  Only items the watchdog actually
    saw past their deadline are in the hung list — the rest are
    collateral of the shared pool.
    """
    from repro.supervise.watchdog import ChunkWatch, kill_executor_workers

    n_workers = min(n_workers, len(pending))
    poll_s = (
        None
        if timeout_s is None
        else min(_MAX_POLL_S, max(_MIN_POLL_S, timeout_s / 5.0))
    )
    queue = deque(pending)
    in_flight: dict[cf.Future, int] = {}
    watches: dict[int, ChunkWatch] = {}
    retry: list[int] = []
    hung: list[int] = []

    def harvest(done: "set[cf.Future]") -> None:
        for future in done:
            index = in_flight.pop(future)
            try:
                value = future.result()
            except Exception:  # fn raised, or the worker died
                retry.append(index)
            else:
                finish(index, value)

    with tempfile.TemporaryDirectory(
        prefix="repro-items-"
    ) as marker_dir, cf.ProcessPoolExecutor(
        max_workers=n_workers,
        mp_context=mp.get_context("spawn"),  # fork-safety with numpy/BLAS threads
    ) as pool:
        while queue or in_flight:
            while queue and len(in_flight) < n_workers:
                marker = str(Path(marker_dir) / str(queue[0]))
                try:
                    future = pool.submit(_run_item, fn, items[queue[0]], marker)
                except BrokenProcessPool:
                    break  # a worker died: drain, then retry on a fresh pool
                index = queue.popleft()
                in_flight[future] = index
                watches[index] = ChunkWatch(marker)
            if not in_flight:
                break
            done, _ = cf.wait(
                in_flight, timeout=poll_s, return_when=cf.FIRST_COMPLETED
            )
            harvest(done)
            if timeout_s is None:
                continue
            now = time.monotonic()
            hung = [
                index
                for index in in_flight.values()
                if watches[index].is_hung(now, timeout_s=timeout_s)
            ]
            if hung:
                # The executor marks every in-flight future broken once
                # its workers die, so the settle wait terminates.
                kill_executor_workers(pool)
                harvest(cf.wait(in_flight, timeout=_KILL_SETTLE_S).done)
                break
    return sorted([*retry, *in_flight.values(), *queue]), hung


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    n_workers: int = 1,
    timeout_s: Optional[float] = None,
    on_result: Optional[Callable[[int, R], None]] = None,
) -> list[R]:
    """Apply ``fn`` to every item, optionally across processes.

    Results are returned in input order.  ``n_workers <= 1`` runs
    serially in-process (supervision does not apply there).  Each item
    is its own task; a failed item (worker crash *or* an exception from
    ``fn``) is retried on a fresh pool up to :data:`MAX_RETRIES` times,
    and items still failing then run serially in-process — transient
    failures heal, deterministic ones surface with a readable
    traceback.

    ``timeout_s`` arms the watchdog: an item running longer than that
    (counted from its start marker, so a new worker's start-up time is
    not charged) is killed and retried like a crash, except an item
    hung on its *final* attempt raises :class:`ChunkTimeout` — a
    deterministic hang must never be handed to the serial fallback,
    which could block the parent forever.  It must be positive.

    ``on_result`` streams completions back to the *parent* process as
    they arrive: it is called exactly once per item, with
    ``(item index, result)``, in completion order (input order when
    serial), and only on the attempt that finally succeeds — callbacks
    never observe a result that subsequently disappears, which is what
    lets callers journal each item as durable the moment they see it.
    An exception from the callback stops the map: no further item is
    submitted, and it propagates once the items already running finish.
    """
    if timeout_s is not None and not timeout_s > 0:  # also rejects NaN
        raise ValueError(
            f"timeout_s must be a positive number of seconds, got {timeout_s!r}"
        )
    items = list(items)
    results: dict[int, R] = {}

    def finish(index: int, value: R) -> None:
        results[index] = value
        if on_result is not None:
            on_result(index, value)

    pending = list(range(len(items)))
    if n_workers > 1 and len(items) > 1:
        _check_picklable(fn)
        hung: list[int] = []
        for _attempt in range(MAX_RETRIES + 1):
            if not pending:
                break
            pending, hung = _pool_round(
                fn, items, pending, n_workers, timeout_s, finish
            )
        still_hung = sorted(set(hung) & set(pending))
        if still_hung:
            raise ChunkTimeout(still_hung, timeout_s)
    # Serial execution: the whole map when n_workers <= 1, else the
    # last resort for items no pool round finished.
    for index in pending:
        finish(index, fn(items[index]))
    return [results[index] for index in range(len(items))]
