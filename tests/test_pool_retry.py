"""Crash- and hang-resilience tests for :mod:`repro.parallel.pool`.

Worker processes are killed or raise transient errors via sentinel
files (shared through the filesystem, since workers are separate
processes): the first attempt per item fails, every retry succeeds.
Deterministic failures must survive the retries and surface with a
clean traceback from the serial fallback.

The watchdog integration tests use the same sentinel pattern with
workers that block on an event that never fires: a transiently hung
worker must be SIGKILLed and its item retried; a deterministically
hung item must raise :class:`~repro.parallel.pool.ChunkTimeout`
instead of blocking the parent in the serial fallback.  The deadline
decision itself is tested against explicit ``now`` readings — no
sleeps, no scheduler races.
"""

import os
import threading
import time
from pathlib import Path

import pytest

from repro.parallel.pool import ChunkTimeout, parallel_map
from repro.supervise.watchdog import ChunkWatch, mark_started

#: Far longer than any test timeout: a worker blocking this long is
#: "hung forever" unless the watchdog reclaims it.
_FOREVER_S = 600.0


def _block_forever():
    """Hang without polling: wait on an event nobody will ever set."""
    threading.Event().wait(_FOREVER_S)


def _double(x):
    return 2 * x


def _flaky(item):
    """Raise on the first call per sentinel, succeed afterwards."""
    x, sentinel = item
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write("1")
        raise RuntimeError("transient failure")
    return 2 * x


def _crash_once(item):
    """Die like an OOM-killed worker on the first call per sentinel."""
    x, sentinel = item
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write("1")
        os._exit(17)
    return 2 * x


def _always_bad(x):
    raise ValueError(f"bad item {x}")


def _hang_once(item):
    """Hang forever on the first call per sentinel, succeed afterwards."""
    x, sentinel = item
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write("1")
        _block_forever()
    return 2 * x


def _hang_always(item):
    """Hang forever whenever the marked item comes around."""
    x, _sentinel = item
    if x == 1:
        _block_forever()
    return 2 * x


def _slow_logged(item):
    """Leave one file per item that ran, then take half a second."""
    x, outdir = item
    Path(outdir, str(x)).touch()
    time.sleep(0.5)
    return x


class _Abort(Exception):
    pass


def _abort(_index, _value):
    raise _Abort("caller gave up")


class TestRetry:
    def test_transient_exception_heals(self, tmp_path):
        items = [(i, str(tmp_path / f"s{i}")) for i in range(3)]
        out = parallel_map(_flaky, items, n_workers=2)
        assert out == [0, 2, 4]

    def test_worker_crash_heals(self, tmp_path):
        items = [(i, str(tmp_path / f"c{i}")) for i in range(2)]
        out = parallel_map(_crash_once, items, n_workers=2)
        assert out == [0, 2]

    def test_deterministic_error_surfaces(self, monkeypatch):
        """After retries, the serial fallback re-raises cleanly."""
        monkeypatch.setattr("repro.parallel.pool.MAX_RETRIES", 1)
        with pytest.raises(ValueError, match="bad item"):
            parallel_map(_always_bad, [1, 2], n_workers=2)

    def test_serial_fallback_heals_late_transient(self, tmp_path, monkeypatch):
        # No retries: the pool gets one shot, the serial fallback must
        # still rescue the items.
        monkeypatch.setattr("repro.parallel.pool.MAX_RETRIES", 0)
        items = [(i, str(tmp_path / f"f{i}")) for i in range(2)]
        out = parallel_map(_flaky, items, n_workers=2)
        assert out == [0, 2]


class TestMapSemantics:
    def test_serial_path(self):
        assert parallel_map(_double, [1, 2, 3]) == [2, 4, 6]

    def test_order_preserved_with_chunks(self):
        out = parallel_map(_double, list(range(7)), n_workers=2)
        assert out == [2 * i for i in range(7)]

    def test_lambda_rejected_in_parallel(self):
        with pytest.raises(ValueError, match="work function"):
            parallel_map(lambda x: x, [1, 2], n_workers=2)

    def test_empty_input(self):
        assert parallel_map(_double, [], n_workers=4) == []

    def test_raising_callback_stops_submission(self, tmp_path):
        # Twelve half-second items on two workers and a callback that
        # raises on the first result: nothing new is submitted after
        # it, so only the items already running finish, not all twelve.
        items = [(i, str(tmp_path)) for i in range(12)]
        with pytest.raises(_Abort):
            parallel_map(_slow_logged, items, n_workers=2, on_result=_abort)
        assert len(os.listdir(tmp_path)) <= 3


class TestWatchdog:
    """Hang detection: one deadline per item, ChunkTimeout."""

    def test_hung_worker_killed_and_retried(self, tmp_path):
        items = [(i, str(tmp_path / f"h{i}")) for i in range(4)]
        out = parallel_map(_hang_once, items, n_workers=2, timeout_s=1.5)
        assert out == [0, 2, 4, 6]

    def test_deterministic_hang_raises_chunk_timeout(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.parallel.pool.MAX_RETRIES", 0)
        items = [(i, str(tmp_path / f"d{i}")) for i in range(3)]
        with pytest.raises(ChunkTimeout, match="hung") as info:
            parallel_map(_hang_always, items, n_workers=2, timeout_s=1.0)
        assert info.value.indices == (1,)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_nonpositive_or_nan_timeout_rejected(self, bad):
        with pytest.raises(ValueError, match="timeout_s"):
            parallel_map(_double, [1, 2], n_workers=2, timeout_s=bad)


class TestWatchdogClassification:
    """The deadline decision against explicit ``now`` readings."""

    def test_queued_chunk_never_hung(self, tmp_path):
        # No start marker yet: the worker has not picked the item up,
        # so no amount of elapsed time means "hung".
        watch = ChunkWatch(tmp_path / "missing")
        assert not watch.is_hung(0.0, timeout_s=0.001)
        assert not watch.is_hung(1e9, timeout_s=0.001)

    def test_explicit_now_still_wins(self, tmp_path):
        # The pool passes its own monotonic reading; the deadline
        # counts from the first reading that saw the marker, and a
        # reading exactly at the deadline is not past it yet.
        mark_started(tmp_path / "item")
        watch = ChunkWatch(tmp_path / "item")
        assert not watch.is_hung(100.0, timeout_s=5.0)
        assert not watch.is_hung(105.0, timeout_s=5.0)
        assert watch.is_hung(105.001, timeout_s=5.0)
