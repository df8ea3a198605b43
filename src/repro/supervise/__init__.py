"""repro.supervise — crash-safe, resumable study execution.

The paper's core lesson is that long-running large-scale computation
must *engineer around* component failure, not assume it away: Titan's
operators measured GPU failure modes precisely so applications could
checkpoint and restart through them.  This package applies that lesson
to the repository's own multi-minute analysis pipeline:

* :mod:`journal` — the **run manifest**: an append-only, fsynced,
  per-record-checksummed JSONL journal under the cache root recording
  each completed stage with its content-addressed artifact key, so a
  crashed run is a valid prefix, never a corrupt state;
* :mod:`signals` — SIGINT/SIGTERM handling that converts interrupts
  into clean, journal-consistent exits at the next barrier;
* :mod:`watchdog` — per-item start markers and one deadline per item,
  used by :func:`repro.parallel.pool.parallel_map` to kill and
  resubmit *wedged* (not just crashed) workers;
* :mod:`runner` — the journaled-run protocol
  (:class:`~repro.supervise.runner.JournaledRun`) shared by
  ``python -m repro run`` (:func:`~repro.supervise.runner.run_study`)
  and ``repro sweep run``: every unit is a barrier, and any prefix
  resumes byte-identically to a cold run (locked by the golden suite);
* :mod:`cli` — the CLI surface of every journaled command (flags, exit
  codes, success lines);
* :mod:`chaosrun` — the process-level chaos harness behind
  ``python -m repro chaos-run``: SIGKILL / torn-write / ENOSPC at every
  journal barrier of any journaled command, asserting
  resume-after-crash ≡ cold run.

Wall-clock and signal code is deliberately **outside** the
deterministic subtree (``repro.lint`` ``_DETERMINISTIC_DIRS``), like
:mod:`repro.perf`: supervision observes real time and real processes,
while everything it supervises stays a pure function of
``(scenario, seed, epoch)``.  The deterministic *decisions* of the
chaos harness (which barrier to fault, how) live in
:mod:`repro.chaos.procfault`.

``runner``/``chaosrun``/``cli`` import analysis modules lazily and are
accessed by submodule path to keep this package importable from
:mod:`repro.parallel` without cycles.
"""

from repro.supervise.journal import (
    JOURNAL_VERSION,
    JournalError,
    JournalRecord,
    RunJournal,
    read_journal,
)
from repro.supervise.signals import GracefulShutdown, RunInterrupted
from repro.supervise.watchdog import (
    ChunkWatch,
    kill_executor_workers,
    mark_started,
)

__all__ = [
    "JOURNAL_VERSION",
    "JournalError",
    "JournalRecord",
    "RunJournal",
    "read_journal",
    "GracefulShutdown",
    "RunInterrupted",
    "ChunkWatch",
    "kill_executor_workers",
    "mark_started",
]
