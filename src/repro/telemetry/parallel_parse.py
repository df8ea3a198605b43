"""Chunked console parsing with an order-preserving merge.

A full 21-month console stream is over a million lines; the parse is
embarrassingly parallel because every line lands in exactly one
primary counter and the parser keeps no cross-line state (resync
operates *within* a line).  :func:`parse_stream` drains a line
iterator in deterministic whole-line batches, parses each batch with
global line numbering — in-process, or over
:func:`repro.parallel.pool.parallel_map` workers — and merges the
per-batch results back in batch order, reproducing the serial parser's
observable behavior exactly:

* the merged :class:`~repro.errors.event.EventLog` equals the serial
  log row for row (batches split on whole-line boundaries, so no record
  is ever torn across batches — the partition invariant
  ``parsed + non_gpu + malformed + unknown_xid == total`` survives);
* strict mode re-raises the *earliest*
  :class:`~repro.telemetry.ingestion.IngestionError` (global line
  numbers, via ``first_line_no``), with the caller's quarantine sink
  reflecting only rejects before that line — as a serial run would;
* the error budget is evaluated once, after the merge, on the merged
  statistics, raising :class:`~repro.telemetry.ingestion.IngestionDegraded`
  with the merged partial log;
* quarantine records merge in batch order and the first ``capacity``
  survive — the same set a serial sink would have kept.

Only the default SEC rule catalog is supported here — custom catalogs
parse through :class:`~repro.telemetry.parser.ConsoleLogParser`
directly.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import islice

from repro.errors.event import EventLog
from repro.telemetry.ingestion import (
    IngestionDegraded,
    IngestionError,
    QuarantineSink,
)
from repro.telemetry.parser import ConsoleLogParser, ParseStats
from repro.topology.machine import TitanMachine

__all__ = ["parse_stream", "PARSE_CHUNK_LINES"]

#: Lines per parse batch: how many raw lines are resident at once in a
#: serial parse, and the unit of work a parallel parse ships to a
#: worker.  Results are identical at any value.
PARSE_CHUNK_LINES: int = 131_072


@dataclass(frozen=True)
class _ChunkTask:
    """One batch of the stream (picklable, self-contained)."""

    lines: tuple[str, ...]
    first_line_no: int
    folded_torus: bool
    strict: bool
    resync: bool
    fast: bool
    quarantine_capacity: int | None


@dataclass
class _ChunkResult:
    log: EventLog
    stats: ParseStats
    sink: QuarantineSink | None
    error: IngestionError | None


#: Per-process machine cache: workers rebuild the (deterministic)
#: topology once per folded/unfolded flavor, not once per batch.
_WORKER_MACHINES: dict[bool, TitanMachine] = {}


def _worker_machine(folded_torus: bool) -> TitanMachine:
    machine = _WORKER_MACHINES.get(folded_torus)
    if machine is None:
        machine = TitanMachine(folded_torus=folded_torus)
        _WORKER_MACHINES[folded_torus] = machine
    return machine


def _parse_chunk(
    task: _ChunkTask, machine: TitanMachine | None = None
) -> _ChunkResult:
    """Parse one batch with global line numbering.

    Module-level on purpose (spawn-safe); workers pass no ``machine``
    and rebuild the topology from the task.  The batch parses with
    ``error_budget=None`` — the budget is a whole-stream property and
    is applied by the merger; strict errors are captured and returned
    so the merger can raise the globally earliest one.
    """
    sink = (
        None
        if task.quarantine_capacity is None
        else QuarantineSink(capacity=task.quarantine_capacity)
    )
    parser = ConsoleLogParser(
        machine if machine is not None else _worker_machine(task.folded_torus),
        strict=task.strict,
        resync=task.resync,
        error_budget=None,
        quarantine=sink,
        fast=task.fast,
    )
    try:
        log, stats = parser.parse_lines(
            task.lines, first_line_no=task.first_line_no
        )
    except IngestionError as exc:
        return _ChunkResult(EventLog.empty(), ParseStats(), sink, exc)
    return _ChunkResult(log, stats, sink, None)


def _merge_stats(target: ParseStats, chunk: ParseStats) -> None:
    target.total_lines += chunk.total_lines
    target.parsed_events += chunk.parsed_events
    target.non_gpu_lines += chunk.non_gpu_lines
    target.malformed_lines += chunk.malformed_lines
    target.unknown_xid_lines += chunk.unknown_xid_lines
    target.resynced_lines += chunk.resynced_lines
    target.quarantined_lines += chunk.quarantined_lines
    target.unknown_xids_seen |= chunk.unknown_xids_seen


def _merge_sink(target: QuarantineSink, chunk: QuarantineSink) -> None:
    """Fold one batch sink into the caller's sink, in batch order.

    Every reject a serial run would have *kept* is among its batch's
    kept records (a globally-early reject is batch-early too, and the
    batch capacity matches the caller's), so appending kept records in
    order until the target fills reproduces the serial record set;
    counts and totals cover dropped records as well.
    """
    target.total += chunk.total
    for category, n in chunk.counts.items():
        target.counts[category] = target.counts.get(category, 0) + n
    appended = 0
    for record in chunk.records:
        if len(target.records) < target.capacity:
            target.records.append(record)
            appended += 1
        else:
            break
    target.n_overflowed += chunk.total - appended


def _merge_results(
    results: list[_ChunkResult],
    quarantine: QuarantineSink | None,
    error_budget: float | None,
) -> tuple[EventLog, ParseStats]:
    """Order-preserving merge of per-batch results.

    Strict mode honors the globally earliest rejection, with the
    caller's sink reflecting exactly the rejects a serial run saw
    before raising (whole batches before the failing one, plus the
    failing batch's partial sink).  The error budget is a whole-stream
    property and is evaluated once here, on the merged statistics.
    """
    error_index = next(
        (i for i, r in enumerate(results) if r.error is not None), None
    )
    if error_index is not None:
        if quarantine is not None:
            for result in results[: error_index + 1]:
                if result.sink is not None:
                    _merge_sink(quarantine, result.sink)
        raise results[error_index].error

    stats = ParseStats()
    logs: list[EventLog] = []
    for result in results:
        logs.append(result.log)
        _merge_stats(stats, result.stats)
        if quarantine is not None and result.sink is not None:
            _merge_sink(quarantine, result.sink)
    log = EventLog.concatenate(logs)
    if error_budget is not None and stats.corrupt_fraction > error_budget:
        raise IngestionDegraded(
            stats=stats,
            budget=error_budget,
            fraction=stats.corrupt_fraction,
            log=log,
        )
    return log, stats


def parse_stream(
    lines: Iterable[str],
    machine: TitanMachine,
    *,
    n_workers: int = 1,
    chunk_lines: int = PARSE_CHUNK_LINES,
    strict: bool = False,
    resync: bool = True,
    error_budget: float | None = None,
    quarantine: QuarantineSink | None = None,
    fast: bool = True,
) -> tuple[EventLog, ParseStats]:
    """Parse a stream of console lines.

    Semantics match ``ConsoleLogParser(...).parse_lines(lines)`` for
    the default rule catalog — same log, same statistics, same errors,
    same quarantine contents — at any worker count and batch size.
    The iterator is drained ``chunk_lines`` at a time.  Serially
    (``n_workers <= 1``, or a stream that fits one batch) each batch is
    parsed in-process against ``machine`` as it is drawn, so at most
    one batch of raw lines is resident; otherwise every batch is handed
    to :func:`repro.parallel.pool.parallel_map` workers.  Batch
    boundaries depend only on the line count and ``chunk_lines``.
    """
    if error_budget is not None and not 0.0 <= error_budget <= 1.0:
        raise ValueError("error_budget must be in [0, 1] or None")
    if chunk_lines < 1:
        raise ValueError("chunk_lines must be >= 1")
    source = iter(lines)
    capacity = None if quarantine is None else quarantine.capacity

    def batches() -> Iterator[_ChunkTask]:
        first_line_no = 1
        while batch := tuple(islice(source, chunk_lines)):
            n_lines = len(batch)
            yield _ChunkTask(
                lines=batch,
                first_line_no=first_line_no,
                folded_torus=machine.folded_torus,
                strict=strict,
                resync=resync,
                fast=fast,
                quarantine_capacity=capacity,
            )
            # Drop the batch before drawing the next (the serial loop
            # below drops its reference too): one batch resident.
            del batch
            first_line_no += n_lines

    tasks: Iterable[_ChunkTask] = batches()
    if n_workers > 1:
        tasks = list(tasks)
        if len(tasks) > 1:
            # Imported here, not at module top: repro.parallel's package
            # init pulls in the replica engine, which imports the
            # simulation — which imports this module.
            from repro.parallel.pool import parallel_map

            results = parallel_map(_parse_chunk, tasks, n_workers=n_workers)
            return _merge_results(results, quarantine, error_budget)
    results = []
    for task in tasks:
        results.append(_parse_chunk(task, machine))
        if results[-1].error is not None:
            break  # a serial strict parse stops at its first reject
        del task
    return _merge_results(results, quarantine, error_budget)
