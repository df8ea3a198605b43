"""Titan-style console log rendering.

Every loggable error event becomes one text line of the form::

    2014-03-02T14:55:01.123456 c3-17c2s5n1 GPU XID 13: Graphics Engine \
Exception [job=12345]
    2013-08-11T02:10:44.000128 c5-20c2s3n2 GPU XID 48: DBE (Double Bit \
Error) detected in device_memory page 0x01a2f3 [job=877]
    2013-07-02T09:15:00.500000 c1-03c2s7n0 GPU has fallen off the bus

Single-bit errors never appear (the driver does not log corrected
errors to the console — they exist only in nvidia-smi counters), and
parent/child relationships are *not* encoded: recovering them is the
analysis layer's job, as it was for the paper's authors.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro import perf
from repro.errors.event import STRUCTURE_CODES, EventLog
from repro.errors.xid import ErrorType
from repro.telemetry.timecodec import format_timestamps
from repro.topology.machine import TitanMachine

__all__ = ["ConsoleLogWriter", "RENDER_CHUNK_ROWS"]

#: Row granularity of the streaming render: timestamps vectorize one
#: chunk at a time, so the writer never holds the whole stream's stamp
#: strings at once.  A parse that streams the render draws its batches
#: while one window is live, so this matches the parse batch
#: (:data:`repro.telemetry.parser.PARSE_CHUNK_LINES`).  A memory knob,
#: and one ``telemetry.render`` call per window — the rendered bytes are
#: identical at any value.
RENDER_CHUNK_ROWS: int = 16_384

#: Short console phrasing per type (the SEC rules in sec.py must match).
_PHRASES: dict[ErrorType, str] = {
    ErrorType.DBE: "DBE (Double Bit Error) detected",
    ErrorType.OFF_THE_BUS: "GPU has fallen off the bus",
    ErrorType.DISPLAY_ENGINE: "Display Engine error",
    ErrorType.VMEM_PROGRAMMING: "Error programming video memory interface",
    ErrorType.VMEM_UNSTABLE: "Unstable video memory interface detected",
    ErrorType.ECC_PAGE_RETIREMENT: "ECC page retirement event",
    ErrorType.ECC_PAGE_RETIREMENT_FAILURE: "ECC page retirement recording failure",
    ErrorType.VIDEO_PROCESSOR: "Video processor exception",
    ErrorType.GRAPHICS_ENGINE_EXCEPTION: "Graphics Engine Exception",
    ErrorType.MEM_PAGE_FAULT: "GPU memory page fault",
    ErrorType.PUSH_BUFFER: "Invalid or corrupted push buffer stream",
    ErrorType.DRIVER_FIRMWARE: "Driver firmware error",
    ErrorType.VIDEO_PROCESSOR_DRIVER: "Video processor exception",
    ErrorType.GPU_STOPPED: "GPU has stopped processing",
    ErrorType.CTXSW_FAULT: "Graphics Engine fault during context switch",
    ErrorType.PREEMPTIVE_CLEANUP: "Preemptive cleanup, due to previous errors",
    ErrorType.MCU_HALT_OLD: "Internal micro-controller halt",
    ErrorType.MCU_HALT_NEW: "Internal micro-controller halt",
}

_SBE_CODE: int = ErrorType.SBE.code

#: etype code → constant line-body head ("GPU XID n: phrase", or the
#: bare off-the-bus phrase).  Covers every loggable type; SBE is absent
#: on purpose (it is skipped, never rendered).
_BODY_HEAD_BY_CODE: dict[int, str] = {
    t.code: (
        _PHRASES[t]
        if t is ErrorType.OFF_THE_BUS
        else f"GPU XID {t.xid}: {_PHRASES[t]}"
    )
    for t in _PHRASES
}

#: structure code → console structure name (``MemoryStructure.value``).
_STRUCT_NAME_BY_CODE: list[str] = [
    s.value for s, _ in sorted(STRUCTURE_CODES.items(), key=lambda kv: kv[1])
]


class ConsoleLogWriter:
    """Streams an :class:`EventLog` out as Titan console-log text.

    Lines render from precomputed tables (body heads per etype code,
    structure names per code, the machine-wide cname table, and the
    fixed-format timestamp codec).  The tests pin them byte for byte to
    a per-row reference render kept outside the package.
    """

    def __init__(self, machine: TitanMachine) -> None:
        self.machine = machine

    def lines(self, events: EventLog) -> Iterator[str]:
        """Yield one log line per loggable event, in log order.

        Rows render in :data:`RENDER_CHUNK_ROWS` windows, each with one
        vectorized timestamp pass, so at most one window's lines are
        alive at a time.  A window is built under one
        ``telemetry.render`` span and yielded after it closes, so the
        span never times the consumer's work.

        Raises ``ValueError`` for a rendered row whose GPU id is outside
        ``[0, n_gpus)`` or whose time has no stamp (see
        :func:`~repro.telemetry.timecodec.format_timestamps`); SBE rows
        are skipped whatever they hold.
        """
        heads = _BODY_HEAD_BY_CODE
        struct_names = _STRUCT_NAME_BY_CODE
        cnames = self.machine.cname_table()
        for start in range(0, len(events), RENDER_CHUNK_ROWS):
            rows = slice(start, start + RENDER_CHUNK_ROWS)
            window: list[str] = []
            with perf.stage("telemetry.render"):
                etypes = events.etype[rows]
                gpus = events.gpu[rows]
                skipped = etypes == _SBE_CODE
                outside = np.flatnonzero(
                    ~skipped & ((gpus < 0) | (gpus >= len(cnames)))
                )
                if len(outside):
                    row = int(outside[0])
                    raise ValueError(
                        f"row {start + row}: GPU id {int(gpus[row])} is outside "
                        f"[0, {len(cnames)})"
                    )
                # SBE rows get stamps too, of time 0 whatever they
                # hold: skipping them in the loop is cheaper than
                # selecting the other rows first.
                for stamp, gpu, ecode, scode, job, aux in zip(
                    format_timestamps(np.where(skipped, 0.0, events.time[rows])),
                    gpus.tolist(),
                    etypes.tolist(),
                    events.structure[rows].tolist(),
                    events.job[rows].tolist(),
                    events.aux[rows].tolist(),
                ):
                    if ecode == _SBE_CODE:
                        continue
                    body = heads[ecode]
                    if scode >= 0:
                        if aux >= 0:
                            body = f"{body} in {struct_names[scode]} page 0x{aux:06x}"
                        else:
                            body = f"{body} in {struct_names[scode]}"
                    if job >= 0:
                        window.append(f"{stamp} {cnames[gpu]} {body} [job={job}]")
                    else:
                        window.append(f"{stamp} {cnames[gpu]} {body}")
            yield from window

    def to_text(self, events: EventLog) -> str:
        parts = list(self.lines(events))
        if not parts:
            return ""
        parts.append("")  # trailing newline after the final line
        return "\n".join(parts)
