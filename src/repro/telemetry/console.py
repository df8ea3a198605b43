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

from repro.errors.event import STRUCTURE_CODES, EventLog, structure_from_code
from repro.errors.xid import ErrorType, from_code
from repro.telemetry.timecodec import format_timestamps
from repro.topology.machine import TitanMachine
from repro.units import timestamp_to_datetime

__all__ = ["render_event_line", "ConsoleLogWriter", "RENDER_CHUNK_ROWS"]

#: Row granularity of the streaming render: timestamps vectorize one
#: chunk at a time, so the writer never holds the whole stream's stamp
#: strings at once.  A parse that streams the render draws its batches
#: while one window is live, so this matches the parse batch
#: (:data:`repro.telemetry.parser.PARSE_CHUNK_LINES`).  Purely a memory
#: knob — the rendered bytes are identical at any value.
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


def render_event_line(
    time: float,
    cname: str,
    etype: ErrorType,
    *,
    structure_name: str | None = None,
    page: int | None = None,
    job: int = -1,
) -> str:
    """Render one console log line; raises for unloggable types (SBE)."""
    if etype is ErrorType.SBE:
        raise ValueError("single-bit errors are never written to the console log")
    stamp = timestamp_to_datetime(time).strftime("%Y-%m-%dT%H:%M:%S.%f")
    phrase = _PHRASES[etype]
    if etype is ErrorType.OFF_THE_BUS:
        body = phrase  # host-side message, no XID
    else:
        body = f"GPU XID {etype.xid}: {phrase}"
    if structure_name is not None:
        body += f" in {structure_name}"
        if page is not None and page >= 0:
            body += f" page 0x{page:06x}"
    line = f"{stamp} {cname} {body}"
    if job >= 0:
        line += f" [job={job}]"
    return line


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

    The hot path renders from precomputed tables (body heads per etype
    code, structure names per code, the machine-wide cname table, and
    the fixed-format timestamp codec); it is byte-identical to calling
    :func:`render_event_line` per row, which remains as the verification
    reference (see ``lines_reference``).
    """

    def __init__(self, machine: TitanMachine) -> None:
        self.machine = machine

    def lines(self, events: EventLog) -> Iterator[str]:
        """Yield one log line per loggable event, in log order.

        Rows render in :data:`RENDER_CHUNK_ROWS` windows, each with one
        vectorized timestamp pass, so at most one window's stamp
        strings are alive at a time.
        """
        heads = _BODY_HEAD_BY_CODE
        struct_names = _STRUCT_NAME_BY_CODE
        cnames = self.machine.cname_table()
        for start in range(0, len(events), RENDER_CHUNK_ROWS):
            window = slice(start, start + RENDER_CHUNK_ROWS)
            # SBE rows get stamps too: skipping them afterwards is
            # cheaper than masking first.
            for stamp, gpu, ecode, scode, job, aux in zip(
                format_timestamps(events.time[window]),
                events.gpu[window].tolist(),
                events.etype[window].tolist(),
                events.structure[window].tolist(),
                events.job[window].tolist(),
                events.aux[window].tolist(),
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
                    yield f"{stamp} {cnames[gpu]} {body} [job={job}]"
                else:
                    yield f"{stamp} {cnames[gpu]} {body}"

    def lines_reference(self, events: EventLog) -> Iterator[str]:
        """Per-row reference rendering via :func:`render_event_line`.

        Kept (and exercised by the tests) to pin the fast path's output;
        use :meth:`lines` everywhere else.
        """
        for i in range(len(events)):
            etype = from_code(int(events.etype[i]))
            if etype is ErrorType.SBE:
                continue
            structure = structure_from_code(int(events.structure[i]))
            page = int(events.aux[i])
            yield render_event_line(
                float(events.time[i]),
                self.machine.cname(int(events.gpu[i])),
                etype,
                structure_name=None if structure is None else structure.value,
                page=page if page >= 0 else None,
                job=int(events.job[i]),
            )

    def to_text(self, events: EventLog) -> str:
        parts = list(self.lines(events))
        if not parts:
            return ""
        parts.append("")  # trailing newline after the final line
        return "\n".join(parts)
