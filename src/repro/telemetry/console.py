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

import weakref
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro import perf
from repro.errors.event import STRUCTURE_CODES, EventLog
from repro.errors.xid import ErrorType
from repro.telemetry.timecodec import (
    _4D_WORDS,
    TIMESTAMP_WIDTH,
    stamp_bytes,
    stamp_microseconds,
)
from repro.topology.machine import TitanMachine

__all__ = ["ConsoleLogWriter", "RENDER_CHUNK_ROWS"]

#: Row granularity of the streaming render: each window renders as one
#: byte block, so the writer never holds more than one window's
#: temporaries at once.  A parse that streams the render draws its
#: batches while one window is live, so this matches the parse batch
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


@dataclass(frozen=True)
class _ByteTable:
    """Byte strings as rows, right-aligned and zero-padded to the longest."""

    rows: np.ndarray
    lengths: np.ndarray

    @classmethod
    def of(cls, entries: list[bytes]) -> "_ByteTable":
        lengths = np.fromiter(map(len, entries), dtype=np.int64, count=len(entries))
        width = int(lengths.max(initial=0))
        rows = np.zeros((len(entries), width), dtype=np.uint8)
        rows[np.arange(width) >= width - lengths[:, None]] = np.frombuffer(
            b"".join(entries), dtype=np.uint8
        )
        return cls(rows, lengths)


#: etype code → body head; an empty head marks a code with no line
#: (SBE, and codes no type has).
_HEADS = _ByteTable.of(
    [
        _BODY_HEAD_BY_CODE.get(code, "").encode("ascii")
        for code in range(max(t.code for t in ErrorType) + 1)
    ]
)

#: structure code + 1 → its `` in <structure>`` clause; row 0 is no clause.
_CLAUSES = _ByteTable.of(
    [b""] + [f" in {name}".encode("ascii") for name in _STRUCT_NAME_BY_CODE]
)

_PAGE_OPEN = np.frombuffer(b" page 0x", dtype=np.uint8)
#: A page address keeps at least this many hex digits (``{aux:06x}``).
_PAGE_MIN_DIGITS = 6
_JOB_OPEN = np.frombuffer(b" [job=", dtype=np.uint8)
#: The word after a job's digits: ``]``, the newline, and padding.
_JOB_CLOSE = int.from_bytes(b"]\n\0\0", "little")
#: Two hex digits of every byte value, one little-endian word each.
_2X_WORDS = np.frombuffer(
    "".join(f"{i:02x}" for i in range(256)).encode("ascii"), dtype="<u2"
)
#: Each power of the base from the base itself up to the largest that
#: fits int64: a value has 1 + (how many are at most it) digits.
_POWERS = {
    base: base ** np.arange(1, top + 1, dtype=np.int64)
    for base, top in ((10, 18), (16, 15))
}

#: Per machine: each GPU's cname between two spaces.
_CNAMES: "weakref.WeakKeyDictionary[TitanMachine, _ByteTable]" = (
    weakref.WeakKeyDictionary()
)


def _cname_table(machine: TitanMachine) -> _ByteTable:
    table = _CNAMES.get(machine)
    if table is None:
        spaced = " \n ".join(machine.cname_table())
        table = _ByteTable.of(f" {spaced} ".encode("ascii").split(b"\n"))
        _CNAMES[machine] = table
    return table


def _digit_counts(values: np.ndarray, base: int) -> np.ndarray:
    """Digits of each non-negative value in ``base``."""
    return 1 + np.searchsorted(_POWERS[base], values, side="right")


def _job_tag_lengths(digits: np.ndarray) -> np.ndarray:
    """Bytes of each `` [job=N]`` tag of ``digits`` digits (0: no tag)."""
    return np.where(digits > 0, len(_JOB_OPEN) + digits + 1, 0)


def _put(out: np.ndarray, ends: np.ndarray, rows: np.ndarray) -> None:
    """Write row ``i`` of ``rows`` into ``out`` to end just before
    ``ends[i]``.  The rows' spans must not overlap."""
    width = rows.shape[1]
    spans = as_strided(out, shape=(len(out) - width + 1, width), strides=(1, 1))
    spans[ends - width] = rows


@dataclass(frozen=True)
class _Window:
    """The rendered rows of one window, checked: their fields, each
    optional field's digit count (0 where the line has none), and each
    line's byte length, newline included."""

    microseconds: np.ndarray
    gpu: np.ndarray
    etype: np.ndarray
    clause: np.ndarray
    page: np.ndarray
    page_digits: np.ndarray
    job: np.ndarray
    job_digits: np.ndarray
    length: np.ndarray

    @property
    def size(self) -> int:
        """Bytes of all the window's lines."""
        return int(self.length.sum())


class ConsoleLogWriter:
    """Streams an :class:`EventLog` out as Titan console-log text.

    Each :data:`RENDER_CHUNK_ROWS` window renders as one ASCII byte
    block with no per-row Python.  Each line's length is known from its
    fields (the stamp, the cname and body head from byte tables, the
    optional structure clause, and the page and job digit counts), so
    every line's offset in the block is, and each field is written for
    all lines at once at its own offset: right to left, each from a
    right-aligned table or digit words, so that a field's padding only
    ever lands where a field written after it goes.  Widths are per
    line.  The tests pin the bytes to a per-row reference render kept
    outside the package.
    """

    def __init__(self, machine: TitanMachine) -> None:
        self.machine = machine
        self._cnames = _cname_table(machine)

    def lines(self, events: EventLog) -> Iterator[str]:
        """Yield one log line per loggable event, in log order.

        Each window is rendered and split into its lines under one
        ``telemetry.render`` span and yielded after it closes, so the
        span never times the consumer's work, and at most one window's
        lines are alive at a time.

        Raises ``ValueError`` for a rendered row whose GPU id is outside
        ``[0, n_gpus)``, whose time has no stamp (see
        :func:`~repro.telemetry.timecodec.stamp_microseconds`), or
        whose etype or structure code has no console spelling, once the
        lines of the windows before it are yielded; SBE rows are skipped
        whatever they hold.
        """
        for start in range(0, len(events), RENDER_CHUNK_ROWS):
            with perf.stage("telemetry.render"):
                lines = self._text(events, start).splitlines()
            yield from lines

    def blocks(self, events: EventLog) -> Iterator[str]:
        """Yield the log as text blocks of whole, newline-terminated
        lines, one per window that renders any (raising as
        :meth:`lines` does)."""
        for start in range(0, len(events), RENDER_CHUNK_ROWS):
            with perf.stage("telemetry.render"):
                block = self._text(events, start)
            if block:
                yield block

    def to_text(self, events: EventLog) -> str:
        """The whole log as one string, each line newline-terminated.

        Every window is measured first, raising as :meth:`lines` does,
        then rendered into one buffer of exactly the total size, which
        is decoded once: no window's text or line is held apart from
        the buffer.  Each window books one ``telemetry.render`` span;
        the first also measures, the last also decodes.
        """
        starts = range(0, len(events), RENDER_CHUNK_ROWS)
        buf, at, text = bytearray(), 0, ""
        for start in starts:
            with perf.stage("telemetry.render"):
                if start == 0:  # the first window's span also sizes the buffer
                    buf = bytearray(sum(self._window(events, s).size for s in starts))
                out = np.frombuffer(buf, dtype=np.uint8)
                at = self._fill(self._window(events, start), out, at)
                if start == starts[-1]:  # and the last one's decodes it
                    text = buf.decode("ascii")
        return text

    def _text(self, events: EventLog, start: int) -> str:
        """The text of the window from ``start``."""
        window = self._window(events, start)
        text = bytearray(window.size)
        self._fill(window, np.frombuffer(text, dtype=np.uint8), 0)
        return text.decode("ascii")

    def _window(self, events: EventLog, start: int) -> _Window:
        """The checked rows of the window from ``start``; raises for the
        first row with an off-machine GPU, then for the first time with
        no stamp, then for the first code with no spelling."""
        rows = slice(start, start + RENDER_CHUNK_ROWS)
        etypes = events.etype[rows]
        gpus = events.gpu[rows]
        rendered = etypes != _SBE_CODE
        n_gpus = len(self._cnames.lengths)
        outside = np.flatnonzero(rendered & ((gpus < 0) | (gpus >= n_gpus)))
        if len(outside):
            row = int(outside[0])
            raise ValueError(
                f"row {start + row}: GPU id {int(gpus[row])} is outside [0, {n_gpus})"
            )
        at = slice(None) if rendered.all() else np.flatnonzero(rendered)
        microseconds = stamp_microseconds(events.time[rows][at])
        etype = etypes[at]
        head_length = np.take(_HEADS.lengths, etype, mode="clip")
        structure = events.structure[rows][at].astype(np.int64)
        clause = np.maximum(structure + 1, 0)
        spelled = (etype >= 0) & (etype < len(_HEADS.lengths)) & (head_length > 0)
        spelled &= clause < len(_CLAUSES.lengths)
        if not spelled.all():
            row = int(np.flatnonzero(rendered)[np.argmin(spelled)])
            raise ValueError(
                f"row {start + row}: etype {int(etypes[row])} with structure "
                f"{int(events.structure[start + row])} has no console spelling"
            )
        page = np.where(clause > 0, events.aux[rows][at], -1)
        paged = np.flatnonzero(page >= 0)
        page_digits = np.zeros(len(page), dtype=np.int64)
        page_digits[paged] = np.maximum(
            _digit_counts(page[paged], 16), _PAGE_MIN_DIGITS
        )
        job = events.job[rows][at]
        job_digits = np.where(job >= 0, _digit_counts(job, 10), 0)
        gpu = gpus[at]
        length = (
            TIMESTAMP_WIDTH + 1  # the stamp, the newline
            + np.take(self._cnames.lengths, gpu)
            + head_length
            + np.take(_CLAUSES.lengths, clause)
            + np.where(page_digits > 0, len(_PAGE_OPEN) + page_digits, 0)
            + _job_tag_lengths(job_digits)
        )
        return _Window(
            microseconds, gpu, etype, clause, page, page_digits, job, job_digits, length
        )

    def _fill(self, window: _Window, out: np.ndarray, at: int) -> int:
        """Render ``window``'s lines into ``out`` from offset ``at``;
        returns the offset after the last line.

        Fields are written right to left, each ending where its line
        has it.  A table row's padding and a number's leading digits lie
        left of the field, inside the same line, where a field written
        later goes; so does every field a line does not have (a job tag
        written for a line without a job), which is why the job fields
        are written for every line of a window that has one.
        """
        w = window
        if not len(w.length):
            return at
        ends = at + np.cumsum(w.length)  # one past each newline
        newline = ends - 1
        job_width = int(w.job_digits.max())
        if job_width:
            groups = -(-job_width // 4)
            words = np.empty((len(w.job), groups + 1), dtype="<u4")
            words[:, groups] = _JOB_CLOSE
            rest = w.job
            for g in range(groups - 1, -1, -1):
                rest, group = np.divmod(rest, 10_000)
                words[:, g] = np.take(_4D_WORDS, group)
            _put(out, ends, words.view(np.uint8)[:, : 4 * groups + 2])
            _put(out, newline - 1 - w.job_digits, _JOB_OPEN[None, :])
        else:
            out[newline] = ord("\n")
        field_end = newline - _job_tag_lengths(w.job_digits)
        paged = np.flatnonzero(w.page_digits)
        if len(paged):
            digits = w.page_digits[paged]
            pairs = -(-int(digits.max()) // 2)
            words = np.empty((len(paged), pairs), dtype="<u2")
            rest = w.page[paged]
            for p in range(pairs - 1, -1, -1):
                words[:, p] = np.take(_2X_WORDS, rest & 0xFF)
                rest = rest >> 8
            _put(out, field_end[paged], words.view(np.uint8))
            _put(out, field_end[paged] - digits, _PAGE_OPEN[None, :])
            field_end[paged] -= len(_PAGE_OPEN) + digits
        clauses = np.flatnonzero(w.clause)
        if len(clauses):
            _put(
                out,
                field_end[clauses],
                np.take(_CLAUSES.rows, w.clause[clauses], axis=0),
            )
            field_end[clauses] -= _CLAUSES.lengths[w.clause[clauses]]
        _put(out, field_end, np.take(_HEADS.rows, w.etype, axis=0))
        field_end -= _HEADS.lengths[w.etype]
        _put(out, field_end, np.take(self._cnames.rows, w.gpu, axis=0))
        _put(out, field_end - self._cnames.lengths[w.gpu], stamp_bytes(w.microseconds))
        return int(ends[-1])
