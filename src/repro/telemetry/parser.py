"""Console-log text → :class:`EventLog`.

This is the analysis side of the telemetry loop: it consumes exactly
what :class:`~repro.telemetry.console.ConsoleLogWriter` (or a real SMW)
produces, classifies lines through the SEC rules, decodes timestamps,
cnames, structures, pages and job tags, and emits a columnar event log
with **no parent information** — reconstructing parent/child structure
by time-filtering is the analysis toolkit's job, just as it was for the
paper's authors.

Two decoders share the work.  The *block decoder* encodes a whole parse
batch once and decodes, column by column with numpy, every line that is
byte-for-byte canonical writer output without an ``in <structure>``
clause — nearly all of a real log.  Every other line goes, in line
order, through the regex *reference* path (:meth:`ConsoleLogParser._parse_one`),
which alone defines the accepted language; the block decoder only
claims lines on which the two provably agree.

Malformed or unclassifiable lines are counted, not fatal: a two-year
console stream always contains noise, and the parse statistics are how
operators notice new XIDs (Observation 5).  The parser is additionally
hardened against *hostile* input (see :mod:`repro.chaos`):

* **resync-on-garbage** — torn writes that splice two lines together
  (garbage prefix + a valid record) are recovered by re-synchronizing
  on the next embedded ``timestamp cname`` anchor;
* **strict mode** — raise :class:`~repro.telemetry.ingestion.IngestionError`
  on the first rejected line instead of counting;
* **error budget** — when the corrupt-line fraction exceeds the budget,
  raise :class:`~repro.telemetry.ingestion.IngestionDegraded` carrying
  the partial log and statistics;
* **quarantine** — rejected lines can be diverted to a
  :class:`~repro.telemetry.ingestion.QuarantineSink` for forensics.

Every input line lands in exactly one primary counter
(``parsed_events``, ``non_gpu_lines``, ``malformed_lines`` or
``unknown_xid_lines``); :attr:`ParseStats.accounted` makes the
invariant checkable and the property tests enforce it under fuzz.
"""

from __future__ import annotations

import datetime as _dt
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import islice

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro import perf
from repro.errors.event import EventLog, EventLogBuilder
from repro.errors.xid import ErrorType
from repro.gpu.k20x import MemoryStructure
from repro.telemetry.ingestion import (
    IngestionDegraded,
    IngestionError,
    QuarantineSink,
)
from repro.telemetry.sec import SEC_RULES, SecRule, UnmatchedLine, classify_line
from repro.telemetry.timecodec import parse_timestamp
from repro.topology.machine import TitanMachine
from repro.units import STUDY_EPOCH

__all__ = ["ConsoleLogParser", "ParseStats", "PARSE_CHUNK_LINES"]

#: Lines per parse batch: how many raw lines are resident at once while
#: :meth:`ConsoleLogParser.parse_lines` drains a stream, and so the
#: height of the block decoder's per-column temporaries.  Results are
#: identical at any value.
PARSE_CHUNK_LINES: int = 16_384

_STAMP_PATTERN = r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{6}"
_CNAME_PATTERN = r"c\d+-\d+c\d+s\d+n\d+"

_LINE_RE = re.compile(
    rf"^(?P<stamp>{_STAMP_PATTERN})\s+"
    rf"(?P<cname>{_CNAME_PATTERN})\s+"
    r"(?P<body>.*)$"
)
#: Anchor for resync-on-garbage: a stamp+cname pair embedded mid-line,
#: the signature of a torn write that spliced two records together.
_RESYNC_RE = re.compile(rf"{_STAMP_PATTERN}\s+{_CNAME_PATTERN}\s+")
_STRUCT_RE = re.compile(r" in (?P<structure>[a-z0-9_]+)(?: page 0x(?P<page>[0-9a-f]+))?")
_JOB_RE = re.compile(r"\[job=(?P<job>\d+)\]")

_STRUCT_BY_NAME = {s.value: s for s in MemoryStructure}

#: Largest integer the columnar int64 store accepts; anything bigger in
#: a page/job field is corruption, not data.
_MAX_INT_FIELD = 2**62

#: Lazily built block-decoder table: body-head string → etype code, for
#: every constant head the writer can emit.  The map is derived by
#: running :func:`classify_line` on each head, so the block decoder
#: classifies exactly as the catalog-ordered reference path does; any
#: line that is not byte-for-byte canonical writer output — corruption,
#: splices, unknown XIDs, non-GPU chatter, non-canonical cnames — goes
#: to the unchanged reference path.
_FAST_HEADS: dict[str, int] | None = None


def _fast_heads() -> dict[str, int]:
    global _FAST_HEADS
    if _FAST_HEADS is None:
        from repro.telemetry.console import _BODY_HEAD_BY_CODE

        _FAST_HEADS = {
            head: classify_line(head, SEC_RULES).code
            for head in _BODY_HEAD_BY_CODE.values()
        }
    return _FAST_HEADS


def _split_lines(text: str, block: int = 1 << 16) -> Iterator[str]:
    """``text.splitlines()``, split about ``block`` characters at a time.

    Cuts fall only right after a ``"\\n"``, which ends a line under
    every ``str.splitlines`` rule (``"\\r\\n"`` stays whole), so the
    pieces' lines concatenate to exactly the whole text's — while only
    one piece's line strings are alive at once.  Pieces stay small so
    each one reuses the memory of the last: 1M-character pieces left
    tens of MB of freed but resident heap behind a paper-scale parse.
    """
    start = 0
    while start < len(text):
        cut = text.find("\n", start + block) + 1
        if cut == 0:
            cut = len(text)
        yield from text[start:cut].splitlines()
        start = cut


#: Byte layout of a canonical stamp and the space after it: fixed
#: separators at these offsets, ASCII digits at every other offset.
_STAMP_SEP_AT = np.array([4, 7, 10, 13, 16, 19, 26])
_STAMP_SEP = np.frombuffer(b"--T::. ", dtype=np.uint8)
_STAMP_DIGIT_AT = np.setdiff1d(np.arange(26), _STAMP_SEP_AT)

#: A job tag ``" [job=<digits>]"`` may end the line; 18 digits keep the
#: value below the int64 guard, longer numerals take the reference path.
_JOB_OPEN = np.frombuffer(b" [job=", dtype=np.uint8)
_JOB_DIGITS = 18
_JOB_WEIGHTS = 10 ** np.arange(_JOB_DIGITS - 1, -1, -1, dtype=np.int64)

#: Microsecond totals this close to the epoch convert to float64
#: exactly, so ``us / 1e6`` rounds as the reference's int division.
_EXACT_US = 2**53
_US_PER_SECOND = 1_000_000
_EPOCH_ORDINAL = STUDY_EPOCH.toordinal()  # STUDY_EPOCH is midnight


def _ascii_digits(window: np.ndarray) -> np.ndarray:
    """Digit values of a uint8 window; non-digit bytes wrap above 9."""
    return window - np.uint8(ord("0"))


def _day_offsets(dates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Days since the epoch of each ``YYYYMMDD`` date, and whether
    :class:`datetime.date` accepts it; each distinct date is checked
    once."""
    distinct, inverse = np.unique(dates, return_inverse=True)
    days = np.zeros(len(distinct), dtype=np.int64)
    valid = np.ones(len(distinct), dtype=bool)
    for i, date in enumerate(distinct.tolist()):
        try:
            ordinal = _dt.date(
                date // 10_000, date // 100 % 100, date % 100
            ).toordinal()
        except ValueError:
            valid[i] = False
        else:
            days[i] = ordinal - _EPOCH_ORDINAL
    return days[inverse], valid[inverse]


def _windows(buf: np.ndarray, at: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bytes of ``buf`` from each offset in ``at``, one row each."""
    return sliding_window_view(buf, width)[at]


def _stamp_micros(buf: np.ndarray, start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Microseconds since the epoch of the stamp at each offset, and
    whether the stamp (and the space after it) is canonical."""
    stamp = _windows(buf, start, 27)
    ok = (stamp[:, _STAMP_SEP_AT] == _STAMP_SEP).all(axis=1)
    digits = _ascii_digits(stamp[:, _STAMP_DIGIT_AT])
    ok &= (digits <= 9).all(axis=1)
    # 20 digits as 10 two-digit fields.
    pairs = digits[:, 0::2].astype(np.int64) * 10 + digits[:, 1::2]
    (year_hi, year_lo, month, day, hour, minute, second,
     us_hi, us_mid, us_lo) = pairs.T
    ok &= (hour < 24) & (minute < 60) & (second < 60)
    dated = np.flatnonzero(ok)
    date = ((year_hi * 100 + year_lo) * 100 + month) * 100 + day
    days = np.zeros(len(start), dtype=np.int64)
    days[dated], ok[dated] = _day_offsets(date[dated])
    us = (((days * 24 + hour) * 60 + minute) * 60 + second) * _US_PER_SECOND
    us += (us_hi * 100 + us_mid) * 100 + us_lo
    ok &= np.abs(us) < _EXACT_US
    return us, ok


def _job_tags(buf: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The job of each line's trailing ``" [job=<digits>]"`` tag (-1
    without one), and the offset where the tag (or the line) begins."""
    digits = _ascii_digits(_windows(buf, end - _JOB_DIGITS - 1, _JOB_DIGITS))
    is_digit = digits[:, ::-1] <= 9
    n_digits = np.where(is_digit.all(axis=1), _JOB_DIGITS, is_digit.argmin(axis=1))
    tag_start = end - n_digits - len(_JOB_OPEN) - 1
    has_job = (buf[end - 1] == ord("]")) & (n_digits > 0)
    has_job &= (_windows(buf, tag_start, len(_JOB_OPEN)) == _JOB_OPEN).all(axis=1)
    in_job = np.arange(_JOB_DIGITS) >= _JOB_DIGITS - n_digits[:, None]
    in_job &= has_job[:, None]
    job = np.where(in_job, digits, 0) @ _JOB_WEIGHTS
    return np.where(has_job, job, -1), np.where(has_job, tag_start, end)


def _lookup(
    keys: np.ndarray, lengths: np.ndarray, window: np.ndarray, length: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Match the first ``length`` bytes of each window row in a table.

    ``keys`` is a sorted fixed-width bytes array and ``lengths`` the
    true length of each key.  Returns the key index of every row and
    whether it matched; a fixed-width key pads with NUL, so a match
    also requires equal lengths (``b"c0-0c0s0n0\\x00"`` is no cname).
    """
    width = keys.dtype.itemsize
    prefix = np.tri(width + 1, width, -1, dtype=np.uint8)  # row n: n ones
    probe = window[:, :width] * prefix[np.clip(length, 0, width)]
    probe = probe.view(keys.dtype)[:, 0]
    at = np.minimum(np.searchsorted(keys, probe), len(keys) - 1)
    return at, (keys[at] == probe) & (lengths[at] == length)


class _BlockDecoder:
    """Vectorized decoder of a batch's byte-for-byte canonical lines.

    A line is *claimed* only when every byte of it checks out: a
    26-byte stamp of ASCII digits and fixed separators with hour < 24,
    minute < 60, second < 60, a date :class:`datetime.date` accepts and
    a microsecond total inside the float64-exact range; one space; a
    cname equal to an entry of the machine's canonical table; one
    space; one of the constant body heads; and optionally a trailing
    ``" [job=<1-18 ASCII digits>]"``.  On exactly those lines the regex
    reference decodes the same seven columns, so claiming them changes
    nothing but speed.  Lines with an ``in <structure>`` clause are
    left to the reference, as is everything else.
    """

    def __init__(self, machine: TitanMachine, etype_by_head: dict[str, int]) -> None:
        cnames = np.array(machine.cname_table(), dtype=np.bytes_)
        self._cname_gpu = np.argsort(cnames, kind="stable")
        self._cnames = cnames[self._cname_gpu]
        self._cname_len = np.char.str_len(self._cnames)
        heads = np.array(list(etype_by_head), dtype=np.bytes_)
        order = np.argsort(heads, kind="stable")
        self._heads = heads[order]
        self._head_len = np.char.str_len(self._heads)
        etypes = np.array(list(etype_by_head.values()), dtype=np.int16)
        self._head_etype = etypes[order]
        #: Shortest claimable line: stamp, space, cname, space, head.
        self._min_len = 28 + int(self._cname_len.min()) + int(self._head_len.min())
        #: Farthest a fixed-width window reads past a line's start.
        self._reach = 28 + self._cnames.dtype.itemsize + self._heads.dtype.itemsize

    def decode(self, batch: tuple[str, ...]) -> tuple[np.ndarray, EventLog] | None:
        """Batch line indices of the claimed lines, and their rows.

        Returns None — leave the whole batch to the reference — when a
        line holds an embedded newline, so that the newlines of the
        joined text no longer mark line boundaries.
        """
        # Zero padding lets every fixed-width window read past the end.
        text = "\n".join(batch).encode("utf-8", "surrogatepass")
        buf = np.frombuffer(text + bytes(self._reach), dtype=np.uint8)
        newlines = np.flatnonzero(buf == ord("\n"))
        if len(newlines) != len(batch) - 1:
            return None
        starts = np.concatenate(([0], newlines + 1))
        ends = np.append(newlines, len(text))
        del text, newlines
        lines = np.flatnonzero(ends - starts >= self._min_len)
        start, end = starts[lines], ends[lines]

        us, ok = _stamp_micros(buf, start)
        # The cname: the bytes up to the next space, looked up whole.
        cname = _windows(buf, start + 27, self._cnames.dtype.itemsize + 1)
        cname_len = (cname == ord(" ")).argmax(axis=1)
        gpu_at, hit = _lookup(self._cnames, self._cname_len, cname, cname_len)
        ok &= hit
        # The head: everything between the cname and the job tag, whole.
        body = start + 28 + cname_len
        job, head_end = _job_tags(buf, end)
        head = _windows(buf, body, self._heads.dtype.itemsize)
        head_at, hit = _lookup(self._heads, self._head_len, head, head_end - body)
        ok &= hit

        claimed = np.flatnonzero(ok)
        return lines[claimed], EventLog.from_arrays(
            time=us[claimed] / _US_PER_SECOND,
            gpu=self._cname_gpu[gpu_at[claimed]],
            etype=self._head_etype[head_at[claimed]],
            job=job[claimed],
        )


@dataclass
class ParseStats:
    """Counters the parser accumulates over a log stream.

    The four primary counters (``parsed_events``, ``non_gpu_lines``,
    ``malformed_lines``, ``unknown_xid_lines``) partition the input:
    their sum always equals ``total_lines``.  ``resynced_lines`` and
    ``quarantined_lines`` are diagnostic sub-counters (a resynced line
    is *also* counted in ``parsed_events``).
    """

    total_lines: int = 0
    parsed_events: int = 0
    non_gpu_lines: int = 0
    malformed_lines: int = 0
    unknown_xid_lines: int = 0
    resynced_lines: int = 0
    quarantined_lines: int = 0
    unknown_xids_seen: set[str] = field(default_factory=set)

    @property
    def accounted(self) -> int:
        """Sum of the primary counters; always equals ``total_lines``."""
        return (
            self.parsed_events
            + self.non_gpu_lines
            + self.malformed_lines
            + self.unknown_xid_lines
        )

    @property
    def corrupt_fraction(self) -> float:
        """Fraction of lines rejected as damage (malformed + unknown)."""
        if self.total_lines == 0:
            return 0.0
        return (self.malformed_lines + self.unknown_xid_lines) / self.total_lines


class ConsoleLogParser:
    """Parses console-log text back into an :class:`EventLog`.

    Parameters
    ----------
    machine:
        Topology used to decode cnames into GPU slots.
    rules:
        SEC classification rules (defaults to the paper's catalog).
    strict:
        Raise :class:`IngestionError` on the first rejected line
        instead of counting it.  Non-GPU noise is still tolerated —
        real consoles are full of Lustre chatter.
    resync:
        Recover spliced lines by re-synchronizing on an embedded
        ``timestamp cname`` anchor (default on; torn writes are the
        most common SMW artifact).
    error_budget:
        Maximum tolerated corrupt-line fraction; ``None`` disables the
        budget.  Exceeding it raises :class:`IngestionDegraded` *after*
        the full stream is parsed, carrying the partial log.
    quarantine:
        Optional sink receiving every rejected line.
    fast:
        Block-decode byte-for-byte canonical writer lines with numpy
        (see :class:`_BlockDecoder`) and send every other line, in line
        order, through the regex reference path.  The block decoder
        claims only lines on which the two agree, so output is
        identical either way; ``fast=False`` runs the reference alone
        and exists for the equivalence tests.  Block decoding only
        engages for the default rule catalog — custom ``rules`` always
        classify through the reference.
    """

    def __init__(
        self,
        machine: TitanMachine,
        rules: tuple[SecRule, ...] = SEC_RULES,
        *,
        strict: bool = False,
        resync: bool = True,
        error_budget: float | None = None,
        quarantine: QuarantineSink | None = None,
        fast: bool = True,
    ) -> None:
        self.machine = machine
        self.rules = rules
        self.strict = bool(strict)
        self.resync = bool(resync)
        if error_budget is not None and not 0.0 <= error_budget <= 1.0:
            raise ValueError("error_budget must be in [0, 1] or None")
        self.error_budget = error_budget
        self.quarantine = quarantine
        self.fast = bool(fast)
        self._decoder = (
            _BlockDecoder(machine, _fast_heads())
            if self.fast and rules is SEC_RULES
            else None
        )

    # -- bookkeeping -------------------------------------------------------

    def _reject(
        self, stats: ParseStats, category: str, line_no: int, line: str
    ) -> None:
        if category == "malformed":
            stats.malformed_lines += 1
        else:
            stats.unknown_xid_lines += 1
        if self.quarantine is not None:
            self.quarantine.add(line_no, category, line)
            stats.quarantined_lines += 1
        if self.strict:
            raise IngestionError(category, line_no, line)

    # -- parsing -----------------------------------------------------------

    def parse_lines(self, lines: Iterable[str]) -> tuple[EventLog, ParseStats]:
        """Parse an iterable of log lines.

        Returns the (unsorted — log-order) event log and statistics.
        Raises :class:`IngestionError` (strict mode) or
        :class:`IngestionDegraded` (error budget exceeded, judged on the
        whole stream).  The iterator is drained
        :data:`PARSE_CHUNK_LINES` lines at a time, so at most one batch
        of raw lines is resident; line numbers count from the start of
        the stream.  Each batch's decode and the final concatenate are
        booked under ``telemetry.parse``; drawing the lines is not, so
        a lazily rendered or read stream books its own time.
        """
        source = iter(lines)
        stats = ParseStats()
        logs: list[EventLog] = []
        line_no = 1
        while batch := tuple(islice(source, PARSE_CHUNK_LINES)):
            with perf.stage("telemetry.parse"):
                logs.append(self._parse_batch(batch, line_no, stats))
            line_no += len(batch)
            del batch  # one batch resident while the next is drawn
        with perf.stage("telemetry.parse"):
            log = EventLog.concatenate(logs)
        if (
            self.error_budget is not None
            and stats.corrupt_fraction > self.error_budget
        ):
            raise IngestionDegraded(
                stats=stats,
                budget=self.error_budget,
                fraction=stats.corrupt_fraction,
                log=log,
            )
        return log, stats

    def _parse_batch(
        self, batch: tuple[str, ...], start: int, stats: ParseStats
    ) -> EventLog:
        """Parse one batch whose first line is stream line ``start``.

        The block decoder claims what it can; the remaining lines go
        through :meth:`_parse_one` in line order, so strict errors and
        quarantine records come out as from the reference alone.  Rows
        merge back in line order (one line can yield two rows, a
        split seam), which makes the log equal the reference's row for
        row.
        """
        decoded = None if self._decoder is None else self._decoder.decode(batch)
        claimed_at, claimed = decoded or (np.empty(0, dtype=np.int64), EventLog.empty())
        left = np.ones(len(batch), dtype=bool)
        left[claimed_at] = False
        rest = np.flatnonzero(left).tolist()
        perf.count("telemetry.fallback_lines", len(rest))
        stats.total_lines += len(claimed)
        stats.parsed_events += len(claimed)
        builder = EventLogBuilder()
        row_at: list[int] = []
        for i in rest:
            line = batch[i].rstrip("\n")
            if not line.strip():
                continue
            stats.total_lines += 1
            self._parse_one(builder, stats, start + i, line)
            row_at.extend([i] * (len(builder) - len(row_at)))
        fallback = builder.freeze()
        if not len(fallback):
            return claimed
        if not len(claimed):
            return fallback
        line_of_row = np.concatenate((claimed_at, np.asarray(row_at, dtype=np.int64)))
        order = np.argsort(line_of_row, kind="stable")
        return EventLog.concatenate([claimed, fallback]).select(order)

    def _parse_one(
        self,
        builder: EventLogBuilder,
        stats: ParseStats,
        line_no: int,
        line: str,
    ) -> None:
        """Classify one line into exactly one primary counter."""
        match = _LINE_RE.match(line)
        if match is None:
            if self._try_resync(builder, stats, line, skip=1):
                return
            self._reject(stats, "malformed", line_no, line)
            return
        if self.resync and self._try_split_seam(builder, stats, line_no, line):
            return
        try:
            etype = classify_line(match["body"], self.rules)
        except UnmatchedLine:
            # A spliced body can hide a valid record further in; prefer
            # recovery over rejection.
            if self._try_resync(builder, stats, line, skip=1):
                return
            xid_match = re.search(r"GPU XID (\d+)", match["body"])
            if xid_match:
                stats.unknown_xids_seen.add(xid_match.group(1))
            self._reject(stats, "unknown_xid", line_no, line)
            return
        if etype is None:
            stats.non_gpu_lines += 1
            return
        if self._emit(builder, stats, match, etype):
            stats.parsed_events += 1
        else:
            self._reject(stats, "malformed", line_no, line)

    def _emit(
        self,
        builder: EventLogBuilder,
        stats: ParseStats,
        match: re.Match[str],
        etype: ErrorType,
    ) -> bool:
        """Decode one matched line into the builder; False on damage."""
        try:
            ts = parse_timestamp(match["stamp"])
            gpu = self.machine.gpu_from_cname(match["cname"])
        except ValueError:
            return False
        structure = None
        page = -1
        struct_match = _STRUCT_RE.search(match["body"])
        if struct_match:
            structure = _STRUCT_BY_NAME.get(struct_match["structure"])
            if struct_match["page"] is not None:
                page = int(struct_match["page"], 16)
        job_match = _JOB_RE.search(match["body"])
        job = int(job_match["job"]) if job_match else -1
        if page >= _MAX_INT_FIELD or job >= _MAX_INT_FIELD:
            # Numerals that overflow the columnar int64 store are
            # corruption, not telemetry.
            return False
        builder.add(
            ts,
            gpu,
            etype,
            structure=structure,
            job=job,
            aux=page,
        )
        return True

    def _try_split_seam(
        self,
        builder: EventLogBuilder,
        stats: ParseStats,
        line_no: int,
        line: str,
    ) -> bool:
        """Recover two records fused by a missing newline (shard seam).

        A rendered log that lost its final newline and was concatenated
        with the next shard produces one physical line holding *two*
        complete records back to back.  When the text before the first
        embedded ``timestamp cname`` anchor is itself a fully valid GPU
        record, emit it and parse the tail as its own logical line
        (counted in ``total_lines`` and marked resynced).  Anything
        short of that — garbage prefixes, torn heads, pristine lines
        (whose bodies never contain a stamp) — falls back to the
        ordinary single-record path, so existing splice semantics are
        untouched.
        """
        anchor = _RESYNC_RE.search(line, 1)
        if anchor is None:
            return False
        head = line[: anchor.start()]
        head_match = _LINE_RE.match(head)
        if head_match is None:
            return False
        try:
            etype = classify_line(head_match["body"], self.rules)
        except UnmatchedLine:
            return False
        if etype is None or not self._emit(builder, stats, head_match, etype):
            return False
        stats.parsed_events += 1
        # The tail is an extra logical line recovered from the seam.
        stats.total_lines += 1
        stats.resynced_lines += 1
        self._parse_one(builder, stats, line_no, line[anchor.start():])
        return True

    def _try_resync(
        self,
        builder: EventLogBuilder,
        stats: ParseStats,
        line: str,
        *,
        skip: int,
    ) -> bool:
        """Attempt to recover a record embedded after garbage.

        Searches for the next ``timestamp cname`` anchor at or after
        position ``skip``; if the tail from there parses cleanly as a
        GPU event it is counted as parsed + resynced.  Returns True on
        success; on failure the caller rejects the whole line normally.
        """
        if not self.resync:
            return False
        pos = skip
        while True:
            anchor = _RESYNC_RE.search(line, pos)
            if anchor is None:
                return False
            tail = line[anchor.start():]
            match = _LINE_RE.match(tail)
            if match is not None:
                try:
                    etype = classify_line(match["body"], self.rules)
                except UnmatchedLine:
                    etype = None
                if etype is not None and self._emit(builder, stats, match, etype):
                    stats.parsed_events += 1
                    stats.resynced_lines += 1
                    return True
            pos = anchor.start() + 1

    def parse_text(self, text: str) -> tuple[EventLog, ParseStats]:
        return self.parse_lines(_split_lines(text))
