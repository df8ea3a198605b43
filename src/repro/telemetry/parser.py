"""Console-log text → :class:`EventLog`.

This is the analysis side of the telemetry loop: it consumes exactly
what :class:`~repro.telemetry.console.ConsoleLogWriter` (or a real SMW)
produces, classifies lines through the SEC rules, decodes timestamps,
cnames, structures, pages and job tags, and emits a columnar event log
with **no parent information** — reconstructing parent/child structure
by time-filtering is the analysis toolkit's job, just as it was for the
paper's authors.

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
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import islice

from repro.errors.event import EventLog, EventLogBuilder, STRUCTURE_CODES
from repro.errors.xid import ErrorType
from repro.gpu.k20x import MemoryStructure
from repro.telemetry.ingestion import (
    IngestionDegraded,
    IngestionError,
    QuarantineSink,
)
from repro.telemetry.sec import SEC_RULES, SecRule, UnmatchedLine, classify_line
from repro.telemetry.timecodec import (
    _2D_VALUE,
    _DAY_US_OF_DATE,
    _SECONDS_PER_HOUR,
    _SECONDS_PER_MINUTE,
    _US_PER_SECOND,
    parse_timestamp,
)
from repro.topology.machine import TitanMachine
from repro.units import datetime_to_timestamp

__all__ = ["ConsoleLogParser", "ParseStats", "PARSE_CHUNK_LINES"]

#: Lines per parse batch: how many raw lines are resident at once while
#: :meth:`ConsoleLogParser.parse_lines` drains a stream.  Results are
#: identical at any value.
PARSE_CHUNK_LINES: int = 131_072

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
_STRUCT_CODE_BY_NAME = {s.value: STRUCTURE_CODES[s] for s in MemoryStructure}

#: Largest integer the columnar int64 store accepts; anything bigger in
#: a page/job field is corruption, not data.
_MAX_INT_FIELD = 2**62

#: Characters legal in a rendered page number (the writer emits
#: ``%06x`` — lowercase hex, exactly what ``_STRUCT_RE`` accepts).
_HEX_LOWER = "0123456789abcdef"

#: Lazily built fast-path table: body-head string → etype code, for
#: every constant head the writer can emit.  The map is derived by
#: running :func:`classify_line` on each head, so the fast path
#: classifies exactly as the catalog-ordered slow path does; any line
#: that is not byte-for-byte canonical writer output — corruption,
#: splices, unknown XIDs, non-GPU chatter, non-canonical cnames —
#: falls through to the unchanged slow path, which remains the
#: semantics reference.
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
        Decode pristine writer-format lines through the fast path
        (manual field slicing + table lookups + the fixed-format
        timestamp codec).  Any line that is not byte-for-byte canonical
        writer output takes the original slow path, so output is
        identical either way; ``fast=False`` forces the slow path
        everywhere and exists for the equivalence tests.  The fast path
        only engages for the default rule catalog — custom ``rules``
        always classify through the slow path.
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
        if self.fast and rules is SEC_RULES:
            self._etype_by_head = _fast_heads()
        else:
            self._etype_by_head = {}

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
        :data:`PARSE_CHUNK_LINES` lines at a time, each batch into its
        own builder, so at most one batch of raw lines is resident; line
        numbers count from the start of the stream.
        """
        parse_batch = (
            self._parse_fast if self._etype_by_head else self._parse_slow
        )
        source = iter(lines)
        stats = ParseStats()
        logs: list[EventLog] = []
        line_no = 1
        while batch := tuple(islice(source, PARSE_CHUNK_LINES)):
            builder = EventLogBuilder()
            parse_batch(batch, line_no, builder, stats)
            logs.append(builder.freeze())
            line_no += len(batch)
            # Release both before drawing the next: one batch resident.
            del batch, builder
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

    def _parse_slow(
        self,
        lines: Iterable[str],
        start: int,
        builder: EventLogBuilder,
        stats: ParseStats,
    ) -> None:
        """Classify every line through :meth:`_parse_one` (``fast=False``
        or a custom rule catalog)."""
        parse_one = self._parse_one
        for line_no, raw in enumerate(lines, start=start):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            stats.total_lines += 1
            parse_one(builder, stats, line_no, line)

    def _parse_fast(
        self,
        lines: Iterable[str],
        start: int,
        builder: EventLogBuilder,
        stats: ParseStats,
    ) -> None:
        """Hot loop: decode canonical writer-format lines by slicing.

        A line is *claimed* by the fast path only when every field
        decodes exactly as the canonical writer emits it: a codec-valid
        26-char stamp at the front, single-space separators, a cname in
        the topology's canonical table, a known constant body head,
        canonical clause order (``in <structure>``, ``page 0x<hex>``,
        trailing ``[job=N]``), a known structure name, lowercase hex
        page digits and decimal job digits.  On *any* doubt the whole
        line goes to :meth:`_parse_one` — the unchanged semantics
        reference — so the resulting log and statistics are identical
        to a slow-path-only parse, line for line.

        Claimed lines append through pre-bound column ``append``s; the
        local ``total``/``parsed`` tallies flush into ``stats`` once at
        the end (or on a strict-mode raise) instead of per line.
        """
        etype_of = self._etype_by_head
        gpu_of = self.machine.gpu_index_map()
        scode_of = _STRUCT_CODE_BY_NAME
        parse_ts = parse_timestamp
        parse_one = self._parse_one
        hex_lower = _HEX_LOWER
        # Inlined stamp decode: the codec's own memo/value tables. Any
        # miss (new date, non-ASCII digits, out-of-range field) falls
        # back to parse_timestamp, which owns validation and the memo.
        day_us_of = _DAY_US_OF_DATE
        v2 = _2D_VALUE
        sph = _SECONDS_PER_HOUR
        spm = _SECONDS_PER_MINUTE
        ups = _US_PER_SECOND
        rows = builder.raw_columns()
        t_app = rows["time"].append
        g_app = rows["gpu"].append
        e_app = rows["etype"].append
        s_app = rows["structure"].append
        j_app = rows["job"].append
        p_app = rows["parent"].append
        a_app = rows["aux"].append
        total = 0
        parsed = 0
        try:
            for line_no, raw in enumerate(lines, start=start):
                line = raw.rstrip("\n")
                if not line.strip():
                    continue
                total += 1
                # Shortest canonical line: 26-char stamp + space + a
                # 10-char cname + space + one-char body = 39 chars.
                if len(line) > 38 and line[26] == " " and line[27] == "c":
                    sp = line.find(" ", 28)
                    gpu = gpu_of.get(line[27:sp]) if sp > 0 else None
                    if gpu is not None:
                        body = line[sp + 1 :]
                        ok = True
                        job = -1
                        if body.endswith("]"):
                            j = body.rfind(" [job=", 0, -1)
                            jd = body[j + 6 : -1] if j >= 0 else ""
                            # isdecimal == \d (Nd), so int() always
                            # accepts; 18 digits can't overflow int64.
                            if jd and len(jd) <= 18 and jd.isdecimal():
                                job = int(jd)
                                body = body[:j]
                            else:
                                ok = False
                        scode = -1
                        aux = -1
                        if ok:
                            i = body.find(" in ")
                            if i >= 0:
                                head = body[:i]
                                rest = body[i + 4 :]
                                p = rest.find(" page 0x")
                                if p >= 0:
                                    pd = rest[p + 8 :]
                                    # strip() leaves "" iff every char
                                    # is lowercase hex; 15 digits keep
                                    # the value below the int64 guard.
                                    if (
                                        pd
                                        and len(pd) <= 15
                                        and not pd.strip(hex_lower)
                                    ):
                                        aux = int(pd, 16)
                                        rest = rest[:p]
                                    else:
                                        ok = False
                                if ok:
                                    sc = scode_of.get(rest)
                                    if sc is None:
                                        ok = False
                                    else:
                                        scode = sc
                            else:
                                head = body
                        if ok:
                            ecode = etype_of.get(head)
                            if ecode is not None:
                                when = None
                                day_us = day_us_of.get(line[:10])
                                if (
                                    day_us is not None
                                    and line[10] == "T"
                                    and line[13] == ":"
                                    and line[16] == ":"
                                    and line[19] == "."
                                ):
                                    h = v2.get(line[11:13])
                                    m = v2.get(line[14:16])
                                    s = v2.get(line[17:19])
                                    if (
                                        h is not None
                                        and h < 24
                                        and m is not None
                                        and m < 60
                                        and s is not None
                                        and s < 60
                                        and line[20:26].isdigit()
                                    ):
                                        when = (
                                            day_us
                                            + (h * sph + m * spm + s) * ups
                                            + int(line[20:26])
                                        ) / ups
                                if when is None:
                                    try:
                                        when = parse_ts(line[:26])
                                    except ValueError:
                                        when = None
                                if when is not None:
                                    t_app(when)
                                    g_app(gpu)
                                    e_app(ecode)
                                    s_app(scode)
                                    j_app(job)
                                    p_app(-1)
                                    a_app(aux)
                                    parsed += 1
                                    continue
                parse_one(builder, stats, line_no, line)
        finally:
            stats.total_lines += total
            stats.parsed_events += parsed

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
            when = _dt.datetime.strptime(match["stamp"], "%Y-%m-%dT%H:%M:%S.%f")
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
            datetime_to_timestamp(when),
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
        return self.parse_lines(text.splitlines())


def structure_code(structure: MemoryStructure | None) -> int:
    """Columnar code for a structure (−1 for None)."""
    return -1 if structure is None else STRUCTURE_CODES[structure]
