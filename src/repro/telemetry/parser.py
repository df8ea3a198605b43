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
import math
import re
import weakref
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import islice

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro import perf
from repro.errors.event import EventLog, EventLogBuilder
from repro.errors.xid import ErrorType
from repro.gpu.k20x import MemoryStructure
from repro.telemetry.console import _BODY_HEAD_BY_CODE
from repro.telemetry.ingestion import (
    IngestionDegraded,
    IngestionError,
    QuarantineSink,
)
from repro.telemetry.sec import UnmatchedLine, classify_line
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

#: Block-decoder table: body-head string → etype code, for every
#: constant head the writer can emit.  The map is derived by running
#: :func:`classify_line` on each head, so the block decoder classifies
#: exactly as the catalog-ordered reference path does; any line that is
#: not byte-for-byte canonical writer output — corruption, splices,
#: unknown XIDs, non-GPU chatter, non-canonical cnames — goes to the
#: unchanged reference path.
_ETYPE_BY_HEAD: dict[str, int] = {
    head: classify_line(head).code for head in _BODY_HEAD_BY_CODE.values()
}


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
_JOB_DIGITS = 18
_JOB_FRAME = len(b" [job=]")
_JOB_OPEN = np.uint64(int.from_bytes(b" [job=", "little"))
_JOB_OPEN_MASK = np.uint64(2**48 - 1)
#: The tag's digits are read right-aligned, as the three words of the
#: 24 bytes before its ``]``; ``_JOB_KEEP[w, n]`` masks the bytes of
#: word ``w`` that are digits of an ``n``-digit tag.
_JOB_KEEP = np.array(
    [
        [
            int.from_bytes(
                bytes(0xFF if 8 * w + b >= 24 - n else 0 for b in range(8)), "little"
            )
            for n in range(_JOB_DIGITS + 1)
        ]
        for w in range(3)
    ],
    dtype=np.uint64,
)
_ASCII_ZEROS = np.uint64(0x3030_3030_3030_3030)
_SIXES = np.uint64(0x0606_0606_0606_0606)
_HIGH_NIBBLES = np.uint64(0xF0F0_F0F0_F0F0_F0F0)

#: Microsecond totals this close to the epoch convert to float64
#: exactly, so ``us / 1e6`` rounds as the reference's int division.
_EXACT_US = 2**53
_US_PER_SECOND = 1_000_000
_EPOCH_ORDINAL = STUDY_EPOCH.toordinal()  # STUDY_EPOCH is midnight

#: Most slots a :class:`_TableIndex` may address.
_MAX_SLOTS = 1 << 22


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


def _words(buf: np.ndarray) -> np.ndarray:
    """The little-endian 8-byte word at every offset of ``buf``."""
    return np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))


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


def _eight_digits(values: np.ndarray) -> np.ndarray:
    """The number spelled by each word's eight digit values, the first
    (lowest) byte most significant: pairs, then fours, then the eight
    combine in place."""
    values = (values * np.uint64(10) + (values >> np.uint64(8))) & np.uint64(
        0x00FF_00FF_00FF_00FF
    )
    values = (values * np.uint64(100) + (values >> np.uint64(16))) & np.uint64(
        0x0000_FFFF_0000_FFFF
    )
    return (values * np.uint64(10_000) + (values >> np.uint64(32))) & np.uint64(
        0xFFFF_FFFF
    )


def _job_tags(
    buf: np.ndarray, words: np.ndarray, at: np.ndarray, end: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The job of each line's tail from ``at`` to ``end`` (-1 for none),
    and whether that tail is empty or exactly ``" [job=<1-18 ASCII
    digits>]"``.

    The digits are read right-aligned: the three words before the
    ``]``, with the bytes left of the tag's digits masked to zero, and
    their eight-digit numbers weighted 10**16, 10**8 and 1.
    """
    size = end - at
    n_digits = np.clip(size - _JOB_FRAME, 0, _JOB_DIGITS)
    job = np.zeros(len(at), dtype=np.uint64)
    nibbles = np.zeros(len(at), dtype=np.uint64)
    for word, keep in enumerate(_JOB_KEEP):
        # XOR with "0" turns an ASCII digit into its value; a byte is a
        # digit when its high nibble, and that of its value + 6, is 0.
        values = (words[end - 25 + 8 * word] ^ _ASCII_ZEROS) & np.take(keep, n_digits)
        nibbles |= values | (values + _SIXES)
        job = job * np.uint64(10**8) + _eight_digits(values)
    tagged = (nibbles & _HIGH_NIBBLES) == 0
    tagged &= (size > _JOB_FRAME) & (size <= _JOB_FRAME + _JOB_DIGITS)
    tagged &= buf[end - 1] == ord("]")
    tagged &= (words[at] & _JOB_OPEN_MASK) == _JOB_OPEN
    return np.where(tagged, job.astype(np.int64), -1), tagged | (size == 0)


class _TableIndex:
    """Constant-time lookup of which key of a fixed table sits at an offset.

    A guess reads a few byte columns at fixed offsets from an anchor:
    the key's first byte or, ``from_end``, the byte just past its last.
    Each column turns its byte into a digit, and the digits address one
    slot of a dense table, which holds the one key with those bytes, or
    none.  The columns come from the table alone (see
    :func:`_separating_columns`); a table that no columns tell apart (a
    key twice, keys that differ only past the shortest) raises
    ``ValueError`` rather than guess.

    A guess says nothing of the bytes off its columns; :meth:`equal`
    checks the guessed key byte for byte.  Keys are numbered by table
    position, and ``len(keys)`` stands for no key.
    """

    def __init__(self, keys: list[bytes], *, from_end: bool = False) -> None:
        lengths = np.fromiter(map(len, keys), dtype=np.int64, count=len(keys))
        if not len(keys) or lengths.min() == 0:
            raise ValueError("a table index needs non-empty keys")
        #: Key lengths, and 0 for no key.
        self.lengths = np.append(lengths, 0)
        #: Bytes :meth:`equal` reads from its offset.
        self.width = -(-int(lengths.max()) // 8) * 8
        # One NUL-padded row per key, and one for no key: its first byte
        # is 1, and its empty mask makes it equal no bytes at all.
        image = np.array([*keys, b"\x01"], dtype=f"S{self.width}")
        image = image.view(np.uint8).reshape(-1, self.width)
        shortest = int(lengths.min())
        first = lengths - shortest if from_end else 0
        table = _windows(image.ravel(), np.arange(len(keys)) * self.width + first, shortest)
        columns = _separating_columns(table)
        offsets = np.arange(-shortest, 0) if from_end else np.arange(shortest)
        seen = [np.bincount(table[:, c], minlength=256) > 0 for c in columns]
        n_slots = math.prod(int(present.sum()) for present in seen)
        if n_slots > _MAX_SLOTS:
            raise ValueError(f"a table index would need {n_slots} slots")
        #: Per column, its offset and each byte's weighted digit; a byte
        #: no key has there addresses past the last slot.
        self._columns: list[tuple[int, np.ndarray]] = []
        slot = np.zeros(len(keys), dtype=np.int32)
        weight = 1
        for column, present in zip(columns, seen):
            digit = np.where(present, (np.cumsum(present) - 1) * weight, n_slots)
            self._columns.append((int(offsets[column]), digit.astype(np.int32)))
            slot += self._columns[-1][1][table[:, column]]
            weight *= int(present.sum())
        #: Each slot's key, in the narrowest dtype that holds ``len(keys)``.
        self._slots = np.full(
            n_slots + 1, len(keys), dtype=np.min_scalar_type(len(keys))
        )
        self._slots[slot] = np.arange(len(keys))
        # The rows as little-endian words, and masks of the key bytes.
        mask = (np.arange(self.width) < self.lengths[:, None]) * np.uint8(0xFF)
        self._image = np.ascontiguousarray(image.view("<u8").T)
        self._mask = np.ascontiguousarray(mask.view("<u8").T)

    def guess(self, buf: np.ndarray, at: np.ndarray) -> np.ndarray:
        """The only key that can be anchored at each offset of ``buf``."""
        slot = np.zeros(len(at), dtype=np.int32)
        for offset, digit in self._columns:
            slot += np.take(digit, np.take(buf, at + offset))
        return np.take(self._slots, np.minimum(slot, len(self._slots) - 1))

    def equal(self, words: np.ndarray, at: np.ndarray, key: np.ndarray) -> np.ndarray:
        """Whether the bytes from each offset are its key's, byte for
        byte; ``words`` is :func:`_words` of the buffer."""
        same = np.ones(len(at), dtype=bool)
        for i, (image, mask) in enumerate(zip(self._image, self._mask)):
            same &= (words[at + 8 * i] & np.take(mask, key)) == np.take(image, key)
        return same


def _separating_columns(table: np.ndarray) -> list[int]:
    """Columns whose bytes tell the rows of ``table`` apart.

    Starts from every column whose byte varies, then drops, widest (most
    distinct bytes) first, each column the others can spare; raises
    ``ValueError`` when not even all of them tell the rows apart.
    """
    by_column = np.ascontiguousarray(table.T)
    radix = [int((np.bincount(column, minlength=256) > 0).sum()) for column in by_column]

    def apart(columns: list[int]) -> bool:
        code = np.zeros(len(table), dtype=np.int64)
        span = 1
        for column in columns:
            if span > 2**54:  # renumber before the next byte overflows
                code = np.unique(code, return_inverse=True)[1]
                span = len(table)
            code *= 256
            code += by_column[column]
            span *= 256
        code.sort()
        return bool((code[1:] != code[:-1]).all())

    kept = [c for c in range(table.shape[1]) if radix[c] > 1]
    if not apart(kept):
        raise ValueError("no byte columns tell the table's keys apart")
    for column in sorted(kept, key=lambda c: (-radix[c], -c)):
        rest = [c for c in kept if c != column]
        if apart(rest):
            kept = rest
    return kept


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

    Cnames and heads are looked up by :class:`_TableIndex`: a cname,
    with the space that ends it, from a few bytes before that space (its
    digit places), a head from its first bytes (its XID).  The head's
    length fixes where a job tag must start.
    """

    def __init__(self, machine: TitanMachine, etype_by_head: dict[str, int]) -> None:
        # Each cname with the space that ends it.
        cnames = (" \n".join(machine.cname_table()) + " ").encode().split(b"\n")
        self._cnames = _TableIndex(cnames, from_end=True)
        #: A cname ends at the first of its lengths that a space follows.
        self._cname_lengths = np.flatnonzero(np.bincount(self._cnames.lengths[:-1] - 1))
        self._heads = _TableIndex([head.encode() for head in etype_by_head])
        self._head_etype = np.array(list(etype_by_head.values()), dtype=np.int16)
        #: Shortest claimable line: stamp, space, cname, space, head.
        self._min_len = int(28 + self._cname_lengths[0] + self._heads.lengths[:-1].min())
        #: Farthest a read reaches past a line's start: the word that
        #: opens a job tag after the longest cname and head.
        self._reach = int(28 + self._cname_lengths[-1] + self._heads.width + 8)

    def decode(self, batch: tuple[str, ...]) -> tuple[np.ndarray, EventLog] | None:
        """Batch line indices of the claimed lines, and their rows.

        Returns None — leave the whole batch to the reference — when a
        line holds an embedded newline, so that the newlines of the
        joined text no longer mark line boundaries.
        """
        # Zero padding lets every read run past the end.
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
        words = _words(buf)

        us, ok = _stamp_micros(buf, start)
        cname = start + 27
        body = cname + self._cname_lengths[-1] + 1
        for length in reversed(self._cname_lengths[:-1]):
            body = np.where(buf[cname + length] == ord(" "), cname + length + 1, body)
        gpu = self._cnames.guess(buf, body)
        ok &= self._cnames.equal(words, cname, gpu)
        head = self._heads.guess(buf, body)
        ok &= self._heads.equal(words, body, head)
        job, tail_ok = _job_tags(buf, words, body + self._heads.lengths[head], end)
        ok &= tail_ok

        claimed = np.flatnonzero(ok)
        return lines[claimed], EventLog.from_arrays(
            time=us[claimed] / _US_PER_SECOND,
            gpu=gpu[claimed],
            etype=self._head_etype[head[claimed]],
            job=job[claimed],
        )


#: The block decoder of each machine, built on first use: it holds no
#: state of a parse, so every parser of one machine shares it.
_DECODERS: "weakref.WeakKeyDictionary[TitanMachine, _BlockDecoder]" = (
    weakref.WeakKeyDictionary()
)


def _block_decoder(machine: TitanMachine) -> _BlockDecoder:
    decoder = _DECODERS.get(machine)
    if decoder is None:
        decoder = _BlockDecoder(machine, _ETYPE_BY_HEAD)
        _DECODERS[machine] = decoder
    return decoder


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

    Lines classify through the SEC rule catalog
    (:data:`~repro.telemetry.sec.SEC_RULES`), which the block decoder's
    head table follows; a new XID goes into the catalog.
    """

    def __init__(
        self,
        machine: TitanMachine,
        *,
        strict: bool = False,
        resync: bool = True,
        error_budget: float | None = None,
        quarantine: QuarantineSink | None = None,
    ) -> None:
        self.machine = machine
        self.strict = bool(strict)
        self.resync = bool(resync)
        if error_budget is not None and not 0.0 <= error_budget <= 1.0:
            raise ValueError("error_budget must be in [0, 1] or None")
        self.error_budget = error_budget
        self.quarantine = quarantine
        self._decoder = _block_decoder(machine)

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
        decoded = self._decoder.decode(batch)
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
            etype = classify_line(match["body"])
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
            etype = classify_line(head_match["body"])
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
                    etype = classify_line(match["body"])
                except UnmatchedLine:
                    etype = None
                if etype is not None and self._emit(builder, stats, match, etype):
                    stats.parsed_events += 1
                    stats.resynced_lines += 1
                    return True
            pos = anchor.start() + 1

    def parse_text(self, text: str) -> tuple[EventLog, ParseStats]:
        return self.parse_lines(_split_lines(text))
