"""Fixed-format timestamp codec for console telemetry.

Console log lines carry one timestamp format, ever:
``%Y-%m-%dT%H:%M:%S.%f`` (e.g. ``2014-03-02T14:55:01.123456``).  The
generic :func:`datetime.datetime.strptime` / ``strftime`` pair costs
tens of microseconds per line — at fleet scale that is the single
largest term in the telemetry round trip — so this module provides a
hand-rolled codec for exactly that format:

* :func:`format_timestamp` — seconds-since-study-epoch → stamp text,
  byte-identical to
  ``timestamp_to_datetime(ts).strftime("%Y-%m-%dT%H:%M:%S.%f")``;
* :func:`parse_timestamp` — stamp text → seconds-since-study-epoch,
  value-identical (bit-for-bit ``float64``) to
  ``datetime_to_timestamp(datetime.strptime(stamp, ...))``.  On every
  stamp the console line grammar admits (``\\d`` digits in every field,
  fixed separators, 26 characters) it raises ``ValueError`` exactly
  when the reference does (impossible months, days, hours, minutes or
  seconds).  An ASCII stamp is decoded here, and other ASCII shapes
  are rejected, even the few ``strptime`` takes: a 1–5-digit fraction,
  a space-padded day, a lowercase ``t``.  A 26-character stamp with a
  ``T`` at offset 10 and a non-ASCII character goes to the ``strptime``
  reference, whose fields take a non-ASCII digit at some positions and
  not at others (``%Y`` takes any ``\\d``, ``%m`` and ``%f`` only
  ``[0-9]``).

Both directions memoize the calendar work per *day*: the date prefix
(``YYYY-MM-DD``) is computed once per distinct day and reused for every
stamp on that day, so the per-line cost collapses to integer slicing
and arithmetic.  Microsecond rounding on the formatting side replicates
``datetime.timedelta(seconds=ts)`` exactly (``math.modf`` + round-half-
even); the parsing side uses pure integer arithmetic and one final
division, matching ``timedelta.total_seconds()`` bit for bit.  The
equivalence is locked by property tests against the stdlib reference
(``tests/test_timecodec.py``).
"""

from __future__ import annotations

import datetime as _dt
import math
from collections.abc import Iterable

import numpy as np

from repro.units import DAY, HOUR, MINUTE, STUDY_EPOCH, datetime_to_timestamp

__all__ = [
    "TIMESTAMP_FORMAT",
    "TIMESTAMP_WIDTH",
    "format_timestamp",
    "format_timestamps",
    "parse_timestamp",
]

#: The one and only console timestamp format (reference codec).
TIMESTAMP_FORMAT: str = "%Y-%m-%dT%H:%M:%S.%f"

#: Rendered width of a stamp: ``len("2014-03-02T14:55:01.123456")``.
TIMESTAMP_WIDTH: int = 26

_US_PER_SECOND = 1_000_000
_US_PER_MINUTE = int(MINUTE) * _US_PER_SECOND
_US_PER_HOUR = int(HOUR) * _US_PER_SECOND
_US_PER_DAY = int(DAY) * _US_PER_SECOND
_SECONDS_PER_HOUR = int(HOUR)
_SECONDS_PER_MINUTE = int(MINUTE)

_EPOCH_ORDINAL = STUDY_EPOCH.toordinal()  # STUDY_EPOCH is midnight

#: Per-day memo tables.  A 21-month study touches ~640 distinct days;
#: hostile (chaos-corrupted) streams can mint more, so both tables are
#: bounded — on overflow they reset rather than grow without limit.
_DATE_OF_DAY: dict[int, str] = {}
_DAY_US_OF_DATE: dict[str, int] = {}
_MEMO_LIMIT = 16_384

#: Rendered two-digit fields (hours, minutes, seconds are all < 60).
_2D_TEXT: tuple[str, ...] = tuple(f"{i:02d}" for i in range(60))

#: Two-digit ASCII field → value.  ``parse_timestamp`` decodes hour,
#: minute and second through this table; a miss is not two digits.
_2D_VALUE: dict[str, int] = {f"{i:02d}": i for i in range(100)}


def _total_microseconds(ts: float) -> int:
    """Whole microseconds in ``ts`` seconds, rounded half-to-even.

    Replicates ``datetime.timedelta(seconds=ts)`` normalization: the
    integral part converts exactly, the fractional part rounds to the
    nearest microsecond with banker's rounding — so the formatted stamp
    is byte-identical to the ``timestamp_to_datetime`` + ``strftime``
    reference for every float.
    """
    frac, whole = math.modf(ts)
    return int(whole) * _US_PER_SECOND + round(frac * 1e6)


def _date_of_day(day: int) -> str:
    """Memoized ``YYYY-MM-DD`` prefix for a day offset from the epoch."""
    date = _DATE_OF_DAY.get(day)
    if date is None:
        if len(_DATE_OF_DAY) >= _MEMO_LIMIT:
            _DATE_OF_DAY.clear()
        date = _dt.date.fromordinal(_EPOCH_ORDINAL + day).strftime("%Y-%m-%d")
        _DATE_OF_DAY[day] = date
    return date


def format_timestamp(ts: float) -> str:
    """Render seconds-since-epoch as ``YYYY-MM-DDTHH:MM:SS.ffffff``."""
    day, us = divmod(_total_microseconds(float(ts)), _US_PER_DAY)
    second, us = divmod(us, _US_PER_SECOND)
    minute, second = divmod(second, _SECONDS_PER_MINUTE)
    hour, minute = divmod(minute, _SECONDS_PER_MINUTE)
    return f"{_date_of_day(day)}T{hour:02d}:{minute:02d}:{second:02d}.{us:06d}"


def format_timestamps(times: np.ndarray | Iterable[float]) -> list[str]:
    """Vectorized :func:`format_timestamp` over an array of timestamps.

    Byte-identical, element for element, to the scalar codec in a loop:
    the µs normalization maps ``math.modf`` + ``round`` (half-even) to
    ``np.modf`` + ``np.rint`` — the same IEEE-754 operations — and the
    divmod cascade runs once per *array* instead of once per stamp.
    Timestamps must stay within int64 µs range (±292k years — every
    simulated stream qualifies); the scalar codec has no such bound.
    """
    arr = np.asarray(times, dtype=np.float64)
    if arr.size == 0:
        return []
    frac, whole = np.modf(arr)
    total_us = whole.astype(np.int64) * _US_PER_SECOND + np.rint(
        frac * 1e6
    ).astype(np.int64)
    day, us = np.divmod(total_us, _US_PER_DAY)
    second, us = np.divmod(us, _US_PER_SECOND)
    minute, second = np.divmod(second, _SECONDS_PER_MINUTE)
    hour, minute = np.divmod(minute, _SECONDS_PER_MINUTE)
    two = _2D_TEXT
    out: list[str] = []
    append = out.append
    # Streams are near-sorted, so consecutive stamps usually share a
    # date prefix; track the last one instead of re-querying the memo.
    last_day: int | None = None
    date = ""
    for d, h, m, s, u in zip(
        day.tolist(), hour.tolist(), minute.tolist(),
        second.tolist(), us.tolist(),
    ):
        if d != last_day:
            date = _date_of_day(d)
            last_day = d
        append(f"{date}T{two[h]}:{two[m]}:{two[s]}.{u:06d}")
    return out


def parse_timestamp(stamp: str) -> float:
    """Decode ``YYYY-MM-DDTHH:MM:SS.ffffff`` to seconds since epoch.

    Raises ``ValueError`` for anything that is not a valid stamp of
    exactly that shape — the same inputs ``datetime.strptime`` rejects
    (bad separators, month 13, day 32, hour 24, minute/second 60, …).
    A stamp with a non-ASCII character is left to ``strptime``.
    """
    if len(stamp) != TIMESTAMP_WIDTH or stamp[10] != "T":
        raise ValueError(f"malformed timestamp: {stamp!r}")
    if not stamp.isascii():
        return datetime_to_timestamp(_dt.datetime.strptime(stamp, TIMESTAMP_FORMAT))
    date = stamp[:10]
    day_us = _DAY_US_OF_DATE.get(date)
    if day_us is None:
        if stamp[4] != "-" or stamp[7] != "-":
            raise ValueError(f"malformed timestamp: {stamp!r}")
        if not (
            stamp[0:4].isdigit() and stamp[5:7].isdigit() and stamp[8:10].isdigit()
        ):
            raise ValueError(f"malformed timestamp: {stamp!r}")
        # datetime.date validates month/day ranges exactly like strptime.
        ordinal = _dt.date(
            int(stamp[0:4]), int(stamp[5:7]), int(stamp[8:10])
        ).toordinal()
        day_us = (ordinal - _EPOCH_ORDINAL) * _US_PER_DAY
        if len(_DAY_US_OF_DATE) >= _MEMO_LIMIT:
            _DAY_US_OF_DATE.clear()
        _DAY_US_OF_DATE[date] = day_us
    if stamp[13] != ":" or stamp[16] != ":" or stamp[19] != ".":
        raise ValueError(f"malformed timestamp: {stamp!r}")
    hour = _2D_VALUE.get(stamp[11:13])
    minute = _2D_VALUE.get(stamp[14:16])
    second = _2D_VALUE.get(stamp[17:19])
    if hour is None or minute is None or second is None:
        raise ValueError(f"malformed timestamp: {stamp!r}")
    if not stamp[20:26].isdigit():
        raise ValueError(f"malformed timestamp: {stamp!r}")
    us = int(stamp[20:26])
    if hour > 23 or minute > 59 or second > 59:
        raise ValueError(f"time field out of range: {stamp!r}")
    total_us = (
        day_us
        + (hour * _SECONDS_PER_HOUR + minute * _SECONDS_PER_MINUTE + second)
        * _US_PER_SECOND
        + us
    )
    # One exact integer, one division: bit-identical to
    # (datetime - STUDY_EPOCH).total_seconds().
    return total_us / _US_PER_SECOND
