"""Fixed-format timestamp codec for console telemetry.

Console log lines carry one timestamp format, ever:
``%Y-%m-%dT%H:%M:%S.%f`` (e.g. ``2014-03-02T14:55:01.123456``).  The
generic :func:`datetime.datetime.strptime` / ``strftime`` pair costs
tens of microseconds per line — at fleet scale that is the single
largest term in the telemetry round trip — so this module provides a
hand-rolled codec for exactly that format:

* :func:`stamp_bytes` — seconds-since-study-epoch → the stamps' ASCII
  bytes, one 26-byte row per time, byte-identical, row for row, to
  ``timestamp_to_datetime(ts).isoformat(timespec="microseconds")``
  (``strftime`` with the same format, for years from 1000 on); the
  console writer copies the rows into its line blocks;
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
and arithmetic (on the formatting side, array arithmetic with no
per-stamp Python at all).  Microsecond rounding on the formatting side replicates
``datetime.timedelta(seconds=ts)`` exactly (``np.modf`` + round-half-
even); the parsing side uses pure integer arithmetic and one final
division, matching ``timedelta.total_seconds()`` bit for bit.  The
equivalence is locked by property tests against the stdlib reference
(``tests/test_timecodec.py``).
"""

from __future__ import annotations

import datetime as _dt
from collections.abc import Iterable

import numpy as np

from repro.units import DAY, HOUR, MINUTE, STUDY_EPOCH, datetime_to_timestamp

__all__ = [
    "TIMESTAMP_FORMAT",
    "TIMESTAMP_WIDTH",
    "parse_timestamp",
    "stamp_bytes",
    "stamp_microseconds",
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

#: Days from the epoch to the first and the last date a stamp spells
#: (years 1 to 9999).
_FIRST_DAY = _dt.date.min.toordinal() - _EPOCH_ORDINAL
_LAST_DAY = _dt.date.max.toordinal() - _EPOCH_ORDINAL
#: No time this far from the epoch (about 31,700 years) falls inside
#: those years, and every nearer one counts its microseconds in int64.
_MAX_SECONDS = 1e12

#: Per-day memo tables.  A 21-month study touches ~640 distinct days;
#: hostile (chaos-corrupted) streams can mint more, so both tables are
#: bounded — on overflow they reset rather than grow without limit.
_DATE_OF_DAY: dict[int, str] = {}
_DAY_US_OF_DATE: dict[str, int] = {}
_MEMO_LIMIT = 16_384

#: A stamp is assembled as seven little-endian 4-byte words: ``YYYY``,
#: ``-MM-``, ``DDTH``, ``H:MM``, ``:SS.``, the first four and the last
#: two microsecond digits.  Words two and three follow the minute of
#: the day (word two's ``DD`` half is the date's); word four the second.
_MINUTE_WORDS: np.ndarray = np.frombuffer(
    "".join(f"\0\0T{m // 60:02d}:{m % 60:02d}" for m in range(24 * 60)).encode(
        "ascii"
    ),
    dtype="<u4",
).reshape(-1, 2)
_SECOND_WORDS: np.ndarray = np.frombuffer(
    "".join(f":{s:02d}." for s in range(60)).encode("ascii"), dtype="<u4"
)
#: Four ASCII digits of every value below 10,000, one word each.
_4D_WORDS: np.ndarray = np.frombuffer(
    "".join(f"{i:04d}" for i in range(10_000)).encode("ascii"), dtype="<u4"
)
_2D_WORDS: np.ndarray = np.frombuffer(
    "".join(f"{i:02d}\0\0" for i in range(100)).encode("ascii"), dtype="<u4"
)

#: Two-digit ASCII field → value.  ``parse_timestamp`` decodes hour,
#: minute and second through this table; a miss is not two digits.
_2D_VALUE: dict[str, int] = {f"{i:02d}": i for i in range(100)}


def _date_of_day(day: int) -> str:
    """Memoized ``YYYY-MM-DD`` prefix for a day offset from the epoch."""
    date = _DATE_OF_DAY.get(day)
    if date is None:
        if len(_DATE_OF_DAY) >= _MEMO_LIMIT:
            _DATE_OF_DAY.clear()
        date = _dt.date.fromordinal(_EPOCH_ORDINAL + day).isoformat()
        _DATE_OF_DAY[day] = date
    return date


def stamp_microseconds(times: np.ndarray | Iterable[float]) -> np.ndarray:
    """Microseconds since the epoch of each time, as
    ``timedelta(seconds=t)`` counts them.

    The µs normalization maps ``timedelta``'s ``modf`` + ``round``
    (half-even) to ``np.modf`` + ``np.rint``, the same IEEE-754
    operations.  Raises ``ValueError`` for a time that is not finite
    or whose stamp would fall outside years 1-9999, naming the first
    time that is not finite or near, else the first one outside.
    """
    arr = np.asarray(times, dtype=np.float64)
    near = np.abs(arr) < _MAX_SECONDS  # False for NaN too
    if not near.all():
        raise _unstamped(arr[~near])
    frac, whole = np.modf(arr)
    total_us = whole.astype(np.int64) * _US_PER_SECOND + np.rint(
        frac * 1e6
    ).astype(np.int64)
    outside = (total_us < _FIRST_DAY * _US_PER_DAY) | (
        total_us >= (_LAST_DAY + 1) * _US_PER_DAY
    )
    if outside.any():
        raise _unstamped(arr[outside])
    return total_us


def stamp_bytes(microseconds: np.ndarray) -> np.ndarray:
    """ASCII ``YYYY-MM-DDTHH:MM:SS.ffffff`` stamps of the microsecond
    counts :func:`stamp_microseconds` returns, one
    :data:`TIMESTAMP_WIDTH`-byte ``uint8`` row each.

    The divmod cascade runs once per *array*, and each stamp is seven
    words looked up in small tables: the date's per distinct day, the
    clock's by minute of the day and second, the fraction's by its
    first four and last two digits.
    """
    day, us = np.divmod(np.asarray(microseconds, dtype=np.int64), _US_PER_DAY)
    second, us = np.divmod(us, _US_PER_SECOND)
    minute, second = np.divmod(second, _SECONDS_PER_MINUTE)
    us_high, us_low = np.divmod(us, 100)
    distinct, inverse = np.unique(day, return_inverse=True)
    dates = "".join(_date_of_day(d) + "\0\0" for d in distinct.tolist())
    date_words = np.frombuffer(dates.encode("ascii"), dtype="<u4").reshape(-1, 3)
    date_words = np.take(date_words, inverse, axis=0)
    minute_words = np.take(_MINUTE_WORDS, minute, axis=0)
    words = np.empty((len(day), 7), dtype="<u4")
    words[:, 0] = date_words[:, 0]
    words[:, 1] = date_words[:, 1]
    words[:, 2] = date_words[:, 2] | minute_words[:, 0]
    words[:, 3] = minute_words[:, 1]
    words[:, 4] = np.take(_SECOND_WORDS, second)
    words[:, 5] = np.take(_4D_WORDS, us_high)
    words[:, 6] = np.take(_2D_WORDS, us_low)
    return words.view(np.uint8)[:, :TIMESTAMP_WIDTH]


def _unstamped(times: np.ndarray) -> ValueError:
    """The error for the first of ``times``, none of which has a stamp."""
    return ValueError(f"time {float(times[0])!r} s has no stamp in years 1-9999")


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
