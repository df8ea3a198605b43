"""Property tests locking the fixed-format timestamp codec to stdlib.

The codec (``repro.telemetry.timecodec``) replaces strptime/strftime in
the telemetry hot loops; its entire contract is *indistinguishability*
from the stdlib reference over the study's time range:

* ``stamp_bytes(stamp_microseconds(ts))`` (the vectorized renderer)
  is byte-identical, row for row, to
  ``timestamp_to_datetime(ts).strftime(TIMESTAMP_FORMAT)``;
* ``parse_timestamp(stamp)`` is bit-identical (float64) to
  ``datetime_to_timestamp(datetime.strptime(stamp, TIMESTAMP_FORMAT))``
  and rejects exactly the stamps strptime rejects, non-ASCII digits
  included.
"""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.timecodec import (
    TIMESTAMP_FORMAT,
    TIMESTAMP_WIDTH,
    parse_timestamp,
    stamp_bytes,
    stamp_microseconds,
)
from repro.units import DAY, datetime_to_timestamp, timestamp_to_datetime

#: The study window (21 months) with a year of slack either side, so
#: the properties cover every stamp the simulator can ever render.
_TS_RANGE = st.floats(
    min_value=-365.0 * float(DAY),
    max_value=1000.0 * float(DAY),
    allow_nan=False,
    allow_infinity=False,
)

#: Adversarial fractions around the µs rounding boundary (half-even).
_EDGE_TS = [
    0.0,
    -0.0,
    1e-7,
    0.9999995,
    0.99999949999,
    1.0000005,
    59.9999999,
    86399.9999996,
    -0.5e-6,
    123456.2812499999,
    123456.2812500001,
]


def _reference_format(ts: float) -> str:
    return timestamp_to_datetime(ts).strftime(TIMESTAMP_FORMAT)


def _stamps(times) -> list[str]:
    """The codec's stamps of ``times``, as text."""
    rows = stamp_bytes(stamp_microseconds(np.asarray(times, dtype=np.float64)))
    assert rows.dtype == np.uint8 and rows.shape[1:] == (TIMESTAMP_WIDTH,)
    return [row.tobytes().decode("ascii") for row in rows]


def _reference_parse(stamp: str) -> float:
    return datetime_to_timestamp(dt.datetime.strptime(stamp, TIMESTAMP_FORMAT))


class TestFormat:
    @given(ts=_TS_RANGE)
    @settings(max_examples=300, deadline=None)
    def test_matches_strftime(self, ts):
        assert _stamps([ts]) == [_reference_format(ts)]

    @pytest.mark.parametrize("ts", _EDGE_TS)
    def test_rounding_edges(self, ts):
        assert _stamps([ts]) == [_reference_format(ts)]

    def test_width(self):
        assert len(_stamps([0.0])[0]) == TIMESTAMP_WIDTH

    @given(tss=st.lists(_TS_RANGE, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_vectorized_matches_scalar(self, tss):
        assert _stamps(np.asarray(tss)) == [
            _reference_format(ts) for ts in tss
        ]

    def test_vectorized_empty(self):
        assert _stamps(np.asarray([], dtype=np.float64)) == []

    def test_vectorized_edges(self):
        assert _stamps(np.asarray(_EDGE_TS)) == [
            _reference_format(ts) for ts in _EDGE_TS
        ]


class TestParse:
    @given(ts=_TS_RANGE)
    @settings(max_examples=300, deadline=None)
    def test_matches_strptime_bitwise(self, ts):
        stamp = _reference_format(ts)
        got = parse_timestamp(stamp)
        ref = _reference_parse(stamp)
        # Bit-identical, not approximately equal.
        assert got == ref
        assert np.float64(got).tobytes() == np.float64(ref).tobytes()

    @given(ts=_TS_RANGE)
    @settings(max_examples=200, deadline=None)
    def test_round_trip_through_text(self, ts):
        (stamp,) = _stamps([ts])
        assert _stamps([parse_timestamp(stamp)]) == [stamp]

    @pytest.mark.parametrize(
        "stamp",
        [
            "2013-13-01T00:00:00.000000",  # month 13
            "2013-00-01T00:00:00.000000",  # month 0
            "2013-06-32T00:00:00.000000",  # day 32
            "2013-06-00T00:00:00.000000",  # day 0
            "2015-02-29T00:00:00.000000",  # not a leap year
            "2013-06-03T24:00:00.000000",  # hour 24
            "2013-06-03T12:60:00.000000",  # minute 60
            "2013-06-03T12:00:60.000000",  # second 60
            "2013-06-03 12:00:00.000000",  # bad date/time separator
            "2013/06/03T12:00:00.000000",  # bad date separators
            "2013-06-03T12.00.00.000000",  # bad time separators
            "2013-06-03T12:00:00,000000",  # bad fraction separator
            "2013-06-03T+1:00:00.000000",  # sign where strptime wants digits
            "2013-06-03T 1:00:00.000000",  # padding
            "2013-06-03T12:00:00.0000000",  # fraction too long
            "",
            "not a stamp at all!!!!!!!!",
        ],
    )
    def test_rejects_what_strptime_rejects(self, stamp):
        with pytest.raises(ValueError):
            dt.datetime.strptime(stamp, TIMESTAMP_FORMAT)
        with pytest.raises(ValueError):
            parse_timestamp(stamp)

    def test_rejects_short_fractions_that_strptime_tolerates(self):
        # strptime's %f accepts 1-6 digits; the console format is fixed
        # width and the parser's line regex has always demanded \d{6},
        # so the codec enforces the width itself.
        stamp = "2013-06-03T12:00:00.00000"
        assert dt.datetime.strptime(stamp, TIMESTAMP_FORMAT)  # lax reference
        with pytest.raises(ValueError):
            parse_timestamp(stamp)

    def test_accepts_leap_day(self):
        stamp = "2016-02-29T12:34:56.789012"
        assert parse_timestamp(stamp) == _reference_parse(stamp)


#: Offsets of the twenty digits in a stamp.
_DIGIT_AT = [i for i in range(TIMESTAMP_WIDTH) if i not in (4, 7, 10, 13, 16, 19)]


class TestNonAsciiDigits:
    """strptime takes a non-ASCII digit at some offsets and not at
    others: ``%Y`` matches any ``\\d``, the second digit of ``%d``,
    ``%H``, ``%M`` and ``%S`` does after some first digits, and ``%m``,
    ``%f`` and every first digit match ``[0-9]`` only.  The codec must
    follow it exactly."""

    @pytest.mark.parametrize("at", _DIGIT_AT)
    @pytest.mark.parametrize(
        "stamp",
        [
            "2014-03-02T14:55:01.123456",
            "2013-12-31T23:59:59.999999",
            "2016-02-29T10:19:29.000000",
            "2013-11-19T19:19:19.191919",
        ],
    )
    def test_arabic_indic_digit(self, stamp, at):
        assert len(_DIGIT_AT) == 20
        odd = stamp[:at] + chr(0x660 + int(stamp[at])) + stamp[at + 1:]
        try:
            ref = _reference_parse(odd)
        except ValueError:
            with pytest.raises(ValueError):
                parse_timestamp(odd)
        else:
            got = parse_timestamp(odd)
            assert np.float64(got).tobytes() == np.float64(ref).tobytes()
            assert got == parse_timestamp(stamp)

    def test_both_outcomes_occur(self):
        stamp = "2014-03-02T14:55:01.123456"
        accepted = set()
        for at in _DIGIT_AT:
            odd = stamp[:at] + chr(0x660 + int(stamp[at])) + stamp[at + 1:]
            try:
                parse_timestamp(odd)
            except ValueError:
                continue
            accepted.add(at)
        assert accepted == {0, 1, 2, 3, 12, 15, 18}
