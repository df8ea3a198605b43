"""Tests for repro.chaos: deterministic corruption + graceful degradation.

The contract under test:

* same ``(seed, config, input)`` → byte-identical corrupted output;
* every mode equals its per-line loop (``tests/chaos_oracles.py``):
  the same output, count and generator state, input left untouched;
* on the degradation curve (a sweep over the ``corruptions`` axis), at
  ≤ 1 % line corruption the Observation scorecard is identical to the
  clean run;
* at 20 % the pipeline completes and reports the parse damage instead
  of raising;
* coverage-normalized MTBF on a gap-injected log stays within 5 % of
  the clean estimate (naive MTBF overstates it);
* importing :mod:`repro.chaos` loads nothing of the analysis layer.
"""

import datetime as dt
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import ArtifactStore
from repro.chaos import ChaosConfig, CorruptionInjector
from repro.chaos import modes
from repro.core.temporal import mtbf_hours
from repro.rng import RngTree
from repro.sweep import SweepSpec, expand, run_sweep, summary_key
from repro.telemetry.coverage import (
    LOW_COVERAGE_THRESHOLD,
    ObservedWindows,
    infer_outage_windows,
)
from repro.telemetry.parser import ConsoleLogParser
from repro.units import DAY, HOUR, timestamp_to_datetime
from tests.chaos_oracles import (
    corrupt_lines_loop,
    displace_lines_loop,
    drop_outage_windows_loop,
    duplicate_lines_loop,
    garble_lines_loop,
    line_timestamps_loop,
    skew_timestamps_loop,
    splice_lines_loop,
    truncate_lines_loop,
)


@pytest.fixture(scope="module")
def sample_text(smoke_dataset):
    """A few thousand real rendered console lines (fast to corrupt)."""
    lines = smoke_dataset.console_text.splitlines()[:3000]
    return "\n".join(lines) + "\n"


def _rng(name: str = "test") -> np.random.Generator:
    return RngTree(123).fresh_generator(name)


def _make_lines(n: int = 20) -> list[str]:
    return [
        timestamp_to_datetime(i * HOUR).strftime("%Y-%m-%dT%H:%M:%S.%f")
        + f" c0-0c0s{i % 8}n{i % 4} GPU XID 48 double-bit ECC error"
        for i in range(n)
    ]


class TestChaosConfig:
    def test_default_is_identity(self):
        assert ChaosConfig().total_line_rate == 0.0

    def test_uniform_splits_level(self):
        config = ChaosConfig.uniform(0.05)
        assert config.total_line_rate == pytest.approx(0.05)
        assert config.truncate_rate == config.garble_rate

    def test_uniform_rejects_bad_level(self):
        with pytest.raises(ValueError):
            ChaosConfig.uniform(-0.1)
        with pytest.raises(ValueError):
            ChaosConfig.uniform(1.5)

    def test_injector_validates_config(self):
        with pytest.raises(ValueError):
            CorruptionInjector(ChaosConfig(garble_rate=2.0))
        with pytest.raises(ValueError):
            CorruptionInjector(ChaosConfig(n_outages=-1))

    def test_outages_only(self):
        config = ChaosConfig.outages_only(3, 2 * HOUR)
        assert config.n_outages == 3
        assert config.total_line_rate == 0.0


class TestInjectorDeterminism:
    CONFIG = ChaosConfig.uniform(0.05)

    def test_byte_identical_same_seed(self, sample_text):
        a = CorruptionInjector(self.CONFIG, seed=42).corrupt_text(sample_text)
        b = CorruptionInjector(self.CONFIG, seed=42).corrupt_text(sample_text)
        assert a.text == b.text
        assert a.counts == b.counts

    def test_injector_is_stateless_across_calls(self, sample_text):
        injector = CorruptionInjector(self.CONFIG, seed=42)
        assert (
            injector.corrupt_text(sample_text).text
            == injector.corrupt_text(sample_text).text
        )

    def test_different_seed_differs(self, sample_text):
        a = CorruptionInjector(self.CONFIG, seed=1).corrupt_text(sample_text)
        b = CorruptionInjector(self.CONFIG, seed=2).corrupt_text(sample_text)
        assert a.text != b.text

    def test_zero_config_is_identity(self, sample_text):
        result = CorruptionInjector(ChaosConfig(), seed=7).corrupt_text(
            sample_text
        )
        assert result.text == sample_text
        assert result.counts == {}
        assert result.n_lines_in == result.n_lines_out

    def test_counts_are_ground_truth(self, sample_text):
        result = CorruptionInjector(self.CONFIG, seed=3).corrupt_text(
            sample_text
        )
        known = {"truncate", "garble", "splice", "duplicate", "displace",
                 "skew", "outage"}
        assert set(result.counts) <= known
        assert result.total_corrupted == sum(result.counts.values())
        assert result.total_corrupted > 0
        # 5 % split over six modes on 3000 lines: each mode ~30 hits.
        assert 5 <= result.counts["garble"] <= 90

    def test_outage_windows_reported(self, sample_text):
        injector = CorruptionInjector(
            ChaosConfig.outages_only(2, 12 * HOUR), seed=11
        )
        result = injector.corrupt_text(sample_text)
        assert result.outage_windows
        assert result.counts.get("outage", 0) > 0
        assert result.n_lines_out < result.n_lines_in

    def test_trailing_newline_preserved(self, sample_text):
        result = CorruptionInjector(self.CONFIG, seed=5).corrupt_text(
            sample_text
        )
        assert result.text.endswith("\n")


class TestModes:
    def test_truncate_shortens(self):
        lines = _make_lines()
        out, n = modes.truncate_lines(_rng(), lines, 1.0)
        assert n == len(lines)
        assert all(len(o) < len(l) for o, l in zip(out, lines))

    def test_garble_preserves_length(self):
        lines = _make_lines()
        out, n = modes.garble_lines(_rng(), lines, 1.0)
        assert n == len(lines)
        assert all(len(o) == len(l) for o, l in zip(out, lines))
        assert out != lines

    def test_splice_merges_pairs(self):
        lines = _make_lines(10)
        out, n = modes.splice_lines(_rng(), lines, 1.0)
        assert n == 5
        assert len(out) == 5
        # Each spliced line ends with a complete successor record.
        assert all(o.endswith(lines[2 * i + 1]) for i, o in enumerate(out))

    def test_duplicate_doubles(self):
        lines = _make_lines(6)
        out, n = modes.duplicate_lines(_rng(), lines, 1.0)
        assert n == 6
        assert len(out) == 12
        assert out[0] == out[1] == lines[0]

    def test_displace_preserves_multiset(self):
        lines = _make_lines(40)
        out, n = modes.displace_lines(_rng(), lines, 0.5, max_offset=8)
        assert n > 0
        assert sorted(out) == sorted(lines)
        assert out != lines

    def test_skew_shifts_stamps_only(self):
        lines = _make_lines(12)
        out, n = modes.skew_timestamps(_rng(), lines, 1.0, max_skew_s=60.0)
        assert n == len(lines)
        before = modes.line_timestamps(lines)
        after = modes.line_timestamps(out)
        assert not np.isnan(after).any()
        assert np.all(np.abs(after - before) <= 60.0)
        # Bodies survive byte-for-byte.
        assert all(o[26:] == l[26:] for o, l in zip(out, lines))

    def test_zero_rate_is_identity(self):
        lines = _make_lines(5)
        for fn in (modes.truncate_lines, modes.garble_lines,
                   modes.splice_lines, modes.duplicate_lines):
            out, n = fn(_rng(), lines, 0.0)
            assert out == lines and n == 0

    def test_line_timestamps_nan_on_garbage(self):
        stamps = modes.line_timestamps(["garbage", _make_lines(1)[0]])
        assert np.isnan(stamps[0]) and not np.isnan(stamps[1])

    def test_drop_outage_windows(self):
        lines = _make_lines(20) + ["no stamp here"]
        window = (5 * HOUR - 1.0, 10 * HOUR + 1.0)  # stamps 5..10
        out, n = modes.drop_outage_windows(lines, (window,))
        assert n == 6
        assert len(out) == len(lines) - 6
        assert "no stamp here" in out  # stampless lines carry no time

    def test_drop_merges_overlapping_windows(self):
        lines = _make_lines(20)
        out, n = modes.drop_outage_windows(
            lines, ((4 * HOUR - 1, 8 * HOUR), (6 * HOUR, 9 * HOUR + 1))
        )
        assert n == 6  # stamps 4..9

    def test_draw_outage_windows_bounded(self):
        windows = modes.draw_outage_windows(
            _rng(), 0.0, 10 * DAY, n_outages=4, mean_duration_s=6 * HOUR
        )
        assert len(windows) == 4
        assert windows == tuple(sorted(windows))
        for lo, hi in windows:
            assert 0.0 <= lo < hi <= 10 * DAY


def _arabic_indic(text: str, at: int | None) -> str:
    """``text`` with the ASCII digit at ``at`` (if any) in Arabic-Indic."""
    if at is None or at >= len(text) or not "0" <= text[at] <= "9":
        return text
    return text[:at] + chr(0x660 + int(text[at])) + text[at + 1:]


def _stamp_line(when: dt.datetime, unicode_at: int | None, body: str) -> str:
    return _arabic_indic(when.strftime("%Y-%m-%dT%H:%M:%S.%f"), unicode_at) + body


#: Instants a day or more inside datetime's range (the skew loop raises
#: within ``max_skew_s`` of its ends), most of them far from the study.
_FAR = st.datetimes(
    min_value=dt.datetime(1, 1, 2), max_value=dt.datetime(9999, 12, 30)
)
_NEAR = st.datetimes(
    min_value=dt.datetime(2013, 1, 1), max_value=dt.datetime(2016, 1, 1)
)
#: Canonical-shaped stamps whose fields may be out of range: year 0,
#: month 13, day 31 of a short month, hour 24, minute or second 60.
_SHAPED = st.builds(
    "{:04d}-{:02d}-{:02d}T{:02d}:{:02d}:{:02d}.{:06d}".format,
    st.sampled_from([0, 1, 2014, 9999]),
    st.integers(0, 13),
    st.integers(0, 32),
    st.integers(0, 25),
    st.integers(0, 61),
    st.integers(0, 61),
    st.integers(0, 999_999),
)
_LINE = st.one_of(
    st.just(""),
    st.builds(str.__add__, _SHAPED, st.sampled_from(["", " c0-0c0s0n0"])),
    st.text(alphabet="0T:-. a\xff", max_size=3),
    st.text(alphabet="0123456789T:-. c\n", min_size=20, max_size=30),
    st.builds(
        _stamp_line,
        _NEAR | _FAR,
        st.none() | st.integers(0, 25),
        st.sampled_from(["", " c0-0c0s0n0 GPU XID 48", "\u0663", "\n x"]),
    ),
)
_LINES = st.lists(_LINE, max_size=40)
_RATE = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
_SEED = st.integers(0, 2**32)


def _equals_loop(mode, loop, lines, seed, *args, **kwargs):
    """``mode`` and its loop agree on output, count and the generator
    state after the call, and neither touches its input."""
    before = list(lines)
    rng = RngTree(seed).fresh_generator("mode")
    ref_rng = RngTree(seed).fresh_generator("mode")
    got = mode(rng, lines, *args, **kwargs)
    assert got == loop(ref_rng, list(lines), *args, **kwargs)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert lines == before


class TestModesEqualTheirLoops:
    """Each mode replays its per-line loop draw for draw."""

    @pytest.mark.parametrize(
        "mode, loop",
        [
            (modes.truncate_lines, truncate_lines_loop),
            (modes.garble_lines, garble_lines_loop),
            (modes.splice_lines, splice_lines_loop),
            (modes.duplicate_lines, duplicate_lines_loop),
        ],
        ids=["truncate", "garble", "splice", "duplicate"],
    )
    @given(lines=_LINES, rate=_RATE, seed=_SEED)
    @settings(max_examples=150, deadline=None)
    def test_line_mode(self, mode, loop, lines, rate, seed):
        _equals_loop(mode, loop, lines, seed, rate)

    @given(
        lines=_LINES, rate=_RATE, seed=_SEED, max_offset=st.integers(1, 4)
    )
    @settings(max_examples=300, deadline=None)
    def test_displace(self, lines, rate, seed, max_offset):
        _equals_loop(
            modes.displace_lines, displace_lines_loop, lines, seed, rate,
            max_offset=max_offset,
        )

    @given(
        n=st.integers(2, 300),
        rate=_RATE,
        seed=_SEED,
        max_offset=st.integers(1, 4),
    )
    @settings(max_examples=150, deadline=None)
    def test_displace_chains_on_distinct_lines(self, n, rate, seed, max_offset):
        """Distinct lines show every move, chained and end-clamped."""
        lines = [str(i) for i in range(n)]
        _equals_loop(
            modes.displace_lines, displace_lines_loop, lines, seed, rate,
            max_offset=max_offset,
        )

    @given(
        lines=_LINES,
        rate=_RATE,
        seed=_SEED,
        max_skew_s=st.sampled_from([0.0, 120.0]) | st.floats(0.0, 120.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_skew(self, lines, rate, seed, max_skew_s):
        _equals_loop(
            modes.skew_timestamps, skew_timestamps_loop, lines, seed, rate,
            max_skew_s=max_skew_s,
        )

    @given(lines=_LINES)
    @settings(max_examples=200, deadline=None)
    def test_line_timestamps_bit_equal(self, lines):
        got = modes.line_timestamps(lines)
        want = line_timestamps_loop(lines)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    @given(
        lines=_LINES,
        seed=_SEED,
        n_outages=st.integers(1, 3),
        duration_s=st.sampled_from([1.0, HOUR, 1e9]),
    )
    @settings(max_examples=150, deadline=None)
    def test_outages(self, lines, seed, n_outages, duration_s):
        before = list(lines)
        config = ChaosConfig.outages_only(n_outages, duration_s)
        got = CorruptionInjector(config, seed=seed).corrupt_lines(lines)
        assert got == corrupt_lines_loop(config, seed, list(lines))
        assert lines == before
        windows = got[2]
        assert modes.drop_outage_windows(lines, windows) == (
            drop_outage_windows_loop(lines, windows)
        )

    @given(lines=_LINES, seed=_SEED, level=_RATE)
    @settings(max_examples=100, deadline=None)
    def test_injector(self, lines, seed, level):
        config = ChaosConfig.uniform(level, n_outages=1)
        got = CorruptionInjector(config, seed=seed).corrupt_lines(lines)
        assert got == corrupt_lines_loop(config, seed, list(lines))

    def test_edge_and_unicode_stamps_read_as_strptime_does(self):
        lines = [
            "0001-01-01T00:00:00.000000 far past",
            "9999-12-31T23:59:59.999999 far future",
            "\u0662014-03-02T14:55:01.123456 strptime takes %Y in any \\d",
            "2014-0\u0663-02T14:55:01.123456 strptime wants %m in [0-9]",
            "0000-01-01T00:00:00.000000 no year 0",
            "2014-02-29T00:00:00.000000 no such day",
            "2014-03-02T24:00:00.000000 no hour 24",
            "2014-03-02T14:55:60.000000 no such second",
            "2014-03-02T14:55:01.1234567 a seventh fraction digit",
            "2014-03-02 14:55:01.123456 no T",
        ]
        got = modes.line_timestamps(lines)
        want = line_timestamps_loop(lines)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        assert np.isnan(got).tolist() == [
            False, False, False, True, True, True, True, True, False, True,
        ]


class TestWholeLogEqualsLoops:
    """On the 45-day smoke log, the injector equals its loops byte for byte."""

    @pytest.mark.parametrize(
        "config",
        [
            ChaosConfig.uniform(0.05),
            ChaosConfig.uniform(0.2),
            ChaosConfig.outages_only(3),
            ChaosConfig.outages_only(3, 2 * DAY),
        ],
        ids=["uniform-0.05", "uniform-0.2", "outages-3", "outages-3x2d"],
    )
    def test_smoke_log(self, smoke_dataset, config):
        text = smoke_dataset.console_text
        result = CorruptionInjector(config, seed=7).corrupt_text(text)
        lines, counts, windows = corrupt_lines_loop(config, 7, text.splitlines())
        assert result.text == "\n".join(lines) + "\n"
        assert result.counts == counts
        assert result.outage_windows == windows
        assert result.n_lines_out == len(lines)
        assert counts  # the log really was corrupted


class TestSkewAtTheEndsOfTime:
    """A skew that would leave datetime's range leaves the line alone."""

    EDGES = {
        "9999-12-31T23:59:59.999999": "late",
        "0001-01-01T00:00:00.000000": "early",
    }

    @pytest.mark.parametrize("stamp", sorted(EDGES))
    def test_never_raises_and_counts_only_applied_shifts(self, stamp):
        text = stamp + " c0-0c0s0n0 GPU has fallen off the bus\n"
        outcomes = set()
        for seed in range(8):
            result = CorruptionInjector(
                ChaosConfig(skew_rate=1.0), seed=seed
            ).corrupt_text(text)
            skewed = result.counts.get("skew", 0)
            assert skewed in (0, 1)
            assert (result.text != text) == bool(skewed)
            assert result.text.endswith(text[26:])
            outcomes.add(skewed)
        # Over eight seeds some shifts stay in range and some leave it.
        assert outcomes == {0, 1}

    @pytest.mark.parametrize("stamp", sorted(EDGES))
    def test_the_shift_is_still_drawn(self, stamp):
        """An unapplied shift moves no other line's draws."""
        tail = "2014-03-02T14:55:01.123456 c0-0c0s0n0 GPU XID 13"
        mid = "2014-01-01T00:00:00.000000 c0-0c0s0n0 GPU XID 13"
        for seed in range(8):
            rng = RngTree(seed).fresh_generator("skew")
            ref_rng = RngTree(seed).fresh_generator("skew")
            at_edge, _ = modes.skew_timestamps(
                rng, [stamp + " x", tail], 1.0
            )
            in_range, _ = modes.skew_timestamps(ref_rng, [mid, tail], 1.0)
            assert at_edge[1] == in_range[1]
            assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestObservedWindows:
    def test_full_coverage(self):
        cov = ObservedWindows.full(0.0, 100.0)
        assert cov.coverage_fraction == 1.0
        assert cov.observed_seconds == 100.0
        assert not cov.is_low()
        assert cov.contains(np.array([0.0, 50.0])).all()

    def test_from_outages_complement(self):
        cov = ObservedWindows.from_outages(
            0.0, 100.0, [(10.0, 20.0), (15.0, 30.0), (90.0, 200.0)]
        )
        assert cov.windows == ((0.0, 10.0), (30.0, 90.0))
        assert cov.coverage_fraction == pytest.approx(0.7)
        assert cov.n_outages == 2
        mask = cov.contains(np.array([5.0, 15.0, 50.0, 95.0]))
        assert mask.tolist() == [True, False, True, False]

    def test_half_open_boundaries(self):
        cov = ObservedWindows.from_windows(0.0, 100.0, [(0.0, 10.0)])
        mask = cov.contains(np.array([0.0, 10.0]))
        assert mask.tolist() == [True, False]

    def test_total_outage(self):
        cov = ObservedWindows.from_outages(0.0, 100.0, [(0.0, 100.0)])
        assert cov.coverage_fraction == 0.0
        assert not cov.contains(np.array([50.0])).any()

    def test_low_coverage_threshold(self):
        cov = ObservedWindows.from_outages(0.0, 100.0, [(0.0, 15.0)])
        assert cov.is_low()
        assert not cov.is_low(threshold=0.8)
        assert 0.0 < LOW_COVERAGE_THRESHOLD < 1.0

    def test_empty_span_rejected(self):
        with pytest.raises(ValueError):
            ObservedWindows.full(10.0, 10.0)

    def test_infer_requires_positive_gap(self):
        with pytest.raises(ValueError):
            infer_outage_windows([1.0], 0.0, 10.0, min_gap_s=0.0)

    def test_infer_empty_stream_is_total_outage(self):
        cov = infer_outage_windows([], 0.0, 100.0, min_gap_s=10.0)
        assert cov.coverage_fraction == 0.0


class TestCoverageCorrectedMtbf:
    """Acceptance: gap-corrected MTBF within 5 % of the clean estimate."""

    def test_outage_injection_and_correction(self, smoke_dataset):
        from repro.errors.xid import ErrorType

        sc = smoke_dataset.scenario
        span = sc.end - sc.start
        # The DBE stream is the paper's MTBF subject and is not bursty
        # (Obs 1), so its rate is stationary enough for the 5 % bound;
        # the all-events stream contains XID 13 storms and is not.
        clean = mtbf_hours(
            smoke_dataset.parsed_events.of_type(ErrorType.DBE), span_s=span
        )

        injector = CorruptionInjector(
            ChaosConfig.outages_only(3, 2 * DAY), seed=99
        )
        result = injector.corrupt_text(smoke_dataset.console_text)
        assert result.outage_windows

        log, stats = ConsoleLogParser(smoke_dataset.machine).parse_text(
            result.text
        )
        log = log.sorted_by_time().of_type(ErrorType.DBE)
        coverage = ObservedWindows.from_outages(
            sc.start, sc.end, result.outage_windows
        )
        assert coverage.coverage_fraction < 1.0

        corrected = mtbf_hours(log, coverage=coverage)
        naive = mtbf_hours(log, span_s=span)
        assert corrected == pytest.approx(clean, rel=0.05)
        assert naive > corrected  # gap bias overstates MTBF

    def test_inferred_coverage_matches_ground_truth(self, smoke_dataset):
        """Silence-based inference finds injected multi-day outages.

        The inferred windows shrink each outage by ``min_gap_s`` (half
        a threshold of slack at each edge), so inferred coverage sits
        slightly *above* ground truth — bounded below by the truth and
        above by truth + n_outages x min_gap / span.
        """
        sc = smoke_dataset.scenario
        min_gap = 2 * DAY  # above this 45-day stream's natural silences
        injector = CorruptionInjector(
            ChaosConfig.outages_only(2, 6 * DAY), seed=17
        )
        result = injector.corrupt_text(smoke_dataset.console_text)
        log, _ = ConsoleLogParser(smoke_dataset.machine).parse_text(
            result.text
        )
        truth = ObservedWindows.from_outages(
            sc.start, sc.end, result.outage_windows
        )
        inferred = infer_outage_windows(
            np.sort(log.time), sc.start, sc.end, min_gap_s=min_gap
        )
        assert inferred.n_outages >= 1
        slack = (inferred.n_outages * min_gap) / (sc.end - sc.start)
        assert (
            truth.coverage_fraction - 0.02
            <= inferred.coverage_fraction
            <= truth.coverage_fraction + slack + 0.02
        )

    def test_clean_stream_infers_full_coverage(self, smoke_dataset):
        sc = smoke_dataset.scenario
        cov = infer_outage_windows(
            np.sort(smoke_dataset.parsed_events.time),
            sc.start,
            sc.end,
            min_gap_s=2 * DAY,
        )
        assert cov.coverage_fraction == pytest.approx(1.0, abs=0.02)


class TestDegradationSweep:
    """The degradation curve is a sweep over the ``corruptions`` axis."""

    LEVELS = (0.0, 0.001, 0.01, 0.2)

    @pytest.fixture(scope="class")
    def curve(self, tmp_path_factory):
        """``(table row, summary doc)`` per level, in grid order."""
        spec = SweepSpec(
            name="degradation",
            base="smoke",
            days=45.0,
            seed=20131001,
            corruptions=self.LEVELS,
        )
        store = ArtifactStore(tmp_path_factory.mktemp("degradation"))
        rows = run_sweep(spec, store).document["rows"]
        docs = [
            json.loads(store.get_bytes(summary_key(p.key))[0].decode())
            for p in expand(spec)
        ]
        return list(zip(rows, docs))

    def test_clean_anchor_leads_the_curve(self, curve):
        """The clean anchor leads the curve and reports no damage."""
        levels = [row["axes"]["corruption"] for row, _doc in curve]
        assert levels == sorted(levels) == list(self.LEVELS)
        anchor, doc = curve[0]
        assert anchor["is_anchor"]
        assert anchor["corrupt_fraction"] == 0.0
        assert doc["telemetry"]["corrupt_fraction"] == 0.0
        assert doc["telemetry"]["injected"] == {}

    def test_scorecard_identical_at_one_percent(self, curve):
        """≤ 1 % corruption must not flip any Observation check."""
        for row, _doc in curve:
            if row["axes"]["corruption"] <= 0.01:
                assert row["scorecard_flips"] == []

    def test_twenty_percent_completes_and_reports_damage(self, curve):
        row, doc = curve[-1]
        assert row["axes"]["corruption"] == pytest.approx(0.20)
        # The pipeline completed: a full scorecard exists and the
        # damage is measured.
        assert row["n_checks"] == curve[0][0]["n_checks"]
        assert row["corrupt_fraction"] > 0.0
        assert doc["telemetry"]["corrupt_fraction"] == row["corrupt_fraction"]
        assert doc["telemetry"]["parsed_events"] > 0
        assert doc["telemetry"]["injected"]  # injector ground truth

    def test_resync_recovered_lines(self, curve):
        assert curve[-1][0]["resynced_lines"] > 0

    def test_flips_name_only_anchor_checks(self, curve):
        """Flips only ever name checks of the clean anchor's card."""
        anchor_checks = {c["name"] for c in curve[0][1]["scorecard"]}
        for row, _doc in curve:
            assert set(row["scorecard_flips"]) <= anchor_checks


def test_import_stays_below_the_analysis_layer():
    """``import repro.chaos`` loads no analysis, simulator or parser
    module (checked in a fresh interpreter)."""
    env = dict(os.environ)
    src_root = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = str(src_root) + os.pathsep + env.get("PYTHONPATH", "")
    code = "import sys, repro.chaos; print('\\n'.join(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = proc.stdout.split()
    assert "repro.chaos.injector" in loaded
    layers = ("repro.core", "repro.sim", "repro.telemetry")
    assert [
        name
        for name in loaded
        if any(name == p or name.startswith(p + ".") for p in layers)
    ] == []
