"""Tests for parent/child event filtering."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.filtering import (
    dedup_by_card,
    first_of_each_card,
    sequential_dedup,
    sequential_keep_mask,
    split_parents_children,
)
from repro.core.study import TitanStudy
from repro.errors.event import EventLogBuilder
from repro.errors.xid import ErrorType
from repro.units import HOUR
from tests.kernel_oracles import sequential_keep_mask_loop


def make_log(times, gpus=None, jobs=None, etype=ErrorType.GRAPHICS_ENGINE_EXCEPTION):
    b = EventLogBuilder()
    for i, t in enumerate(times):
        b.add(
            float(t),
            int(gpus[i]) if gpus is not None else i % 5,
            etype,
            job=int(jobs[i]) if jobs is not None else -1,
        )
    return b.freeze().sorted_by_time()


class TestSequentialDedup:
    def test_five_second_window(self):
        # burst of echoes at t=0..4, then a new parent at t=100
        log = make_log([0.0, 1.0, 2.0, 3.0, 100.0])
        result = sequential_dedup(log, 5.0)
        assert result.n_kept == 2
        assert result.kept.time.tolist() == [0.0, 100.0]
        assert result.n_dropped == 3

    def test_window_resets_on_kept_event(self):
        # events every 3 s: with a 5 s window, keep every other one
        log = make_log([0.0, 3.0, 6.0, 9.0, 12.0])
        result = sequential_dedup(log, 5.0)
        assert result.kept.time.tolist() == [0.0, 6.0, 12.0]

    def test_zero_window_keeps_all(self):
        log = make_log([0.0, 0.1, 0.2])
        assert sequential_dedup(log, 0.0).n_kept == 3

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            sequential_dedup(make_log([0.0]), -1.0)

    def test_unsorted_rejected(self):
        b = EventLogBuilder()
        b.add(10.0, 0, ErrorType.DBE)
        b.add(5.0, 0, ErrorType.DBE)
        with pytest.raises(ValueError):
            sequential_dedup(b.freeze(), 5.0)

    def test_per_job_mode(self):
        # two jobs interleaved: global filter would suppress job B's event
        log = make_log([0.0, 1.0, 2.0], jobs=[7, 8, 7])
        result = sequential_dedup(log, 5.0, per_job=True)
        assert result.n_kept == 2
        assert set(result.kept.job.tolist()) == {7, 8}

    def test_per_job_keeps_untagged(self):
        log = make_log([0.0, 1.0], jobs=[-1, -1])
        assert sequential_dedup(log, 5.0, per_job=True).n_kept == 2

    def test_split_halves_partition(self):
        log = make_log([0.0, 1.0, 50.0, 51.0])
        parents, children = split_parents_children(log, 5.0)
        assert len(parents) + len(children) == len(log)
        assert parents.time.tolist() == [0.0, 50.0]
        assert children.time.tolist() == [1.0, 51.0]

    def test_idempotent(self):
        """Filtering an already-filtered stream changes nothing."""
        log = make_log(np.sort(np.random.default_rng(0).uniform(0, 1e4, 200)))
        once = sequential_dedup(log, 5.0).kept
        twice = sequential_dedup(once, 5.0).kept
        assert np.array_equal(once.time, twice.time)

    @given(
        times=st.lists(
            st.floats(0, 1e5, allow_nan=False), min_size=1, max_size=80
        ),
        window=st.floats(0.1, 1e3),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_kept_gaps_exceed_window(self, times, window):
        log = make_log(sorted(times))
        kept = sequential_dedup(log, window).kept
        gaps = np.diff(kept.time)
        assert np.all(gaps >= window)
        # first event is always kept
        assert kept.time[0] == min(times)

    def test_nan_window_rejected(self):
        """A NaN threshold compares false everywhere, so the loop kept
        every event; it now raises instead of answering silently."""
        log = make_log([0.0, 1.0, 2.0], jobs=[7, 7, 7])
        with pytest.raises(ValueError):
            sequential_dedup(log, float("nan"))
        with pytest.raises(ValueError):
            sequential_dedup(log, float("nan"), per_job=True)
        with pytest.raises(ValueError):
            sequential_keep_mask(log.time, float("nan"))

    def test_infinite_window_keeps_first_event(self):
        log = make_log([0.0, 1.0, 1e9])
        assert sequential_dedup(log, float("inf")).kept.time.tolist() == [0.0]

    def test_halves_are_built_lazily(self):
        result = sequential_dedup(make_log([0.0, 1.0, 50.0]), 5.0)
        assert (result.n_kept, result.n_dropped) == (2, 1)
        assert result.kept.time.tolist() == [0.0, 50.0]
        assert "dropped" not in vars(result)
        assert result.dropped.time.tolist() == [1.0]


_WINDOWS = (0.0, 1e-3, 5.0, 300.0, float("inf"))


@st.composite
def sorted_times(draw):
    """Sorted times with ties, ulp-sized gaps and events a few ulps
    either side of ``w`` after an earlier event.

    Starts are drawn where ``t + w`` rounds differently: inside
    2^26-2^27 s (ulp 2^-26 s: ``t + 1e-3`` rounds up), just below 2^27
    (the stream crosses into ulp 2^-25 s, where it rounds down), and
    just before the epoch, where ``s - t`` is inexact and can reach the
    window below ``t + w``.
    """
    t = draw(
        st.one_of(
            st.floats(2.0**26, 2.0**27),
            st.floats(2.0**27 - 2000.0, 2.0**27),
            st.floats(-400.0, 0.0),
        )
    )
    out = []
    for _ in range(draw(st.integers(0, 60))):
        out.append(t)
        kind = draw(st.sampled_from(("tie", "ulp", "window", "free")))
        if kind == "ulp":
            for _ in range(draw(st.integers(1, 3))):
                t = np.nextafter(t, np.inf)
        elif kind == "window":  # measured from any earlier event
            t = draw(st.sampled_from(out)) + draw(st.sampled_from(_WINDOWS[1:-1]))
            toward = draw(st.sampled_from((-np.inf, np.inf)))
            for _ in range(draw(st.integers(0, 3))):
                t = np.nextafter(t, toward)
            t = max(t, out[-1])
        elif kind == "free":
            t = t + draw(st.floats(0.0, 600.0))
    return np.asarray(out, dtype=np.float64)


def _below_rounded_window(t, window):
    """``[t, t + 1 ulp, s]`` with ``s`` the float just below ``t + window``.

    Before the epoch ``s - t`` rounds up to the full window, so ``s`` is
    kept, yet it sorts below the rounded ``t + window`` that seeds the
    search, and its gap to its predecessor is under the window.
    """
    return np.array(
        [t, np.nextafter(t, np.inf), np.nextafter(t + window, -np.inf)]
    )


class TestKeepMaskMatchesLoop:
    """The vectorized global dedup equals the per-event loop bit for bit."""

    @given(times=sorted_times(), window=st.sampled_from(_WINDOWS))
    @example(times=_below_rounded_window(-2.178229876071274, 5.0), window=5.0)
    @example(times=_below_rounded_window(-262.8767830450067, 300.0), window=300.0)
    @example(times=np.arange(10_000, dtype=np.float64) * 5.0, window=5.0)
    @settings(max_examples=300, deadline=None)
    def test_property_equals_loop(self, times, window):
        expected = sequential_keep_mask_loop(times, window)
        assert np.array_equal(sequential_keep_mask(times, window), expected)

    @given(times=sorted_times(), window=st.sampled_from(_WINDOWS))
    @settings(max_examples=50, deadline=None)
    def test_property_infinite_times_equal_loop(self, times, window):
        # One of each: inf - inf is NaN, so a repeated infinity is not
        # a sorted log.
        times = np.concatenate([[-np.inf], times, [np.inf]])
        with np.errstate(invalid="ignore"):  # the loop's -inf - -inf
            expected = sequential_keep_mask_loop(times, window)
            assert np.array_equal(sequential_keep_mask(times, window), expected)

    @pytest.mark.parametrize("window", [0.5, 5.0, 60.0, 300.0, HOUR])
    @pytest.mark.parametrize(
        "etype", [ErrorType.GRAPHICS_ENGINE_EXCEPTION, ErrorType.MEM_PAGE_FAULT]
    )
    def test_smoke_log_streams(self, smoke_dataset, etype, window):
        times = smoke_dataset.parsed_events.of_type(etype).time
        assert times.size > 100
        expected = sequential_keep_mask_loop(times, window)
        assert np.array_equal(sequential_keep_mask(times, window), expected)


class TestStudyWindows:
    @pytest.mark.parametrize("figure", ["fig10", "fig12"])
    def test_nan_window_rejected(self, smoke_dataset, figure):
        with pytest.raises(ValueError):
            getattr(TitanStudy(smoke_dataset), figure)(float("nan"))

    def test_fig12_grids_sum_to_the_counts(self, smoke_dataset):
        fig12 = TitanStudy(smoke_dataset).fig12(60.0)
        assert fig12.grid_filtered.sum() == fig12.n_filtered
        assert fig12.grid_unfiltered.sum() == fig12.n_unfiltered


class TestDedupByCard:
    def test_one_per_card(self):
        log = make_log([0.0, 1.0, 2.0, 3.0], gpus=[5, 5, 6, 5])
        result = dedup_by_card(log)
        assert result.n_kept == 2
        assert result.kept.gpu.tolist() == [5, 6]
        # the *first* event of each card survives
        assert result.kept.time.tolist() == [0.0, 2.0]

    def test_shorthand(self):
        log = make_log([0.0, 1.0], gpus=[1, 1])
        assert len(first_of_each_card(log)) == 1

    def test_empty(self):
        from repro.errors.event import EventLog

        assert dedup_by_card(EventLog.empty()).n_kept == 0
