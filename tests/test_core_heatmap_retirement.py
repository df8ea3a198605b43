"""Tests for the follow-probability heatmap and retirement-delay analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.heatmap import DEFAULT_HEATMAP_TYPES, follow_probability_matrix
from repro.core.retirement import retirement_delay_analysis
from repro.core.study import TitanStudy
from repro.errors.event import EventLog, EventLogBuilder
from repro.errors.xid import ErrorType
from repro.units import HOUR, MINUTE
from tests.kernel_oracles import follow_matrix_loop


def build(events):
    b = EventLogBuilder()
    for t, gpu, etype in events:
        b.add(float(t), gpu, etype)
    return b.freeze().sorted_by_time()


class TestFollowMatrix:
    def test_simple_follow(self):
        log = build([
            (0.0, 1, ErrorType.DBE),
            (10.0, 1, ErrorType.PREEMPTIVE_CLEANUP),
            (1000.0, 2, ErrorType.DBE),  # no follower
        ])
        fm = follow_probability_matrix(log, window_s=300.0)
        assert fm.value(ErrorType.DBE, ErrorType.PREEMPTIVE_CLEANUP) == 0.5
        # cleanup at t=10; the next DBE is 990 s later, outside the window
        assert fm.value(ErrorType.PREEMPTIVE_CLEANUP, ErrorType.DBE) == 0.0

    def test_follow_window_boundary(self):
        log = build([
            (0.0, 1, ErrorType.DBE),
            (300.0, 1, ErrorType.GPU_STOPPED),  # exactly at window edge
        ])
        fm = follow_probability_matrix(log, window_s=300.0)
        assert fm.value(ErrorType.DBE, ErrorType.GPU_STOPPED) == 1.0

    def test_diagonal_excludes_self(self):
        log = build([(0.0, 1, ErrorType.DBE)])
        fm = follow_probability_matrix(log, window_s=300.0)
        assert fm.value(ErrorType.DBE, ErrorType.DBE) == 0.0

    def test_diagonal_same_type_repeats(self):
        log = build([
            (0.0, 1, ErrorType.GRAPHICS_ENGINE_EXCEPTION),
            (1.0, 2, ErrorType.GRAPHICS_ENGINE_EXCEPTION),
            (2.0, 3, ErrorType.GRAPHICS_ENGINE_EXCEPTION),
        ])
        fm = follow_probability_matrix(log, window_s=300.0)
        # first two are each followed by another 13; last is not
        assert fm.value(
            ErrorType.GRAPHICS_ENGINE_EXCEPTION, ErrorType.GRAPHICS_ENGINE_EXCEPTION
        ) == pytest.approx(2 / 3)

    def test_without_same_type(self):
        log = build([
            (0.0, 1, ErrorType.GRAPHICS_ENGINE_EXCEPTION),
            (1.0, 2, ErrorType.GRAPHICS_ENGINE_EXCEPTION),
        ])
        fm = follow_probability_matrix(log, window_s=300.0).without_same_type()
        assert fm.value(
            ErrorType.GRAPHICS_ENGINE_EXCEPTION, ErrorType.GRAPHICS_ENGINE_EXCEPTION
        ) == 0.0

    def test_counts_and_labels(self):
        log = build([(0.0, 1, ErrorType.DBE)])
        fm = follow_probability_matrix(log)
        assert fm.types == DEFAULT_HEATMAP_TYPES
        i = fm.types.index(ErrorType.DBE)
        assert fm.counts[i] == 1
        assert "48" in fm.labels()
        assert "OFF_THE_BUS" in fm.labels()

    def test_window_validation(self):
        with pytest.raises(ValueError):
            follow_probability_matrix(build([(0.0, 1, ErrorType.DBE)]), window_s=0.0)

    def test_nan_window_rejected(self):
        """A NaN window used to count every later event as inside it."""
        log = build([
            (0.0, 1, ErrorType.DBE),
            (5000.0, 2, ErrorType.OFF_THE_BUS),
        ])
        fm = follow_probability_matrix(log, window_s=300.0)
        assert fm.value(ErrorType.DBE, ErrorType.OFF_THE_BUS) == 0.0
        with pytest.raises(ValueError):
            follow_probability_matrix(log, window_s=float("nan"))
        fm = follow_probability_matrix(log, window_s=float("inf"))
        assert fm.value(ErrorType.DBE, ErrorType.OFF_THE_BUS) == 1.0

    def test_study_nan_window_rejected(self, smoke_dataset):
        with pytest.raises(ValueError):
            TitanStudy(smoke_dataset).fig13(float("nan"))

    def test_values_are_probabilities(self):
        rng = np.random.default_rng(3)
        events = [
            (float(t), int(rng.integers(10)), ErrorType.GPU_STOPPED)
            for t in rng.uniform(0, 1e6, 200)
        ]
        fm = follow_probability_matrix(build(events))
        assert np.all(fm.matrix >= 0.0) and np.all(fm.matrix <= 1.0)


_THREE_TYPES = (
    ErrorType.GRAPHICS_ENGINE_EXCEPTION,
    ErrorType.GPU_STOPPED,
    ErrorType.DBE,
)
_FOLLOW_WINDOWS = (1e-3, 5.0, 300.0, float("inf"))


@st.composite
def typed_logs(draw):
    """Logs over three types of strictly different sizes, so both search
    directions run, with ties, cross-type coincidences and events a few
    ulps either side of ``t + w``, in a random row order."""
    sizes = sorted(draw(st.lists(st.integers(0, 40), min_size=3, max_size=3)))
    base = draw(st.floats(0.0, 2.0**27))
    anchors = [base]
    rows = []
    for etype, n in zip(_THREE_TYPES, (sizes[2] + 2, sizes[1] + 1, sizes[0])):
        for _ in range(n):
            kind = draw(st.sampled_from(("anchor", "edge", "free")))
            if kind == "anchor":
                t = draw(st.sampled_from(anchors))
            elif kind == "edge":
                t = draw(st.sampled_from(anchors)) + draw(
                    st.sampled_from(_FOLLOW_WINDOWS[:-1])
                )
                toward = draw(st.sampled_from((-np.inf, np.inf)))
                for _ in range(draw(st.integers(0, 2))):
                    t = np.nextafter(t, toward)
            else:
                t = base + draw(st.floats(0.0, 1000.0))
            anchors.append(float(t))
            rows.append((float(t), etype))
    order = draw(st.permutations(range(len(rows))))
    return EventLog.from_arrays(
        time=np.asarray([rows[i][0] for i in order], dtype=np.float64),
        gpu=np.zeros(len(rows), dtype=np.int64),
        etype=np.asarray([rows[i][1].code for i in order], dtype=np.int16),
    )


def assert_matches_loop(log, window_s, types=DEFAULT_HEATMAP_TYPES):
    matrix, counts = follow_matrix_loop(log, types=types, window_s=window_s)
    fm = follow_probability_matrix(log, types=types, window_s=window_s)
    assert np.array_equal(fm.matrix.view(np.int64), matrix.view(np.int64))
    assert np.array_equal(fm.counts, counts)


class TestFollowMatrixMatchesLoop:
    """The smaller-side search equals the two-search loop bit for bit."""

    @given(
        log=typed_logs(),
        window=st.sampled_from(_FOLLOW_WINDOWS),
        presorted=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_equals_loop(self, log, window, presorted):
        if presorted:
            log = log.sorted_by_time()
        assert_matches_loop(log, window, types=_THREE_TYPES)

    @pytest.mark.parametrize("window", [0.5, 5.0, 60.0, 300.0, HOUR])
    def test_smoke_log(self, smoke_dataset, window):
        assert_matches_loop(smoke_dataset.parsed_events, window)


class TestRetirementDelay:
    def test_dbe_triggered_bucket(self):
        log = build([
            (0.0, 1, ErrorType.DBE),
            (2 * MINUTE, 1, ErrorType.ECC_PAGE_RETIREMENT),
        ])
        report = retirement_delay_analysis(log, active_from=0.0)
        assert report.n_within_10min == 1
        assert report.n_beyond_6h == 0

    def test_double_sbe_bucket(self):
        log = build([
            (0.0, 1, ErrorType.DBE),
            (10 * HOUR, 2, ErrorType.ECC_PAGE_RETIREMENT),
        ])
        report = retirement_delay_analysis(log, active_from=0.0)
        assert report.n_beyond_6h == 1

    def test_middle_bucket(self):
        log = build([
            (0.0, 1, ErrorType.DBE),
            (1 * HOUR, 2, ErrorType.ECC_PAGE_RETIREMENT),
        ])
        report = retirement_delay_analysis(log, active_from=0.0)
        assert report.n_10min_to_6h == 1

    def test_orphan_retirement(self):
        log = build([(5.0, 1, ErrorType.ECC_PAGE_RETIREMENT)])
        report = retirement_delay_analysis(log, active_from=0.0)
        assert report.n_retirements_without_preceding_dbe == 1
        assert report.n_retirements == 1

    def test_pre_rollout_dbes_ignored(self):
        log = build([
            (0.0, 1, ErrorType.DBE),  # before rollout
            (100.0, 2, ErrorType.ECC_PAGE_RETIREMENT),
        ])
        report = retirement_delay_analysis(log, active_from=50.0)
        assert report.n_retirements_without_preceding_dbe == 1
        assert report.delays_s.size == 0

    def test_gap_pairs(self):
        log = build([
            (0.0, 1, ErrorType.DBE),
            (1000.0, 2, ErrorType.DBE),  # no retirement between -> gap pair
            (1500.0, 2, ErrorType.ECC_PAGE_RETIREMENT),
            (2000.0, 3, ErrorType.DBE),  # retirement between -> not a gap
        ])
        report = retirement_delay_analysis(log, active_from=0.0)
        assert report.n_dbe_pairs_without_retirement == 1

    def test_histogram(self):
        log = build([
            (0.0, 1, ErrorType.DBE),
            (60.0, 1, ErrorType.ECC_PAGE_RETIREMENT),
            (7 * HOUR, 2, ErrorType.ECC_PAGE_RETIREMENT),
        ])
        report = retirement_delay_analysis(log, active_from=0.0)
        edges = np.array([0.0, 10 * MINUTE, 6 * HOUR, 1e9])
        assert report.histogram(edges).tolist() == [1, 0, 1]
