"""Tests for from-scratch statistics, validated against SciPy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from repro.core.stats import (
    bootstrap_ci,
    fano_factor,
    gini,
    normalized_to_mean,
    pearson,
    permutation_pvalue,
    rankdata_average,
    spearman,
    top_k_share,
)
from repro.rng import RngTree
from tests.kernel_oracles import rankdata_average_loop


def rng():
    return RngTree(2).fresh_generator("stats")


class TestPearson:
    def test_perfect_line(self):
        x = np.arange(10.0)
        assert pearson(x, 2 * x + 1) == pytest.approx(1.0)
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_matches_scipy(self):
        g = rng()
        x = g.normal(size=200)
        y = 0.5 * x + g.normal(size=200)
        assert pearson(x, y) == pytest.approx(sps.pearsonr(x, y).statistic)

    def test_constant_input_convention(self):
        assert pearson(np.ones(5), np.arange(5.0)) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            pearson([1.0], [2.0])
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])


class TestSpearman:
    def test_matches_scipy_continuous(self):
        g = rng()
        x = g.normal(size=300)
        y = np.exp(x) + g.normal(scale=0.1, size=300)
        assert spearman(x, y) == pytest.approx(
            sps.spearmanr(x, y).statistic, abs=1e-12
        )

    def test_matches_scipy_with_heavy_ties(self):
        """Per-job SBE counts are mostly zero — ties must be handled
        exactly like scipy's average ranks."""
        g = rng()
        x = g.integers(0, 5, size=500).astype(float)
        y = g.integers(0, 3, size=500).astype(float)
        assert spearman(x, y) == pytest.approx(
            sps.spearmanr(x, y).statistic, abs=1e-12
        )

    def test_monotone_transform_invariance(self):
        g = rng()
        x = g.normal(size=100)
        y = g.normal(size=100)
        assert spearman(x, y) == pytest.approx(
            spearman(np.exp(x), y), abs=1e-12
        )

    @given(
        data=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)),
            min_size=5,
            max_size=60,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_property_matches_scipy(self, data):
        x = np.asarray([a for a, _ in data], dtype=float)
        y = np.asarray([b for _, b in data], dtype=float)
        ours = spearman(x, y)
        import warnings

        with warnings.catch_warnings():
            # constant inputs are expected among generated examples
            warnings.simplefilter("ignore")
            theirs = sps.spearmanr(x, y).statistic
        if np.isnan(theirs):
            assert ours == 0.0  # constant-input convention
        else:
            assert ours == pytest.approx(theirs, abs=1e-9)


class TestRanks:
    def test_average_rank_ties(self):
        ranks = rankdata_average(np.array([10.0, 20.0, 20.0, 30.0]))
        assert ranks.tolist() == [1.0, 2.5, 2.5, 4.0]

    def test_matches_scipy(self):
        g = rng()
        x = g.integers(0, 4, size=100).astype(float)
        assert np.allclose(rankdata_average(x), sps.rankdata(x))

    @given(
        x=st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 1.0, -1.0, np.nan, np.inf, -np.inf]),
                st.floats(-3.0, 3.0),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_property_equals_loop(self, x):
        """Ties, NaN, signed zeros, empty and single-element inputs."""
        ranks = rankdata_average(x)
        expected = rankdata_average_loop(x)
        assert ranks.dtype == expected.dtype
        assert np.array_equal(ranks.view(np.int64), expected.view(np.int64))


class TestNormalize:
    def test_mean_one(self):
        out = normalized_to_mean(np.array([1.0, 2.0, 3.0]))
        assert out.mean() == pytest.approx(1.0)

    def test_zero_mean_rejected(self):
        with pytest.raises(ValueError):
            normalized_to_mean(np.zeros(3))


class TestFano:
    def test_poisson_near_one(self):
        counts = rng().poisson(10.0, size=5000)
        assert fano_factor(counts) == pytest.approx(1.0, abs=0.1)

    def test_bursty_large(self):
        counts = np.zeros(1000)
        counts[::100] = 100
        assert fano_factor(counts) > 50

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fano_factor([])

    def test_all_zero(self):
        assert fano_factor(np.zeros(10)) == 0.0


class TestGini:
    def test_equal_is_zero(self):
        assert gini(np.ones(100)) == pytest.approx(0.0, abs=1e-9)

    def test_concentrated_near_one(self):
        x = np.zeros(1000)
        x[0] = 1.0
        assert gini(x) > 0.99

    def test_bounds(self):
        g = rng()
        for _ in range(5):
            x = g.exponential(size=50)
            assert 0.0 <= gini(x) <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            gini([])
        with pytest.raises(ValueError):
            gini([-1.0, 2.0])


class TestTopK:
    def test_shares(self):
        x = np.array([50.0, 30.0, 10.0, 10.0])
        assert top_k_share(x, 1) == pytest.approx(0.5)
        assert top_k_share(x, 2) == pytest.approx(0.8)
        assert top_k_share(x, 10) == pytest.approx(1.0)

    def test_zero_total(self):
        assert top_k_share(np.zeros(5), 2) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            top_k_share(np.ones(3), 0)


class TestBootstrap:
    def test_ci_contains_mean(self):
        g = rng()
        x = g.normal(loc=5.0, size=500)
        lo, hi = bootstrap_ci(x, np.mean, g, n_resamples=300)
        # the percentile CI brackets the *sample* statistic reliably
        assert lo < x.mean() < hi
        assert hi - lo < 0.5

    def test_validation(self):
        g = rng()
        with pytest.raises(ValueError):
            bootstrap_ci(np.array([]), np.mean, g)
        with pytest.raises(ValueError):
            bootstrap_ci(np.ones(5), np.mean, g, confidence=1.5)


class TestPermutation:
    def test_strong_correlation_significant(self):
        g = rng()
        x = g.normal(size=100)
        y = x + g.normal(scale=0.2, size=100)
        assert permutation_pvalue(x, y, g, n_permutations=200) < 0.05

    def test_independent_not_significant(self):
        g = rng()
        x = g.normal(size=100)
        y = g.normal(size=100)
        assert permutation_pvalue(x, y, g, n_permutations=200) > 0.05
