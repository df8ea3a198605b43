"""Statistics primitives, implemented from scratch.

The paper leans on a small statistical vocabulary — Pearson and
Spearman correlation (Observations 11–13), normalized-to-mean curves
(Figs. 16–21), skewness and top-k dominance (Fig. 14), burstiness
(Observation 6).  These are implemented here directly (and validated
against SciPy in the test suite) so the analysis toolkit carries no
dependency beyond numpy.

All functions accept array-likes and are NaN-free by construction:
degenerate inputs (constant series, empty arrays) raise or return the
documented sentinel instead of propagating NaNs silently.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pearson",
    "spearman",
    "rankdata_average",
    "normalized_to_mean",
    "fano_factor",
    "gini",
    "top_k_share",
    "bootstrap_ci",
    "permutation_pvalue",
]


def _clean_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be 1-D arrays of equal length")
    if x.size < 2:
        raise ValueError("need at least two observations")
    return x, y


def pearson(x, y) -> float:
    """Pearson product-moment correlation.

    Returns 0.0 for a constant input (no linear association is
    measurable; SciPy returns NaN with a warning — we prefer an explicit
    convention the analyses can sort on).
    """
    x, y = _clean_pair(x, y)
    xd = x - x.mean()
    yd = y - y.mean()
    denom = np.sqrt((xd**2).sum() * (yd**2).sum())
    if denom == 0.0:
        return 0.0
    return float((xd * yd).sum() / denom)


def rankdata_average(x) -> np.ndarray:
    """Ranks (1-based) with ties sharing their average rank — the
    standard treatment for Spearman on heavily tied data (per-job SBE
    counts are mostly zero, so ties dominate).

    A tie is a run of ``==``-equal values in stable sorted order, so
    ``-0.0`` ties with ``0.0`` and every NaN ranks alone, last.  The run
    over sorted positions ``[start, end]`` gets ``0.5 * (start + end) +
    1.0``.
    """
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    sx = x[order]
    new_run = np.ones(sx.size, dtype=bool)
    new_run[1:] = sx[1:] != sx[:-1]
    starts = np.flatnonzero(new_run)
    ends = np.append(starts[1:], sx.size) - 1
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def spearman(x, y) -> float:
    """Spearman rank correlation (Pearson on average ranks)."""
    x, y = _clean_pair(x, y)
    return pearson(rankdata_average(x), rankdata_average(y))


def normalized_to_mean(x) -> np.ndarray:
    """Series divided by its mean — the normalization of Figs. 16–21
    ("values have been normalized to average value of the respective
    metrics").  A zero-mean series raises."""
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean()
    if mean == 0.0:
        raise ValueError("cannot normalize a zero-mean series")
    return x / mean


def fano_factor(counts) -> float:
    """Variance-to-mean ratio of a count series (1 = Poisson,
    ≫1 = bursty). Used to separate application XIDs from driver XIDs
    (Observation 6)."""
    counts = np.asarray(counts, dtype=np.float64)
    if counts.size == 0:
        raise ValueError("empty count series")
    mean = counts.mean()
    if mean == 0.0:
        return 0.0
    return float(counts.var() / mean)


def gini(x) -> float:
    """Gini coefficient of non-negative values (0 = equal, →1 = one
    holder owns everything).  Quantifies the SBE skew of Fig. 14."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty input")
    if np.any(x < 0):
        raise ValueError("gini requires non-negative values")
    total = x.sum()
    if total == 0.0:
        return 0.0
    xs = np.sort(x)
    n = x.size
    cum = np.cumsum(xs)
    # Standard formula: G = 1 - 2/(n-1+...)  via Lorenz area.
    return float((n + 1 - 2 * (cum / total).sum()) / n)


def top_k_share(x, k: int) -> float:
    """Fraction of the total held by the k largest entries (the
    "top-10 / top-50 offenders" measure)."""
    x = np.asarray(x, dtype=np.float64)
    if k <= 0:
        raise ValueError("k must be positive")
    total = x.sum()
    if total == 0.0:
        return 0.0
    top = np.sort(x)[::-1][:k]
    return float(top.sum() / total)


def bootstrap_ci(
    x,
    statistic,
    rng: np.random.Generator,
    *,
    n_resamples: int = 1000,
    confidence: float = 0.95,
) -> tuple[float, float]:
    """Percentile bootstrap confidence interval for ``statistic(x)``."""
    x = np.asarray(x)
    if x.size == 0:
        raise ValueError("empty input")
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    stats = np.empty(n_resamples)
    for i in range(n_resamples):
        sample = x[rng.integers(0, x.size, size=x.size)]
        stats[i] = statistic(sample)
    alpha = (1.0 - confidence) / 2.0
    return (
        float(np.quantile(stats, alpha)),
        float(np.quantile(stats, 1.0 - alpha)),
    )


def permutation_pvalue(
    x,
    y,
    rng: np.random.Generator,
    *,
    correlation=spearman,
    n_permutations: int = 500,
) -> float:
    """Two-sided permutation p-value for a correlation coefficient —
    the "p-value < 0.05" qualifier the paper attaches to its
    correlation statements."""
    x = np.asarray(x, dtype=np.float64)
    observed = abs(correlation(x, y))
    hits = 0
    y = np.asarray(y, dtype=np.float64)
    for _ in range(n_permutations):
        if abs(correlation(x, rng.permutation(y))) >= observed:
            hits += 1
    return (hits + 1) / (n_permutations + 1)
