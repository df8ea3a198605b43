"""Benchmark fixtures: one paper-scenario simulation per session.

Every ``bench_figXX`` file regenerates one table/figure of the paper,
printing the same rows/series the paper reports (run pytest with ``-s``
to see them) and timing the analysis kernel under pytest-benchmark
(:func:`bench_figure`).
"""

import numpy as np
import pytest

from repro.core import TitanStudy
from repro.sim import Scenario, default_dataset


@pytest.fixture(scope="session")
def dataset():
    return default_dataset(Scenario.paper())


@pytest.fixture(scope="session")
def study(dataset):
    s = TitanStudy(dataset)
    _ = s.log  # pay the render+parse cost once, outside the timings
    return s


@pytest.fixture(scope="session")
def month_labels():
    from repro.units import month_labels as labels

    return labels()


def bench_figure(benchmark, study: TitanStudy, name: str):
    """Time figure ``name`` computed on a fresh ``TitanStudy`` per round.

    A study memoizes its figures, so timing calls on one shared study
    would time a dict lookup after the first round.  Each round gets a
    new study over the same dataset (already parsed); one untimed
    warm-up round materializes the dataset's other lazy layers.  Returns
    the figure.
    """
    def fresh_study():
        return (TitanStudy(study.ds),), {}

    return benchmark.pedantic(
        lambda s: s.figure(name),
        setup=fresh_study,
        rounds=5,
        warmup_rounds=1,
    )


def show(text: str) -> None:
    """Print a figure block (visible with ``pytest -s``)."""
    print()
    print(text)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0)
