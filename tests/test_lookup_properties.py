"""Property tests for JobLocator against a brute-force oracle and the
per-job scan it replaced (``tests/workload_oracles.py``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng import RngTree
from repro.units import DAY
from repro.workload.jobs import JobTraceBuilder
from repro.workload.lookup import JobLocator
from tests.workload_oracles import job_on_gpu_scan


def build_trace(jobs):
    """jobs: list of (start, duration, rank_start, length), or of
    (start, duration, runs) with ``runs`` a list of (rank_start, length)."""
    b = JobTraceBuilder()
    for start, duration, *rest in jobs:
        runs = rest[0] if len(rest) == 1 else [tuple(rest)]
        b.add(
            user=0,
            submit=start,
            start=start,
            end=start + duration,
            gpu_util=0.5,
            max_memory_gb=1.0,
            total_memory=1.0,
            n_apruns=1,
            runs=runs,
        )
    return b.freeze()


@st.composite
def overlapping_jobs(draw):
    """Jobs of one to three runs each, free to share ranks and times,
    so that several jobs can claim one GPU at one instant."""
    n = draw(st.integers(1, 15))
    return [
        (
            draw(st.floats(0, 3e5, allow_nan=False)),
            draw(st.floats(1, DAY)),
            draw(st.lists(
                st.tuples(st.integers(0, 40), st.integers(1, 8)),
                min_size=1, max_size=3,
            )),
        )
        for _ in range(n)
    ]


@st.composite
def non_overlapping_jobs(draw):
    """Jobs with arbitrary times but disjoint rank runs per instant.

    To keep the oracle simple, ranks are globally disjoint (each job
    owns its own rank slice), which trivially satisfies the scheduler
    invariant.
    """
    n = draw(st.integers(1, 12))
    jobs = []
    rank = 0
    for _ in range(n):
        start = draw(st.floats(0, 5e5, allow_nan=False))
        duration = draw(st.floats(60, 86_400 * 0.9))
        length = draw(st.integers(1, 20))
        jobs.append((start, duration, rank, length))
        rank += length + draw(st.integers(0, 3))
    return jobs


class TestLocatorProperties:
    @given(jobs=non_overlapping_jobs(), t=st.floats(0, 6e5, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_running_at_matches_bruteforce(self, jobs, t):
        trace = build_trace(jobs)
        rank_map = np.arange(1000)
        locator = JobLocator(trace, rank_map)
        got = set(locator.running_at(t).tolist())
        expected = {
            i for i, (s, d, *_rest) in enumerate(jobs) if s <= t < s + d
        }
        assert got == expected

    @given(jobs=non_overlapping_jobs(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_job_on_gpu_matches_bruteforce(self, jobs, data):
        trace = build_trace(jobs)
        rank_map = np.arange(1000)  # gpu id == rank
        locator = JobLocator(trace, rank_map)
        t = data.draw(st.floats(0, 6e5, allow_nan=False))
        gpu = data.draw(st.integers(0, 200))
        got = locator.job_on_gpu(t, gpu)
        expected = -1
        for i, (s, d, rank_start, length) in enumerate(jobs):
            if s <= t < s + d and rank_start <= gpu < rank_start + length:
                expected = i
                break
        assert got == expected

    @given(jobs=overlapping_jobs(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_job_on_gpu_matches_the_scan(self, jobs, data):
        """A lookup answers as the per-job scan does: the lowest job
        where several claim the GPU, and -1 outside every job."""
        trace = build_trace(jobs)
        locator = JobLocator(trace, np.arange(64) * 37 % 64)  # a permutation
        times = data.draw(st.lists(
            st.one_of(
                st.floats(-1e5, 5e5, allow_nan=False),
                st.sampled_from([s for s, *_ in jobs] + [s + d for s, d, _ in jobs]),
            ),
            max_size=30,
        ))
        for t in times:
            gpu = data.draw(st.integers(0, 63))
            assert locator.job_on_gpu(t, gpu) == job_on_gpu_scan(locator, t, gpu)

    def test_smoke_lookups_match_the_scan(self, smoke_dataset):
        """Lookups at the smoke run's event times and GPUs, and at
        random ones."""
        locator = smoke_dataset.locator
        events = smoke_dataset.events
        rng = RngTree(7).fresh_generator("lookups")
        pick = rng.choice(len(events), size=4_000, replace=False)
        times = np.concatenate((events.time[pick], rng.uniform(-1e5, 5e6, 1_000)))
        gpus = np.concatenate((events.gpu[pick], rng.integers(0, 18_688, 1_000)))
        jobs = [locator.job_on_gpu(t, g) for t, g in zip(times, gpus)]
        assert jobs == [job_on_gpu_scan(locator, t, g) for t, g in zip(times, gpus)]
        assert max(jobs) >= 0

    @given(jobs=non_overlapping_jobs())
    @settings(max_examples=30, deadline=None)
    def test_job_gpus_are_the_allocation(self, jobs):
        trace = build_trace(jobs)
        rank_map = np.arange(1000)
        locator = JobLocator(trace, rank_map)
        for i, (_s, _d, rank_start, length) in enumerate(jobs):
            gpus = locator.job_gpus(i)
            assert gpus.tolist() == list(range(rank_start, rank_start + length))

    def test_pick_running_job_respects_weights(self):
        trace = build_trace([(0.0, 1000.0, 0, 4), (0.0, 1000.0, 10, 4)])
        locator = JobLocator(trace, np.arange(100))
        rng = np.random.default_rng(0)
        weights = np.array([1.0])  # single user 0 for both jobs
        picks = [
            locator.pick_running_job(500.0, rng, weights)
            for _ in range(50)
        ]
        assert set(picks) <= {0, 1}
        assert len(set(picks)) == 2  # both reachable

    def test_pick_on_idle_floor(self):
        trace = build_trace([(1000.0, 10.0, 0, 2)])
        locator = JobLocator(trace, np.arange(100))
        rng = np.random.default_rng(0)
        assert locator.pick_running_job(0.0, rng) == -1
