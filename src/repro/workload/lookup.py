"""Fast (time, node) → job lookups over a frozen JobTrace.

Fault injectors repeatedly ask "which job ran on GPU *g* at time *t*?"
and "which jobs were running at *t*?".  :class:`JobLocator` answers both
from a day-bucket index of the jobs and of their allocation runs,
without materializing node lists: a GPU lookup is one vectorized test
over the runs of one bucket.
"""

from __future__ import annotations

import numpy as np

from repro.units import DAY
from repro.workload.jobs import JobTrace

__all__ = ["JobLocator"]


class JobLocator:
    """Query helper bound to one trace and one machine ordering.

    Parameters
    ----------
    trace:
        The frozen job trace.
    allocation_rank:
        Per-GPU allocation rank (``machine.allocation_rank``); job runs
        are intervals in this rank space.
    """

    #: Width of the day-bucket index used by :meth:`running_at`.
    BUCKET_S = DAY

    def __init__(self, trace: JobTrace, allocation_rank: np.ndarray) -> None:
        self.trace = trace
        self.allocation_rank = np.asarray(allocation_rank)
        # Day-bucket index: bucket b lists jobs overlapping
        # [b*BUCKET_S, (b+1)*BUCKET_S). Jobs are <= 24 h, so each job
        # lands in at most 3 buckets and lookups touch one bucket.
        if len(trace):
            t_lo = float(trace.start.min())
            t_hi = float(trace.end.max())
        else:
            t_lo = t_hi = 0.0
        self._bucket0 = int(np.floor(t_lo / self.BUCKET_S))
        n_buckets = max(1, int(np.floor(t_hi / self.BUCKET_S)) - self._bucket0 + 1)
        buckets: list[list[int]] = [[] for _ in range(n_buckets)]
        first = np.floor(trace.start / self.BUCKET_S).astype(np.int64) - self._bucket0
        last = np.floor(
            np.nextafter(trace.end, -np.inf) / self.BUCKET_S
        ).astype(np.int64) - self._bucket0
        for j in range(len(trace)):
            for b in range(int(first[j]), int(last[j]) + 1):
                buckets[b].append(j)
        self._buckets = [np.asarray(b, dtype=np.int64) for b in buckets]
        # Per bucket, every run of its jobs, flattened in job order: the
        # run's job, its first and past-the-end rank, and the job's
        # start and end time.
        self._bucket_runs = []
        for jobs in self._buckets:
            first = trace.run_offsets[jobs]
            runs = trace.run_offsets[jobs + 1] - first
            run = np.repeat(first - (np.cumsum(runs) - runs), runs) + np.arange(
                int(runs.sum())
            )
            job = np.repeat(jobs, runs)
            lo = trace.run_start[run]
            self._bucket_runs.append(
                (job, lo, lo + trace.run_length[run], trace.start[job], trace.end[job])
            )

    def running_at(self, time: float) -> np.ndarray:
        """Job indices running at ``time`` (started ≤ t < end)."""
        b = int(np.floor(time / self.BUCKET_S)) - self._bucket0
        if not 0 <= b < len(self._buckets):
            return np.empty(0, dtype=np.int64)
        candidates = self._buckets[b]
        mask = (self.trace.start[candidates] <= time) & (
            self.trace.end[candidates] > time
        )
        return candidates[mask]

    def job_on_gpu(self, time: float, gpu: int) -> int:
        """Job index occupying ``gpu`` at ``time``, or −1; the lowest
        such index if several jobs claim it.

        One vectorized test over the runs of ``time``'s bucket; they are
        in job order, so the first hit is the lowest job.
        """
        rank = self.allocation_rank[gpu]
        b = int(np.floor(time / self.BUCKET_S)) - self._bucket0
        if not 0 <= b < len(self._bucket_runs):
            return -1
        job, lo, hi, start, end = self._bucket_runs[b]
        hit = np.flatnonzero(
            (start <= time) & (end > time) & (lo <= rank) & (hi > rank)
        )
        return int(job[hit[0]]) if len(hit) else -1

    def job_gpus(self, job: int) -> np.ndarray:
        """GPU ids allocated to a job (requires the inverse rank map)."""
        ranks = self.trace.job_ranks(int(job))
        return self._rank_to_gpu()[ranks]

    def _rank_to_gpu(self) -> np.ndarray:
        cached = getattr(self, "_rank_to_gpu_cache", None)
        if cached is None:
            cached = np.empty_like(self.allocation_rank)
            cached[self.allocation_rank] = np.arange(self.allocation_rank.size)
            self._rank_to_gpu_cache = cached
        return cached

    def pick_running_job(
        self,
        time: float,
        rng: np.random.Generator,
        weights_by_user: np.ndarray | None = None,
        *,
        inverse_walltime_bias: bool = True,
        size_bias_exponent: float = 0.8,
    ) -> int:
        """Sample one running job at ``time``, or −1 if the floor is idle.

        ``weights_by_user`` biases selection toward particular users
        (debug intensity); ``inverse_walltime_bias`` counteracts the
        length-biased sampling of "running at a random instant" so that
        short debug jobs are picked as often as their submission share
        suggests; ``small_job_bias`` further tilts toward small node
        counts (debug runs are usually scaled down before they crash).
        """
        running = self.running_at(time)
        if running.size == 0:
            return -1
        w = np.ones(running.size, dtype=np.float64)
        if weights_by_user is not None:
            w *= weights_by_user[self.trace.user[running]]
        if inverse_walltime_bias:
            w /= np.maximum(self.trace.walltime_h[running], 0.05)
        if size_bias_exponent:
            w /= self.trace.n_nodes[running].astype(np.float64) ** size_bias_exponent
        total = w.sum()
        if total <= 0:
            return int(rng.choice(running))
        return int(rng.choice(running, p=w / total))
