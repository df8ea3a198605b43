"""Per-job reference for the job locator's lookups.

:class:`~repro.workload.lookup.JobLocator` answers "which job ran on
GPU *g* at time *t*?" with a vectorized test over the flattened runs of
one day bucket (:meth:`~repro.workload.lookup.JobLocator.jobs_on_gpus`).
:func:`job_on_gpu_scan` is the loop it replaced, kept as its oracle:
each running job in turn, and each of its runs.

The tests require the locator to equal it, and
``benchmarks/measure_pipeline.py --gate`` times it against the
locator.  This module imports only ``repro``, numpy and the standard
library, because the gate runs where pytest is not installed.
"""

from __future__ import annotations

from repro.workload.lookup import JobLocator

__all__ = ["job_on_gpu_scan"]


def job_on_gpu_scan(locator: JobLocator, time: float, gpu: int) -> int:
    """``locator.job_on_gpu(time, gpu)``: the first job running at
    ``time`` (in job order) with a run that holds ``gpu``'s rank, or -1."""
    rank = int(locator.allocation_rank[gpu])
    for job in locator.running_at(time):
        starts, lengths = locator.trace.job_runs(int(job))
        for start, length in zip(starts, lengths):
            if start <= rank < start + length:
                return int(job)
    return -1
