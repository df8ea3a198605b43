"""Parallel execution: the crash- and hang-resilient process-pool map
(:mod:`repro.parallel.pool`) that the sweep engine shards grid points
over, replica campaigns (``SweepSpec(replicas=K)``) included."""

from repro.parallel.pool import parallel_map

__all__ = ["parallel_map"]
