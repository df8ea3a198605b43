"""Parallel execution helpers.

Field-study reproductions want *replica* runs — the same scenario under
many seeds — to put confidence bands on every reported statistic.
Replicas are embarrassingly parallel and RNG-safe here because each one
derives its streams from an independent ``SeedSequence`` (the guarantee
:mod:`repro.rng` is built on), in the same spirit as rank-per-replica
MPI campaigns.

:mod:`pool` provides the process-pool map (``parallel_map``);
:mod:`replicas` runs whole-scenario replica studies and aggregates
per-statistic confidence intervals.
"""

from repro.parallel.pool import parallel_map
from repro.parallel.replicas import (
    ReplicaSummary,
    replica_confidence_intervals,
    run_replicas,
)

__all__ = [
    "parallel_map",
    "ReplicaSummary",
    "run_replicas",
    "replica_confidence_intervals",
]
