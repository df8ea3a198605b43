"""Replica studies: the same scenario under independent seeds.

A single simulated Titan is one sample from the generative model; the
paper's single Titan was likewise one sample from reality.  Replica
studies quantify how much any reported statistic moves across samples —
the error bars EXPERIMENTS.md quotes — by running N seeds (in parallel)
and summarizing each dataset down to the headline numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.parallel.pool import parallel_map
from repro.sim.scenario import Scenario
from repro.sim.simulation import TitanSimulation

__all__ = [
    "ReplicaSummary",
    "run_replicas",
    "replica_confidence_intervals",
]


@dataclass(frozen=True)
class ReplicaSummary:
    """Headline statistics of one simulated study."""

    seed: int
    statistics: dict[str, float] = field(default_factory=dict)

    def __getitem__(self, key: str) -> float:
        return self.statistics[key]


def _run_one(task: "tuple[Scenario, str | None]") -> ReplicaSummary:
    """Worker-side: one replica, warm from the artifact cache if given."""
    from repro.core.observations import headline_statistics
    from repro.core.study import TitanStudy

    scenario, cache_dir = task
    if cache_dir is not None:
        from repro.cache import ArtifactStore, load_or_simulate

        dataset, _warm = load_or_simulate(scenario, ArtifactStore(cache_dir))
    else:
        dataset = TitanSimulation(scenario).run()
    return ReplicaSummary(
        seed=scenario.seed,
        statistics=headline_statistics(TitanStudy(dataset)),
    )


def run_replicas(
    base: Scenario,
    seeds: list[int],
    *,
    n_workers: int = 1,
    cache_dir: "str | None" = None,
) -> list[ReplicaSummary]:
    """Simulate and summarize one replica per seed (optionally in
    parallel processes).

    ``cache_dir`` routes every replica through the content-addressed
    artifact store (:mod:`repro.cache`): a repeated sweep — new
    statistics over the same seeds, or an interrupted campaign resumed
    — reuses each seed's cached telemetry layers instead of
    resimulating, and a first run leaves them behind for the next one.
    Workers open their own store handle, so the path (not the store
    object) crosses the process boundary.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    cache = str(cache_dir) if cache_dir is not None else None
    tasks = [(base.evolve(seed=int(s)), cache) for s in seeds]
    return parallel_map(_run_one, tasks, n_workers=n_workers)


def replica_confidence_intervals(
    summaries: list[ReplicaSummary],
    *,
    confidence: float = 0.9,
) -> dict[str, tuple[float, float, float]]:
    """Per-statistic ``(low, median, high)`` across replicas.

    Only statistics present in *every* replica are reported.
    """
    if not summaries:
        raise ValueError("no replicas")
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    common = set(summaries[0].statistics)
    for s in summaries[1:]:
        common &= set(s.statistics)
    alpha = (1.0 - confidence) / 2.0
    out = {}
    for key in sorted(common):
        values = np.asarray([s[key] for s in summaries])
        out[key] = (
            float(np.quantile(values, alpha)),
            float(np.median(values)),
            float(np.quantile(values, 1.0 - alpha)),
        )
    return out
