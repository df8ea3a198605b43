"""The graceful-degradation experiment: how much damage until findings flip?

Pipeline, per corruption level ``p``:

1. simulate the scenario once (clean ground truth, shared);
2. corrupt the rendered console text with
   :class:`~repro.chaos.injector.CorruptionInjector` at level ``p``;
3. parse it through the *hardened* :class:`ConsoleLogParser` with an
   error budget — exceeding the budget marks the level *degraded*
   (the structured :class:`IngestionDegraded` is caught, its partial
   log used) but never aborts the experiment;
4. infer telemetry coverage from the surviving event stream and attach
   it to the study so rate statistics are gap-bias corrected;
5. rerun the Observation 1–14 scorecard and record which checks
   flipped relative to the clean (p = 0) baseline.

The curve answers the operational question the paper's authors faced
with two years of noisy SMW streams: *at what telemetry quality do the
study's findings stop being trustworthy?*  The acceptance contract —
checked in CI — is that at ≤ 1 % line corruption the scorecard is
byte-identical to the clean run, and at 20 % the pipeline still
completes with explicit degradation annotations instead of crashing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chaos.injector import ChaosConfig, CorruptionInjector
from repro.core.observations import (
    ObservationCheck,
    observation_scorecard,
    scorecard_flips,
)
from repro.core.study import TitanStudy
from repro.rng import DEFAULT_SEED
from repro.sim.scenario import Scenario
from repro.sim.simulation import SimulationDataset, TitanSimulation
from repro.telemetry.coverage import ObservedWindows, infer_outage_windows
from repro.telemetry.ingestion import IngestionDegraded
from repro.telemetry.parser import ConsoleLogParser
from repro.units import DAY

__all__ = ["DegradationPoint", "DegradationCurve", "run_degradation"]

#: The paper-study corruption levels: clean, 0.1 %, 1 %, 5 %, 20 %.
DEFAULT_LEVELS: tuple[float, ...] = (0.0, 0.001, 0.01, 0.05, 0.20)

#: Default parser error budget for the experiment (5 % corrupt lines).
DEFAULT_ERROR_BUDGET: float = 0.05

#: Default silence threshold for coverage inference.
DEFAULT_GAP_THRESHOLD_S: float = 2 * DAY


@dataclass(frozen=True)
class DegradationPoint:
    """One corruption level's outcome."""

    level: float
    checks: tuple[ObservationCheck, ...]
    degraded: bool  # the parser's error budget was exceeded
    corrupt_fraction: float  # measured, from ParseStats
    parsed_events: int
    resynced_lines: int
    coverage_fraction: float
    low_coverage: bool
    mtbf_hours: float | None
    counts: dict[str, int]  # injector ground truth, per mode

    @property
    def n_pass(self) -> int:
        return sum(1 for c in self.checks if c.ok)


@dataclass(frozen=True)
class DegradationCurve:
    """The full degradation sweep, baseline first."""

    points: tuple[DegradationPoint, ...]

    @property
    def baseline(self) -> DegradationPoint:
        return self.points[0]

    def flips_at(self, point: DegradationPoint) -> list[str]:
        """Check names whose verdict differs from the baseline."""
        return scorecard_flips(list(self.baseline.checks), list(point.checks))

    def first_flip_levels(self) -> dict[str, float | None]:
        """Per check: the lowest corruption level at which it first
        flips from its clean verdict (None = never flipped)."""
        result: dict[str, float | None] = {
            c.name: None for c in self.baseline.checks
        }
        for point in self.points[1:]:
            for name in self.flips_at(point):
                if result.get(name) is None:
                    result[name] = point.level
        return result

    def max_stable_level(self) -> float:
        """Highest swept level with a scorecard identical to clean."""
        stable = self.points[0].level
        for point in self.points[1:]:
            if self.flips_at(point):
                break
            stable = point.level
        return stable


def _evaluate_level(
    dataset: SimulationDataset,
    level: float,
    *,
    seed: int,
    error_budget: float,
    gap_threshold_s: float,
) -> DegradationPoint:
    """Corrupt → parse → coverage → scorecard for one level."""
    scenario = dataset.scenario
    if level > 0.0:
        injector = CorruptionInjector(ChaosConfig.uniform(level), seed=seed)
        result = injector.corrupt_text(dataset.console_text)
        text, counts = result.text, dict(result.counts)
    else:
        text, counts = dataset.console_text, {}

    parser = ConsoleLogParser(dataset.machine, error_budget=error_budget)
    degraded = False
    try:
        log, stats = parser.parse_text(text)
    except IngestionDegraded as exc:
        degraded = True
        log, stats = exc.log, exc.stats
    log = log.sorted_by_time()

    coverage: ObservedWindows | None = None
    if len(log):
        coverage = infer_outage_windows(
            log.time,
            scenario.start,
            scenario.end,
            min_gap_s=gap_threshold_s,
        )
    study = TitanStudy(
        dataset.with_console_text(text, parsed=(log, stats)),
        coverage=coverage,
    )
    checks = tuple(observation_scorecard(study))
    fig2 = study.fig2()
    return DegradationPoint(
        level=float(level),
        checks=checks,
        degraded=degraded,
        corrupt_fraction=stats.corrupt_fraction,
        parsed_events=stats.parsed_events,
        resynced_lines=stats.resynced_lines,
        coverage_fraction=study.coverage_fraction,
        low_coverage=study.low_coverage,
        mtbf_hours=fig2.mtbf_hours,
        counts=counts,
    )


def run_degradation(
    scenario: Scenario | None = None,
    *,
    levels: tuple[float, ...] = DEFAULT_LEVELS,
    seed: int = DEFAULT_SEED,
    error_budget: float = DEFAULT_ERROR_BUDGET,
    gap_threshold_s: float = DEFAULT_GAP_THRESHOLD_S,
    dataset: SimulationDataset | None = None,
    store: "object | None" = None,
) -> DegradationCurve:
    """Run the degradation sweep; levels are sorted, 0.0 forced in.

    ``dataset`` short-circuits the simulation when the caller already
    has one (the tests reuse the session-wide smoke dataset).
    ``store`` (an :class:`~repro.cache.store.ArtifactStore`) loads the
    clean baseline from the content-addressed artifact cache instead of
    resimulating it — the sweep only ever needs the clean rendered
    console text plus the observable layers, so a warm store makes a
    repeated sweep pay for corruption + parsing alone.  Per-level
    corrupted results are *never* cached: they are not a pure function
    of ``(scenario, seed, epoch)``.
    """
    if dataset is None:
        sc = scenario if scenario is not None else Scenario.smoke()
        if store is not None:
            from repro.cache import load_or_simulate

            dataset, _warm = load_or_simulate(sc, store)  # type: ignore[arg-type]
        else:
            dataset = TitanSimulation(sc).run()
    swept = sorted(set(float(level) for level in levels) | {0.0})
    points = tuple(
        _evaluate_level(
            dataset,
            level,
            seed=seed,
            error_budget=error_budget,
            gap_threshold_s=gap_threshold_s,
        )
        for level in swept
    )
    return DegradationCurve(points=points)
