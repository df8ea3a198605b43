"""TitanSimulation: one call from scenario to analyzable dataset.

The simulation is staged exactly as DESIGN.md's dataflow describes:

1. build the machine (folded or unfolded cabling), thermal model and
   card fleet;
2. generate and schedule the 21-month workload;
3. run all fault injectors (hardware → software → cascades → SBE);
4. render the console log *text* and parse it back through the SEC
   rules — the analyses consume the round-tripped log, never the
   injector's in-memory events;
5. expose nvidia-smi fleet tables and per-job snapshot records.

Heavy artifacts (log text, parsed log, nvsmi table, snapshot records)
are materialized lazily and cached on the dataset.  ``default_dataset``
memoizes whole datasets per scenario so a test session or benchmark run
simulates each configuration once.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional, TypeVar

import numpy as np

from repro import perf
from repro.errors.event import EventLog
from repro.faults.injector import FaultInjector, InjectionResult
from repro.gpu.fleet import GPUFleet
from repro.rng import RngTree
from repro.sim.scenario import Scenario
from repro.telemetry.console import ConsoleLogWriter
from repro.telemetry.jobsnap import JobSnapshotFramework, JobSnapshotRecord
from repro.telemetry.nvsmi import NvidiaSmi
from repro.telemetry.parser import ConsoleLogParser, ParseStats, _split_lines
from repro.telemetry.raslog import NodeStateLog, RepairModel
from repro.topology.machine import TitanMachine
from repro.topology.thermal import ThermalModel
from repro.workload.generator import WorkloadGenerator
from repro.workload.jobs import JobTrace
from repro.workload.lookup import JobLocator
from repro.workload.users import UserPopulation

__all__ = [
    "TitanSimulation",
    "SimulationDataset",
    "GroundTruthUnavailable",
    "default_dataset",
]

_T = TypeVar("_T")


class GroundTruthUnavailable(RuntimeError):
    """A cache-loaded dataset was asked for simulator ground truth.

    The artifact store holds only what the paper's authors had —
    telemetry.  Validation code that needs the injector's event log or
    the fleet ledgers must run a real simulation
    (``load_or_simulate(..., require_ground_truth=True)``).
    """


@dataclass
class SimulationDataset:
    """Everything one Titan study analyzes.

    Observable artifacts (what the paper's authors had):
    :meth:`console_lines` / ``console_text`` / ``parsed_events``, the
    ``nvsmi_table``, ``jobsnap_records`` and the job accounting in
    ``trace``.  Ground truth (for validation only): ``injection``,
    ``fleet``, ``thermal``, ``users``, ``nvsmi`` and what derives from
    them.  A dataset loaded from the artifact store carries no ground
    truth; its accessors raise :class:`GroundTruthUnavailable`.
    """

    scenario: Scenario
    machine: TitanMachine
    trace: JobTrace
    #: ``"simulated"`` for a pristine run, ``"cache"`` when loaded from
    #: the artifact store, ``"modified"`` once the observable console
    #: stream was replaced (chaos experiments).  The figure cache only
    #: ever persists results for pristine datasets — a modified stream
    #: must never be written back under the clean scenario's content
    #: address.
    provenance: str = "simulated"
    _injection: Optional[InjectionResult] = field(default=None, repr=False)
    _fleet: Optional[GPUFleet] = field(default=None, repr=False)
    _thermal: Optional[ThermalModel] = field(default=None, repr=False)
    _users: Optional[UserPopulation] = field(default=None, repr=False)
    _nvsmi: Optional[NvidiaSmi] = field(default=None, repr=False)
    #: Payload source of a cache-loaded console layer: the store's
    #: shards, each a newline-terminated run of whole lines.
    _console_shards: Optional[Callable[[], Iterator[str]]] = field(
        default=None, repr=False
    )
    _console_text: Optional[str] = field(default=None, repr=False)
    _parsed: Optional[tuple[EventLog, ParseStats]] = field(default=None, repr=False)
    _nvsmi_table: Optional[dict[str, np.ndarray]] = field(default=None, repr=False)
    _jobsnap: Optional[list[JobSnapshotRecord]] = field(default=None, repr=False)
    _locator: Optional[JobLocator] = field(default=None, repr=False)
    _node_state: Optional[NodeStateLog] = field(default=None, repr=False)

    # -- observable artifacts ------------------------------------------------

    def console_lines(self) -> Iterator[str]:
        """The console log, one line at a time, in log order.

        Reads whichever source the dataset has: the resident text (a
        replaced stream, or a log already materialized), the artifact
        store's checksummed shards (a cache load), or a windowed render
        of the injector's events.  Resident text is split one block at
        a time; the other two sources never hold the whole log in
        memory.
        """
        if self._console_text is not None:
            return _split_lines(self._console_text)
        if self._console_shards is not None:
            return chain.from_iterable(map(str.splitlines, self._console_shards()))
        return ConsoleLogWriter(self.machine).lines(self.injection.events)

    def _console_blocks(self) -> Iterator[str]:
        """The console log as text blocks of whole, newline-terminated
        lines, from the same source :meth:`console_lines` reads: the
        resident text as one block, the store's shards, or the render's
        windows."""
        if self._console_text is not None:
            return iter((self._console_text,) if self._console_text else ())
        if self._console_shards is not None:
            return self._console_shards()
        return ConsoleLogWriter(self.machine).blocks(self.injection.events)

    @property
    def console_text(self) -> str:
        """The console log as one string (materialized on first use):
        the shards joined, or the events rendered into one buffer."""
        if self._console_text is None:
            if self._console_shards is not None:
                with perf.stage("cache.load"):
                    self._console_text = "".join(self._console_shards())
            else:
                self._console_text = ConsoleLogWriter(self.machine).to_text(
                    self.injection.events
                )
        return self._console_text

    @property
    def parsed_events(self) -> EventLog:
        """Console events as the analysis sees them: text → SEC → log,
        time-sorted, with no parent annotations."""
        return self._parse()[0]

    @property
    def parse_stats(self) -> ParseStats:
        return self._parse()[1]

    def _parse(
        self, lines: Optional[Iterable[str]] = None
    ) -> tuple[EventLog, ParseStats]:
        """Parse the console stream once; ``lines``, when given, stands
        in for :meth:`console_lines` (the same lines, e.g. teed through
        the cache's shard writer)."""
        if self._parsed is None:
            log, stats = ConsoleLogParser(self.machine).parse_lines(
                self.console_lines() if lines is None else lines
            )
            with perf.stage("telemetry.sort"):
                self._parsed = (log.sorted_by_time(), stats)
            perf.count("telemetry.lines", stats.total_lines)
            perf.count("telemetry.events", stats.parsed_events)
        return self._parsed

    def with_console_text(self, text: str) -> "SimulationDataset":
        """Dataset variant whose *observable* console stream is replaced.

        This is the chaos-experiment hook: the simulation's ground
        truth (injection, fleet, nvsmi ledgers) is shared, but the
        analyses will see ``text`` — e.g. a corrupted rendering — as
        the console log, parsed lazily by the default lenient parser.
        """
        import dataclasses

        return dataclasses.replace(
            self, _console_text=text, _parsed=None, provenance="modified"
        )

    @property
    def nvsmi_table(self) -> dict[str, np.ndarray]:
        """Fleet-wide nvidia-smi snapshot at end of study."""
        if self._nvsmi_table is None:
            with perf.stage("telemetry.nvsmi"):
                self._nvsmi_table = self.nvsmi.query_fleet()
        return self._nvsmi_table

    @property
    def jobsnap_records(self) -> list[JobSnapshotRecord]:
        """Per-job before/after snapshot records (the Figs. 16–20 data)."""
        if self._jobsnap is None:
            with perf.stage("telemetry.jobsnap"):
                framework = JobSnapshotFramework(self.scenario.jobsnap_deployed_at)
                self._jobsnap = framework.collect(
                    self.trace, self.injection.sbe_by_job
                )
        return self._jobsnap

    @property
    def node_state_log(self) -> NodeStateLog:
        """Downtime intervals around crashing hardware errors (the RAS
        stream; lazily derived, deterministic per scenario seed)."""
        if self._node_state is None:
            rng = RngTree(self.scenario.seed).fresh_generator("repair")
            self._node_state = RepairModel(rng).apply(self.injection.events)
        return self._node_state

    @property
    def locator(self) -> JobLocator:
        if self._locator is None:
            self._locator = JobLocator(self.trace, self.machine.allocation_rank)
        return self._locator

    # -- ground truth (simulated datasets only) ------------------------------

    def _ground_truth(self, value: Optional[_T], name: str) -> _T:
        if value is None:
            raise GroundTruthUnavailable(
                f"SimulationDataset.{name} is simulator ground truth and is "
                "never cached; rerun with require_ground_truth=True (or call "
                "TitanSimulation directly) to get a fully simulated dataset"
            )
        return value

    @property
    def injection(self) -> InjectionResult:
        return self._ground_truth(self._injection, "injection")

    @property
    def fleet(self) -> GPUFleet:
        return self._ground_truth(self._fleet, "fleet")

    @property
    def thermal(self) -> ThermalModel:
        return self._ground_truth(self._thermal, "thermal")

    @property
    def users(self) -> UserPopulation:
        return self._ground_truth(self._users, "users")

    @property
    def nvsmi(self) -> NvidiaSmi:
        return self._ground_truth(self._nvsmi, "nvsmi")

    @property
    def events(self) -> EventLog:
        """Ground-truth event log (with parent links)."""
        return self.injection.events

    @property
    def sbe_by_slot(self) -> np.ndarray:
        return self.injection.sbe_by_slot

    @property
    def sbe_by_job(self) -> np.ndarray:
        return self.injection.sbe_by_job


class TitanSimulation:
    """Runs one scenario end to end."""

    def __init__(self, scenario: Scenario) -> None:
        scenario.validate()
        self.scenario = scenario

    def run(self) -> SimulationDataset:
        sc = self.scenario
        tree = RngTree(sc.seed)
        with perf.stage("sim.machine"):
            machine = TitanMachine(folded_torus=sc.folded_torus)
            thermal = ThermalModel(
                machine.cage,
                tree.fresh_generator("thermal"),
                enabled=sc.rates.thermal_enabled,
            )
            fleet = GPUFleet(
                machine.n_gpus,
                tree.generator("fleet"),
                retirement_active_from=sc.rates.retirement_active_from,
            )
        with perf.stage("sim.workload"):
            generator = WorkloadGenerator(
                sc.workload, tree.fresh_generator("workload")
            )
            trace = generator.generate()
        with perf.stage("sim.inject"):
            injector = FaultInjector(
                machine,
                fleet,
                thermal,
                generator.users,
                sc.rates,
                tree.fresh_generator("faults.hardware"),
                tree.fresh_generator("faults.software"),
                tree.fresh_generator("faults.sbe"),
                tree.fresh_generator("faults.cascade"),
            )
            injection = injector.run(trace, sc.start, sc.end)
        nvsmi = NvidiaSmi(fleet, thermal)
        return SimulationDataset(
            scenario=sc,
            machine=machine,
            trace=trace,
            _injection=injection,
            _fleet=fleet,
            _thermal=thermal,
            _users=generator.users,
            _nvsmi=nvsmi,
        )


_DATASET_CACHE: dict[str, SimulationDataset] = {}


def default_dataset(scenario: Scenario | None = None) -> SimulationDataset:
    """Process-wide memoized dataset for a scenario (default: paper).

    Scenarios contain dict fields, so the cache keys on ``repr``, which
    dataclasses derive from every field deterministically.
    """
    sc = scenario if scenario is not None else Scenario.paper()
    key = repr(sc)
    cached = _DATASET_CACHE.get(key)
    if cached is None:
        cached = TitanSimulation(sc).run()
        _DATASET_CACHE[key] = cached
    return cached
