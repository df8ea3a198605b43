"""Single-bit-error injection.

SBEs are invisible to the console log (no XID) — they only surface as
nvidia-smi/InfoROM counter increments and, indirectly, as the
double-SBE page retirements of Fig. 8.  The injector therefore produces
*aggregates*, not per-event log rows:

* ``sbe_by_slot`` — lifetime per-GPU totals (what Figs. 14/15 read);
* ``sbe_by_job`` — per-batch-job counts (what the paper's before/after
  nvidia-smi job framework reads, Figs. 16–20);
* XID 63 events for pages retired by two SBEs (into the shared builder).

The generative model matches the paper's findings by construction:

* per-card rate ∝ card proneness (zero for >95 % of the fleet, heavy-
  tailed otherwise — Observation 10) × job activity (GPU-hours ×
  utilization — the Observation 12 correlation) with an idle floor;
* structure split concentrated in the **L2 cache** (Observation 11), so
  memory *capacity* use does not drive SBE counts;
* only the small device-memory share participates in page retirement.

Everything fleet-wide is vectorized with prefix sums over proneness in
allocation-rank order, so cost is O(jobs + SBEs), not O(jobs × nodes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors.event import EventLogBuilder
from repro.errors.xid import ErrorType
from repro.faults.processes import hpp_times
from repro.faults.rates import RateConfig
from repro.gpu.fleet import GPUFleet
from repro.gpu.k20x import K20X, MemoryStructure
from repro.topology.machine import TitanMachine
from repro.topology.thermal import ThermalModel
from repro.units import HOUR
from repro.workload.jobs import JobTrace
from repro.workload.lookup import JobLocator

__all__ = ["SbeInjector", "SbeOutcome"]

#: How non-L2, non-device SBEs spread over remaining structures.
_OTHER_STRUCTURES: tuple[tuple[MemoryStructure, float], ...] = (
    (MemoryStructure.REGISTER_FILE, 0.40),
    (MemoryStructure.L1_CACHE, 0.25),
    (MemoryStructure.SHARED_MEMORY, 0.20),
    (MemoryStructure.TEXTURE_MEMORY, 0.15),
)


@dataclass
class SbeOutcome:
    """Aggregated SBE results."""

    sbe_by_slot: np.ndarray  # lifetime totals per GPU slot
    sbe_by_job: np.ndarray  # per-job counts (busy SBEs on that job's GPUs)
    n_double_sbe_retirements: int

    @property
    def total(self) -> int:
        return int(self.sbe_by_slot.sum())


class SbeInjector:
    """Generates SBE aggregates and double-SBE retirements."""

    def __init__(
        self,
        machine: TitanMachine,
        fleet: GPUFleet,
        rates: RateConfig,
        rng: np.random.Generator,
        thermal: "ThermalModel | None" = None,
    ) -> None:
        rates.validate()
        self.machine = machine
        self.fleet = fleet
        self.rates = rates
        self.rng = rng
        self.thermal = thermal

    # -- helpers ---------------------------------------------------------------

    def _effective_proneness(self) -> np.ndarray:
        """Per-slot proneness with the mild thermal acceleration applied
        (upper cages run hotter, so the same weak card leaks slightly
        more there — the Fig. 15(a) tilt)."""
        proneness = self.fleet.sbe_proneness
        if self.thermal is None:
            return proneness
        return proneness * self.thermal.arrhenius_factor(0.5)

    def _prone_rank_tables(self):
        """Proneness indexed by allocation rank, with prefix sums."""
        proneness = self._effective_proneness()
        order = self.machine.allocation_order  # rank -> gpu
        prone_by_rank = proneness[order]
        prefix = np.concatenate([[0.0], np.cumsum(prone_by_rank)])
        prone_ranks = np.flatnonzero(prone_by_rank)
        return order, prone_by_rank, prefix, prone_ranks

    def _job_lambda(self, trace: JobTrace, prefix: np.ndarray) -> np.ndarray:
        """Expected busy-SBE count per job (vectorized over runs)."""
        job_of_run = np.repeat(
            np.arange(len(trace)), np.diff(trace.run_offsets)
        )
        run_sums = prefix[trace.run_start + trace.run_length] - prefix[trace.run_start]
        proneness_sum = np.zeros(len(trace))
        np.add.at(proneness_sum, job_of_run, run_sums)
        return (
            self.rates.sbe_rate_per_proneness_hour
            * proneness_sum
            * trace.walltime_h
            * trace.gpu_util
        )

    def _apply_device_sbes(
        self,
        slot: int,
        times: np.ndarray,
        builder: EventLogBuilder,
        job: int,
    ) -> int:
        """Run device-memory SBEs through the card's retirement tracker."""
        card = self.fleet.card_in_slot(slot)
        retired = 0
        for t in np.sort(times):
            page = int(self.rng.integers(K20X.n_device_pages))
            record = card.apply_sbe(MemoryStructure.DEVICE_MEMORY, page, float(t))
            if record is not None:
                builder.add(
                    float(t),
                    slot,
                    ErrorType.ECC_PAGE_RETIREMENT,
                    structure=MemoryStructure.DEVICE_MEMORY,
                    job=job,
                    aux=page,
                )
                retired += 1
        return retired

    def _bulk_record_onchip(self, slot_counts: np.ndarray) -> None:
        """Write non-device SBE counts into the InfoROMs, split by
        structure with the calibrated shares."""
        l2_share = self.rates.sbe_l2_share / (1.0 - self.rates.sbe_device_memory_share)
        l2_share = min(l2_share, 1.0)
        for slot in np.flatnonzero(slot_counts):
            count = int(slot_counts[slot])
            n_l2 = int(self.rng.binomial(count, l2_share))
            rest = count - n_l2
            card = self.fleet.card_in_slot(int(slot))
            if n_l2:
                card.inforom.record_sbe(MemoryStructure.L2_CACHE, n_l2)
            if rest:
                shares = np.asarray([s for _, s in _OTHER_STRUCTURES])
                split = self.rng.multinomial(rest, shares / shares.sum())
                for (structure, _), c in zip(_OTHER_STRUCTURES, split):
                    if c:
                        card.inforom.record_sbe(structure, int(c))

    # -- the main entry point --------------------------------------------------------

    def _inject_offender_bursts(
        self,
        trace: JobTrace,
        start: float,
        end: float,
        builder: EventLogBuilder,
        locator: "JobLocator | None",
        sbe_by_slot: np.ndarray,
        sbe_by_job: np.ndarray,
    ) -> int:
        """Episodic card-local SBE bursts on strongly degraded cards.

        Burst timing and size depend only on the *card*, not on whatever
        job happens to be running — so a burst credited to a job is pure
        noise with respect to that job's scale.  Returns the number of
        double-SBE retirements the bursts caused.
        """
        rates = self.rates
        proneness = self._effective_proneness()
        burst_slots = np.flatnonzero(proneness >= rates.sbe_burst_min_proneness)
        n_retired = 0
        for slot in burst_slots:
            sqrt_p = float(np.sqrt(proneness[slot]))
            rate_s = rates.sbe_burst_rate_per_sqrt_proneness_hour * sqrt_p / HOUR
            times = hpp_times(rate_s, start, end, self.rng)
            if times.size == 0:
                continue
            sizes = 1 + self.rng.poisson(
                rates.sbe_burst_size_mean_per_sqrt_proneness * sqrt_p,
                size=times.size,
            )
            sbe_by_slot[slot] += int(sizes.sum())
            for t, size in zip(times, sizes):
                job = (
                    locator.job_on_gpu(float(t), int(slot))
                    if locator is not None
                    else -1
                )
                if job >= 0:
                    sbe_by_job[job] += int(size)
                n_dev = int(
                    self.rng.binomial(int(size), rates.sbe_device_memory_share)
                )
                if n_dev:
                    dev_times = t + self.rng.uniform(0.0, 60.0, size=n_dev)
                    n_retired += self._apply_device_sbes(
                        int(slot), dev_times, builder, int(job)
                    )
        return n_retired

    def inject(
        self,
        trace: JobTrace,
        start: float,
        end: float,
        builder: EventLogBuilder,
        locator: "JobLocator | None" = None,
    ) -> SbeOutcome:
        """Inject all SBEs for the window, given the scheduled workload."""
        order, prone_by_rank, prefix, prone_ranks = self._prone_rank_tables()
        n_jobs = len(trace)
        sbe_by_slot = np.zeros(self.machine.n_gpus, dtype=np.int64)
        sbe_by_job = np.zeros(n_jobs, dtype=np.int64)
        n_retired = 0

        # ---- busy SBEs, job by job (only jobs that drew any) --------------
        lam = self._job_lambda(trace, prefix)
        if self.rates.sbe_job_noise_sigma > 0:
            sigma = self.rates.sbe_job_noise_sigma
            lam = lam * self.rng.lognormal(-0.5 * sigma**2, sigma, size=lam.size)
        if self.rates.sbe_user_noise_sigma > 0:
            sigma = self.rates.sbe_user_noise_sigma
            n_users = int(trace.user.max()) + 1 if len(trace) else 0
            user_factor = self.rng.lognormal(-0.5 * sigma**2, sigma, size=n_users)
            lam = lam * user_factor[trace.user]
        counts = self.rng.poisson(lam)
        for job in np.flatnonzero(counts):
            n = int(counts[job])
            starts, lengths = trace.job_runs(int(job))
            # prone cards inside this job's rank runs
            pieces = []
            for s, l in zip(starts, lengths):
                lo = np.searchsorted(prone_ranks, s, side="left")
                hi = np.searchsorted(prone_ranks, s + l, side="left")
                pieces.append(prone_ranks[lo:hi])
            ranks = np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
            if ranks.size == 0:
                continue  # numerical fluke: λ>0 requires a prone card
            w = prone_by_rank[ranks]
            per_card = self.rng.multinomial(n, w / w.sum())
            sbe_by_job[job] += n
            hit = np.flatnonzero(per_card)
            slots = order[ranks[hit]]
            np.add.at(sbe_by_slot, slots, per_card[hit])
            # device-memory subset drives page retirement
            for slot, c in zip(slots, per_card[hit]):
                n_dev = int(self.rng.binomial(int(c), self.rates.sbe_device_memory_share))
                if n_dev:
                    times = self.rng.uniform(
                        trace.start[job], trace.end[job], size=n_dev
                    )
                    n_retired += self._apply_device_sbes(
                        int(slot), times, builder, int(job)
                    )

        # ---- idle SBEs per prone card -------------------------------------
        hours = (end - start) / HOUR
        prone_slots = order[prone_ranks]
        lam_idle = (
            self.rates.sbe_rate_per_proneness_hour
            * self._effective_proneness()[prone_slots]
            * self.rates.sbe_idle_activity
            * hours
        )
        idle_counts = self.rng.poisson(lam_idle)
        np.add.at(sbe_by_slot, prone_slots, idle_counts)
        for slot, c in zip(prone_slots[idle_counts > 0], idle_counts[idle_counts > 0]):
            n_dev = int(self.rng.binomial(int(c), self.rates.sbe_device_memory_share))
            if n_dev:
                times = self.rng.uniform(start, end, size=n_dev)
                n_retired += self._apply_device_sbes(int(slot), times, builder, -1)

        # ---- episodic offender bursts ---------------------------------------
        n_retired += self._inject_offender_bursts(
            trace, start, end, builder, locator, sbe_by_slot, sbe_by_job
        )

        # ---- persist on-chip counters to the InfoROMs ------------------------
        # Device-memory SBEs were recorded individually above; the rest
        # are bulk-committed with the structure split.
        dev_recorded = np.zeros(self.machine.n_gpus, dtype=np.int64)
        for slot in np.flatnonzero(sbe_by_slot):
            card = self.fleet.card_in_slot(int(slot))
            dev_recorded[slot] = card.inforom.sbe_counts.get(
                MemoryStructure.DEVICE_MEMORY, 0
            )
        onchip = np.maximum(sbe_by_slot - dev_recorded, 0)
        self._bulk_record_onchip(onchip)

        return SbeOutcome(
            sbe_by_slot=sbe_by_slot,
            sbe_by_job=sbe_by_job,
            n_double_sbe_retirements=n_retired,
        )
