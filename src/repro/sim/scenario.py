"""Scenario definitions: the paper scenario and its ablations.

A :class:`Scenario` is a complete, hashable description of one
simulated Titan — seed, fault calibration, workload shape and study
window.  Named constructors cover the ablations DESIGN.md calls out:

* :meth:`paper` — the canonical Jun'13–Feb'15 configuration;
* :meth:`no_thermal_gradient` — flat cabinets (kills the cage skew of
  Figs. 3b/5/7);
* :meth:`no_solder_fix` — the Off-the-bus defect never gets reworked
  (Fig. 4's tail stays high);
* :meth:`unfolded_torus` — hypothetical straight cabling (removes the
  alternating-cabinet stripe of Fig. 12);
* :meth:`smoke` — a small fast window for tests.
"""

from __future__ import annotations

import datetime as _dt
import math
from dataclasses import dataclass, field, replace

from repro.faults.rates import RateConfig
from repro.rng import DEFAULT_SEED
from repro.units import DAY, STUDY_END, datetime_to_timestamp
from repro.workload.generator import WorkloadConfig

__all__ = ["Scenario"]

#: Deployment date of the per-job nvidia-smi snapshot framework: the
#: paper collected "over a month" of such data near the end of the study.
JOBSNAP_DEPLOYED_AT: float = datetime_to_timestamp(_dt.datetime(2015, 1, 10))


@dataclass(frozen=True)
class Scenario:
    """A complete simulation configuration."""

    name: str = "paper"
    seed: int = DEFAULT_SEED
    rates: RateConfig = field(default_factory=RateConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    start: float = 0.0
    end: float = STUDY_END
    #: Folded torus cabling (False = the unfolded counterfactual).
    folded_torus: bool = True
    #: When per-job SBE snapshots begin.
    jobsnap_deployed_at: float = JOBSNAP_DEPLOYED_AT

    def evolve(self, **changes) -> "Scenario":
        return replace(self, **changes)

    def validate(self) -> None:
        if not math.isfinite(self.start) or not math.isfinite(self.end):
            raise ValueError(
                "scenario window must be finite, got "
                f"[{self.start!r}, {self.end!r}]"
            )
        if self.end <= self.start:
            raise ValueError("scenario window is empty")
        self.rates.validate()
        self.workload.validate()
        if not self.start <= self.jobsnap_deployed_at <= self.end:
            raise ValueError("jobsnap deployment outside scenario window")

    # -- named scenarios ---------------------------------------------------

    @classmethod
    def paper(cls, seed: int = DEFAULT_SEED) -> "Scenario":
        """The canonical study configuration."""
        return cls(name="paper", seed=seed)

    @classmethod
    def no_thermal_gradient(cls, seed: int = DEFAULT_SEED) -> "Scenario":
        """Ablation: flat cabinet temperatures."""
        return cls(
            name="no_thermal_gradient",
            seed=seed,
            rates=RateConfig(thermal_enabled=False),
        )

    @classmethod
    def no_solder_fix(cls, seed: int = DEFAULT_SEED) -> "Scenario":
        """Ablation: the Off-the-bus solder defect is never fixed."""
        return cls(name="no_solder_fix", seed=seed, rates=RateConfig(otb_fix_time=None))

    @classmethod
    def unfolded_torus(cls, seed: int = DEFAULT_SEED) -> "Scenario":
        """Counterfactual: naive (physical-order) cabling."""
        return cls(name="unfolded_torus", seed=seed, folded_torus=False)

    @classmethod
    def next_generation(cls, seed: int = DEFAULT_SEED) -> "Scenario":
        """Forward-looking scenario: a next-generation card fleet.

        The paper's related work reports that "newer generations of
        GPUs exhibit an order of magnitude lower soft error rate" and
        that resilience keeps improving despite larger structures.
        This scenario credits the device generation a 4× DBE MTBF and
        retires the solder-era Off-the-bus problem entirely, keeping
        the workload identical — the comparison bench quantifies the
        operational payoff.
        """
        return cls(
            name="next_generation",
            seed=seed,
            rates=RateConfig(
                dbe_mtbf_hours=640.0,
                otb_rate_before_fix_per_hour=0.0,
                otb_rate_after_fix_per_hour=0.0,
                sbe_rate_per_proneness_hour=0.0006,
                sbe_burst_rate_per_sqrt_proneness_hour=1.7e-4,
            ),
        )

    @classmethod
    def smoke(cls, seed: int = DEFAULT_SEED, days: float = 45.0) -> "Scenario":
        """Small fast scenario for unit tests: a short window early in
        the study with a lighter workload."""
        end = days * DAY
        return cls(
            name="smoke",
            seed=seed,
            end=end,
            workload=WorkloadConfig(
                n_users=40, jobs_per_day=50.0, end_time=end
            ),
            jobsnap_deployed_at=end * 0.5,
        )
