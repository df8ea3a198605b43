"""The user population and its heterogeneity.

Observation 13 uses userID as "a proxy for the kind of application they
represent"; Observation 14 describes workload archetypes the population
must contain:

* **capability users** — large node counts, deadline-driven;
* **marathon users** — small node counts but the *longest walltimes*
  ("some smaller scale jobs may even run much longer than larger scale
  jobs");
* **memory hogs** — modest node counts but the highest per-node memory
  ("jobs consuming the maximum amount of memory may be running on a
  relatively smaller node count"), with *below-average* core-hours;
* **ordinary users** — the bulk.

Each profile also carries a debug intensity (how often the user's runs
die with application XIDs) and a deadline phase used to modulate
XID 13 bursts ("sudden rise ... may also correlate with domain
scientists' project or paper deadlines").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = ["UserClass", "UserProfile", "UserPopulation"]


class UserClass(enum.Enum):
    """Workload archetype of a user (see the module docstring)."""

    ORDINARY = "ordinary"
    CAPABILITY = "capability"
    MARATHON = "marathon"
    MEMORY_HOG = "memory_hog"


#: (class, population share) — shares sum to 1.
_CLASS_MIX: tuple[tuple[UserClass, float], ...] = (
    (UserClass.ORDINARY, 0.62),
    (UserClass.CAPABILITY, 0.18),
    (UserClass.MARATHON, 0.12),
    (UserClass.MEMORY_HOG, 0.08),
)


@dataclass(frozen=True, slots=True)
class UserProfile:
    """Sampling parameters for one user's jobs."""

    user_id: int
    user_class: UserClass
    #: Median of the log-normal node-count distribution.
    nodes_median: float
    #: Log-sigma of node counts.
    nodes_sigma: float
    #: Median walltime, hours.
    walltime_median_h: float
    walltime_sigma: float
    #: Mean per-node memory footprint, GB.
    mem_per_node_gb: float
    #: Mean GPU utilization of this user's codes, in (0, 1].
    gpu_utilization: float
    #: Relative job-submission intensity (mean jobs/day share weight).
    submit_weight: float
    #: Relative likelihood this user's runs produce application XIDs.
    debug_intensity: float
    #: Phase offset (days) of the user's deadline cycle.
    deadline_phase_days: float


class UserPopulation:
    """A fixed population of :class:`UserProfile` s.

    Parameters
    ----------
    n_users:
        Population size (Titan projects number in the hundreds).
    rng:
        Generator; the population is fully determined by it.
    """

    def __init__(self, n_users: int, rng: np.random.Generator) -> None:
        if n_users < len(_CLASS_MIX):
            raise ValueError("population too small to cover all user classes")
        self.n_users = int(n_users)
        classes, shares = zip(*_CLASS_MIX)
        counts = np.maximum(1, np.round(np.asarray(shares) * n_users)).astype(int)
        # Fix rounding drift on the largest class.
        counts[0] += n_users - counts.sum()
        assignment: list[UserClass] = []
        for cls, cnt in zip(classes, counts):
            assignment.extend([cls] * int(cnt))
        rng.shuffle(assignment)

        profiles = []
        for uid, cls in enumerate(assignment):
            profiles.append(self._sample_profile(uid, cls, rng))
        self.profiles: tuple[UserProfile, ...] = tuple(profiles)

    @staticmethod
    def _sample_profile(
        uid: int, cls: UserClass, rng: np.random.Generator
    ) -> UserProfile:
        if cls is UserClass.CAPABILITY:
            nodes_median = float(np.exp(rng.uniform(np.log(800), np.log(8000))))
            walltime_median = rng.uniform(1.5, 6.0)
            walltime_sigma = 0.6
            mem_per_node = rng.uniform(4.0, 12.0)
            debug = rng.uniform(1.5, 3.5)  # big runs get debugged hard
        elif cls is UserClass.MARATHON:
            nodes_median = float(np.exp(rng.uniform(np.log(2), np.log(64))))
            walltime_median = rng.uniform(10.0, 20.0)  # near the 24 h cap
            walltime_sigma = 0.3
            mem_per_node = rng.uniform(2.0, 10.0)
            debug = rng.uniform(0.3, 1.0)
        elif cls is UserClass.MEMORY_HOG:
            nodes_median = float(np.exp(rng.uniform(np.log(16), np.log(256))))
            walltime_median = rng.uniform(0.5, 2.5)  # below-average core-hours
            walltime_sigma = 0.5
            mem_per_node = rng.uniform(24.0, 31.0)  # of the node's 32 GB
            debug = rng.uniform(0.5, 1.5)
        else:  # ORDINARY
            nodes_median = float(np.exp(rng.uniform(np.log(8), np.log(1000))))
            walltime_median = rng.uniform(0.5, 6.0)
            walltime_sigma = 0.8
            mem_per_node = rng.uniform(1.0, 16.0)
            debug = rng.uniform(0.5, 2.0)
        return UserProfile(
            user_id=uid,
            user_class=cls,
            nodes_median=nodes_median,
            nodes_sigma=0.55,
            walltime_median_h=float(walltime_median),
            walltime_sigma=float(walltime_sigma),
            mem_per_node_gb=float(mem_per_node),
            gpu_utilization=float(rng.uniform(0.25, 0.95)),
            submit_weight=float(rng.lognormal(0.0, 0.7)),
            debug_intensity=float(debug),
            deadline_phase_days=float(rng.uniform(0.0, 120.0)),
        )

    def __len__(self) -> int:
        return self.n_users

    def __getitem__(self, uid: int) -> UserProfile:
        return self.profiles[uid]

    def submit_probabilities(self) -> np.ndarray:
        """Normalized per-user probability of owning the next job."""
        w = np.asarray([p.submit_weight for p in self.profiles])
        return w / w.sum()

    def of_class(self, cls: UserClass) -> tuple[UserProfile, ...]:
        return tuple(p for p in self.profiles if p.user_class is cls)
