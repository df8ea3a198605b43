"""The hot-spare stress-test cluster.

Section 3.1: "such cards undergo further rigorous testing in a
hot-spare cluster before being returned to the vendor after
encountering a threshold number of DBEs. We have returned the GPUs to
the vendor after they were stress tested in the hot-spare cluster and
GPU system failures were encountered. Such errors would have likely
occurred in production, but we avoided that by moving error-encountering
cards to the hot-spare cluster."

The campaign model: pulled cards run an accelerated stress workload
(full utilization, elevated temperature) for a fixed duration; a card
with a genuine latent defect reproduces failures at its boosted DBE
rate × an acceleration factor, while a healthy card that was pulled by
bad luck rarely reproduces.  Verdicts:

* ``RETURN_TO_VENDOR`` — failures reproduced (RMA);
* ``CLEARED`` — survived the campaign; becomes a certified spare.

The paper also notes "accurately quantifying the impact of such
replacement is often very hard"; :meth:`StressTestCampaign.avoided_
production_failures` computes the counterfactual the model *can* see —
expected production failures the pulled cards would have produced.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.gpu.card import CardState, GPUCard

__all__ = ["StressVerdict", "StressResult", "StressTestCampaign"]


class StressVerdict(enum.Enum):
    """Outcome of a stress campaign: failures reproduced, or cleared."""

    RETURN_TO_VENDOR = "return_to_vendor"
    CLEARED = "cleared"


@dataclass(frozen=True)
class StressResult:
    """Outcome of one card's stress campaign."""

    serial: int
    verdict: StressVerdict
    failures_reproduced: int
    test_hours: float


class StressTestCampaign:
    """Runs pulled cards through accelerated stress testing.

    Parameters
    ----------
    base_dbe_rate_per_hour:
        The *per-card* production DBE rate of a nominal (fragility 1)
        card — the fleet rate divided by the fleet size.
    acceleration:
        Stress multiplier (full load + elevated temperature + pattern
        tests); vendor-style burn-in is worth a couple of orders of
        magnitude.
    repeat_boost:
        Rate boost of a card whose latent defect has been revealed
        (must match the production model's ``dbe_repeat_boost`` for the
        campaign to be predictive).
    test_hours:
        Campaign length per card.
    """

    def __init__(
        self,
        *,
        base_dbe_rate_per_hour: float,
        acceleration: float = 300.0,
        repeat_boost: float = 25.0,
        test_hours: float = 14 * 24.0,
        rng: np.random.Generator,
    ) -> None:
        if base_dbe_rate_per_hour <= 0:
            raise ValueError("base rate must be positive")
        if acceleration <= 0 or repeat_boost <= 0 or test_hours <= 0:
            raise ValueError("campaign parameters must be positive")
        self.base_rate = base_dbe_rate_per_hour
        self.acceleration = acceleration
        self.repeat_boost = repeat_boost
        self.test_hours = test_hours
        self.rng = rng

    def _card_rate(self, card: GPUCard) -> float:
        """Stress-test failure rate of one card, per hour."""
        boost = self.repeat_boost if card.n_dbe > 0 else 1.0
        return self.base_rate * card.dbe_fragility * boost * self.acceleration

    def run(self, cards: list[GPUCard]) -> list[StressResult]:
        """Stress every card; apply the lifecycle verdicts."""
        results = []
        for card in cards:
            if card.state is not CardState.HOT_SPARE:
                raise ValueError(
                    f"card {card.serial} is {card.state.value}, not hot-spare"
                )
            failures = int(self.rng.poisson(self._card_rate(card) * self.test_hours))
            if failures > 0:
                card.return_to_vendor()
                verdict = StressVerdict.RETURN_TO_VENDOR
            else:
                verdict = StressVerdict.CLEARED
            results.append(
                StressResult(
                    serial=card.serial,
                    verdict=verdict,
                    failures_reproduced=failures,
                    test_hours=self.test_hours,
                )
            )
        return results

    def avoided_production_failures(
        self, cards: list[GPUCard], production_hours: float
    ) -> float:
        """Expected production DBEs the pulled cards would have caused
        had they stayed on the floor — the counterfactual the paper
        calls 'very hard' to quantify on the real machine (here the
        model makes it computable exactly)."""
        if production_hours < 0:
            raise ValueError("hours must be non-negative")
        rate = sum(self._card_rate(c) / self.acceleration for c in cards)
        return rate * production_hours

    @staticmethod
    def false_pull_rate(results: list[StressResult]) -> float:
        """Fraction of pulled cards that cleared the campaign (pulled on
        a one-off cosmic strike rather than a latent defect)."""
        if not results:
            raise ValueError("no campaign results")
        cleared = sum(
            1 for r in results if r.verdict is StressVerdict.CLEARED
        )
        return cleared / len(results)


def pull_hours_equivalent(test_hours: float, acceleration: float) -> float:
    """Production-hours of exposure one campaign hour represents."""
    if test_hours <= 0 or acceleration <= 0:
        raise ValueError("arguments must be positive")
    return test_hours * acceleration
