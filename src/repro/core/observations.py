"""The Observation scorecard as a reusable library primitive.

The paper condenses its findings into fourteen numbered Observations;
``python -m repro observations`` prints a pass/fail scorecard of 12
checks, which cover Observations 1–4, 6, 7 and 10–14.  A sweep (:mod:`repro.sweep`) reruns the same scorecard on
every grid point — on *corrupted* telemetry along its ``corruptions``
axis, to measure at which damage level each finding first flips — so
the check logic lives here: one definition, two consumers.

Every check degrades rather than raises: analyses that cannot run on
the surviving data (e.g. the snapshot window is too small, or an event
class vanished entirely) score ``False`` with a reason instead of
crashing, which is what lets the scorecard run on 20 %-corrupt input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

__all__ = [
    "ObservationCheck",
    "observation_scorecard",
    "headline_statistics",
]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.study import TitanStudy


@dataclass(frozen=True)
class ObservationCheck:
    """One scored claim: its name, verdict, and failure context."""

    name: str
    ok: bool
    detail: str = ""


def _check(name: str, predicate) -> ObservationCheck:
    """Score one claim; analysis errors degrade to a False verdict."""
    try:
        return ObservationCheck(name, bool(predicate()))
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        return ObservationCheck(name, False, detail=f"analysis failed: {exc}")


def observation_scorecard(study: "TitanStudy") -> list[ObservationCheck]:
    """Score the 12 Observation checks (Obs 1–4, 6, 7 and 10–14)
    against one study.

    Never raises for data-quality reasons: checks that cannot be
    evaluated on the surviving telemetry fail with a recorded detail.
    """
    checks: list[ObservationCheck] = []

    def fig2_not_bursty() -> bool:
        fig2 = study.fig2()
        return fig2.burstiness is not None and not fig2.burstiness.is_bursty

    checks.append(_check("Obs 1: DBE stream not bursty", fig2_not_bursty))

    def nvsmi_undercounts() -> bool:
        console, nvsmi = study.nvsmi_vs_console_dbe()
        return nvsmi <= console

    checks.append(_check("Obs 2: nvidia-smi undercounts DBEs", nvsmi_undercounts))
    checks.append(_check(
        "Obs 3: device memory dominates DBEs",
        lambda: study.fig3().structure_fractions.get("device_memory", 0.0) > 0.5,
    ))

    def otb_upper_cages() -> bool:
        fig5 = study.fig5()
        return (
            fig5.cage_events.sum() == 0
            or fig5.cage_events[2] >= fig5.cage_events[0]
        )

    checks.append(_check("Obs 4: OTB prefers upper cages", otb_upper_cages))

    def xid13_bursty() -> bool:
        fig10 = study.fig10()
        return fig10.burstiness is not None and fig10.burstiness.is_bursty

    checks.append(_check("Obs 6: XID 13 bursty", xid13_bursty))

    def filter_collapses() -> bool:
        fig12 = study.fig12()
        return fig12.n_filtered < fig12.n_unfiltered / 10

    checks.append(_check("Obs 7: 5 s filter collapses job echoes", filter_collapses))
    checks.append(_check(
        "Obs 10: <5 % of cards see SBEs",
        lambda: study.fig14().fleet_fraction_with_sbe < 0.05,
    ))

    def exclusion_reduces_skew() -> bool:
        fig14 = study.fig14()
        return fig14.skewness["all"] >= fig14.skewness["minus_top50"]

    checks.append(_check("Obs 10: exclusion reduces skew", exclusion_reduces_skew))
    checks.append(_check(
        "Obs 11: memory correlation weak",
        lambda: abs(study.figs16_19().all_jobs["max_memory_gb"].spearman) < 0.5,
    ))
    checks.append(_check(
        "Obs 12: core-hours correlate",
        lambda: study.figs16_19().all_jobs["gpu_core_hours"].spearman > 0.3,
    ))

    def user_level_beats_job_level() -> bool:
        report = study.figs16_19()
        return (
            study.fig20().all_users.spearman
            >= report.all_jobs["gpu_core_hours"].spearman
        )

    checks.append(_check(
        "Obs 13: user level beats job level", user_level_beats_job_level
    ))
    checks.append(_check(
        "Obs 14: workload shape",
        lambda: study.fig21().observation_14_holds(),
    ))
    return checks


def headline_statistics(study: "TitanStudy") -> dict[str, float]:
    """The study's headline numbers as one flat ``{name: float}`` dict.

    This is the *single* numeric summary definition shared by the
    sweep's per-point summaries and replica bands
    (:mod:`repro.sweep`), the golden-trace regression suite
    (``tests/test_golden.py``) and the CLI — the scorecard above gives
    the boolean verdicts, this gives the numbers behind them.  Statistics that cannot be computed on a
    given dataset (e.g. no snapshot records in a tiny window) are
    simply absent, mirroring how the paper reports only what its
    telemetry supported.
    """
    fig2 = study.fig2()
    fig14 = study.fig14()
    report = study.figs16_19()
    out: dict[str, float] = {
        "dbe_total": float(fig2.total),
        "otb_total": float(study.fig4().total),
        "retirements": float(study.fig6().total),
        "sbe_cards": float(fig14.n_cards_with_sbe),
        "sbe_fraction": float(fig14.fleet_fraction_with_sbe),
        "sbe_skew_all": float(fig14.skewness["all"]),
        "sbe_skew_minus50": float(fig14.skewness["minus_top50"]),
        "spearman_core_hours": float(
            report.all_jobs["gpu_core_hours"].spearman
        ),
        "spearman_nodes": float(report.all_jobs["n_nodes"].spearman),
        "spearman_max_memory": float(
            report.all_jobs["max_memory_gb"].spearman
        ),
    }
    if fig2.mtbf_hours is not None:
        out["dbe_mtbf_hours"] = float(fig2.mtbf_hours)
    try:
        out["spearman_users"] = float(study.fig20().all_users.spearman)
    except ValueError:  # no snapshot records in tiny scenarios
        pass
    return out
