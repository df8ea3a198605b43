"""The paper's contribution: the GPU-reliability log-analysis toolkit.

Everything here consumes *observable* artifacts — parsed console logs,
nvidia-smi tables, job-snapshot records, job accounting — and produces
the quantities the paper reports:

========================  ====================================================
module                    paper artifact
========================  ====================================================
:mod:`stats`              Pearson/Spearman (from scratch), bootstrap, skew
:mod:`filtering`          child-event & 5-second job filters (Sec. 2.2, Fig 12)
:mod:`temporal`           monthly frequencies, MTBF, inter-arrivals (Figs 2,4,6)
:mod:`burst`              burstiness metrics (Obs. 6, Figs 9–11)
:mod:`spatial`            cabinet grids & cage distributions (Figs 3,5,7,12,14,15)
:mod:`offenders`          top-K SBE offender identification/exclusion (Fig 14)
:mod:`retirement`         DBE → page-retirement delay analysis (Fig 8)
:mod:`heatmap`            XID→XID follow-probability heatmaps (Fig 13)
:mod:`correlation`        SBE vs resource-utilization studies (Figs 16–20)
:mod:`workload_analysis`  workload characterization (Fig 21, Obs. 14)
:mod:`report`             ASCII tables/series renderers for the bench harness
:mod:`study`              TitanStudy: one method per table/figure
========================  ====================================================
"""

from repro.core.stats import (
    bootstrap_ci,
    fano_factor,
    gini,
    pearson,
    spearman,
    normalized_to_mean,
    top_k_share,
)
from repro.core.filtering import (
    FilterResult,
    dedup_by_card,
    sequential_dedup,
    split_parents_children,
)
from repro.core.temporal import (
    interarrival_hours,
    monthly_counts,
    mtbf_hours,
)
from repro.core.burst import burstiness_metrics, daily_counts
from repro.core.spatial import (
    cabinet_grid_from_events,
    cage_distribution,
    distinct_card_cage_distribution,
    grid_alternation_score,
    grid_skewness,
)
from repro.core.offenders import (
    exclude_jobs_using,
    offender_slots,
)
from repro.core.retirement import retirement_delay_analysis
from repro.core.heatmap import follow_probability_matrix
from repro.core.correlation import (
    CorrelationReport,
    sbe_resource_correlations,
    user_level_correlation,
)
from repro.core.workload_analysis import workload_characteristics
from repro.core.reliability import (
    fit_weibull,
    kaplan_meier,
    project_fleet_mtbf,
)
from repro.core.prediction import (
    evaluate_precursor_model,
    train_precursor_model,
)
from repro.core.availability import AvailabilityReport, availability_report
from repro.core.export import study_summary, write_summary_json
from repro.core.impact import ImpactReport, application_impact
from repro.core.golden import golden_diff, golden_document
from repro.core.observations import (
    ObservationCheck,
    headline_statistics,
    observation_scorecard,
)
from repro.core.opsreport import MonthlyOpsReport, build_monthly_report
from repro.core.study import FIGURES, TitanStudy

__all__ = [
    "bootstrap_ci",
    "fano_factor",
    "gini",
    "pearson",
    "spearman",
    "normalized_to_mean",
    "top_k_share",
    "FilterResult",
    "dedup_by_card",
    "sequential_dedup",
    "split_parents_children",
    "interarrival_hours",
    "monthly_counts",
    "mtbf_hours",
    "burstiness_metrics",
    "daily_counts",
    "cabinet_grid_from_events",
    "cage_distribution",
    "distinct_card_cage_distribution",
    "grid_alternation_score",
    "grid_skewness",
    "exclude_jobs_using",
    "offender_slots",
    "retirement_delay_analysis",
    "follow_probability_matrix",
    "CorrelationReport",
    "sbe_resource_correlations",
    "user_level_correlation",
    "workload_characteristics",
    "fit_weibull",
    "kaplan_meier",
    "project_fleet_mtbf",
    "train_precursor_model",
    "evaluate_precursor_model",
    "AvailabilityReport",
    "availability_report",
    "study_summary",
    "write_summary_json",
    "ImpactReport",
    "application_impact",
    "MonthlyOpsReport",
    "build_monthly_report",
    "ObservationCheck",
    "observation_scorecard",
    "headline_statistics",
    "golden_document",
    "golden_diff",
    "TitanStudy",
    "FIGURES",
]
