"""Fig. 19 — GPU core-hours vs SBEs; Observation 12.

Paper: Spearman ≈ 0.70 with all jobs (Pearson stays low: the relation
is monotone, not linear); below 0.50 excluding offender jobs.
"""

from conftest import bench_figure, show


def test_fig19_core_hours(study, benchmark):
    report = bench_figure(benchmark, study, "figs16_19")
    m = report.all_jobs["gpu_core_hours"]
    me = report.excluding_offenders["gpu_core_hours"]
    show(f"Fig. 19 — SBE vs GPU core-hours over {m.n_jobs} jobs")
    show(f"  all jobs        : Spearman {m.spearman:+.2f} (paper 0.70)  "
         f"Pearson {m.pearson:+.2f}")
    show(f"  minus offenders : Spearman {me.spearman:+.2f} (paper <0.50)")
    assert m.spearman > 0.5
    assert m.spearman >= report.all_jobs["n_nodes"].spearman - 0.05
    assert me.spearman < 0.5
