"""Fig. 20 — per-user GPU core-hours vs SBEs; Observation 13.

Paper: Spearman ≈ 0.80 at the user level — higher than any job-level
metric, making userID the better proxy for SBE exposure.
"""

from conftest import bench_figure, show


def test_fig20_users(study, benchmark):
    fig20 = bench_figure(benchmark, study, "fig20")
    report = study.figs16_19()
    a = fig20.all_users
    e = fig20.excluding_offenders
    show(f"Fig. 20 — user-level correlation over {a.n_users} users")
    show(f"  all users       : Spearman {a.spearman:+.2f} (paper 0.80)  "
         f"Pearson {a.pearson:+.2f}")
    show(f"  minus offenders : Spearman {e.spearman:+.2f}")
    assert a.spearman > 0.7
    assert a.spearman > report.all_jobs["gpu_core_hours"].spearman
    assert e.spearman > 0.6
