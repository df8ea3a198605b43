"""Fig. 17 — total memory consumption vs SBEs; Observation 11.

Paper: both coefficients below 0.50.
"""

from conftest import bench_figure, show


def test_fig17_total_memory(study, benchmark):
    report = bench_figure(benchmark, study, "figs16_19")
    m = report.all_jobs["total_memory"]
    me = report.excluding_offenders["total_memory"]
    show(f"Fig. 17 — SBE vs total memory over {m.n_jobs} jobs")
    show(f"  all jobs        : Spearman {m.spearman:+.2f}  Pearson {m.pearson:+.2f}")
    show(f"  minus offenders : Spearman {me.spearman:+.2f}  Pearson {me.pearson:+.2f}")
    assert abs(m.spearman) < 0.5 and abs(m.pearson) < 0.5
    assert abs(me.spearman) < 0.5
