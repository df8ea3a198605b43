"""Fig. 18 — node count vs SBEs; Observation 12.

Paper: Spearman ≈ 0.57 with all jobs; drops below 0.50 when jobs using
the top-10 offender nodes are excluded.
"""

from conftest import bench_figure, show


def test_fig18_nodes(study, benchmark):
    report = bench_figure(benchmark, study, "figs16_19")
    m = report.all_jobs["n_nodes"]
    me = report.excluding_offenders["n_nodes"]
    show(f"Fig. 18 — SBE vs node count over {m.n_jobs} jobs")
    show(f"  all jobs        : Spearman {m.spearman:+.2f} (paper 0.57)  "
         f"Pearson {m.pearson:+.2f}")
    show(f"  minus offenders : Spearman {me.spearman:+.2f} (paper <0.50)")
    assert m.spearman > 0.5
    assert me.spearman < 0.5
    assert me.spearman < m.spearman
