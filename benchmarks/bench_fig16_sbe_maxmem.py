"""Fig. 16 — max memory consumption vs SBEs; Observation 11.

Paper: both Spearman and Pearson below 0.50 (SBEs live mostly in the L2
cache, not in capacity-proportional structures).
"""

from conftest import bench_figure, show

from repro.core.correlation import sorted_curves
from repro.telemetry.jobsnap import JobSnapshotFramework


def test_fig16_max_memory(study, benchmark):
    report = bench_figure(benchmark, study, "figs16_19")
    m = report.all_jobs["max_memory_gb"]
    me = report.excluding_offenders["max_memory_gb"]
    show(f"Fig. 16 — SBE vs max memory over {m.n_jobs} jobs")
    show(f"  all jobs        : Spearman {m.spearman:+.2f}  Pearson {m.pearson:+.2f}")
    show(f"  minus offenders : Spearman {me.spearman:+.2f}  Pearson {me.pearson:+.2f}")
    arrays = JobSnapshotFramework.to_arrays(study.ds.jobsnap_records)
    curve_m, curve_s = sorted_curves(arrays["max_memory_gb"], arrays["sbe"])
    show(f"  normalized curves over {curve_m.size} sorted jobs "
         f"(metric mean={curve_m.mean():.2f}, sbe mean={curve_s.mean():.2f})")
    assert abs(m.spearman) < 0.5 and abs(m.pearson) < 0.5
    assert abs(me.spearman) < 0.5
