"""Fig. 21 — GPU workload characteristics; Observation 14.

Paper: the biggest memory consumers use below-average core-hours and
below-median node counts; long-core-hour jobs use more nodes; some of
the longest wall-clock jobs are small.
"""

import numpy as np
from conftest import bench_figure, show

from repro.core.report import render_table
from repro.core.workload_analysis import panel_curves


def test_fig21_workload(study, benchmark):
    chars = bench_figure(benchmark, study, "fig21")
    show(render_table(
        ["claim", "measured", "paper expectation"],
        [
            ["top-memory jobs' core-hours / mean",
             f"{chars.top_memory_jobs_core_hour_ratio:.2f}", "< 1"],
            ["Spearman(nodes, core-hours)",
             f"{chars.nodes_vs_core_hours_spearman:.2f}", "> 0 (panel b)"],
            ["small-node share of top-walltime jobs",
             f"{chars.long_walltime_small_node_share:.2f}", "substantial"],
            ["top-memory jobs' median nodes / median",
             f"{chars.top_memory_jobs_node_ratio:.2f}", "< 1"],
        ],
    ))
    # the four panel curve sets exist and normalize correctly
    trace = study.ds.trace
    mem_curve, nodes_curve = panel_curves(
        trace.gpu_core_hours, trace.max_memory_gb, trace.n_nodes.astype(float)
    )
    assert mem_curve.mean() == 1.0 or abs(mem_curve.mean() - 1.0) < 1e-9
    assert nodes_curve.size == len(trace)
    assert chars.observation_14_holds()
