"""Fig. 7 — ECC page-retirement spatial distribution.

Paper: non-uniform, upper cages slightly more likely.
"""

from conftest import bench_figure, show

from repro.core.report import render_heatmap, render_table


def test_fig7_retirement_spatial(study, benchmark):
    fig7 = bench_figure(benchmark, study, "fig7")
    show(render_heatmap(fig7.grid, title="Fig. 7 — retirements per cabinet"))
    show(render_table(
        ["cage", "events"],
        [[c, int(fig7.cage_events[c])] for c in range(3)],
    ))
    assert fig7.cage_events.sum() > 10
    # upper cages at least match the bottom cage
    assert fig7.cage_events[2] + fig7.cage_events[1] >= fig7.cage_events[0]
