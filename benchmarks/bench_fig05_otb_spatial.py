"""Fig. 5 — Off-the-bus spatial distribution.

Paper: fairly distributed across the floor, upper cages hit more, the
same card almost never hit twice.
"""

from conftest import bench_figure, show

from repro.core.report import render_heatmap, render_table
from repro.core.spatial import grid_skewness


def test_fig5_otb_spatial(study, benchmark):
    fig5 = bench_figure(benchmark, study, "fig5")
    show(render_heatmap(fig5.grid, title="Fig. 5 — OTB per cabinet"))
    show(render_table(
        ["cage", "events", "distinct cards"],
        [[c, int(fig5.cage_events[c]), int(fig5.cage_distinct_cards[c])]
         for c in range(3)],
    ))
    assert fig5.cage_events[2] > fig5.cage_events[0]
    # "do not tend to reappear on the same card"
    assert fig5.cage_distinct_cards.sum() >= 0.9 * fig5.cage_events.sum()
    # spread widely, not a single hot spot
    assert grid_skewness(fig5.grid) < 3.0
