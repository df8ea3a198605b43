"""Fig. 3 — DBE spatial distribution, cage breakdown, structure split.

Paper: uneven over cabinets; more DBEs in upper cages (>10 °F hotter);
86 % device memory vs 14 % register file; distinct-card counts sit
below event counts.
"""

from conftest import bench_figure, show

from repro.core.report import render_heatmap, render_table


def test_fig3_dbe_spatial(study, benchmark):
    fig3 = bench_figure(benchmark, study, "fig3")
    show(render_heatmap(
        fig3.grid,
        row_labels=[str(r) for r in range(25)],
        col_labels=[str(c) for c in range(8)],
        title="Fig. 3(a) — DBEs per cabinet (rows x cols)",
    ))
    show(render_table(
        ["cage", "DBE events", "distinct cards"],
        [
            [c, int(fig3.cage_events[c]), int(fig3.cage_distinct_cards[c])]
            for c in range(3)
        ],
    ))
    show(render_table(
        ["structure", "fraction (paper: device 0.86 / regfile 0.14)"],
        [[k, f"{v:.2f}"] for k, v in sorted(fig3.structure_fractions.items())],
    ))
    assert fig3.cage_events[2] > fig3.cage_events[0]
    assert abs(fig3.structure_fractions["device_memory"] - 0.86) < 0.08
    assert fig3.cage_distinct_cards.sum() <= fig3.cage_events.sum()
