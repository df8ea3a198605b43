"""Fig. 12 — XID 13 spatial distribution under time-threshold filtering.

Paper: unfiltered (top) and dropped-children (bottom) grids show the
alternating-cabinet stripe of the folded torus; the 5-second-filtered
grid (middle) counts one event per job and loses the stripe.
"""

from conftest import bench_figure, show

from repro.core.report import render_heatmap


def test_fig12_filtering(study, benchmark):
    fig12 = bench_figure(benchmark, study, "fig12")
    show(render_heatmap(fig12.grid_unfiltered,
                        title="Fig. 12 (top) — XID 13, no filtering"))
    show(render_heatmap(fig12.grid_filtered,
                        title="Fig. 12 (middle) — 5 s filtered"))
    show(render_heatmap(fig12.grid_children,
                        title="Fig. 12 (bottom) — events inside the 5 s window"))
    show(f"  events: {fig12.n_unfiltered} unfiltered -> "
         f"{fig12.n_filtered} filtered")
    show(f"  even/odd-row alternation: raw {fig12.alternation_unfiltered:+.3f} "
         f"filtered {fig12.alternation_filtered:+.3f} "
         f"children {fig12.alternation_children:+.3f}")
    assert fig12.n_unfiltered > 50 * fig12.n_filtered
    assert fig12.alternation_unfiltered > 0.05
    assert fig12.alternation_children > 0.05
    assert fig12.alternation_filtered < fig12.alternation_unfiltered
