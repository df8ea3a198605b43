"""Fig. 14 — SBE spatial skew and top-offender exclusion; Observation 10.

Paper: highly skewed with all cards; near-homogeneous once the top-50
offenders are removed; fewer than 1000 cards (<5 %) ever see an SBE.
"""

from conftest import bench_figure, show

from repro.core.report import render_heatmap, render_table


def test_fig14_sbe_spatial(study, benchmark):
    fig14 = bench_figure(benchmark, study, "fig14")
    for name in ("all", "minus_top10", "minus_top50"):
        show(render_heatmap(fig14.grids[name],
                            title=f"Fig. 14 — SBEs per cabinet ({name})"))
    show(render_table(
        ["variant", "skewness (cabinet CV)"],
        [[k, f"{v:.2f}"] for k, v in fig14.skewness.items()],
    ))
    show(f"  cards with any SBE: {fig14.n_cards_with_sbe} "
         f"({fig14.fleet_fraction_with_sbe:.2%} of fleet; paper: <1000, <5 %)")
    assert fig14.skewness["all"] > fig14.skewness["minus_top10"]
    assert fig14.skewness["minus_top10"] > fig14.skewness["minus_top50"]
    assert fig14.n_cards_with_sbe < 1000
    assert fig14.fleet_fraction_with_sbe < 0.05
