"""Fig. 8 — page-retirement delay since the last DBE; Observation 5.

Paper: 18 retirements within 10 minutes of a DBE, 1 between 10 minutes
and 6 hours, 18 much later (double-SBE retirements), and 17 successive
DBE pairs with no retirement logged between them.
"""

from conftest import bench_figure, show

from repro.core.report import render_table


def test_fig8_retirement_delay(study, benchmark):
    fig8 = bench_figure(benchmark, study, "fig8")
    show(render_table(
        ["delay bucket", "ours", "paper"],
        [
            ["<= 10 min (DBE page)", fig8.n_within_10min, 18],
            ["10 min - 6 h", fig8.n_10min_to_6h, 1],
            ["> 6 h (double-SBE)", fig8.n_beyond_6h, 18],
            ["DBE pairs w/o retirement", fig8.n_dbe_pairs_without_retirement, 17],
        ],
    ))
    assert fig8.n_within_10min >= 10
    assert fig8.n_beyond_6h >= 8
    assert fig8.n_10min_to_6h <= 0.25 * fig8.n_within_10min
    assert fig8.n_dbe_pairs_without_retirement > 5
