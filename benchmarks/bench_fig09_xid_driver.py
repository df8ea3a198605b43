"""Fig. 9 — XID 31/32/43/44 frequencies; Observation 6.

Paper: 32 (and 38) occurred fewer than ten times over the whole run;
43 and 44 are among the frequent driver errors.
"""

from conftest import bench_figure, show

from repro.core.report import render_monthly_series, render_table


def test_fig9_xid_frequencies(study, benchmark, month_labels):
    figs = bench_figure(benchmark, study, "fig9")
    show(render_table(
        ["XID", "total (5 s-filtered)"],
        [[xid, fig.total] for xid, fig in sorted(figs.items())],
    ))
    for xid in (43, 44):
        show(render_monthly_series(
            month_labels, figs[xid].counts, f"Fig. 9 — XID {xid} per month"
        ))
    assert figs[32].total < 20
    assert figs[43].total > 100
    assert figs[44].total > 100
    assert figs[31].total > 50
    # driver streams are not bursty
    assert not figs[43].burstiness.is_bursty
    assert not figs[44].burstiness.is_bursty
