"""Fig. 10 — XID 13 (graphics engine exception) frequency; Observation 6.

Paper: bursty — multiple errors on the same day, spikes near deadline
weeks.
"""

from conftest import bench_figure, show

from repro.core.report import render_monthly_series


def test_fig10_xid13(study, benchmark, month_labels):
    fig10 = bench_figure(benchmark, study, "fig10")
    show(render_monthly_series(month_labels, fig10.counts,
                               "Fig. 10 — XID 13 per month (job-level)"))
    b = fig10.burstiness
    show(f"  daily Fano {b.daily_fano:.1f}, inter-arrival CV "
         f"{b.interarrival_cv:.1f}, peak-day share {b.peak_day_share:.2%}")
    assert b.is_bursty
    assert fig10.total > 300
