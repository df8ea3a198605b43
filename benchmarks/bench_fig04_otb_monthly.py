"""Fig. 4 — monthly Off-the-bus frequency; Observation 4.

Paper: dominant before Dec'2013, nearly zero after the soldering fix;
events arrive clustered.
"""

from conftest import bench_figure, show

from repro.core.report import render_monthly_series
from repro.core.temporal import events_before_after
from repro.errors.xid import ErrorType
from repro.faults.rates import OTB_FIX_TIME


def test_fig4_otb_monthly(study, benchmark, month_labels):
    fig4 = bench_figure(benchmark, study, "fig4")
    show(render_monthly_series(month_labels, fig4.counts,
                               "Fig. 4 — Off-the-bus per month"))
    otb = study.log.of_type(ErrorType.OFF_THE_BUS)
    before, after = events_before_after(otb, OTB_FIX_TIME)
    show(f"  before fix (Dec'13): {before}   after: {after}")
    assert before > 10 * max(after, 1)
    assert fig4.burstiness.daily_fano > 1.5  # clustered arrivals
