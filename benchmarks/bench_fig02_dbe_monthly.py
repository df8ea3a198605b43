"""Fig. 2 — monthly double-bit-error frequency; Observation 1.

Paper: one DBE about every seven days, MTBF ≈ 160 hours, no bursts.
"""

import pytest
from conftest import bench_figure, show

from repro.core.report import render_monthly_series


def test_fig2_dbe_monthly(study, benchmark, month_labels):
    fig2 = bench_figure(benchmark, study, "fig2")
    show(render_monthly_series(month_labels, fig2.counts,
                               "Fig. 2 — DBEs per month"))
    show(f"  total DBEs     : {fig2.total}")
    show(f"  MTBF           : {fig2.mtbf_hours:.1f} h (paper: ~160 h)")
    show(f"  daily Fano     : {fig2.burstiness.daily_fano:.2f} (Poisson ≈ 1)")
    assert fig2.mtbf_hours == pytest.approx(160.0, rel=0.25)
    assert not fig2.burstiness.is_bursty
    assert fig2.counts.sum() == fig2.total
