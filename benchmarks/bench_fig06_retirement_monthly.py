"""Fig. 6 — monthly ECC page-retirement frequency; Observation 5.

Paper: the XID only exists after the Jan'2014 driver rollout.
"""

import numpy as np
from conftest import bench_figure, show

from repro.core.report import render_monthly_series
from repro.faults.rates import DRIVER_UPGRADE_TIME
from repro.units import month_index


def test_fig6_retirement_monthly(study, benchmark, month_labels):
    fig6 = bench_figure(benchmark, study, "fig6")
    show(render_monthly_series(month_labels, fig6.counts,
                               "Fig. 6 — ECC page retirements per month"))
    onset = int(month_index(DRIVER_UPGRADE_TIME)[0])
    assert fig6.counts[:onset].sum() == 0
    assert fig6.counts[onset:].sum() == fig6.total
    assert fig6.total > 10
    assert np.count_nonzero(fig6.counts[onset:]) >= 8  # steadily present
