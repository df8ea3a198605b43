"""Fig. 11 — XID 59/62 internal micro-controller halts.

Paper: 59 belongs to the old driver (pre-Jan'14), 62 to the new one;
neither stream is bursty.
"""

import numpy as np
from conftest import bench_figure, show

from repro.core.report import render_monthly_series
from repro.faults.rates import DRIVER_UPGRADE_TIME
from repro.units import month_index


def test_fig11_mcu_halts(study, benchmark, month_labels):
    figs = bench_figure(benchmark, study, "fig11")
    for xid, fig in sorted(figs.items()):
        show(render_monthly_series(month_labels, fig.counts,
                                   f"Fig. 11 — XID {xid} per month"))
    upgrade = int(month_index(DRIVER_UPGRADE_TIME)[0])
    assert figs[59].counts[upgrade:].sum() == 0  # old driver only
    assert figs[62].counts[:upgrade].sum() == 0  # new driver only
    for fig in figs.values():
        assert fig.total > 50
        assert not fig.burstiness.is_bursty
