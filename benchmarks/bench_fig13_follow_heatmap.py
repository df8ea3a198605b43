"""Fig. 13 — XID → XID follow probabilities within 300 s; Observation 9.

Paper: DBE (48) is likely followed by 45 and 63; 13 by 43; application
XIDs repeat across a job's nodes (strong diagonal); Off-the-bus, 38, 48
and 63 are isolated.
"""

import numpy as np
from conftest import bench_figure, show

from repro.core.report import render_heatmap
from repro.errors.xid import ErrorType


def test_fig13_follow_matrix(study, benchmark):
    fm = bench_figure(benchmark, study, "fig13")
    labels = fm.labels()
    show(render_heatmap(fm.matrix, row_labels=labels, col_labels=labels,
                        title="Fig. 13 (top) — P(col within 300 s | row)"))
    no_diag = fm.without_same_type()
    show(render_heatmap(no_diag.matrix, row_labels=labels, col_labels=labels,
                        title="Fig. 13 (bottom) — same-type pairs excluded"))
    assert fm.value(ErrorType.DBE, ErrorType.PREEMPTIVE_CLEANUP) > 0.3
    assert fm.value(ErrorType.DBE, ErrorType.ECC_PAGE_RETIREMENT) > 0.1
    assert fm.value(ErrorType.GRAPHICS_ENGINE_EXCEPTION,
                    ErrorType.GPU_STOPPED) > 0.25
    assert fm.value(ErrorType.GRAPHICS_ENGINE_EXCEPTION,
                    ErrorType.GRAPHICS_ENGINE_EXCEPTION) > 0.9
    for isolated in (ErrorType.OFF_THE_BUS, ErrorType.DRIVER_FIRMWARE,
                     ErrorType.DBE, ErrorType.ECC_PAGE_RETIREMENT):
        assert fm.value(isolated, isolated) < 0.15
    assert np.all(np.diag(no_diag.matrix) == 0.0)
