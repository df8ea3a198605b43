"""Fig. 15 — SBE cage distribution; Observation 10.

Paper: with all cards the topmost cage leads; after removing the top-50
offenders the distribution is fairly homogeneous; the count of distinct
SBE cards is flat across cages in every variant.
"""

from conftest import bench_figure, show

from repro.core.report import render_table


def test_fig15_sbe_cage(study, benchmark):
    fig15 = bench_figure(benchmark, study, "fig15")
    rows = []
    for name in ("all", "minus_top10", "minus_top50"):
        ev = fig15.cage_events[name]
        di = fig15.cage_distinct[name]
        rows.append([name, *(int(x) for x in ev), *(int(x) for x in di)])
    show(render_table(
        ["variant", "ev c0", "ev c1", "ev c2", "cards c0", "cards c1", "cards c2"],
        rows,
    ))
    all_events = fig15.cage_events["all"].astype(float)
    assert all_events[2] == all_events.max()  # topmost cage leads
    minus50 = fig15.cage_events["minus_top50"].astype(float)
    assert minus50.max() / minus50.min() < 1.25  # homogeneous
    for variant in fig15.cage_distinct.values():
        v = variant.astype(float)
        assert v.max() / v.min() < 1.25  # distinct cards flat everywhere
