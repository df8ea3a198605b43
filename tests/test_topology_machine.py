"""Tests for the TitanMachine model."""

import re

import numpy as np
import pytest

from repro.topology.machine import (
    N_COMPUTE_NODES,
    N_SERVICE_NODES,
    TitanMachine,
)


@pytest.fixture(scope="module")
def machine():
    return TitanMachine()


def test_counts(machine):
    assert machine.n_gpus == 18_688
    assert N_COMPUTE_NODES + N_SERVICE_NODES == 19_200
    assert machine.n_cabinets == 200


def test_coordinate_arrays_shapes(machine):
    for arr in (machine.row, machine.col, machine.cage, machine.slot, machine.node):
        assert arr.shape == (18_688,)


def test_coordinate_ranges(machine):
    assert machine.row.min() == 0 and machine.row.max() == 24
    assert machine.col.min() == 0 and machine.col.max() == 7
    assert set(np.unique(machine.cage)) == {0, 1, 2}


def test_gpu_position_roundtrip(machine):
    gpus = np.arange(machine.n_gpus)
    pos = machine.gpu_position(gpus)
    assert np.array_equal(machine.position_gpu(pos), gpus)


def test_service_positions_have_no_gpu(machine):
    service = np.flatnonzero(machine.is_service_position(np.arange(19_200)))
    assert service.size == 512
    assert np.all(machine.position_gpu(service) == -1)


def test_cname_roundtrip(machine):
    for gpu in [0, 1, 500, 9000, 18_687]:
        assert machine.gpu_from_cname(machine.cname(gpu)) == gpu


def test_gpu_from_cname_rejects_service_node(machine):
    # Cabinet 0 cage 0 slot 0 is a service blade by construction.
    with pytest.raises(ValueError):
        machine.gpu_from_cname("c0-0c0s0n0")


def test_location_matches_arrays(machine):
    gpu = 1234
    loc = machine.location(gpu)
    assert loc.row == machine.row[gpu]
    assert loc.col == machine.col[gpu]
    assert loc.cage == machine.cage[gpu]


def test_cabinet_grid_total(machine):
    counts = np.ones(machine.n_gpus, dtype=np.int64)
    grid = machine.cabinet_grid(counts)
    assert grid.shape == (25, 8)
    assert grid.sum() == machine.n_gpus
    # service blades removed 4 nodes each from the first 128 cabinets
    assert grid.flat[0] == 92
    assert grid.flat[199] == 96


def test_cabinet_grid_validates_shape(machine):
    with pytest.raises(ValueError):
        machine.cabinet_grid(np.ones(100))


def test_cage_totals(machine):
    counts = np.ones(machine.n_gpus, dtype=np.int64)
    totals = machine.cage_totals(counts)
    assert totals.sum() == machine.n_gpus
    # service blades all live in cage 0, so cage 0 has fewer GPUs
    assert totals[0] == totals[1] - 512
    assert totals[1] == totals[2]


def test_cage_totals_validates_shape(machine):
    with pytest.raises(ValueError):
        machine.cage_totals(np.ones(5))


def test_allocation_rank_is_permutation(machine):
    assert np.array_equal(
        np.sort(machine.allocation_rank), np.arange(machine.n_gpus)
    )
    # order and rank are mutually inverse
    assert np.array_equal(
        machine.allocation_rank[machine.allocation_order], np.arange(machine.n_gpus)
    )


def test_allocation_order_starts_in_row_zero(machine):
    first = machine.allocation_order[:500]
    assert np.all(machine.row[first] == 0)


def test_cname_table_matches_reference(machine):
    # Memoized table vs each GPU's location formatted on its own.
    assert machine.cname_table() == [
        machine.location(gpu).cname for gpu in range(machine.n_gpus)
    ]


def test_cname_table_is_cached(machine):
    assert machine.cname_table() is machine.cname_table()


def test_gpu_index_map_inverts_cname_table(machine):
    gmap = machine.gpu_index_map()
    assert len(gmap) == machine.n_gpus
    for gpu in range(0, machine.n_gpus, 101):
        assert gmap[machine.cname(gpu)] == gpu


def test_gpu_from_cname_matches_reference(machine):
    canonical = machine.cname(9000)
    assert machine.gpu_from_cname(canonical) == machine.gpu_from_cname_reference(
        canonical
    )
    # Non-canonical spellings (zero-padded fields) miss the memoized
    # map but must still resolve through the parsing fallback.
    padded = re.sub(r"\d+", lambda m: m.group(0).zfill(3), canonical)
    assert machine.gpu_from_cname(padded) == 9000
    assert machine.gpu_from_cname_reference(padded) == 9000


def test_gpu_from_cname_reference_rejects_service_node(machine):
    with pytest.raises(ValueError):
        machine.gpu_from_cname_reference("c0-0c0s0n0")


def test_allocation_order_alternates_rows(machine):
    """The rows visited by ascending allocation order follow the folded
    sequence 0, 2, 4, ..."""
    rows_in_order = machine.row[machine.allocation_order]
    # np.unique on a stable first-occurrence basis:
    _, first_idx = np.unique(rows_in_order, return_index=True)
    visit_order = rows_in_order[np.sort(first_idx)]
    assert visit_order[0] == 0
    assert visit_order[1] == 2
    assert visit_order[2] == 4
