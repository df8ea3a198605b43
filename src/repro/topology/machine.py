"""The Titan machine: compute vs service nodes and bulk coordinate arrays.

Titan's 19,200 physical positions hold 18,688 GPU-equipped compute
nodes; the remaining 512 positions are service/IO (XIO) nodes that run
no GPUs and therefore never appear in GPU error analyses.  The real
machine scattered service blades across the floor; we place them
deterministically (slot 0 of cage 0 in the first 128 cabinets in
row-major order — 128 blades × 4 nodes = 512) so the compute-node set
is reproducible.  The choice of *which* positions are service nodes
does not affect any result in the paper: all analyses are conditioned
on the compute-node population.
"""

from __future__ import annotations

import numpy as np

from repro.topology.location import (
    CABINET_COLS,
    CAGES_PER_CABINET,
    N_CABINETS,
    NODES_PER_BLADE,
    NODES_PER_CABINET,
    SLOTS_PER_CAGE,
    TOTAL_POSITIONS,
    NodeLocation,
    format_cname,
    position_fields,
    position_index,
)
from repro.topology.torus import GeminiTorus

__all__ = ["N_COMPUTE_NODES", "N_SERVICE_NODES", "N_SERVICE_BLADES", "TitanMachine"]

N_COMPUTE_NODES: int = 18_688
N_SERVICE_NODES: int = TOTAL_POSITIONS - N_COMPUTE_NODES  # 512
N_SERVICE_BLADES: int = N_SERVICE_NODES // NODES_PER_BLADE  # 128


class TitanMachine:
    """Immutable description of the Titan floor.

    The machine is represented columnar-style: one numpy array per
    coordinate, indexed by **GPU id** ``∈ [0, 18688)``.  GPU ids number
    the compute nodes in position order; every error event, job
    allocation and nvidia-smi record in the simulator uses GPU ids, and
    the analysis toolkit maps them back to physical coordinates through
    this class.
    """

    def __init__(self, *, folded_torus: bool = True) -> None:
        self.folded_torus = bool(folded_torus)
        service = np.zeros(TOTAL_POSITIONS, dtype=bool)
        # First 128 cabinets donate cage 0 / slot 0 as a service blade.
        cabs = np.arange(N_SERVICE_BLADES)
        rows, cols = np.divmod(cabs, CABINET_COLS)
        for node in range(NODES_PER_BLADE):
            service[position_index(rows, cols, 0, 0, node)] = True
        assert int(service.sum()) == N_SERVICE_NODES

        self._service_mask = service
        self._compute_positions = np.flatnonzero(~service).astype(np.int64)
        assert self._compute_positions.size == N_COMPUTE_NODES

        # position index -> gpu id (or -1 for service positions)
        self._gpu_of_position = np.full(TOTAL_POSITIONS, -1, dtype=np.int64)
        self._gpu_of_position[self._compute_positions] = np.arange(N_COMPUTE_NODES)

        row, col, cage, slot, node = position_fields(self._compute_positions)
        self._row = row.astype(np.int64)
        self._col = col.astype(np.int64)
        self._cage = cage.astype(np.int64)
        self._slot = slot.astype(np.int64)
        self._node = node.astype(np.int64)
        self._cabinet = self._row * CABINET_COLS + self._col

        self.torus = GeminiTorus()
        # Allocation rank restricted to compute nodes (dense 0..N-1).
        # Folded cabling: torus rank order (rows visited 0, 2, 4, ...).
        # Unfolded counterfactual: plain physical (position) order.
        if self.folded_torus:
            rank_key = self.torus.torus_rank(self._compute_positions)
        else:
            rank_key = self._compute_positions
        order = np.argsort(rank_key, kind="stable")
        self._alloc_order = order.astype(np.int64)  # gpu ids in alloc order
        self._alloc_rank = np.empty(N_COMPUTE_NODES, dtype=np.int64)
        self._alloc_rank[order] = np.arange(N_COMPUTE_NODES)

        # Lazily built bidirectional cname tables (see cname_table /
        # gpu_index_map): one formatted string per GPU and the inverse
        # dict.  Spellings the dict misses go through the string parse
        # (gpu_from_cname_reference).
        self._cname_table: list[str] | None = None
        self._gpu_by_cname: dict[str, int] | None = None

    # -- sizes -------------------------------------------------------------

    @property
    def n_gpus(self) -> int:
        """Number of GPU-equipped compute nodes (18,688)."""
        return N_COMPUTE_NODES

    @property
    def n_cabinets(self) -> int:
        return N_CABINETS

    # -- per-GPU coordinate arrays ----------------------------------------

    @property
    def row(self) -> np.ndarray:
        """Machine-floor row of each GPU (read-only view)."""
        return self._row

    @property
    def col(self) -> np.ndarray:
        return self._col

    @property
    def cage(self) -> np.ndarray:
        return self._cage

    @property
    def slot(self) -> np.ndarray:
        return self._slot

    @property
    def node(self) -> np.ndarray:
        return self._node

    @property
    def cabinet(self) -> np.ndarray:
        """Flat cabinet index (row-major) of each GPU."""
        return self._cabinet

    @property
    def allocation_order(self) -> np.ndarray:
        """GPU ids sorted by torus allocation rank."""
        return self._alloc_order

    @property
    def allocation_rank(self) -> np.ndarray:
        """Allocation rank of each GPU id."""
        return self._alloc_rank

    # -- id conversions -----------------------------------------------------

    def gpu_position(self, gpu: int | np.ndarray) -> np.ndarray:
        """Flat position index of a GPU id (vectorized)."""
        return self._compute_positions[np.asarray(gpu)]

    def position_gpu(self, position: int | np.ndarray) -> np.ndarray:
        """GPU id at a position index; -1 for service positions."""
        return self._gpu_of_position[np.asarray(position)]

    def location(self, gpu: int) -> NodeLocation:
        """Full :class:`NodeLocation` of one GPU."""
        return NodeLocation.from_index(int(self.gpu_position(gpu)))

    def cname_table(self) -> list[str]:
        """Canonical cname of every GPU, indexed by GPU id.

        Built once per machine (18,688 strings) and shared by the
        console writer's and parser's hot paths; the tests assert that
        entry ``g`` equals ``location(g).cname`` for every GPU id.
        """
        if self._cname_table is None:
            self._cname_table = [
                format_cname(r, c, g, s, n)
                for r, c, g, s, n in zip(
                    self._row.tolist(),
                    self._col.tolist(),
                    self._cage.tolist(),
                    self._slot.tolist(),
                    self._node.tolist(),
                )
            ]
        return self._cname_table

    def gpu_index_map(self) -> dict[str, int]:
        """Inverse of :meth:`cname_table`: canonical cname → GPU id.

        Only *canonical* spellings appear as keys; non-canonical but
        parseable forms (leading zeros, surrounding whitespace) and
        service-node cnames miss here and must go through
        :meth:`gpu_from_cname`, which falls back to the string-parsing
        reference.
        """
        if self._gpu_by_cname is None:
            self._gpu_by_cname = {
                name: gpu for gpu, name in enumerate(self.cname_table())
            }
        return self._gpu_by_cname

    def cname(self, gpu: int) -> str:
        """Cray cname of one GPU's node (memoized table lookup)."""
        return self.cname_table()[int(gpu)]

    def gpu_from_cname(self, cname: str) -> int:
        """GPU id for a cname; raises if the node is a service node.

        Canonical cnames resolve through the precomputed table; any
        other spelling falls back to :meth:`gpu_from_cname_reference`,
        so the accepted language is exactly the reference parser's.
        """
        gpu = self.gpu_index_map().get(cname)
        if gpu is not None:
            return gpu
        return self.gpu_from_cname_reference(cname)

    def gpu_from_cname_reference(self, cname: str) -> int:
        """Uncached cname decoding — the verification reference."""
        loc = NodeLocation.from_cname(cname)
        gpu = int(self._gpu_of_position[loc.index])
        if gpu < 0:
            raise ValueError(f"{cname} is a service node, not a GPU node")
        return gpu

    def is_service_position(self, position: int | np.ndarray) -> np.ndarray:
        return self._service_mask[np.asarray(position)]

    # -- aggregation helpers used by spatial analyses -----------------------

    def cabinet_grid(self, per_gpu_counts: np.ndarray) -> np.ndarray:
        """Fold per-GPU counts into a (25, 8) cabinet grid."""
        counts = np.asarray(per_gpu_counts)
        if counts.shape != (N_COMPUTE_NODES,):
            raise ValueError(
                f"expected per-GPU array of shape ({N_COMPUTE_NODES},), "
                f"got {counts.shape}"
            )
        grid = np.zeros((25, CABINET_COLS), dtype=counts.dtype)
        np.add.at(grid, (self._row, self._col), counts)
        return grid

    def cage_totals(self, per_gpu_counts: np.ndarray) -> np.ndarray:
        """Fold per-GPU counts into per-cage totals (length 3, cage 0..2)."""
        counts = np.asarray(per_gpu_counts)
        if counts.shape != (N_COMPUTE_NODES,):
            raise ValueError("expected per-GPU array")
        totals = np.zeros(CAGES_PER_CABINET, dtype=counts.dtype)
        np.add.at(totals, self._cage, counts)
        return totals
