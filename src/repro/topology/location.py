"""Node locations and Cray cname encoding.

A node position on the Titan floor is identified by five coordinates::

    row   ∈ [0, 25)   machine-floor row of the cabinet
    col   ∈ [0, 8)    machine-floor column of the cabinet
    cage  ∈ [0, 3)    vertical cage within the cabinet (2 = topmost)
    slot  ∈ [0, 8)    blade slot within the cage
    node  ∈ [0, 4)    node within the blade

Cray names these ``c{col}-{row}c{cage}s{slot}n{node}`` (e.g.
``c3-17c2s5n1``); the same encoding is used in Titan's console logs, so
the log parser round-trips through these helpers.

Cage numbering matters for the paper's thermal analyses: cage 2 sits at
the top of the cabinet and runs ≈10 °F hotter than cage 0 at the bottom.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CABINET_ROWS",
    "CABINET_COLS",
    "N_CABINETS",
    "CAGES_PER_CABINET",
    "SLOTS_PER_CAGE",
    "NODES_PER_BLADE",
    "NODES_PER_CAGE",
    "NODES_PER_CABINET",
    "TOTAL_POSITIONS",
    "NodeLocation",
    "format_cname",
    "parse_cname",
    "position_index",
    "position_fields",
]

CABINET_ROWS: int = 25
CABINET_COLS: int = 8
N_CABINETS: int = CABINET_ROWS * CABINET_COLS  # 200
CAGES_PER_CABINET: int = 3
SLOTS_PER_CAGE: int = 8
NODES_PER_BLADE: int = 4
NODES_PER_CAGE: int = SLOTS_PER_CAGE * NODES_PER_BLADE  # 32
NODES_PER_CABINET: int = CAGES_PER_CABINET * NODES_PER_CAGE  # 96
TOTAL_POSITIONS: int = N_CABINETS * NODES_PER_CABINET  # 19,200

_CNAME_RE = re.compile(
    r"^c(?P<col>\d+)-(?P<row>\d+)c(?P<cage>\d+)s(?P<slot>\d+)n(?P<node>\d+)$"
)


@dataclass(frozen=True, slots=True, order=True)
class NodeLocation:
    """Immutable physical position of a node."""

    row: int
    col: int
    cage: int
    slot: int
    node: int

    def __post_init__(self) -> None:
        if not 0 <= self.row < CABINET_ROWS:
            raise ValueError(f"row out of range: {self.row}")
        if not 0 <= self.col < CABINET_COLS:
            raise ValueError(f"col out of range: {self.col}")
        if not 0 <= self.cage < CAGES_PER_CABINET:
            raise ValueError(f"cage out of range: {self.cage}")
        if not 0 <= self.slot < SLOTS_PER_CAGE:
            raise ValueError(f"slot out of range: {self.slot}")
        if not 0 <= self.node < NODES_PER_BLADE:
            raise ValueError(f"node out of range: {self.node}")

    @property
    def cabinet(self) -> int:
        """Flat cabinet index, row-major: ``row * 8 + col``."""
        return self.row * CABINET_COLS + self.col

    @property
    def cname(self) -> str:
        """Cray component name, e.g. ``c3-17c2s5n1``."""
        return format_cname(self.row, self.col, self.cage, self.slot, self.node)

    @property
    def index(self) -> int:
        """Flat position index in ``[0, TOTAL_POSITIONS)``."""
        return position_index(self.row, self.col, self.cage, self.slot, self.node)

    @classmethod
    def from_index(cls, index: int) -> "NodeLocation":
        """Inverse of :attr:`index`."""
        row, col, cage, slot, node = position_fields(index)
        return cls(int(row), int(col), int(cage), int(slot), int(node))

    @classmethod
    def from_cname(cls, cname: str) -> "NodeLocation":
        """Parse a Cray cname into a location."""
        return cls(*parse_cname(cname))


def format_cname(row: int, col: int, cage: int, slot: int, node: int) -> str:
    """Format coordinates as a Cray cname (column first, per convention)."""
    return f"c{col}-{row}c{cage}s{slot}n{node}"


def parse_cname(cname: str) -> tuple[int, int, int, int, int]:
    """Parse a cname to ``(row, col, cage, slot, node)``.

    Raises ``ValueError`` on malformed names; range checking is left to
    :class:`NodeLocation`.
    """
    match = _CNAME_RE.match(cname.strip())
    if match is None:
        raise ValueError(f"malformed cname: {cname!r}")
    return (
        int(match["row"]),
        int(match["col"]),
        int(match["cage"]),
        int(match["slot"]),
        int(match["node"]),
    )


def position_index(
    row: int | np.ndarray,
    col: int | np.ndarray,
    cage: int | np.ndarray,
    slot: int | np.ndarray,
    node: int | np.ndarray,
) -> int | np.ndarray:
    """Flat position index; vectorized over numpy inputs.

    Layout: cabinets row-major, then cage, slot, node — so a whole blade
    is contiguous, a whole cage is contiguous, a whole cabinet is
    contiguous.
    """
    cabinet = row * CABINET_COLS + col
    return (
        cabinet * NODES_PER_CABINET
        + cage * NODES_PER_CAGE
        + slot * NODES_PER_BLADE
        + node
    )


def position_fields(
    index: int | np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`position_index`; vectorized.

    Returns ``(row, col, cage, slot, node)`` arrays (0-d for scalars).
    """
    idx = np.asarray(index)
    if np.any((idx < 0) | (idx >= TOTAL_POSITIONS)):
        raise ValueError("position index out of range")
    cabinet, within = np.divmod(idx, NODES_PER_CABINET)
    row, col = np.divmod(cabinet, CABINET_COLS)
    cage, rest = np.divmod(within, NODES_PER_CAGE)
    slot, node = np.divmod(rest, NODES_PER_BLADE)
    return row, col, cage, slot, node
