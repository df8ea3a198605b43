"""Physical and network topology of the Titan supercomputer.

Titan (Cray XK7) is modelled exactly as the paper describes it:

* 200 cabinets arranged in **25 rows × 8 columns** on the machine floor;
* each cabinet holds **3 cages**, each cage **8 blades (slots)**, each
  blade **4 nodes** → 96 node positions per cabinet, 19,200 total;
* **18,688** of those positions are compute nodes (CPU + K20X GPU), the
  remaining 512 are service/IO nodes without GPUs;
* one Gemini router is shared by each pair of nodes, giving a
  25 × 16 × 24 3-D torus whose row dimension is cabled as a
  **folded torus** so that consecutive torus coordinates land in
  alternating physical rows (the cause of the striped job-allocation
  pattern in Fig. 12 of the paper).
"""

from repro.topology.location import (
    CABINET_COLS,
    CABINET_ROWS,
    CAGES_PER_CABINET,
    NODES_PER_BLADE,
    NODES_PER_CABINET,
    SLOTS_PER_CAGE,
    TOTAL_POSITIONS,
    NodeLocation,
    format_cname,
    parse_cname,
)
from repro.topology.machine import N_COMPUTE_NODES, N_SERVICE_NODES, TitanMachine
from repro.topology.torus import GeminiTorus, folded_order, folded_rank
from repro.topology.routing import average_pairwise_hops, link_load, route
from repro.topology.thermal import ThermalModel

__all__ = [
    "CABINET_COLS",
    "CABINET_ROWS",
    "CAGES_PER_CABINET",
    "NODES_PER_BLADE",
    "NODES_PER_CABINET",
    "SLOTS_PER_CAGE",
    "TOTAL_POSITIONS",
    "N_COMPUTE_NODES",
    "N_SERVICE_NODES",
    "NodeLocation",
    "format_cname",
    "parse_cname",
    "TitanMachine",
    "GeminiTorus",
    "folded_order",
    "folded_rank",
    "route",
    "average_pairwise_hops",
    "link_load",
    "ThermalModel",
]
