"""Sharded multi-scenario sensitivity sweeps (``repro sweep``).

Declarative sweep specs (:mod:`repro.sweep.spec`) expand into a
deterministic grid of scenario points (:mod:`repro.sweep.grid`), each
with its own RNG branch and content-addressed summary artifact; the
journaled engine (:mod:`repro.sweep.engine`) shards them over worker
processes and survives ``kill -9`` at any point barrier, and the
streaming reducer (:mod:`repro.sweep.reduce`) assembles the
sensitivity table and the paper-style MTBF-vs-node-count projection.
"""

from repro.sweep.engine import (
    load_sweep_table,
    point_summary_doc,
    run_sweep,
    summary_key,
    sweep_id_for,
    sweep_status,
    table_key,
)
from repro.sweep.grid import SweepPoint, expand
from repro.sweep.reduce import (
    SensitivityReducer,
    render_projection,
    render_sensitivity,
    scaling_projection,
    write_table_csv,
)
from repro.sweep.spec import PRESETS, RateMultipliers, SweepSpec, preset

__all__ = [
    "SweepSpec",
    "RateMultipliers",
    "preset",
    "PRESETS",
    "SweepPoint",
    "expand",
    "run_sweep",
    "sweep_status",
    "sweep_id_for",
    "summary_key",
    "table_key",
    "point_summary_doc",
    "load_sweep_table",
    "SensitivityReducer",
    "scaling_projection",
    "render_sensitivity",
    "render_projection",
    "write_table_csv",
]
