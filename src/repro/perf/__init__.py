"""Stage-level profiling for the Titan reproduction pipeline.

Public surface: :func:`stage` / :func:`count` hooks (zero-cost while
disabled) threaded through the simulation, telemetry round trip, cache
pipeline and figure stages, plus the enable/snapshot controls that the
journaled commands (``repro run``, ``repro sweep run``), paperbench
and ``benchmarks/measure_pipeline.py`` use to report per-stage
breakdowns.  Each span books one layer's own work: a layer drawn
lazily through another books its time under its own name.
"""

from repro.perf.timers import (
    PerfRegistry,
    StageStat,
    count,
    disable,
    enable,
    is_enabled,
    reset,
    snapshot,
    stage,
)

__all__ = [
    "PerfRegistry",
    "StageStat",
    "count",
    "disable",
    "enable",
    "is_enabled",
    "reset",
    "snapshot",
    "stage",
]
