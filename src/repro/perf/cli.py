"""``python -m repro profile`` — stage-level pipeline profiling.

Runs the cold pipeline (simulate → render → parse → nvsmi → jobsnap,
plus a cache persist when a store is configured) with the
:mod:`repro.perf` registry enabled and prints the per-stage wall-time
breakdown the registry collected.  This is the operator-facing view of
the same numbers ``benchmarks/measure_pipeline.py`` embeds in
``BENCH_pipeline.json``.
"""

from __future__ import annotations

import argparse
import json
import time

__all__ = ["add_profile_arguments", "cmd_profile"]


def add_profile_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach ``profile``-specific options (shared options come from the
    caller's ``_add_common``)."""
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the breakdown as JSON instead of a table")


def _render_table(snapshot: dict, wall_s: float) -> str:
    stages: dict[str, dict] = snapshot["stages"]
    counters: dict[str, int] = snapshot["counters"]
    width = max([len(name) for name in stages] + [len("stage")])
    lines = [f"{'stage':<{width}}  {'seconds':>9}  {'calls':>6}"]
    accounted = 0.0
    for name, stat in stages.items():
        lines.append(
            f"{name:<{width}}  {stat['seconds']:>9.3f}  {stat['calls']:>6}"
        )
        accounted += stat["seconds"]
    lines.append(f"{'(untimed)':<{width}}  {max(0.0, wall_s - accounted):>9.3f}")
    lines.append(f"{'total wall':<{width}}  {wall_s:>9.3f}")
    if counters:
        lines.append("")
        lines.append("counters:")
        for name, value in counters.items():
            lines.append(f"  {name:<{width}}  {value:>12,}")
    return "\n".join(lines)


def cmd_profile(args) -> int:
    """Profile one cold pipeline run and report per-stage timings."""
    from repro import perf
    from repro.cli import _scenario, _store
    from repro.sim.simulation import TitanSimulation

    scenario = _scenario(args)
    store = _store(args)

    perf.reset()
    perf.enable()
    t0 = time.perf_counter()
    try:
        dataset = TitanSimulation(scenario).run()
        # Touch every observable layer so each lazy stage runs exactly
        # once, in pipeline order.
        _ = dataset.console_text
        _ = dataset.parsed_events
        _ = dataset.nvsmi_table
        _ = dataset.jobsnap_records
        if store is not None:
            from repro.cache.pipeline import persist_dataset

            persist_dataset(store, dataset)
    finally:
        perf.disable()
    wall_s = time.perf_counter() - t0
    snapshot = perf.snapshot()

    if args.as_json:
        print(json.dumps({
            "scenario": scenario.name,
            "seed": scenario.seed,
            "wall_s": wall_s,
            **snapshot,
        }, indent=2))
        return 0
    print(f"scenario {scenario.name!r} seed {scenario.seed}")
    print(_render_table(snapshot, wall_s))
    return 0
