"""``repro sweep`` — run, inspect and report sensitivity sweeps.

Three subcommands share one spec selection (``--preset`` or a JSON
``--spec`` file) and the store conventions of the rest of the CLI:

* ``run`` — execute (or ``--resume``) the sweep under the journaled
  engine, sharded over ``--jobs`` worker processes;
* ``status`` — journal progress without touching any physics;
* ``report`` — render the persisted sensitivity table (ASCII, with
  each point's measured corrupt-line fraction), the per-cell replica
  bands of a ``replicas > 1`` spec, the scaling-projection figure, and
  optional CSV/JSON exports.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

__all__ = ["add_sweep_arguments", "cmd_sweep"]


def _add_spec_arguments(p: argparse.ArgumentParser) -> None:
    from repro.sweep.spec import PRESETS

    p.add_argument(
        "--preset", type=str, default="smoke",
        help=f"built-in sweep spec: {', '.join(PRESETS)} (default: smoke)")
    p.add_argument(
        "--spec", type=Path, default=None,
        help="JSON sweep spec file (overrides --preset)")
    p.add_argument(
        "--cache-dir", type=Path, default=None,
        help="artifact store holding per-point summaries and the sweep "
             "journal (default: $REPRO_CACHE_DIR)")
    p.add_argument(
        "--no-cache", action="store_true",
        help="ignore --cache-dir/$REPRO_CACHE_DIR (sweeps refuse this: "
             "the engine journals into the store)")


def add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.cli import _positive_finite
    from repro.supervise.cli import add_journal_arguments

    sub = parser.add_subparsers(dest="sweep_command", required=True)

    p_run = sub.add_parser(
        "run", help="execute the sweep grid (crash-safe, resumable)")
    _add_spec_arguments(p_run)
    add_journal_arguments(p_run)
    p_run.add_argument(
        "--jobs", type=int, default=1,
        help="shard points over this many supervised worker processes")
    p_run.add_argument(
        "--timeout", type=_positive_finite, default=None, metavar="S",
        help="per-point deadline under --jobs: a worker running one point "
             "longer is killed and the point retried")

    p_status = sub.add_parser(
        "status", help="journal progress of a sweep (no computation)")
    _add_spec_arguments(p_status)
    p_status.add_argument("--run-id", type=str, default=None)

    p_report = sub.add_parser(
        "report", help="render the persisted sensitivity table")
    _add_spec_arguments(p_report)
    p_report.add_argument(
        "--csv", type=Path, default=None,
        help="also export the table rows as CSV here")
    p_report.add_argument(
        "--out", type=Path, default=None,
        help="also write the table (canonical JSON) here")
    p_report.add_argument(
        "--no-projection", action="store_true",
        help="skip the MTBF-vs-node-count scaling projection")


def _store_and_spec(args):
    """``(store, spec)`` of a sweep command, or ``None`` after saying
    why there is none."""
    from repro.supervise.cli import journal_store
    from repro.sweep.spec import SweepSpec, preset

    store = journal_store(args, "sweep")
    if store is None:
        return None
    try:
        if args.spec is not None:
            return store, SweepSpec.from_file(args.spec)
        return store, preset(args.preset)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _cmd_sweep_run(args) -> int:
    from repro.supervise.cli import run_journaled
    from repro.sweep.engine import run_sweep

    selected = _store_and_spec(args)
    if selected is None:
        return 2
    store, spec = selected
    return run_journaled(
        args,
        store,
        lambda say: run_sweep(
            spec,
            store,
            resume=args.resume,
            run_id=args.run_id,
            n_workers=args.jobs,
            timeout_s=args.timeout,
            progress=say,
        ),
        nouns=("sweep", "point", "table"),
    )


def _cmd_sweep_status(args) -> int:
    from repro.sweep.engine import sweep_id_for, sweep_status

    selected = _store_and_spec(args)
    if selected is None:
        return 2
    store, spec = selected
    status = sweep_status(spec, store, run_id=args.run_id)
    if status is None:
        rid = args.run_id if args.run_id is not None else sweep_id_for(spec)
        print(f"sweep {rid}: no journal yet "
              f"({spec.n_points} point(s) to run)")
        return 0
    state = "complete" if status.complete else "resumable"
    torn = ", torn tail" if status.torn_tail else ""
    print(f"sweep {status.run_id}: {status.n_units}/{spec.n_points} "
          f"point(s) journaled, {state}{torn}")
    print(f"journal {status.path}")
    return 0


def _cmd_sweep_report(args) -> int:
    from repro.sweep.engine import load_sweep_table
    from repro.sweep.reduce import (
        render_bands,
        render_projection,
        render_sensitivity,
        scaling_projection,
        write_table_csv,
    )

    selected = _store_and_spec(args)
    if selected is None:
        return 2
    store, spec = selected
    try:
        table, payload = load_sweep_table(spec, store)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    print(render_sensitivity(table))
    if table["sweep"]["replicas"] > 1:
        print()
        print(render_bands(table))
    if not args.no_projection:
        print()
        print(render_projection(scaling_projection(table)))
    if args.csv is not None:
        args.csv.parent.mkdir(parents=True, exist_ok=True)
        write_table_csv(args.csv, table)
        print(f"wrote {args.csv}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_bytes(payload)
        print(f"wrote {args.out}")
    return 0


_SUBCOMMANDS = {
    "run": _cmd_sweep_run,
    "status": _cmd_sweep_status,
    "report": _cmd_sweep_report,
}


def cmd_sweep(args) -> int:
    return _SUBCOMMANDS[args.sweep_command](args)
