"""``repro sweep`` — run, inspect and report sensitivity sweeps.

Three subcommands share one spec selection (``--preset`` or a JSON
``--spec`` file) and the store conventions of the rest of the CLI:

* ``run`` — execute (or ``--resume``) the sweep under the journaled
  engine, sharded over ``--jobs`` worker processes;
* ``status`` — journal progress without touching any physics;
* ``report`` — render the persisted sensitivity table (ASCII), the
  scaling-projection figure, and optional CSV/JSON exports.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

__all__ = ["add_sweep_arguments", "cmd_sweep"]


def _timeout_seconds(text: str) -> float:
    """``--timeout``: a positive number of seconds (NaN rejected too)."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number of seconds, got {text!r}"
        )
    return value


def _add_spec_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--preset", type=str, default="smoke",
        help="built-in sweep spec: smoke, sensitivity or scaling "
             "(default: smoke)")
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
    sub = parser.add_subparsers(dest="sweep_command", required=True)

    p_run = sub.add_parser(
        "run", help="execute the sweep grid (crash-safe, resumable)")
    _add_spec_arguments(p_run)
    p_run.add_argument(
        "--resume", action="store_true",
        help="continue a previous sweep's journal, verifying completed "
             "points instead of recomputing them")
    p_run.add_argument(
        "--run-id", type=str, default=None,
        help="explicit run id (default: derived from the spec key)")
    p_run.add_argument(
        "--jobs", type=int, default=1,
        help="shard points over this many supervised worker processes")
    p_run.add_argument(
        "--timeout", type=_timeout_seconds, default=None, metavar="S",
        help="per-point deadline under --jobs: a worker running one point "
             "longer is killed and the point retried")
    p_run.add_argument(
        "--out", type=Path, default=None,
        help="write the sensitivity table (canonical JSON) here")
    p_run.add_argument(
        "--quiet", action="store_true",
        help="suppress per-point progress")

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


def _spec(args):
    from repro.sweep.spec import SweepSpec, preset

    if args.spec is not None:
        return SweepSpec.from_file(args.spec)
    return preset(args.preset)


def _sweep_store(args):
    from repro.cli import _store

    store = _store(args)
    if store is None:
        print(
            "error: repro sweep journals into the artifact store; "
            "pass --cache-dir or set $REPRO_CACHE_DIR",
            file=sys.stderr,
        )
    return store


def _cmd_sweep_run(args) -> int:
    from repro.parallel.pool import ChunkTimeout
    from repro.supervise.chaosrun import RUN_IO_ERROR_EXIT
    from repro.supervise.journal import JournalError
    from repro.supervise.runner import document_json
    from repro.supervise.signals import RunInterrupted
    from repro.sweep.engine import run_sweep, sweep_id_for

    store = _sweep_store(args)
    if store is None:
        return 2
    try:
        spec = _spec(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    say = (lambda _msg: None) if args.quiet else (
        lambda msg: print(f"  {msg}")
    )
    try:
        report = run_sweep(
            spec,
            store,
            resume=args.resume,
            run_id=args.run_id,
            n_workers=args.jobs,
            timeout_s=args.timeout,
            progress=say,
        )
    except RunInterrupted as exc:
        rid = args.run_id if args.run_id is not None else sweep_id_for(spec)
        print(f"\ninterrupted: {exc}; journal is consistent — "
              f"continue with: repro sweep run --resume "
              f"--cache-dir {store.root} [spec args]  (run {rid})",
              file=sys.stderr)
        return exc.exit_code
    except JournalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ChunkTimeout as exc:
        # Before OSError: a TimeoutError is an OSError, not journal I/O.
        print(f"error: sweep point(s) {list(exc.indices)} still hung past "
              f"--timeout {args.timeout:g} s on the final attempt; the "
              "journal is still a valid prefix — rerun with --resume once "
              "the underlying problem is fixed", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: journal write failed: {exc}; "
              "the journal is still a valid prefix — rerun with --resume "
              "once the underlying problem is fixed", file=sys.stderr)
        return RUN_IO_ERROR_EXIT

    mode = "resumed" if report.resumed else "cold"
    torn = " (torn tail truncated)" if report.truncated_tail else ""
    print(f"{mode} sweep {report.run_id}{torn}: "
          f"{report.n_verified} point(s) verified, "
          f"{report.n_computed} computed")
    print(f"table sha256 {report.table_sha256}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(document_json(report.table))
        print(f"wrote {args.out}")
    return 0


def _cmd_sweep_status(args) -> int:
    from repro.sweep.engine import sweep_status

    store = _sweep_store(args)
    if store is None:
        return 2
    try:
        spec = _spec(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    status = sweep_status(spec, store, run_id=args.run_id)
    if not status.exists:
        print(f"sweep {status.run_id}: no journal yet "
              f"({status.n_points} point(s) to run)")
        return 0
    state = "complete" if status.complete else "resumable"
    torn = ", torn tail" if status.torn_tail else ""
    print(f"sweep {status.run_id}: {status.n_done}/{status.n_points} "
          f"point(s) journaled, {state}{torn}")
    print(f"journal {status.path}")
    return 0


def _cmd_sweep_report(args) -> int:
    from repro.sweep.engine import load_sweep_table
    from repro.sweep.reduce import (
        render_projection,
        render_sensitivity,
        scaling_projection,
        write_table_csv,
    )

    store = _sweep_store(args)
    if store is None:
        return 2
    try:
        spec = _spec(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        table, payload = load_sweep_table(spec, store)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    print(render_sensitivity(table))
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
