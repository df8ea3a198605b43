"""``repro run`` and ``repro chaos-run`` — the supervised-execution CLI.

``run`` executes the full figure pipeline under the journaled runner
(:mod:`repro.supervise.runner`): every completed stage is fsynced into
the run manifest, SIGINT/SIGTERM stop cleanly at the next barrier with
a resumable journal (exit 130/143), and ``--resume`` picks up exactly
where a crashed or interrupted run stopped — skipping journaled stages
and reproducing the cold run's document byte-for-byte.

``chaos-run`` is the proof: it sweeps process faults (SIGKILL after a
commit, torn journal writes, injected ENOSPC) over the journal barriers
in real subprocesses and fails unless every resume matches the cold
reference byte-identically (:mod:`repro.supervise.chaosrun`).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

__all__ = [
    "add_run_arguments",
    "add_chaos_run_arguments",
    "cmd_run",
    "cmd_chaos_run",
]


def add_run_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.cli import _add_common

    _add_common(parser)
    parser.add_argument(
        "--resume", action="store_true",
        help="continue a previous run's journal, skipping completed "
             "stages; falls back to a fresh run when there is nothing "
             "to resume")
    parser.add_argument(
        "--run-id", type=str, default=None,
        help="explicit run id (default: derived from the dataset key, "
             "so the same scenario always resumes the same run)")
    parser.add_argument(
        "--out", type=Path, default=None,
        help="write the run's golden document (canonical JSON) here")
    parser.add_argument(
        "--list-runs", action="store_true",
        help="list the run journals under the store and exit")
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-stage progress")


def add_chaos_run_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.cli import _add_common
    from repro.chaos.procfault import FAULT_MODES

    _add_common(parser)
    parser.add_argument(
        "--modes", type=str, default=",".join(FAULT_MODES),
        help="comma-separated fault modes to sweep "
             f"(default: {','.join(FAULT_MODES)})")
    parser.add_argument(
        "--barriers", type=str, default="all",
        help="comma-separated journal barrier indices, or 'all' "
             "(default) for every barrier of a full run")
    parser.add_argument(
        "--workdir", type=Path, default=None,
        help="keep sweep state here (default: a temporary directory, "
             "removed on success)")
    parser.add_argument(
        "--timeout", type=float, default=600.0, metavar="S",
        help="per-subprocess timeout")


def cmd_run(args) -> int:
    from repro.cli import _scenario, _store
    from repro.supervise.chaosrun import RUN_IO_ERROR_EXIT
    from repro.supervise.journal import JournalError
    from repro.supervise.runner import (
        document_json,
        list_runs,
        run_id_for,
        run_study,
    )
    from repro.supervise.signals import RunInterrupted

    store = _store(args)
    if store is None:
        print(
            "error: repro run journals into the artifact store; "
            "pass --cache-dir or set $REPRO_CACHE_DIR",
            file=sys.stderr,
        )
        return 2

    if args.list_runs:
        runs = list_runs(store)
        if not runs:
            print(f"no run journals under {store.root}")
            return 0
        for run in runs:
            state = "complete" if run.complete else "resumable"
            torn = ", torn tail" if run.torn_tail else ""
            print(f"  {run.run_id}  {run.n_records:>3} records  "
                  f"{state}{torn}")
        return 0

    scenario = _scenario(args)
    say = (lambda _msg: None) if args.quiet else (
        lambda msg: print(f"  {msg}")
    )
    try:
        report = run_study(
            scenario,
            store,
            resume=args.resume,
            run_id=args.run_id,
            progress=say,
        )
    except RunInterrupted as exc:
        rid = args.run_id if args.run_id is not None else run_id_for(scenario)
        print(f"\ninterrupted: {exc}; journal is consistent — "
              f"continue with: repro run --resume "
              f"--cache-dir {store.root} [scenario args]  (run {rid})",
              file=sys.stderr)
        return exc.exit_code
    except JournalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: journal write failed: {exc}; "
              "the journal is still a valid prefix — rerun with --resume "
              "once the underlying problem is fixed", file=sys.stderr)
        return RUN_IO_ERROR_EXIT

    mode = "resumed" if report.resumed else "cold"
    torn = " (torn tail truncated)" if report.truncated_tail else ""
    print(f"{mode} run {report.run_id}{torn}: "
          f"{report.n_verified} stage(s) verified, "
          f"{report.n_computed} computed")
    print(f"document sha256 {report.document_sha256}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(document_json(report.document))
        print(f"wrote {args.out}")
    return 0


def cmd_chaos_run(args) -> int:
    import shutil
    import tempfile

    from repro.chaos.procfault import FAULT_MODES
    from repro.supervise.chaosrun import count_barriers, run_sweep

    modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    bad = [m for m in modes if m not in FAULT_MODES]
    if bad or not modes:
        print(f"error: unknown fault mode(s) {bad}; "
              f"choose from {', '.join(FAULT_MODES)}", file=sys.stderr)
        return 2
    if args.barriers.strip().lower() == "all":
        barriers = None
    else:
        try:
            barriers = [
                int(b) for b in args.barriers.split(",") if b.strip()
            ]
        except ValueError:
            print(f"error: bad --barriers {args.barriers!r}",
                  file=sys.stderr)
            return 2

    scenario_argv = ["--seed", str(args.seed)]
    if args.full:
        scenario_argv.append("--full")
    else:
        scenario_argv += ["--days", str(args.days)]

    keep = args.workdir is not None
    workdir = (
        args.workdir if keep
        else Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    )
    workdir.mkdir(parents=True, exist_ok=True)
    n_total = len(modes) * (
        count_barriers() if barriers is None else len(barriers)
    )
    print(f"chaos-run: {n_total} fault point(s), workdir {workdir}")
    # On any failure (including an exception) the workdir is left in
    # place for post-mortem; only a fully green sweep cleans up.
    report = run_sweep(
        scenario_argv,
        workdir,
        modes=modes,
        barriers=barriers,
        timeout_s=args.timeout,
        progress=lambda msg: print(f"  {msg}"),
    )
    if report.ok:
        print(f"\nall {len(report.results)} fault points resumed "
              f"byte-identically (reference {report.reference_sha256[:12]})")
        if not keep:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    print(f"\nFAIL: {len(report.failures)} of {len(report.results)} "
          f"fault points broke the resume contract "
          f"(state kept in {workdir}):", file=sys.stderr)
    for failure in report.failures:
        print(f"  {failure.label}: {failure.detail}", file=sys.stderr)
    return 1
