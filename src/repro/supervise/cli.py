"""``repro run`` and ``repro chaos-run``, and the CLI surface every
journaled command shares.

``run`` executes the full figure pipeline under the journaled runner
(:mod:`repro.supervise.runner`): every completed stage is fsynced into
the run manifest, SIGINT/SIGTERM stop cleanly at the next barrier with
a resumable journal (exit 130/143), and ``--resume`` picks up exactly
where a crashed or interrupted run stopped — skipping journaled stages
and reproducing the cold run's document byte-for-byte.

``run`` and ``sweep run`` take their journal flags from
:func:`add_journal_arguments` and run through :func:`run_journaled`,
which owns the exit-code mapping and the success lines.

``chaos-run`` is the proof: it sweeps process faults (SIGKILL after a
commit, torn journal writes, injected ENOSPC) over the journal barriers
of any journaled command in real subprocesses and fails unless every
resume matches the cold reference byte-identically
(:mod:`repro.supervise.chaosrun`).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Callable

__all__ = [
    "RUN_IO_ERROR_EXIT",
    "add_journal_arguments",
    "journal_store",
    "run_journaled",
    "add_run_arguments",
    "add_chaos_run_arguments",
    "cmd_run",
    "cmd_chaos_run",
]

#: Exit code of a journaled command whose journal write failed (ENOSPC).
RUN_IO_ERROR_EXIT = 1


def add_journal_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags of every journaled command (``run``, ``sweep run``)."""
    parser.add_argument(
        "--resume", action="store_true",
        help="continue a previous run's journal, verifying journaled "
             "stages (points) instead of recomputing them; falls back "
             "to a fresh run when there is nothing to resume")
    parser.add_argument(
        "--run-id", type=str, default=None,
        help="explicit run id (default: derived from the input's content "
             "key, so the same input always resumes the same run)")
    parser.add_argument(
        "--out", type=Path, default=None,
        help="write the run's output document (canonical JSON) here")
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-stage (per-point) progress")


def journal_store(args: Any, command: str) -> Any:
    """The store ``repro <command>`` journals into, or ``None`` after
    saying why there is none."""
    from repro.cli import _store

    store = _store(args)
    if store is None:
        print(
            f"error: repro {command} journals into the artifact store; "
            "pass --cache-dir or set $REPRO_CACHE_DIR",
            file=sys.stderr,
        )
    return store


def run_journaled(
    args: Any,
    execute: Callable[[Callable[[str], None]], Any],
    *,
    nouns: tuple[str, str, str],
) -> int:
    """Run one journaled command and map its outcome to an exit code.

    ``execute(progress)`` returns the command's
    :class:`~repro.supervise.runner.RunReport`; ``nouns`` are its
    ``(run kind, unit, document)`` words for the messages.
    """
    from repro.parallel.pool import ChunkTimeout
    from repro.supervise.journal import JournalError
    from repro.supervise.runner import document_json
    from repro.supervise.signals import RunInterrupted

    kind, unit, output = nouns
    say = (lambda _msg: None) if args.quiet else (
        lambda msg: print(f"  {msg}")
    )
    try:
        report = execute(say)
    except RunInterrupted as exc:
        print(f"\ninterrupted: {exc}; journal is consistent — rerun the "
              "same command with --resume to continue", file=sys.stderr)
        return exc.exit_code
    except JournalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ChunkTimeout as exc:
        # Before OSError: a TimeoutError is an OSError, not journal I/O.
        print(f"error: {kind} {unit}(s) {list(exc.indices)} still hung "
              f"past --timeout {exc.timeout_s:g} s on the final attempt; "
              "the journal is still a valid prefix — rerun with --resume "
              "once the underlying problem is fixed", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: journal write failed: {exc}; "
              "the journal is still a valid prefix — rerun with --resume "
              "once the underlying problem is fixed", file=sys.stderr)
        return RUN_IO_ERROR_EXIT

    mode = "resumed" if report.resumed else "cold"
    torn = " (torn tail truncated)" if report.truncated_tail else ""
    print(f"{mode} {kind} {report.run_id}{torn}: "
          f"{report.n_verified} {unit}(s) verified, "
          f"{report.n_computed} computed")
    print(f"{output} sha256 {report.document_sha256}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(document_json(report.document))
        print(f"wrote {args.out}")
    return 0


def add_run_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.cli import _add_common

    _add_common(parser)
    add_journal_arguments(parser)
    parser.add_argument(
        "--list-runs", action="store_true",
        help="list the run journals under the store and exit")


def add_chaos_run_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.chaos.procfault import FAULT_MODES

    parser.add_argument(
        "--modes", type=str, default=",".join(FAULT_MODES),
        help="comma-separated fault modes to sweep "
             f"(default: {','.join(FAULT_MODES)})")
    parser.add_argument(
        "--barriers", type=str, default="all",
        help="comma-separated journal barrier indices, or 'all' "
             "(default) for every barrier of the reference run's journal")
    parser.add_argument(
        "--workdir", type=Path, default=None,
        help="keep sweep state here (default: a temporary directory, "
             "removed on success)")
    parser.add_argument(
        "--timeout", type=float, default=600.0, metavar="S",
        help="per-subprocess timeout")
    parser.add_argument(
        "target", nargs=argparse.REMAINDER, metavar="COMMAND",
        help="the journaled repro command to fault, with its arguments "
             "(default: run); --cache-dir and --out are appended")


def cmd_run(args) -> int:
    from repro.cli import _scenario
    from repro.supervise.runner import list_runs, run_study

    store = journal_store(args, "run")
    if store is None:
        return 2

    if args.list_runs:
        runs = list_runs(store)
        if not runs:
            print(f"no run journals under {store.root}")
        for run in runs:
            state = "complete" if run.complete else "resumable"
            torn = ", torn tail" if run.torn_tail else ""
            print(f"  {run.run_id}  {run.n_records:>3} records  "
                  f"{state}{torn}")
        return 0

    scenario = _scenario(args)
    return run_journaled(
        args,
        lambda say: run_study(
            scenario,
            store,
            resume=args.resume,
            run_id=args.run_id,
            progress=say,
        ),
        nouns=("run", "stage", "document"),
    )


def cmd_chaos_run(args) -> int:
    import shutil
    import tempfile

    from repro.chaos.procfault import FAULT_MODES
    from repro.supervise.chaosrun import run_fault_sweep

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
            barriers = []
        if not barriers or min(barriers) < 0:
            print(f"error: bad --barriers {args.barriers!r}; expected "
                  "comma-separated indices >= 0, or 'all'", file=sys.stderr)
            return 2

    command = args.target or ["run"]
    keep = args.workdir is not None
    workdir = (
        args.workdir if keep
        else Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    )
    workdir.mkdir(parents=True, exist_ok=True)
    print(f"chaos-run: repro {' '.join(command)}, workdir {workdir}")
    # On any failure (including an exception) the workdir is left in
    # place for post-mortem; only a fully green sweep cleans up.
    try:
        report = run_fault_sweep(
            command,
            workdir,
            modes=modes,
            barriers=barriers,
            timeout_s=args.timeout,
            progress=lambda msg: print(f"  {msg}"),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
