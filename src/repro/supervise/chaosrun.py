"""The process-level chaos harness behind ``python -m repro chaos-run``.

The harness faults any journaled command (``repro run`` by default, or
``repro sweep run``).  It first runs the command cold as a reference,
and reads the reference's journal to learn how many barriers the
command crosses.  Then, for every selected ``(fault mode, journal
barrier)`` pair, it launches a **real subprocess** running the command
with :data:`~repro.chaos.procfault.PROCFAULT_ENV` armed, lets the
injected fault kill (or cleanly fail) it at the exact barrier, then
launches a second subprocess with ``--resume`` and no fault, and
asserts:

1. the faulted process died the way the mode promises (SIGKILL for
   ``kill``/``torn``, a clean non-zero exit for ``enospc``);
2. the resumed process exits 0; and
3. the resumed run's ``--out`` document is **byte-identical** to the
   reference run's.

Each fault point gets a private ``--cache-dir``, so every crash is
exercised against genuinely cold state — the resume must survive on the
journal plus whatever artifacts the dead process managed to persist.

Subprocesses (not monkeypatched in-process faults) are the point: a
SIGKILL mid-barrier exercises the journal's durability contract the way
a node failure on Titan would — no ``atexit``, no ``finally``, nothing
flushed that was not already fsynced.
"""

from __future__ import annotations

import hashlib
import os
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from repro.chaos.procfault import FAULT_MODES, PROCFAULT_ENV, FaultPlan
from repro.supervise.cli import RUN_IO_ERROR_EXIT
from repro.supervise.runner import summarize_journal

__all__ = [
    "FaultPointResult",
    "FaultSweepReport",
    "run_fault_sweep",
]

#: ``subprocess`` return code of a SIGKILLed child.
_RC_SIGKILLED = -int(signal.SIGKILL)


@dataclass(frozen=True)
class FaultPointResult:
    """Outcome of one fault point of the sweep."""

    mode: str
    barrier: int
    fault_rc: Optional[int]
    resume_rc: Optional[int]
    #: The resumed document equals the reference (``None``: never
    #: compared, because an earlier step failed).
    identical: Optional[bool]
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.identical is True

    @property
    def label(self) -> str:
        return f"{self.mode}@{self.barrier}"


@dataclass(frozen=True)
class FaultSweepReport:
    """Everything ``repro chaos-run`` asserted, for display and CI."""

    n_barriers: int
    reference_sha256: str
    results: tuple[FaultPointResult, ...]

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def failures(self) -> tuple[FaultPointResult, ...]:
        return tuple(result for result in self.results if not result.ok)


def _pipeline_env(plan: Optional[FaultPlan]) -> dict[str, str]:
    """Subprocess environment: this repro on ``PYTHONPATH``, fault armed.

    The child must import the same checkout the parent runs from even
    when the parent was launched via ``PYTHONPATH=src``; the cache dir
    is always passed explicitly, so the env override is dropped.
    """
    import repro

    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        src_dir if not existing else src_dir + os.pathsep + existing
    )
    env.pop("REPRO_CACHE_DIR", None)
    env.pop(PROCFAULT_ENV, None)
    if plan is not None:
        env[PROCFAULT_ENV] = plan.encode()
    return env


def _run_cli(
    argv: Sequence[str],
    env: dict[str, str],
    timeout_s: float,
) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout_s,
    )


def _expected_fault(mode: str, rc: int) -> Optional[str]:
    """``None`` if the faulted process died as promised, else why not."""
    if mode in ("kill", "torn"):
        if rc != _RC_SIGKILLED:
            return f"expected SIGKILL (rc {_RC_SIGKILLED}), got rc {rc}"
    elif rc != RUN_IO_ERROR_EXIT:
        return (
            f"expected clean I/O-error exit (rc {RUN_IO_ERROR_EXIT}), "
            f"got rc {rc}"
        )
    return None


def run_fault_sweep(
    command: Sequence[str],
    workdir: str | Path,
    *,
    modes: Sequence[str] = FAULT_MODES,
    barriers: Optional[Iterable[int]] = None,
    timeout_s: float = 600.0,
    progress: Optional[Callable[[str], None]] = None,
) -> FaultSweepReport:
    """Sweep every ``(mode, barrier)`` fault point; see the module doc.

    ``command`` is a journaled ``repro`` command line without
    ``--cache-dir``/``--out`` (e.g. ``["run", "--days", "20"]``).
    ``barriers`` defaults to every barrier of the reference run's
    journal.  An index outside that journal, or a command that writes
    no journal, raises :class:`ValueError`.
    """
    say = progress if progress is not None else lambda _msg: None
    workdir = Path(workdir)

    def argv(point_dir: Path) -> list[str]:
        return [
            *command,
            "--cache-dir", str(point_dir / "cache"),
            "--out", str(point_dir / "document.json"),
        ]

    # Reference cold run: the byte-exact document every resume must
    # match, and the journal that counts the command's barriers.
    ref_dir = workdir / "reference"
    say(f"reference: repro {' '.join(argv(ref_dir))}")
    ref = _run_cli(argv(ref_dir), _pipeline_env(None), timeout_s)
    if ref.returncode != 0:
        raise RuntimeError(
            f"reference run failed (rc {ref.returncode}):\n{ref.stderr}"
        )
    journals = sorted((ref_dir / "cache" / "runs").glob("*.jsonl"))
    if len(journals) != 1:
        raise ValueError(
            f"reference run wrote {len(journals)} journals, not one: "
            f"`repro {' '.join(command)}` is not a journaled command"
        )
    n_barriers = summarize_journal(journals[0]).n_records
    barrier_list = (
        list(range(n_barriers)) if barriers is None else
        sorted(set(int(b) for b in barriers))
    )
    outside = [b for b in barrier_list if not 0 <= b < n_barriers]
    if outside:
        raise ValueError(
            f"barrier(s) {outside} outside the reference run's journal "
            f"(barriers 0-{n_barriers - 1})"
        )
    ref_bytes = (ref_dir / "document.json").read_bytes()
    ref_sha = hashlib.sha256(ref_bytes).hexdigest()
    say(f"reference document sha256 {ref_sha[:12]} ({len(ref_bytes)} bytes, "
        f"{n_barriers} journal barriers)")

    results: list[FaultPointResult] = []
    for mode in modes:
        for barrier in barrier_list:
            point_dir = workdir / f"{mode}-{barrier:02d}"
            result = _fault_point(
                FaultPlan(mode=mode, barrier=barrier),
                argv(point_dir),
                point_dir / "document.json",
                ref_bytes,
                timeout_s=timeout_s,
            )
            results.append(result)
            status = "ok" if result.ok else f"FAIL ({result.detail})"
            say(f"{result.label}: fault rc {result.fault_rc}, "
                f"resume rc {result.resume_rc}, "
                f"identical {result.identical} -> {status}")
    return FaultSweepReport(
        n_barriers=n_barriers,
        reference_sha256=ref_sha,
        results=tuple(results),
    )


def _fault_point(
    plan: FaultPlan,
    argv: Sequence[str],
    out: Path,
    ref_bytes: bytes,
    *,
    timeout_s: float,
) -> FaultPointResult:
    """Execute one faulted-run/resume pair and judge it."""

    def judged(
        detail: str,
        fault_rc: Optional[int] = None,
        resume_rc: Optional[int] = None,
        identical: Optional[bool] = None,
    ) -> FaultPointResult:
        return FaultPointResult(
            plan.mode, plan.barrier, fault_rc, resume_rc, identical, detail
        )

    try:
        faulted = _run_cli(argv, _pipeline_env(plan), timeout_s)
    except subprocess.TimeoutExpired:
        return judged("faulted run timed out")
    problem = _expected_fault(plan.mode, faulted.returncode)
    if problem is not None:
        return judged(problem, faulted.returncode)
    try:
        resumed = _run_cli(
            [*argv, "--resume"], _pipeline_env(None), timeout_s
        )
    except subprocess.TimeoutExpired:
        return judged("resume timed out", faulted.returncode)
    if resumed.returncode != 0:
        tail = resumed.stderr.strip().splitlines()
        return judged(
            "resume failed: " + (tail[-1] if tail else "no stderr"),
            faulted.returncode, resumed.returncode,
        )
    try:
        identical = out.read_bytes() == ref_bytes
    except OSError:
        return judged(
            "resume wrote no document", faulted.returncode, resumed.returncode
        )
    return judged(
        "" if identical else "resumed document differs from cold reference",
        faulted.returncode, resumed.returncode, identical,
    )
