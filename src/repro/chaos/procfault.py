"""Process-level fault injection at journal barriers.

The telemetry chaos toolkit (:mod:`repro.chaos.modes`) damages the
*data*; this module damages the *process*.  A journaled run
(:mod:`repro.supervise.runner`: ``repro run`` or ``repro sweep run``)
commits one journal record per completed stage or grid point, and each
commit is a **barrier** — exactly the instants a production pipeline
is most likely to die at (checkpoint write, metadata update, disk
full).  ``repro chaos-run`` sweeps a fault over every barrier of such a
command and asserts that resume-after-crash reproduces the cold run
byte-identically.

Three fault modes, all deterministic functions of the plan (no RNG,
no clock):

==========  ============================================================
mode        effect at barrier *k*
==========  ============================================================
``kill``    the record commits (write + fsync), then the process is
            SIGKILLed — crash immediately *after* a checkpoint
``torn``    only a prefix of the record's bytes reaches disk, then
            SIGKILL — crash *during* a checkpoint (torn write)
``enospc``  the write raises ``OSError(ENOSPC)`` — disk full; the run
            fails cleanly with the journal still valid
==========  ============================================================

The plan travels to the faulted process through the
:data:`PROCFAULT_ENV` environment variable (``"<mode>:<barrier>"``),
so the harness can inject into a real subprocess without patching it.
Each injector trips **at most once**: the resumed process runs with
the variable unset and must complete.
"""

from __future__ import annotations

import errno
import os
import signal
from dataclasses import dataclass
from typing import Any, Mapping, Optional

__all__ = [
    "PROCFAULT_ENV",
    "FAULT_MODES",
    "FaultPlan",
    "ProcessFaultInjector",
    "plan_from_env",
    "injector_from_env",
]

#: Environment variable carrying a fault plan into a supervised run.
PROCFAULT_ENV = "REPRO_PROCFAULT"

#: The supported process-fault modes.
FAULT_MODES: tuple[str, ...] = ("kill", "torn", "enospc")


def _die() -> None:  # pragma: no cover - terminates the process
    """kill -9 the current process (uncatchable, no cleanup runs)."""
    os.kill(os.getpid(), signal.SIGKILL)


@dataclass(frozen=True)
class FaultPlan:
    """One process fault: ``mode`` injected at journal barrier ``barrier``."""

    mode: str
    barrier: int

    def __post_init__(self) -> None:
        if self.mode not in FAULT_MODES:
            raise ValueError(
                f"unknown fault mode {self.mode!r}; expected one of "
                f"{', '.join(FAULT_MODES)}"
            )
        if self.barrier < 0:
            raise ValueError(f"fault barrier must be >= 0, got {self.barrier}")

    def encode(self) -> str:
        """The ``<mode>:<barrier>`` form carried by :data:`PROCFAULT_ENV`."""
        return f"{self.mode}:{self.barrier}"

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        mode, sep, barrier = spec.strip().partition(":")
        if not sep or not barrier:
            raise ValueError(
                f"bad fault spec {spec!r}; expected '<mode>:<barrier>' "
                f"with mode in {{{', '.join(FAULT_MODES)}}}"
            )
        try:
            index = int(barrier)
        except ValueError as exc:
            raise ValueError(
                f"bad fault barrier {barrier!r} in {spec!r}"
            ) from exc
        return cls(mode=mode, barrier=index)


def plan_from_env(
    environ: Optional[Mapping[str, str]] = None,
) -> Optional[FaultPlan]:
    """The :data:`PROCFAULT_ENV` plan, or ``None`` when unset/empty."""
    env = os.environ if environ is None else environ
    spec = env.get(PROCFAULT_ENV, "").strip()
    return FaultPlan.parse(spec) if spec else None


class ProcessFaultInjector:
    """A journal fault hook executing one :class:`FaultPlan`.

    Implements the :class:`repro.supervise.journal.FaultHook` protocol;
    trips at most once, at the planned barrier, and is inert at every
    other barrier.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.tripped = False

    def _armed(self, seq: int) -> bool:
        return not self.tripped and seq == self.plan.barrier

    def before_commit(self, seq: int, fh: Any, data: bytes) -> None:
        if not self._armed(seq):
            return
        if self.plan.mode == "enospc":
            self.tripped = True
            raise OSError(
                errno.ENOSPC, "No space left on device (injected fault)"
            )
        if self.plan.mode == "torn":
            self.tripped = True
            # A torn write: a strict prefix of the record reaches disk
            # (never the trailing newline, so the tail is detectably
            # invalid), then the process dies mid-barrier.
            fh.write(data[: max(1, len(data) // 2)])
            fh.flush()
            os.fsync(fh.fileno())
            _die()

    def after_commit(self, seq: int) -> None:
        if self._armed(seq) and self.plan.mode == "kill":
            self.tripped = True
            _die()


def injector_from_env(
    environ: Optional[Mapping[str, str]] = None,
) -> Optional[ProcessFaultInjector]:
    """An armed injector for the environment's plan, or ``None``."""
    plan = plan_from_env(environ)
    return None if plan is None else ProcessFaultInjector(plan)
