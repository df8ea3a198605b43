"""repro.chaos — telemetry corruption injection and degradation studies.

The paper's two years of SMW console streams were noisy, gappy and
occasionally malformed; this package makes that hostility *injectable*
so the ingestion layer's promises ("malformed lines are counted, not
fatal") are continuously exercised instead of assumed:

* :mod:`modes` — the individual deterministic fault modes (torn
  writes, byte garbling, spliced/duplicated/out-of-order lines,
  timestamp skew, SMW-outage windows);
* :mod:`injector` — :class:`CorruptionInjector`, an RngTree-seeded,
  byte-reproducible corruptor of rendered telemetry text with
  per-mode ground-truth accounting;
* :mod:`experiment` — the graceful-degradation sweep: corrupt at
  increasing levels, re-parse through the hardened ingestion stack,
  and record the corruption level at which each paper Observation
  first flips;
* :mod:`procfault` — process-level faults (SIGKILL at a journal
  barrier, torn journal writes, injected ENOSPC) for the crash/resume
  contract of journaled runs (``repro run``, ``repro sweep run``),
  swept by ``repro chaos-run`` (:mod:`repro.supervise.chaosrun`).

The defensive counterparts live with the parsers:
:mod:`repro.telemetry.ingestion` (strict/lenient modes, error budgets,
quarantine) and :mod:`repro.telemetry.coverage` (observed-time windows
and gap-bias-corrected rates).
"""

from repro.chaos.injector import (
    ChaosConfig,
    CorruptionInjector,
    CorruptionResult,
)
from repro.chaos.experiment import (
    DEFAULT_ERROR_BUDGET,
    DEFAULT_LEVELS,
    DegradationCurve,
    DegradationPoint,
    run_degradation,
)
from repro.chaos.procfault import (
    FAULT_MODES,
    PROCFAULT_ENV,
    FaultPlan,
    ProcessFaultInjector,
    injector_from_env,
    plan_from_env,
)

__all__ = [
    "ChaosConfig",
    "CorruptionInjector",
    "CorruptionResult",
    "DegradationCurve",
    "DegradationPoint",
    "run_degradation",
    "DEFAULT_LEVELS",
    "DEFAULT_ERROR_BUDGET",
    "FAULT_MODES",
    "PROCFAULT_ENV",
    "FaultPlan",
    "ProcessFaultInjector",
    "plan_from_env",
    "injector_from_env",
]
