"""Parent→child event cascades and job-wide echoes.

The paper's Section 2.2 notes that "some error events may be followed by
multiple system error events shortly after the initial error's
occurrence … one real 'parent' event and multiple 'child' events", and
Fig. 13 quantifies which XIDs follow which.  This module generates those
children from a merged parent log:

* **Job-wide echo** (Observation 7): application errors (XID 13, 31)
  are "reported on all the nodes allocated to the job" within ≈5 s —
  every other allocated node gets a copy of the parent event.
* **Cross-type children** (Fig. 13): XID 48 (DBE) → XID 45 (preemptive
  cleanup); XID 13 → XID 43 (GPU stopped); other crashing software XIDs
  → XID 45.
* **Same-type repeats**: the crashing node often re-reports the same
  XID as the driver retries, producing the heatmap's strong diagonal
  for application XIDs.

Children carry ``parent`` row indices, so analyses can separate real
events from echoes — or deliberately keep them, as Fig. 12 (top) does.
"""

from __future__ import annotations

import numpy as np

from repro.errors.event import EventLog, EventLogBuilder
from repro.errors.xid import ErrorType, from_code
from repro.faults.rates import RateConfig
from repro.workload.lookup import JobLocator

__all__ = ["CascadeModel", "CASCADE_SPOOL_ROWS"]

#: Builder spool granularity for cascade expansion: the child fan-out
#: (453k events on the paper scenario, millions at machine scale 4)
#: drains into frozen columnar chunks at this size instead of
#: accumulating boxed Python values.  Purely a memory knob — output is
#: bit-identical at any value.
CASCADE_SPOOL_ROWS: int = 65_536

#: Types whose parent event echoes across the whole job allocation.
_ECHO_TYPES = (ErrorType.GRAPHICS_ENGINE_EXCEPTION, ErrorType.MEM_PAGE_FAULT)

#: Crashing software XIDs that may trigger a preemptive cleanup (45).
_CRASHING_SOFTWARE = (
    ErrorType.GRAPHICS_ENGINE_EXCEPTION,
    ErrorType.MEM_PAGE_FAULT,
    ErrorType.PUSH_BUFFER,
    ErrorType.GPU_STOPPED,
    ErrorType.CTXSW_FAULT,
    ErrorType.MCU_HALT_OLD,
    ErrorType.MCU_HALT_NEW,
)

#: Types that may repeat on the same node shortly after the parent.
_REPEATING = (
    ErrorType.GRAPHICS_ENGINE_EXCEPTION,
    ErrorType.MEM_PAGE_FAULT,
    ErrorType.GPU_STOPPED,
    ErrorType.CTXSW_FAULT,
)


class CascadeModel:
    """Expands a parent log with echoes and child events."""

    def __init__(
        self,
        rates: RateConfig,
        rng: np.random.Generator,
    ) -> None:
        rates.validate()
        self.rates = rates
        self.rng = rng

    def apply(self, parents: EventLog, locator: JobLocator | None) -> EventLog:
        """Return a new log: all parent rows (indices preserved) plus
        generated children, sorted by time at the end by the caller."""
        builder = EventLogBuilder(spool_rows=CASCADE_SPOOL_ROWS)
        # Adopt the parent columns zero-copy (the builder is empty, so
        # row offsets and hence child parent-indices are valid).
        builder.extend_frozen(parents)
        for i in range(len(parents)):
            self._expand_one(parents, i, builder, locator)
        return builder.freeze()

    # -- per-parent expansion -----------------------------------------------

    def _expand_one(
        self,
        parents: EventLog,
        i: int,
        builder: EventLogBuilder,
        locator: JobLocator | None,
    ) -> None:
        etype = from_code(int(parents.etype[i]))
        t = float(parents.time[i])
        gpu = int(parents.gpu[i])
        job = int(parents.job[i])
        rates = self.rates

        # Job-wide echo for application errors.
        if etype in _ECHO_TYPES and job >= 0 and locator is not None:
            gpus = locator.job_gpus(job)
            others = gpus[gpus != gpu]
            if others.size:
                delays = self.rng.uniform(
                    0.2, rates.job_echo_window_s, size=others.size
                )
                # Echo fan-out dominates the child count (one child per
                # allocated GPU); bulk-append instead of per-child add.
                builder.add_many(
                    t + delays, others, etype, job=job, parent=i
                )

        # DBE → preemptive cleanup + (retirement handled by hardware injector).
        if etype is ErrorType.DBE:
            if self.rng.random() < rates.p_cleanup_after_dbe:
                builder.add(
                    t + float(self.rng.exponential(20.0)) + 1.0,
                    gpu,
                    ErrorType.PREEMPTIVE_CLEANUP,
                    job=job,
                    parent=i,
                )
            return

        # XID 13 → XID 43 on the same node.
        if etype is ErrorType.GRAPHICS_ENGINE_EXCEPTION:
            if self.rng.random() < rates.p_43_after_13:
                builder.add(
                    t + float(self.rng.exponential(30.0)) + 0.5,
                    gpu,
                    ErrorType.GPU_STOPPED,
                    job=job,
                    parent=i,
                )

        # Crashing software XIDs → preemptive cleanup.
        if etype in _CRASHING_SOFTWARE:
            if self.rng.random() < rates.p_cleanup_after_crash:
                builder.add(
                    t + float(self.rng.exponential(15.0)) + 0.5,
                    gpu,
                    ErrorType.PREEMPTIVE_CLEANUP,
                    job=job,
                    parent=i,
                )

        # Same-type driver-retry repeats on the crashing node.
        if etype in _REPEATING:
            while self.rng.random() < rates.p_same_type_repeat:
                t = t + float(self.rng.exponential(rates.same_type_repeat_delay_s)) + 0.5
                builder.add(t, gpu, etype, job=job, parent=i)
