"""Classification predicates over :class:`ErrorType`.

Small, heavily-used helpers the analysis layer applies when it splits
events into the paper's categories: hardware vs software, application-
vs driver-caused, crashing vs benign, isolated vs cascading.
"""

from __future__ import annotations

from repro.errors.xid import Cause, ErrorType

__all__ = [
    "application_caused",
    "driver_caused",
    "crashes_application",
    "isolated_types",
]


def application_caused(etype: ErrorType) -> bool:
    """NVIDIA lists the user application among possible causes."""
    return Cause.USER_APP in etype.causes


def driver_caused(etype: ErrorType) -> bool:
    """NVIDIA lists the driver among possible causes."""
    return Cause.DRIVER in etype.causes


def crashes_application(etype: ErrorType) -> bool:
    return etype.crashes


def isolated_types() -> tuple[ErrorType, ...]:
    """Types the paper finds to occur in isolation (no repeats within
    the 300-second correlation window): Off-the-bus, XID 38, XID 48
    (DBE) and XID 63.  Used as the expected-diagonal-low set when
    validating the Fig. 13 heatmap."""
    return (
        ErrorType.OFF_THE_BUS,
        ErrorType.DRIVER_FIRMWARE,
        ErrorType.DBE,
        ErrorType.ECC_PAGE_RETIREMENT,
    )
