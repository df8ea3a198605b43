"""Per-row references for the console writer and parser.

``repro.telemetry`` renders console text from column tables and parses
it with a numpy block decoder in front of the regex path.  The per-row
paths they are pinned to live here, as oracles:

* :func:`render_event_line` formats one line through ``datetime``;
* :func:`render_lines_reference` renders an event log row by row with
  it, and cnames from :class:`~repro.topology.location.NodeLocation`;
* :func:`parse_lines_reference` parses with the block decoder off, so
  every line takes the regex path in line order.

The tests require the writer and the default parse to equal these, and
``benchmarks/measure_pipeline.py --gate`` times them against the
package.  This module imports only ``repro``, numpy and the standard
library, because the gate runs where pytest is not installed.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import Any

import numpy as np

from repro.errors.event import EventLog, structure_from_code
from repro.errors.xid import ErrorType, from_code
from repro.telemetry.console import _PHRASES
from repro.telemetry.parser import ConsoleLogParser, ParseStats
from repro.topology.machine import TitanMachine
from repro.units import timestamp_to_datetime

__all__ = [
    "render_event_line",
    "render_lines_reference",
    "parse_lines_reference",
]


def render_event_line(
    time: float,
    cname: str,
    etype: ErrorType,
    *,
    structure_name: str | None = None,
    page: int | None = None,
    job: int = -1,
) -> str:
    """Render one console log line.

    Raises ``ValueError`` for an unloggable type (SBE) and for a time
    with no stamp in years 1-9999 (not finite, or out of range).
    """
    if etype is ErrorType.SBE:
        raise ValueError("single-bit errors are never written to the console log")
    try:
        stamp = timestamp_to_datetime(time).isoformat(timespec="microseconds")
    except (OverflowError, ValueError) as exc:
        raise ValueError(f"time {time!r} s has no stamp in years 1-9999") from exc
    phrase = _PHRASES[etype]
    if etype is ErrorType.OFF_THE_BUS:
        body = phrase  # host-side message, no XID
    else:
        body = f"GPU XID {etype.xid}: {phrase}"
    if structure_name is not None:
        body += f" in {structure_name}"
        if page is not None and page >= 0:
            body += f" page 0x{page:06x}"
    line = f"{stamp} {cname} {body}"
    if job >= 0:
        line += f" [job={job}]"
    return line


def render_lines_reference(machine: TitanMachine, events: EventLog) -> Iterator[str]:
    """``ConsoleLogWriter(machine).lines(events)``, one row at a time.

    SBE rows are skipped whatever they hold; any other row whose GPU id
    is outside ``[0, n_gpus)`` raises ``ValueError``.
    """
    for i in range(len(events)):
        etype = from_code(int(events.etype[i]))
        if etype is ErrorType.SBE:
            continue
        gpu = int(events.gpu[i])
        if not 0 <= gpu < machine.n_gpus:
            raise ValueError(
                f"row {i}: GPU id {gpu} is outside [0, {machine.n_gpus})"
            )
        structure = structure_from_code(int(events.structure[i]))
        page = int(events.aux[i])
        yield render_event_line(
            float(events.time[i]),
            machine.location(gpu).cname,
            etype,
            structure_name=None if structure is None else structure.value,
            page=page if page >= 0 else None,
            job=int(events.job[i]),
        )


class _NoClaims:
    """A block decoder that claims no line."""

    def decode(self, batch: tuple[str, ...]) -> tuple[np.ndarray, EventLog] | None:
        return None


def parse_lines_reference(
    machine: TitanMachine, lines: Iterable[str], **regime: Any
) -> tuple[EventLog, ParseStats]:
    """``ConsoleLogParser(machine, **regime).parse_lines(lines)`` with
    every line taking the regex path (``_parse_one``) in line order."""
    parser = ConsoleLogParser(machine, **regime)
    parser._decoder = _NoClaims()  # type: ignore[assignment]
    return parser.parse_lines(lines)
