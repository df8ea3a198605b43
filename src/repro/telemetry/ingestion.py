"""Structured ingestion-failure handling for telemetry parsers.

Two years of SMW console streams are never pristine: torn writes,
garbled bytes, spliced segments and whole collection outages all show
up in production (the paper's Observations 2 and 5 are both about
telemetry imperfections).  The parsers therefore separate three
regimes:

* **lenient** (default) — damage is *counted*, never fatal; rejected
  lines can be diverted to a :class:`QuarantineSink` for forensics;
* **strict** — the first rejected line raises :class:`IngestionError`
  with full context (line number, category, raw text), for pipelines
  that would rather stop than estimate on damaged data;
* **budgeted** — lenient parsing with an *error budget*: when the
  corrupt fraction exceeds the budget the parser raises
  :class:`IngestionDegraded`, a structured error that still carries the
  partial event log and statistics so callers can degrade gracefully
  (annotate results as low-confidence) instead of crashing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "IngestionError",
    "IngestionDegraded",
    "QuarantineRecord",
    "QuarantineSink",
]


class IngestionError(ValueError):
    """A single rejected line in strict mode, with full context."""

    def __init__(self, category: str, line_no: int, line: str) -> None:
        self.category = category
        self.line_no = int(line_no)
        self.line = line
        preview = line if len(line) <= 120 else line[:117] + "..."
        super().__init__(
            f"strict ingestion rejected line {line_no} ({category}): "
            f"{preview!r}"
        )

    def __reduce__(self):
        # Default exception pickling replays cls(*args) with the rendered
        # message only, which breaks the 3-argument constructor; an
        # exception a parallel_map worker raises is pickled back to the
        # parent.
        return (IngestionError, (self.category, self.line_no, self.line))


class IngestionDegraded(RuntimeError):
    """The corrupt-line fraction exceeded the parser's error budget.

    This is a *structured* failure: ``stats`` holds the full parse
    counters, ``log`` the partial (still usable) event log, and
    ``fraction``/``budget`` quantify the violation, so callers can
    catch it, flag the analysis as degraded, and continue.
    """

    def __init__(self, *, stats, budget: float, fraction: float, log=None) -> None:
        self.stats = stats
        self.budget = float(budget)
        self.fraction = float(fraction)
        self.log = log
        super().__init__(
            f"ingestion degraded: corrupt-line fraction {fraction:.3%} "
            f"exceeds error budget {budget:.3%} "
            f"({stats.malformed_lines} malformed + "
            f"{stats.unknown_xid_lines} unknown-XID of "
            f"{stats.total_lines} lines)"
        )

    def __reduce__(self):
        return (
            _rebuild_degraded,
            (self.stats, self.budget, self.fraction, self.log),
        )


def _rebuild_degraded(stats, budget, fraction, log):
    """Unpickle helper for :class:`IngestionDegraded` (kw-only ctor)."""
    return IngestionDegraded(stats=stats, budget=budget, fraction=fraction, log=log)


@dataclass(frozen=True)
class QuarantineRecord:
    """One rejected line: where it was, why, and what it said."""

    line_no: int
    category: str
    line: str


@dataclass
class QuarantineSink:
    """Bounded sink for rejected telemetry lines.

    Keeps the first ``capacity`` raw records (enough for forensics
    without holding a 20 %-corrupt two-year log in memory) plus exact
    per-category counts for *all* rejections.
    """

    capacity: int = 1000
    records: list[QuarantineRecord] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    total: int = 0
    n_overflowed: int = 0

    def add(self, line_no: int, category: str, line: str) -> None:
        """Record one rejected line (raw text kept only under capacity)."""
        self.total += 1
        self.counts[category] = self.counts.get(category, 0) + 1
        if len(self.records) < self.capacity:
            self.records.append(QuarantineRecord(line_no, category, line))
        else:
            self.n_overflowed += 1

    def summary(self) -> dict[str, int]:
        """Per-category rejection counts (stable key order)."""
        return {k: self.counts[k] for k in sorted(self.counts)}
