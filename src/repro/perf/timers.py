"""Lightweight stage timers and counters for the pipeline.

The simulator proper is forbidden wall-clock access (determinism is
enforced by both the lint rules and the test harness), so profiling
lives here, *outside* the deterministic subtree: instrumented code
calls :func:`stage`/:func:`count` and this module decides whether that
means touching the clock.  Disabled — the default — a span is a shared
no-op context manager and a counter is one dict lookup; the
instrumentation stays in place permanently at effectively zero cost.

Usage::

    from repro import perf

    with perf.stage("telemetry.sort"):
        parsed = log.sorted_by_time()
    perf.count("telemetry.events", len(parsed))

Enable around a region to measure it::

    perf.reset()
    perf.enable()
    try:
        run_pipeline()
    finally:
        perf.disable()
    breakdown = perf.snapshot()

Spans nest and repeat: each named stage accumulates total seconds and
a call count.  The pipeline's spans each cover one layer's own work
and never a lazy source drawn inside them (a generator builds its
chunk inside its span and yields it outside), so its stage seconds
sum to at most the wall time.  The registry is process-global and
**not** thread-safe; it profiles the single-process pipeline (worker
subprocesses have their own, disabled, registries).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

__all__ = [
    "StageStat",
    "PerfRegistry",
    "stage",
    "count",
    "enable",
    "disable",
    "is_enabled",
    "reset",
    "snapshot",
]


@dataclass
class StageStat:
    """Accumulated cost of one named stage."""

    seconds: float = 0.0
    calls: int = 0


class _NullSpan:
    """Shared no-op span handed out while profiling is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """Live span: measures wall time between ``__enter__``/``__exit__``."""

    __slots__ = ("_registry", "_name", "_t0")

    def __init__(self, registry: "PerfRegistry", name: str) -> None:
        self._registry = registry
        self._name = name
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        self._registry._record(self._name, time.perf_counter() - self._t0)
        return False


class PerfRegistry:
    """Accumulates per-stage wall time and named counters."""

    def __init__(self) -> None:
        self.enabled: bool = False
        self._stages: dict[str, StageStat] = {}
        self._counters: dict[str, int] = {}

    # -- control -----------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self._stages.clear()
        self._counters.clear()

    # -- instrumentation hooks ---------------------------------------------

    def stage(self, name: str) -> object:
        """Context manager timing one occurrence of stage ``name``."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name)

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (no-op while disabled)."""
        if self.enabled:
            self._counters[name] = self._counters.get(name, 0) + int(n)

    def _record(self, name: str, seconds: float) -> None:
        stat = self._stages.get(name)
        if stat is None:
            stat = StageStat()
            self._stages[name] = stat
        stat.seconds += seconds
        stat.calls += 1

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """JSON-ready view: per-stage seconds/calls plus counters."""
        return {
            "stages": {
                name: {"seconds": stat.seconds, "calls": stat.calls}
                for name, stat in sorted(self._stages.items())
            },
            "counters": dict(sorted(self._counters.items())),
        }


#: Process-global registry used by the pipeline instrumentation.
_REGISTRY = PerfRegistry()


def stage(name: str) -> object:
    """Span over the global registry (no-op unless :func:`enable` ran)."""
    return _REGISTRY.stage(name)


def count(name: str, n: int = 1) -> None:
    _REGISTRY.count(name, n)


def enable() -> None:
    _REGISTRY.enable()


def disable() -> None:
    _REGISTRY.disable()


def is_enabled() -> bool:
    return _REGISTRY.enabled


def reset() -> None:
    _REGISTRY.reset()


def snapshot() -> dict[str, object]:
    return _REGISTRY.snapshot()
