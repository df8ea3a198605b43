"""The corruption injector: seeded, configurable, byte-reproducible.

:class:`CorruptionInjector` applies the fault modes of
:mod:`repro.chaos.modes` to rendered telemetry text in a fixed,
documented order.  All randomness flows from an :class:`~repro.rng.RngTree`
with one named stream per mode, so

* the same ``(seed, config, input text)`` triple always produces
  byte-identical corrupted output (asserted in the tests), and
* enabling or re-ordering one mode's *configuration* never perturbs
  another mode's draws.

Application order (outermost damage first, the order a real stream
accumulates it): **outage → duplicate → displace → splice → skew →
truncate → garble**.  Outages remove whole time spans before line-level
noise lands, and byte-level garbling happens last, on the stream as it
would sit on disk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.chaos import modes
from repro.rng import DEFAULT_SEED, RngTree
from repro.units import HOUR

__all__ = ["ChaosConfig", "CorruptionInjector", "CorruptionResult"]

#: The line-level modes `ChaosConfig.uniform` spreads its budget over.
_UNIFORM_MODES = ("truncate", "garble", "splice", "duplicate", "displace")


@dataclass(frozen=True)
class ChaosConfig:
    """Rates and shape parameters for every fault mode.

    Line-level rates are per-line Bernoulli probabilities; outages are
    counts of whole missing time windows.  The default config is the
    identity (no corruption).
    """

    truncate_rate: float = 0.0
    garble_rate: float = 0.0
    splice_rate: float = 0.0
    duplicate_rate: float = 0.0
    displace_rate: float = 0.0
    skew_rate: float = 0.0
    max_skew_s: float = 120.0
    max_displace_offset: int = 32
    n_outages: int = 0
    outage_duration_s: float = 6 * HOUR

    def validate(self) -> None:
        rates = {
            "truncate_rate": self.truncate_rate,
            "garble_rate": self.garble_rate,
            "splice_rate": self.splice_rate,
            "duplicate_rate": self.duplicate_rate,
            "displace_rate": self.displace_rate,
            "skew_rate": self.skew_rate,
        }
        for name, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.n_outages < 0:
            raise ValueError("n_outages must be non-negative")
        if not 0.0 < self.outage_duration_s < math.inf:  # also rejects NaN
            raise ValueError("outage_duration_s must be positive and finite")
        if not 0.0 <= self.max_skew_s < math.inf:
            raise ValueError("max_skew_s must be non-negative and finite")
        if self.max_displace_offset < 1:
            raise ValueError("max_displace_offset must be >= 1")

    @property
    def total_line_rate(self) -> float:
        """Expected fraction of lines touched by line-level modes."""
        return (
            self.truncate_rate
            + self.garble_rate
            + self.splice_rate
            + self.duplicate_rate
            + self.displace_rate
        )

    @classmethod
    def uniform(cls, level: float, **overrides) -> "ChaosConfig":
        """A 'p % line corruption' config: the level is split evenly
        across the five line-level modes (skew rides along at the same
        per-mode rate; outages stay off unless overridden)."""
        if not 0.0 <= level <= 1.0:
            raise ValueError(f"corruption level must be in [0, 1], got {level}")
        per_mode = level / len(_UNIFORM_MODES)
        config = cls(
            truncate_rate=per_mode,
            garble_rate=per_mode,
            splice_rate=per_mode,
            duplicate_rate=per_mode,
            displace_rate=per_mode,
            skew_rate=per_mode,
        )
        return replace(config, **overrides) if overrides else config

    @classmethod
    def outages_only(
        cls, n_outages: int, duration_s: float = 6 * HOUR
    ) -> "ChaosConfig":
        """Pure SMW-outage injection (the coverage-model stressor)."""
        return cls(n_outages=n_outages, outage_duration_s=duration_s)


@dataclass(frozen=True)
class CorruptionResult:
    """Corrupted text plus ground truth about the damage done."""

    text: str
    counts: dict[str, int] = field(default_factory=dict)
    outage_windows: tuple[tuple[float, float], ...] = ()
    n_lines_in: int = 0
    n_lines_out: int = 0

    @property
    def total_corrupted(self) -> int:
        """Total mode applications (one line can be hit repeatedly)."""
        return sum(self.counts.values())


class CorruptionInjector:
    """Deterministically corrupts rendered telemetry text.

    Parameters
    ----------
    config:
        Fault-mode rates; validated on construction.
    seed:
        Root seed for the per-mode RNG streams.  The injector is
        stateless across calls: every :meth:`corrupt_text` call replays
        the same streams, so equal inputs give equal outputs.
    """

    def __init__(self, config: ChaosConfig, seed: int = DEFAULT_SEED) -> None:
        config.validate()
        self.config = config
        self.seed = int(seed)

    def _tree(self) -> RngTree:
        return RngTree(self.seed)

    def corrupt_lines(
        self, lines: list[str]
    ) -> tuple[list[str], dict[str, int], tuple[tuple[float, float], ...]]:
        """Corrupt a list of lines; returns (lines, counts, outages)."""
        cfg = self.config
        tree = self._tree()
        counts: dict[str, int] = {}

        outage_windows: tuple[tuple[float, float], ...] = ()
        if cfg.n_outages > 0:
            stamps = modes.line_timestamps(lines)
            finite = stamps[~np.isnan(stamps)]
            if finite.size >= 2:
                outage_windows = modes.draw_outage_windows(
                    tree.fresh_generator("chaos.outage"),
                    float(finite.min()),
                    float(finite.max()),
                    n_outages=cfg.n_outages,
                    mean_duration_s=cfg.outage_duration_s,
                )
                lines, counts["outage"] = modes.drop_outage_windows(
                    lines, outage_windows, stamps=stamps
                )

        lines, counts["duplicate"] = modes.duplicate_lines(
            tree.fresh_generator("chaos.duplicate"), lines, cfg.duplicate_rate
        )
        lines, counts["displace"] = modes.displace_lines(
            tree.fresh_generator("chaos.displace"),
            lines,
            cfg.displace_rate,
            max_offset=cfg.max_displace_offset,
        )
        lines, counts["splice"] = modes.splice_lines(
            tree.fresh_generator("chaos.splice"), lines, cfg.splice_rate
        )
        lines, counts["skew"] = modes.skew_timestamps(
            tree.fresh_generator("chaos.skew"),
            lines,
            cfg.skew_rate,
            max_skew_s=cfg.max_skew_s,
        )
        lines, counts["truncate"] = modes.truncate_lines(
            tree.fresh_generator("chaos.truncate"), lines, cfg.truncate_rate
        )
        lines, counts["garble"] = modes.garble_lines(
            tree.fresh_generator("chaos.garble"), lines, cfg.garble_rate
        )
        counts = {k: v for k, v in counts.items() if v}
        return lines, counts, outage_windows

    def corrupt_text(self, text: str) -> CorruptionResult:
        """Corrupt rendered telemetry text (trailing newline preserved)."""
        trailing_newline = text.endswith("\n")
        lines = text.splitlines()
        n_in = len(lines)
        out, counts, outage_windows = self.corrupt_lines(lines)
        body = "\n".join(out)
        if trailing_newline and body:
            body += "\n"
        return CorruptionResult(
            text=body,
            counts=counts,
            outage_windows=outage_windows,
            n_lines_in=n_in,
            n_lines_out=len(out),
        )
