"""Per-line references for the corruption injector's modes.

``repro.chaos.modes`` visits only the hit lines, replays ``displace``
moves through a look-ahead buffer, reads canonical stamps with
``datetime.fromisoformat`` and decodes outage stamps once.  The
per-line loops it replaced live here unchanged, as oracles, with the
``strptime``-only stamp reader: the tests (and the CI chaos job, on
the paper log) require the injector to equal them byte for byte,
draw for draw.
"""

from __future__ import annotations

import datetime as _dt

import numpy as np

from repro.chaos.injector import ChaosConfig
from repro.chaos.modes import (
    _GARBLE_POOL,
    _STAMP_FORMAT,
    _STAMP_RE,
    _merge_windows,
    draw_outage_windows,
)
from repro.rng import RngTree
from repro.units import datetime_to_timestamp, timestamp_to_datetime

__all__ = [
    "truncate_lines_loop",
    "garble_lines_loop",
    "splice_lines_loop",
    "duplicate_lines_loop",
    "displace_lines_loop",
    "skew_timestamps_loop",
    "line_stamp_loop",
    "line_timestamps_loop",
    "drop_outage_windows_loop",
    "corrupt_lines_loop",
]


def truncate_lines_loop(
    rng: np.random.Generator, lines: list[str], rate: float
) -> tuple[list[str], int]:
    if rate <= 0.0 or not lines:
        return list(lines), 0
    hit = rng.random(len(lines)) < rate
    out: list[str] = []
    n = 0
    for line, damaged in zip(lines, hit):
        if damaged and line:
            cut = int(rng.integers(0, len(line)))
            out.append(line[:cut])
            n += 1
        else:
            out.append(line)
    return out, n


def garble_lines_loop(
    rng: np.random.Generator, lines: list[str], rate: float
) -> tuple[list[str], int]:
    if rate <= 0.0 or not lines:
        return list(lines), 0
    hit = rng.random(len(lines)) < rate
    out: list[str] = []
    n = 0
    for line, damaged in zip(lines, hit):
        if damaged and line:
            chars = list(line)
            for _ in range(int(rng.integers(1, 5))):
                pos = int(rng.integers(0, len(chars)))
                chars[pos] = _GARBLE_POOL[
                    int(rng.integers(0, len(_GARBLE_POOL)))
                ]
            out.append("".join(chars))
            n += 1
        else:
            out.append(line)
    return out, n


def splice_lines_loop(
    rng: np.random.Generator, lines: list[str], rate: float
) -> tuple[list[str], int]:
    if rate <= 0.0 or len(lines) < 2:
        return list(lines), 0
    hit = rng.random(len(lines) - 1) < rate
    out: list[str] = []
    n = 0
    i = 0
    while i < len(lines):
        line = lines[i]
        if i < len(lines) - 1 and hit[i] and line:
            cut = int(rng.integers(0, len(line)))
            out.append(line[:cut] + lines[i + 1])
            i += 2
            n += 1
        else:
            out.append(line)
            i += 1
    return out, n


def duplicate_lines_loop(
    rng: np.random.Generator, lines: list[str], rate: float
) -> tuple[list[str], int]:
    if rate <= 0.0 or not lines:
        return list(lines), 0
    hit = rng.random(len(lines)) < rate
    out: list[str] = []
    n = 0
    for line, doubled in zip(lines, hit):
        out.append(line)
        if doubled:
            out.append(line)
            n += 1
    return out, n


def displace_lines_loop(
    rng: np.random.Generator,
    lines: list[str],
    rate: float,
    *,
    max_offset: int = 32,
) -> tuple[list[str], int]:
    """One ``pop`` + ``insert`` on the whole running list per move."""
    if rate <= 0.0 or len(lines) < 2:
        return list(lines), 0
    hit = np.flatnonzero(rng.random(len(lines)) < rate)
    offsets = {
        int(i): int(rng.integers(1, max_offset + 1)) for i in hit
    }
    out = list(lines)
    for i in sorted(offsets):
        if i >= len(out):
            continue
        line = out.pop(i)
        out.insert(min(i + offsets[i], len(out)), line)
    return out, len(offsets)


def skew_timestamps_loop(
    rng: np.random.Generator,
    lines: list[str],
    rate: float,
    *,
    max_skew_s: float = 120.0,
) -> tuple[list[str], int]:
    """Raises ``OverflowError`` where a shift leaves datetime's range."""
    if rate <= 0.0 or not lines:
        return list(lines), 0
    hit = rng.random(len(lines)) < rate
    out: list[str] = []
    n = 0
    for line, skewed in zip(lines, hit):
        stamp = line_stamp_loop(line) if skewed else None
        if stamp is None:
            out.append(line)
            continue
        shift = float(rng.uniform(-max_skew_s, max_skew_s))
        when = timestamp_to_datetime(stamp + shift)
        new_stamp = when.strftime(_STAMP_FORMAT)
        out.append(new_stamp + line[len(new_stamp):])
        n += 1
    return out, n


def line_stamp_loop(line: str) -> float | None:
    match = _STAMP_RE.match(line)
    if match is None:
        return None
    try:
        when = _dt.datetime.strptime(match.group(1), _STAMP_FORMAT)
    except ValueError:
        return None
    return datetime_to_timestamp(when)


def line_timestamps_loop(lines: list[str]) -> np.ndarray:
    return np.asarray(
        [ts if (ts := line_stamp_loop(line)) is not None else np.nan
         for line in lines],
        dtype=np.float64,
    )


def drop_outage_windows_loop(
    lines: list[str], windows: tuple[tuple[float, float], ...]
) -> tuple[list[str], int]:
    windows = _merge_windows(windows)
    if not windows:
        return list(lines), 0
    stamps = line_timestamps_loop(lines)
    edges = np.asarray(
        [edge for window in windows for edge in window], dtype=np.float64
    )
    idx = np.searchsorted(edges, stamps, side="right")
    inside = ((idx % 2) == 1) & ~np.isnan(stamps)
    out = [line for line, drop in zip(lines, inside) if not drop]
    return out, int(inside.sum())


def corrupt_lines_loop(
    config: ChaosConfig, seed: int, lines: list[str]
) -> tuple[list[str], dict[str, int], tuple[tuple[float, float], ...]]:
    """``CorruptionInjector(config, seed).corrupt_lines(lines)`` through
    the loops: the stamps decoded twice, every mode line by line."""
    cfg = config
    tree = RngTree(seed)
    counts: dict[str, int] = {}

    outage_windows: tuple[tuple[float, float], ...] = ()
    if cfg.n_outages > 0:
        stamps = line_timestamps_loop(lines)
        finite = stamps[~np.isnan(stamps)]
        if finite.size >= 2:
            outage_windows = draw_outage_windows(
                tree.fresh_generator("chaos.outage"),
                float(finite.min()),
                float(finite.max()),
                n_outages=cfg.n_outages,
                mean_duration_s=cfg.outage_duration_s,
            )
            lines, counts["outage"] = drop_outage_windows_loop(
                lines, outage_windows
            )

    lines, counts["duplicate"] = duplicate_lines_loop(
        tree.fresh_generator("chaos.duplicate"), lines, cfg.duplicate_rate
    )
    lines, counts["displace"] = displace_lines_loop(
        tree.fresh_generator("chaos.displace"),
        lines,
        cfg.displace_rate,
        max_offset=cfg.max_displace_offset,
    )
    lines, counts["splice"] = splice_lines_loop(
        tree.fresh_generator("chaos.splice"), lines, cfg.splice_rate
    )
    lines, counts["skew"] = skew_timestamps_loop(
        tree.fresh_generator("chaos.skew"),
        lines,
        cfg.skew_rate,
        max_skew_s=cfg.max_skew_s,
    )
    lines, counts["truncate"] = truncate_lines_loop(
        tree.fresh_generator("chaos.truncate"), lines, cfg.truncate_rate
    )
    lines, counts["garble"] = garble_lines_loop(
        tree.fresh_generator("chaos.garble"), lines, cfg.garble_rate
    )
    counts = {k: v for k, v in counts.items() if v}
    return lines, counts, outage_windows
