"""Deterministic telemetry-corruption fault modes.

Each mode is one realistic way production telemetry text gets damaged
between the node and the analyst (all of them observed on real SMW
streams and in the field-study follow-up literature):

==============  ============================================================
mode            real-world artifact
==============  ============================================================
``truncate``    torn write: the collector died mid-line / the disk filled
``garble``      byte damage in flight or at rest (bad NFS, bit rot)
``splice``      two records merged into one line (interleaved writers
                without line buffering)
``duplicate``   re-sent syslog segments, operator log re-splicing
``displace``    out-of-order delivery: a line surfaces later in the stream
``skew``        clock steps on the collector: timestamps shifted, possibly
                *regressing* relative to neighbors
``outage``      the SMW itself was down: a whole time span is missing
==============  ============================================================

Every mode is a pure function of ``(rng, lines)`` — callers derive the
generator from an :class:`~repro.rng.RngTree`, which is what makes
corruption byte-for-byte reproducible from a seed.  Modes never raise
on weird input lines; they corrupt whatever text they are given.
"""

from __future__ import annotations

import datetime as _dt
import re

import numpy as np

from repro.units import datetime_to_timestamp, timestamp_to_datetime

__all__ = [
    "truncate_lines",
    "garble_lines",
    "splice_lines",
    "duplicate_lines",
    "displace_lines",
    "skew_timestamps",
    "drop_outage_windows",
    "draw_outage_windows",
    "line_timestamps",
]

_STAMP_RE = re.compile(r"^(\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{6})")
_STAMP_FORMAT = "%Y-%m-%dT%H:%M:%S.%f"

#: An ASCII stamp whose time fields are in range.  On these,
#: ``datetime.fromisoformat`` is left only the date to check, and it
#: accepts and reads them exactly as ``strptime`` does, at a fraction
#: of the cost.
_ISO_STAMP_RE = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}T(?:[01][0-9]|2[0-3]):[0-5][0-9]:[0-5][0-9]\.[0-9]{6}"
)

#: Replacement characters for garbling: printable noise plus the control
#: bytes real corruption produces (NUL, ESC, DEL, high bit set).
_GARBLE_POOL = (
    "abcdefghijklmnopqrstuvwxyz0123456789 #@!?~^%$&*()[]{}<>|/\\'\"+-=_.,:;"
    "\x00\x01\x1b\x7f\xff\t"
)


def _line_stamp(line: str) -> float | None:
    """Timestamp of a log line, or None if the prefix is unreadable."""
    try:
        if (match := _ISO_STAMP_RE.match(line)) is not None:
            when = _dt.datetime.fromisoformat(match.group())
        elif (match := _STAMP_RE.match(line)) is not None:
            when = _dt.datetime.strptime(match.group(1), _STAMP_FORMAT)
        else:
            return None
    except ValueError:
        return None
    return datetime_to_timestamp(when)


def line_timestamps(lines: list[str]) -> np.ndarray:
    """Per-line timestamps (NaN where the stamp is unreadable)."""
    return np.asarray(
        [ts if (ts := _line_stamp(line)) is not None else np.nan
         for line in lines],
        dtype=np.float64,
    )


# --------------------------------------------------------------------------
# Line-level modes
#
# Each mode draws its per-line Bernoulli mask in one call, then visits
# only the hit lines, in ascending order, drawing their parameters one
# scalar call at a time; lines between hits are copied as list slices.
# --------------------------------------------------------------------------


def truncate_lines(
    rng: np.random.Generator, lines: list[str], rate: float
) -> tuple[list[str], int]:
    """Torn writes: cut selected lines at a random byte offset."""
    if rate <= 0.0 or not lines:
        return list(lines), 0
    hit = rng.random(len(lines)) < rate
    out = list(lines)
    n = 0
    for i in np.flatnonzero(hit).tolist():
        line = out[i]
        if line:
            out[i] = line[: int(rng.integers(0, len(line)))]
            n += 1
    return out, n


def garble_lines(
    rng: np.random.Generator, lines: list[str], rate: float
) -> tuple[list[str], int]:
    """Byte damage: overwrite 1–4 random characters of selected lines."""
    if rate <= 0.0 or not lines:
        return list(lines), 0
    hit = rng.random(len(lines)) < rate
    out = list(lines)
    n = 0
    for i in np.flatnonzero(hit).tolist():
        if not out[i]:
            continue
        chars = list(out[i])
        for _ in range(int(rng.integers(1, 5))):
            pos = int(rng.integers(0, len(chars)))
            chars[pos] = _GARBLE_POOL[int(rng.integers(0, len(_GARBLE_POOL)))]
        out[i] = "".join(chars)
        n += 1
    return out, n


def splice_lines(
    rng: np.random.Generator, lines: list[str], rate: float
) -> tuple[list[str], int]:
    """Interleaved writers: merge selected lines into their successor.

    The selected line loses its tail (a torn write) and the remainder
    of the next record lands on the same physical line — exactly the
    artifact the parser's resync-on-garbage recovery targets.  A line
    consumed as a successor is not itself spliced.
    """
    if rate <= 0.0 or len(lines) < 2:
        return list(lines), 0
    hit = rng.random(len(lines) - 1) < rate
    out: list[str] = []
    done = 0  # lines[:done] are emitted or consumed
    n = 0
    for i in np.flatnonzero(hit).tolist():
        line = lines[i]
        if i < done or not line:
            continue
        cut = int(rng.integers(0, len(line)))
        out += lines[done:i]
        out.append(line[:cut] + lines[i + 1])
        done = i + 2
        n += 1
    out += lines[done:]
    return out, n


def duplicate_lines(
    rng: np.random.Generator, lines: list[str], rate: float
) -> tuple[list[str], int]:
    """Re-sent segments: emit selected lines twice, back to back."""
    if rate <= 0.0 or not lines:
        return list(lines), 0
    hit = np.flatnonzero(rng.random(len(lines)) < rate).tolist()
    out: list[str] = []
    done = 0
    for i in hit:
        out += lines[done : i + 1]
        out.append(lines[i])
        done = i + 1
    out += lines[done:]
    return out, len(hit)


def displace_lines(
    rng: np.random.Generator,
    lines: list[str],
    rate: float,
    *,
    max_offset: int = 32,
) -> tuple[list[str], int]:
    """Out-of-order delivery: move selected lines later in the stream.

    Each selected index ``i`` draws an ``offset`` in 1..``max_offset``
    and, in ascending order, is one move on the running list:
    ``line = out.pop(i)``, then
    ``out.insert(min(i + offset, len(out)), line)``.  Later moves see
    earlier displacements — deterministic, and a faithful model of
    queued late flushes.

    The moves replay in one linear pass.  A move never touches the
    positions before its index, so those are final when it runs and
    are emitted first, untouched runs as list slices; the lines in
    flight wait in a look-ahead buffer of at most ``max_offset + 1``
    lines, and the running list from the next position on is that
    buffer followed by ``lines[src:]``.
    """
    if rate <= 0.0 or len(lines) < 2:
        return list(lines), 0
    hit = np.flatnonzero(rng.random(len(lines)) < rate).tolist()
    offsets = [int(rng.integers(1, max_offset + 1)) for _ in hit]
    last = len(lines) - 1  # the running list's last index after a pop
    out: list[str] = []
    ahead: list[str] = []
    src = 0
    for i, offset in zip(hit, offsets):
        # Emit positions len(out)..i-1: the buffer first, then a slice.
        k = i - len(out)
        if ahead:
            emitted = ahead[:k]
            out += emitted
            del ahead[:k]
            k -= len(emitted)
        if k:
            out += lines[src : src + k]
            src += k
        # Pop position i ...
        if ahead:
            line = ahead.pop(0)
        else:
            line = lines[src]
            src += 1
        # ... and insert it ``to`` places on, clamped to the list's end.
        to = min(offset, last - i)
        short = to - len(ahead)
        if short > 0:
            ahead += lines[src : src + short]
            src += short
        ahead.insert(to, line)
    out += ahead
    out += lines[src:]
    return out, len(hit)


def skew_timestamps(
    rng: np.random.Generator,
    lines: list[str],
    rate: float,
    *,
    max_skew_s: float = 120.0,
) -> tuple[list[str], int]:
    """Clock steps: shift selected stamps by up to ±``max_skew_s``.

    Negative shifts produce local timestamp *regressions*, the
    signature of an NTP step on the collector.  A selected line without
    a readable stamp draws nothing.  A shift that would leave
    :class:`datetime.datetime`'s range (years 1–9999) is drawn but
    not applied: the line stays as it was and is not counted.
    """
    if rate <= 0.0 or not lines:
        return list(lines), 0
    out = list(lines)
    n = 0
    for i in np.flatnonzero(rng.random(len(lines)) < rate).tolist():
        stamp = _line_stamp(lines[i])
        if stamp is None:
            continue
        shift = float(rng.uniform(-max_skew_s, max_skew_s))
        try:
            when = timestamp_to_datetime(stamp + shift)
        except OverflowError:
            continue
        new_stamp = when.strftime(_STAMP_FORMAT)
        out[i] = new_stamp + lines[i][len(new_stamp):]
        n += 1
    return out, n


# --------------------------------------------------------------------------
# Outage windows
# --------------------------------------------------------------------------


def draw_outage_windows(
    rng: np.random.Generator,
    t0: float,
    t1: float,
    *,
    n_outages: int,
    mean_duration_s: float,
) -> tuple[tuple[float, float], ...]:
    """Sample SMW-outage windows inside ``[t0, t1]``.

    Starts are uniform; durations are uniform in
    ``[0.5, 1.5] × mean_duration_s`` (outages are bounded maintenance
    events, not heavy-tailed).  Windows may overlap; the coverage model
    merges them.
    """
    if n_outages <= 0 or t1 <= t0:
        return ()
    windows = []
    for _ in range(int(n_outages)):
        start = float(rng.uniform(t0, t1))
        duration = float(rng.uniform(0.5, 1.5)) * mean_duration_s
        windows.append((start, min(start + duration, t1)))
    return tuple(sorted(windows))


def _merge_windows(
    windows: tuple[tuple[float, float], ...],
) -> tuple[tuple[float, float], ...]:
    """Sort and merge possibly-overlapping windows."""
    merged: list[tuple[float, float]] = []
    for lo, hi in sorted(windows):
        if hi <= lo:
            continue
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


def drop_outage_windows(
    lines: list[str],
    windows: tuple[tuple[float, float], ...],
    *,
    stamps: np.ndarray | None = None,
) -> tuple[list[str], int]:
    """Remove every line whose timestamp falls inside an outage.

    Lines without a readable stamp are kept — an outage removes spans
    of *time*, and a stampless line carries no time.  ``stamps`` are
    the lines' :func:`line_timestamps`, if the caller has them already.
    """
    windows = _merge_windows(windows)
    if not windows:
        return list(lines), 0
    if stamps is None:
        stamps = line_timestamps(lines)
    edges = np.asarray(
        [edge for window in windows for edge in window], dtype=np.float64
    )
    idx = np.searchsorted(edges, stamps, side="right")
    inside = ((idx % 2) == 1) & ~np.isnan(stamps)
    out = [line for line, drop in zip(lines, inside) if not drop]
    return out, int(inside.sum())
