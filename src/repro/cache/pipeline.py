"""The incremental study engine: dataset layers in, warm analyses out.

The paper's workflow was *collect once, analyze many times*: two years
of console/nvidia-smi/job-snapshot telemetry were gathered from Titan
and then mined repeatedly.  The simulator previously inverted that —
every figure bench, scorecard run and degradation sweep re-simulated
and re-parsed the full 18,688-GPU scenario from scratch even though the
dataset is a pure function of ``(scenario, seed, pipeline epoch)``.

This module closes the loop.  :func:`persist_dataset` writes a
:class:`~repro.sim.simulation.SimulationDataset`'s *observable* layers
into an :class:`~repro.cache.store.ArtifactStore`, all under one
dataset key:

====================  =======  ===========================================
layer                 kind     contents
====================  =======  ===========================================
``console.manifest``  json     shard list of the console log: line count,
                               text size and container digest of every
                               shard
``console.NNNNNN``    text     the console log in whole-line-aligned
                               shards of up to ``DEFAULT_SHARD_LINES``
                               lines (zlib-compressed)
``parsed``            columns  the SEC output: the seven ``EventLog``
                               columns with their dtypes, and
                               ``ParseStats`` in the JSON header; a
                               constant column (``parent``, −1 on every
                               parsed row) is one fill value in the
                               header, every other column 64-byte
                               aligned bytes; a load returns them as
                               read-only views of the one verified
                               payload or of the fill, copying nothing
``nvsmi``             npz      the fleet nvidia-smi table
``jobsnap``           pickle   per-job snapshot records (Figs. 16–20 data)
``trace``             pickle   the columnar job accounting trace
====================  =======  ===========================================

Shards are written first and the manifest last, so a crash mid-persist
leaves no manifest and the layer reads as absent.  No step holds the
whole console log as one string, and a dataset persisted before it is
parsed is parsed from the same pass that writes its shards, so the log
is rendered once.  The store is the only writer and the only reader of
console shards.

:func:`load_or_simulate` rebuilds a dataset from these layers —
skipping simulation, console rendering *and* parsing — or
transparently falls back to a cold :class:`TitanSimulation` run (and
persists the result) when any layer is missing, fails its checksum or
is stored under another kind than :data:`DATASET_LAYERS` names (a
``parsed`` layer in the older ``pickle`` form, say), or when the
``parsed`` columns' dtypes are not :class:`EventLog`'s (a layer written
when ``gpu`` was int64).
A load checks every console shard without inflating it: the store
verifies the container's SHA-256, and that digest must be the one the
manifest recorded.  The lines are inflated lazily, only if something
asks for the console stream, and each re-read shard is checked against
the manifest again.  A damaged or stale cache can cost time, never
correctness.

Ground truth (the injector's event log, the fleet ledgers) is *not*
cached: analyses must run from observables exactly like the paper's
did, and validation paths that need ground truth request it explicitly
via ``require_ground_truth=True``, which always simulates.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from repro import perf
from repro.cache import serde
from repro.cache.keys import PIPELINE_EPOCH, dataset_key
from repro.cache.store import ArtifactStore
from repro.errors.event import EventLog
from repro.sim.simulation import (
    GroundTruthUnavailable,
    SimulationDataset,
    TitanSimulation,
)
from repro.telemetry.parser import ParseStats
from repro.topology.machine import TitanMachine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.scenario import Scenario

__all__ = [
    "DATASET_LAYERS",
    "DEFAULT_SHARD_LINES",
    "GroundTruthUnavailable",
    "ShardCorruption",
    "ShardInfo",
    "ShardManifest",
    "persist_dataset",
    "load_dataset",
    "load_or_simulate",
]

#: Console lines per shard; ~100k lines is a few MB of text — large
#: enough to amortize per-shard overhead, small enough that one
#: resident shard never dominates peak RSS.
DEFAULT_SHARD_LINES: int = 100_000

#: Console manifest schema version.  Version 1 recorded a digest of
#: each shard's text; version 2 records its container payload digest,
#: so a version-1 store reads as a miss and is persisted again.
_MANIFEST_VERSION: int = 2

#: Layer name of the console shard manifest.
_CONSOLE_MANIFEST_LAYER = "console.manifest"

#: ``(layer name, serde kind)`` of every persisted dataset layer (the
#: console shards are listed by the manifest).
DATASET_LAYERS: tuple[tuple[str, str], ...] = (
    (_CONSOLE_MANIFEST_LAYER, "json"),
    ("parsed", "columns"),
    ("nvsmi", "npz"),
    ("jobsnap", "pickle"),
    ("trace", "pickle"),
)


class ShardCorruption(ValueError):
    """A console shard failed validation against its manifest."""


@dataclass(frozen=True)
class ShardInfo:
    """One shard's identity: name, line count, text size and container digest.

    ``lines`` and ``nbytes`` count the shard's text (``nbytes`` in
    UTF-8 bytes).  ``sha256`` is the digest of the stored, compressed
    payload: the one the store writes in the container header and
    verifies on every read, so a load can pin each shard's bytes
    without inflating or hashing them again.
    """

    name: str
    lines: int
    nbytes: int
    sha256: str

    def to_doc(self) -> dict[str, object]:
        return {
            "name": self.name,
            "lines": self.lines,
            "nbytes": self.nbytes,
            "sha256": self.sha256,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "ShardInfo":
        return cls(
            name=str(doc["name"]),
            lines=int(doc["lines"]),
            nbytes=int(doc["nbytes"]),
            sha256=str(doc["sha256"]),
        )


@dataclass(frozen=True)
class ShardManifest:
    """The ordered shard list of one persisted console log."""

    total_lines: int
    total_bytes: int
    shards: tuple[ShardInfo, ...]

    def to_doc(self) -> dict[str, object]:
        return {
            "version": _MANIFEST_VERSION,
            "total_lines": self.total_lines,
            "total_bytes": self.total_bytes,
            "shards": [s.to_doc() for s in self.shards],
        }

    @classmethod
    def from_doc(cls, doc: Any) -> "ShardManifest":
        if not isinstance(doc, dict):
            raise ShardCorruption("console manifest is not an object")
        version = int(doc.get("version", -1))
        if version != _MANIFEST_VERSION:
            raise ShardCorruption(f"unsupported manifest version {version}")
        return cls(
            total_lines=int(doc["total_lines"]),
            total_bytes=int(doc["total_bytes"]),
            shards=tuple(ShardInfo.from_doc(s) for s in doc["shards"]),
        )


def _layer_key(dkey: str, layer: str) -> str:
    return f"{dkey}/layer/{layer}"


def _console_shard_layer(index: int) -> str:
    return f"console.{index:06d}"


def _utf8_len(text: str) -> int:
    """UTF-8 size of ``text``; O(1) for the ASCII the writer renders."""
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def _put_console_shards(
    store: ArtifactStore, dkey: str, blocks: Iterable[str], shards: list[ShardInfo]
) -> Iterator[str]:
    """Write the log in ``blocks`` as console shard artifacts, one at a time.

    ``blocks`` are runs of whole, newline-terminated lines.  Each shard
    is cut from them right after its :data:`DEFAULT_SHARD_LINES`-th
    newline, so the payloads concatenate to the log byte for byte, and
    no line is split out of its block to be joined again; one shard's
    text is resident at a time.  Yields each shard's text once it is
    stored and its :class:`ShardInfo` is appended to ``shards``; the
    manifest is the caller's to write once the iterator is exhausted.
    Each shard's cut, encode and write is booked under
    ``cache.persist``, in one span; drawing its blocks is not, so a
    render drawn through here books its own time.
    """
    parts: list[str] = []
    lines = 0
    for block in blocks:
        count = block.count("\n")  # unbooked: a memchr pass per block
        start = 0
        while lines + count >= DEFAULT_SHARD_LINES:
            with perf.stage("cache.persist"):
                need = DEFAULT_SHARD_LINES - lines
                cut = _after_newlines(block, start, need)
                parts.append(block[start:cut])
                text = "".join(parts)
                _put_console_shard(store, dkey, text, DEFAULT_SHARD_LINES, shards)
            yield text
            parts, lines, count, start = [], 0, count - need, cut
        if count:
            parts.append(block[start:] if start else block)
            lines += count
    if parts:
        with perf.stage("cache.persist"):
            text = "".join(parts)
            _put_console_shard(store, dkey, text, lines, shards)
        yield text


def _put_console_shard(
    store: ArtifactStore, dkey: str, text: str, lines: int, shards: list[ShardInfo]
) -> None:
    """Store ``text`` as the next shard, encoded once; its
    :class:`ShardInfo` records the digest of the stored container
    payload, not of the text."""
    payload = serde.encode(text, "text")
    name = _console_shard_layer(len(shards))
    store.put_bytes(_layer_key(dkey, name), payload, "text")
    shards.append(
        ShardInfo(
            name=name,
            lines=lines,
            nbytes=_utf8_len(text),
            sha256=hashlib.sha256(payload).hexdigest(),
        )
    )


def _after_newlines(text: str, start: int, n: int) -> int:
    """The offset just past the ``n``-th newline of ``text`` from
    ``start``, which ``text`` must hold; counted a MiB at a time, and
    only the MiB that holds it split."""
    step = 1 << 20
    while (count := text.count("\n", start, start + step)) < n:
        n -= count
        start += step
    piece = text[start : start + step]
    return start + len(piece) - len(piece.split("\n", n)[-1])


def persist_dataset(
    store: ArtifactStore,
    dataset: SimulationDataset,
    *,
    epoch: int = PIPELINE_EPOCH,
) -> str:
    """Write every observable layer of ``dataset``; returns the dataset key.

    The console shards are cut from the dataset's console blocks: the
    resident text, or the render's windows.  When the dataset is not
    parsed yet, the parse reads the shards' lines as they pass through
    the shard writer, so a log that is not resident is rendered once
    and never held as one string.
    """
    if dataset.provenance == "modified":
        raise ValueError(
            "refusing to persist a dataset with a modified console "
            "stream under its scenario's content address"
        )
    dkey = dataset_key(dataset.scenario, epoch=epoch)
    shards: list[ShardInfo] = []
    payloads = _put_console_shards(store, dkey, dataset._console_blocks(), shards)
    if dataset._parsed is None:
        dataset._parse(chain.from_iterable(map(str.splitlines, payloads)))
    layers: dict[str, Any] = {
        "parsed": _parsed_columns(dataset.parsed_events, dataset.parse_stats),
        "nvsmi": dataset.nvsmi_table,
        "jobsnap": dataset.jobsnap_records,
        "trace": dataset.trace,
    }
    deque(payloads, maxlen=0)  # the shards the parse did not draw
    with perf.stage("cache.persist"):
        layers[_CONSOLE_MANIFEST_LAYER] = ShardManifest(
            total_lines=sum(s.lines for s in shards),
            total_bytes=sum(s.nbytes for s in shards),
            shards=tuple(shards),
        ).to_doc()
        for layer, kind in DATASET_LAYERS:
            store.put(_layer_key(dkey, layer), layers[layer], kind)
    return dkey


def load_dataset(
    store: ArtifactStore,
    scenario: "Scenario",
    *,
    epoch: int = PIPELINE_EPOCH,
) -> Optional[SimulationDataset]:
    """Reconstruct a dataset from the store, or ``None`` on any miss.

    Every layer is checksum-verified up front, and every layer but the
    console shards is decoded: a truncated, garbled or stale artifact,
    or one stored under another kind than :data:`DATASET_LAYERS` names,
    degrades to a miss — the caller then recomputes — never to a
    partially-wrong dataset.  A layer read and then rejected counts as
    a store miss, not a hit.
    """
    dkey = dataset_key(scenario, epoch=epoch)
    decoded: dict[str, Any] = {}
    with perf.stage("cache.load"):
        for layer, kind in DATASET_LAYERS:
            entry = store.get_bytes(_layer_key(dkey, layer))
            if entry is None:
                return None
            try:
                if entry[1] != kind:
                    raise serde.SerdeError(f"layer {layer} is {entry[1]}, not {kind}")
                decoded[layer] = serde.decode(entry[0], kind)
            except serde.SerdeError:
                store.stats.reject_hit()
                return None
        parsed = _parsed_from_columns(decoded["parsed"])
        if parsed is None:
            store.stats.reject_hit()
            return None
        console = _console_shard_source(
            store, dkey, decoded[_CONSOLE_MANIFEST_LAYER]
        )
        if console is None:
            return None
    return SimulationDataset(
        scenario=scenario,
        machine=TitanMachine(folded_torus=scenario.folded_torus),
        trace=decoded["trace"],
        provenance="cache",
        _console_shards=console,
        _parsed=parsed,
        _nvsmi_table=decoded["nvsmi"],
        _jobsnap=decoded["jobsnap"],
    )


def _parsed_columns(
    log: EventLog, stats: ParseStats
) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
    """The ``parsed`` layer's ``columns`` form: the log's columns, and
    ``stats`` as a JSON document."""
    doc = dataclasses.asdict(stats)
    doc["unknown_xids_seen"] = sorted(stats.unknown_xids_seen)
    columns = {f.name: getattr(log, f.name) for f in dataclasses.fields(EventLog)}
    return columns, doc


def _parsed_from_columns(obj: Any) -> Optional[tuple[EventLog, ParseStats]]:
    """Inverse of :func:`_parsed_columns`, or ``None`` if ``obj`` does not
    hold exactly the log's columns, with its dtypes, and the stats'
    fields.  The columns are used as they come, so the log views the
    layer's payload."""
    columns, doc = obj
    try:
        log = EventLog(**columns)
        stats = ParseStats(
            **{**doc, "unknown_xids_seen": set(doc["unknown_xids_seen"])}
        )
    except (KeyError, TypeError, ValueError):
        return None
    empty = EventLog.empty()
    if any(
        getattr(log, f.name).dtype != getattr(empty, f.name).dtype
        for f in dataclasses.fields(EventLog)
    ):
        return None
    return log, stats


def _console_manifest(doc: Any) -> Optional[ShardManifest]:
    try:
        return ShardManifest.from_doc(doc)
    except (ShardCorruption, KeyError, TypeError, ValueError):
        return None


def _console_shard_source(
    store: ArtifactStore, dkey: str, doc: Any
) -> Optional[Callable[[], Iterator[str]]]:
    """Check the console shards; return their payload source or ``None``.

    Shard ``i`` must be named ``console.{i:06d}``, be present, hold
    ``text``, and carry the container digest the manifest recorded.
    The store has just verified the payload against that digest, so no
    shard is inflated or hashed again here.  Any missing, misnamed or
    drifted shard degrades to a miss (``None``), and the caller
    recomputes.  The returned source re-reads and re-checks the shards
    the same way on every call and inflates one at a time; a shard that
    no longer matches the manifest raises :class:`ShardCorruption`.
    """
    manifest = _console_manifest(doc)
    if manifest is None or any(
        shard.name != _console_shard_layer(index)
        for index, shard in enumerate(manifest.shards)
    ):
        store.stats.reject_hit()
        return None
    for shard in manifest.shards:
        if _shard_payload(store, dkey, shard) is None:
            return None

    def payloads() -> Iterator[str]:
        for shard in manifest.shards:
            payload = _shard_payload(store, dkey, shard)
            if payload is None:
                raise ShardCorruption(
                    f"console shard {shard.name} vanished or changed after "
                    f"load verification (dataset {dkey})"
                )
            yield serde.decode(payload, "text")

    return payloads


def _shard_payload(
    store: ArtifactStore, dkey: str, shard: ShardInfo
) -> Optional[bytes]:
    """The shard's verified compressed payload, if the manifest's digest
    names it; ``None`` if it is missing, corrupt or another artifact
    (a store miss either way)."""
    entry = store.get_verified(_layer_key(dkey, shard.name))
    if entry is None:
        return None
    payload, kind, digest = entry
    if kind != "text" or digest != shard.sha256:
        store.stats.reject_hit()
        return None
    return payload


def load_or_simulate(
    scenario: "Scenario",
    store: Optional[ArtifactStore] = None,
    *,
    require_ground_truth: bool = False,
    epoch: int = PIPELINE_EPOCH,
) -> tuple[SimulationDataset, bool]:
    """The incremental front door: ``(dataset, warm)``.

    * ``store is None`` — plain cold simulation, nothing persisted.
    * warm hit — all layers validate: no simulation, no render, no
      parse; ``warm`` is ``True``.
    * miss/corruption — simulate cold, persist every layer, return the
      fully simulated dataset (``warm`` is ``False``).
    * ``require_ground_truth=True`` — always simulate (validation needs
      the injector's ledgers), but still persist the layers so future
      observable-only runs are warm.
    """
    if store is not None and not require_ground_truth:
        cached = load_dataset(store, scenario, epoch=epoch)
        if cached is not None:
            return cached, True
    dataset = TitanSimulation(scenario).run()
    if store is not None:
        persist_dataset(store, dataset, epoch=epoch)
    return dataset, False
