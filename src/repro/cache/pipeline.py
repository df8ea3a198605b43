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

====================  ======  ============================================
layer                 kind    contents
====================  ======  ============================================
``console.manifest``  json    shard list of the console log: line count,
                              size and SHA-256 of every shard
``console.NNNNNN``    text    the console log in whole-line-aligned
                              shards of up to ``DEFAULT_SHARD_LINES``
                              lines (zlib-compressed)
``parsed``            pickle  ``(EventLog, ParseStats)`` — the SEC output
``nvsmi``             npz     the fleet nvidia-smi table
``jobsnap``           pickle  per-job snapshot records (Figs. 16–20 data)
``trace``             pickle  the columnar job accounting trace
====================  ======  ============================================

Shards are written first and the manifest last, so a crash mid-persist
leaves no manifest and the layer reads as absent.  No step holds the
whole console log as one string, and a dataset persisted before it is
parsed is parsed from the same pass that writes its shards, so the log
is rendered once.

:func:`load_or_simulate` rebuilds a dataset from these layers —
skipping simulation, console rendering *and* parsing — or
transparently falls back to a cold :class:`TitanSimulation` run (and
persists the result) when any layer is missing or fails its checksum.
Console shards are verified eagerly at load, one resident at a time,
against the store's checksums and the manifest's digests; their lines
are re-read lazily, only if something asks for the console stream.  A
damaged or stale cache can cost time, never correctness.

Ground truth (the injector's event log, the fleet ledgers) is *not*
cached: analyses must run from observables exactly like the paper's
did, and validation paths that need ground truth request it explicitly
via ``require_ground_truth=True``, which always simulates.
"""

from __future__ import annotations

import hashlib
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from itertools import chain
from typing import TYPE_CHECKING, Any, Optional

from repro import perf
from repro.cache.keys import PIPELINE_EPOCH, dataset_key
from repro.cache.store import ArtifactStore
from repro.sim.simulation import (
    GroundTruthUnavailable,
    SimulationDataset,
    TitanSimulation,
)
from repro.stream.shards import (
    ShardCorruption,
    ShardInfo,
    ShardManifest,
    iter_shard_payloads,
)
from repro.topology.machine import TitanMachine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.scenario import Scenario

__all__ = [
    "DATASET_LAYERS",
    "GroundTruthUnavailable",
    "persist_dataset",
    "load_dataset",
    "load_or_simulate",
]

#: Layer name of the console shard manifest.
_CONSOLE_MANIFEST_LAYER = "console.manifest"

#: ``(layer name, serde kind)`` of every persisted dataset layer (the
#: console shards are listed by the manifest).
DATASET_LAYERS: tuple[tuple[str, str], ...] = (
    (_CONSOLE_MANIFEST_LAYER, "json"),
    ("parsed", "pickle"),
    ("nvsmi", "npz"),
    ("jobsnap", "pickle"),
    ("trace", "pickle"),
)


def _layer_key(dkey: str, layer: str) -> str:
    return f"{dkey}/layer/{layer}"


def _console_shard_layer(index: int) -> str:
    return f"console.{index:06d}"


def _put_console_shards(
    store: ArtifactStore, dkey: str, lines: Iterable[str], shards: list[ShardInfo]
) -> Iterator[str]:
    """Write ``lines`` as console shard artifacts, one at a time.

    Yields each shard's payload text once it is stored and its
    :class:`ShardInfo` is appended to ``shards``; the manifest is the
    caller's to write once the iterator is exhausted.
    """
    for n_lines, text in iter_shard_payloads(lines):
        payload = text.encode("utf-8")
        name = _console_shard_layer(len(shards))
        store.put(_layer_key(dkey, name), text, "text")
        shards.append(
            ShardInfo(
                name=name,
                lines=n_lines,
                nbytes=len(payload),
                sha256=hashlib.sha256(payload).hexdigest(),
            )
        )
        yield text


def persist_dataset(
    store: ArtifactStore,
    dataset: SimulationDataset,
    *,
    epoch: int = PIPELINE_EPOCH,
) -> str:
    """Write every observable layer of ``dataset``; returns the dataset key.

    The console shards stream from ``dataset.console_lines()``.  When
    the dataset is not parsed yet, the parse reads the lines as they
    pass through the shard writer, so a log that is not resident is
    rendered once and never held as one string.
    """
    if dataset.provenance == "modified":
        raise ValueError(
            "refusing to persist a dataset with a modified console "
            "stream under its scenario's content address"
        )
    dkey = dataset_key(dataset.scenario, epoch=epoch)
    shards: list[ShardInfo] = []
    payloads = _put_console_shards(store, dkey, dataset.console_lines(), shards)
    if dataset._parsed is None:
        dataset._parse(chain.from_iterable(map(str.splitlines, payloads)))
    layers: dict[str, Any] = {
        "parsed": (dataset.parsed_events, dataset.parse_stats),
        "nvsmi": dataset.nvsmi_table,
        "jobsnap": dataset.jobsnap_records,
        "trace": dataset.trace,
    }
    with perf.stage("cache.persist"):
        deque(payloads, maxlen=0)  # the shards the parse did not draw
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

    Every layer is fully decoded (checksum-verified) up front: a
    truncated or garbled artifact degrades to a miss — the caller then
    recomputes — never to a partially-wrong dataset.
    """
    dkey = dataset_key(scenario, epoch=epoch)
    decoded: dict[str, Any] = {}
    with perf.stage("cache.load"):
        for layer, _kind in DATASET_LAYERS:
            obj = store.get(_layer_key(dkey, layer))
            if obj is None:
                return None
            decoded[layer] = obj
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
        _parsed=tuple(decoded["parsed"]),
        _nvsmi_table=decoded["nvsmi"],
        _jobsnap=decoded["jobsnap"],
    )


def _console_manifest(doc: Any) -> Optional[ShardManifest]:
    try:
        return ShardManifest.from_doc(doc)
    except (ShardCorruption, KeyError, TypeError, ValueError):
        return None


def _console_shard_source(
    store: ArtifactStore, dkey: str, doc: Any
) -> Optional[Callable[[], Iterator[str]]]:
    """Verify the console shards; return their payload source or ``None``.

    Every shard is decoded (store checksums) and its payload
    re-digested against the manifest, one shard resident at a time.
    Any missing or drifted shard degrades to a miss (``None``), and
    the caller recomputes.  The returned source re-reads the shard
    payloads through the checksummed ``store.get`` on every call.
    """
    manifest = _console_manifest(doc)
    if manifest is None:
        return None
    for shard in manifest.shards:
        payload = store.get(_layer_key(dkey, shard.name))
        if not isinstance(payload, str):
            return None
        encoded = payload.encode("utf-8")
        if (
            len(encoded) != shard.nbytes
            or hashlib.sha256(encoded).hexdigest() != shard.sha256
        ):
            return None

    def payloads() -> Iterator[str]:
        for shard in manifest.shards:
            payload = store.get(_layer_key(dkey, shard.name))
            if payload is None:
                raise ShardCorruption(
                    f"console shard {shard.name} vanished after load "
                    f"verification (dataset {dkey})"
                )
            yield payload

    return payloads


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
