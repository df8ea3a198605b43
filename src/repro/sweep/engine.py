"""The sharded sweep engine behind ``python -m repro sweep``.

Executes the full grid of a :class:`~repro.sweep.spec.SweepSpec` with a
journaled barrier after every *point*, mirroring the per-stage
discipline of :mod:`repro.supervise.runner` one level up:

* ``sweep_start`` — the spec (identity: its content key), grid size,
  pipeline epoch and journal version;
* one ``point`` record per grid point — the point's summary document
  is durable in the artifact store (atomic write + fsync) *before* the
  record commits, so a journaled point always has its artifact;
* ``sweep_end`` — the assembled sensitivity table's digest, written
  after the table artifact itself is durable.

Points are sharded over :func:`repro.parallel.pool.parallel_map`
workers (every point is an independently retried, watchdog-supervised
item).  Workers only touch the content-addressed store; the parent
alone appends to the journal, via the pool's streaming ``on_result``
callback, so journal barriers — including the fault injection of
``REPRO_PROCFAULT`` — stay single-writer.

On resume, journaled points are *verified*: the summary artifact is
re-read and its SHA-256 checked against the journaled digest.  A
missing/corrupt/mismatched artifact demotes the point back to pending
and a corrective ``recomputed`` record is appended after the rerun —
the same invalidate-and-recompute contract the study runner applies to
figure stages.  Because every point's summary is content-addressed by
``sweep_point_key``, a warm rerun (journal gone, store intact) reuses
summaries byte-for-byte without recomputing any physics.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from repro.supervise.journal import JOURNAL_VERSION, read_journal
from repro.supervise.runner import (
    _pause,
    _stage_delay,
    document_json,
    journal_path,
    open_or_resume_journal,
)
from repro.supervise.signals import GracefulShutdown
from repro.sweep.grid import SweepPoint, expand
from repro.sweep.reduce import SensitivityReducer
from repro.sweep.spec import SweepSpec

__all__ = [
    "SWEEP_DOC_VERSION",
    "PointStatus",
    "SweepRunReport",
    "SweepStatus",
    "sweep_id_for",
    "summary_key",
    "table_key",
    "point_summary_doc",
    "run_sweep",
    "load_sweep_table",
    "sweep_status",
]

#: Schema version of one point's summary document.
SWEEP_DOC_VERSION = 1


@dataclass(frozen=True)
class PointStatus:
    """How one grid point was satisfied during this invocation."""

    index: int
    label: str
    key: str
    #: ``computed`` (fresh work, journaled), ``verified`` (journaled
    #: earlier, artifact digest re-checked), or ``recomputed``
    #: (journal/store disagreed; point redone and re-journaled).
    action: str
    digest: str
    #: The summary artifact was already warm in the store (no physics
    #: was recomputed even though the point was journaled fresh).
    warm: bool = False


@dataclass(frozen=True)
class SweepRunReport:
    """The outcome of one sweep run (or resume)."""

    run_id: str
    sweep_key: str
    journal_path: str
    resumed: bool
    truncated_tail: bool
    points: tuple[PointStatus, ...]
    table: dict[str, Any]
    table_sha256: str

    @property
    def n_computed(self) -> int:
        return sum(1 for p in self.points if p.action != "verified")

    @property
    def n_verified(self) -> int:
        return sum(1 for p in self.points if p.action == "verified")


@dataclass(frozen=True)
class SweepStatus:
    """One sweep journal's progress, for ``repro sweep status``."""

    run_id: str
    path: str
    exists: bool
    sweep_key: str
    n_points: int
    n_done: int
    complete: bool
    torn_tail: bool


def sweep_id_for(spec: SweepSpec) -> str:
    """Deterministic run id: one journal per spec content key."""
    return f"sweep-{spec.key()[:16]}"


def summary_key(point_key: str) -> str:
    """Store key of one point's summary document."""
    return f"sweep/{point_key}/summary"


def table_key(spec: SweepSpec) -> str:
    """Store key of the assembled sensitivity table."""
    return f"sweep/{spec.key()}/table"


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def point_summary_doc(point: SweepPoint, store: Any) -> dict[str, Any]:
    """Compute one grid point's summary document (pure given the point).

    Pipeline: warm-load or simulate the dataset (ground truth forced
    when the availability section is requested — the RAS node-state
    ledger is never cached), score availability *before* any corruption
    (it is machine ground truth, not telemetry), then corrupt the
    rendered console stream if the corruption axis says so, and run the
    full figure pipeline + scorecard + headline on what remains.  A
    corruption point materializes the console text (the chaos injector
    rewrites the whole text by construction).
    """
    from repro.cache import load_or_simulate
    from repro.cache.keys import scenario_fingerprint
    from repro.core.golden import figure_digest
    from repro.core.observations import (
        headline_statistics,
        observation_scorecard,
    )
    from repro.core.study import TitanStudy

    scenario = point.scenario
    dataset, _warm = load_or_simulate(
        scenario, store, require_ground_truth=point.availability
    )

    availability: Optional[dict[str, Any]] = None
    if point.availability:
        from repro.core.availability import availability_report

        report = availability_report(
            dataset.node_state_log,
            window_s=scenario.end,
            n_nodes=dataset.machine.n_gpus,
        )
        availability = {
            "availability": float(report.availability),
            "n_outages": int(report.n_outages),
            "downtime_node_hours": float(report.total_downtime_node_hours),
            "mttr_hours": float(report.mttr_hours()),
            "mttr_hours_by_cause": {
                cause.name: float(hours)
                for cause, hours in sorted(
                    report.mttr_hours_by_cause.items(),
                    key=lambda item: item[0].name,
                )
            },
        }

    if point.corruption > 0.0:
        from repro.chaos.injector import ChaosConfig, CorruptionInjector
        from repro.rng import RngTree

        injector = CorruptionInjector(
            ChaosConfig.uniform(point.corruption),
            seed=RngTree(scenario.seed).child("sweep.corrupt").seed,
        )
        # ``with_console_text`` marks the dataset ``modified``, so the
        # corrupted figures never pollute the clean content addresses.
        dataset = dataset.with_console_text(
            injector.corrupt_text(dataset.console_text).text
        )

    study = TitanStudy(dataset, store=store)
    figures = {
        name: figure_digest(result)
        for name, result in study.figs_all().items()
    }
    return {
        "version": SWEEP_DOC_VERSION,
        # Deliberately grid-position-free: the same scenario point can
        # sit at different indices in different sweeps, and the summary
        # is shared between them through its content address.  Grid
        # position (index/label/anchor-ness) is the *reader's* spec's
        # business — see SensitivityReducer.
        "point": {
            "key": point.key,
            "dataset_key": point.dataset_key,
            "axes": {
                "scale": float(point.scale),
                "rates": point.rates.to_doc(),
                "window_days": (
                    None
                    if point.window_days is None
                    else float(point.window_days)
                ),
                "burst": float(point.burst),
                "corruption": float(point.corruption),
            },
            "n_nodes": int(point.n_nodes),
            "scenario": {
                "name": scenario.name,
                "seed": int(scenario.seed),
                "fingerprint": scenario_fingerprint(scenario),
            },
        },
        "figures": figures,
        "scorecard": [
            {"name": check.name, "ok": bool(check.ok)}
            for check in observation_scorecard(study)
        ],
        "headline": headline_statistics(study),
        "availability": availability,
    }


def _reusable_summary(store: Any, key: str) -> Optional[bytes]:
    """A valid, already-durable summary payload for ``key``, or None."""
    raw = store.get_bytes(key)
    if raw is None:
        return None
    payload, kind = raw
    if kind != "json":
        return None
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(doc, dict) or doc.get("version") != SWEEP_DOC_VERSION:
        return None
    return payload


def _compute_point(args: "tuple[str, dict[str, Any], int]") -> dict[str, Any]:
    """Pool worker: make one point's summary durable; return its digest.

    The summary is content-addressed, so a payload already in the store
    is reused byte-for-byte (the near-free warm rerun); otherwise the
    full pipeline runs and the document is atomically persisted before
    this function returns — the parent journals only after that.
    """
    store_root, spec_doc, index = args
    from repro.cache.store import ArtifactStore

    spec = SweepSpec.from_doc(spec_doc)
    point = expand(spec)[index]
    store = ArtifactStore(store_root)
    key = summary_key(point.key)

    payload = _reusable_summary(store, key)
    warm = payload is not None
    if payload is None:
        doc = point_summary_doc(point, store)
        payload = document_json(doc).encode("utf-8")
        store.put_bytes(key, payload, "json")
    else:
        doc = json.loads(payload.decode("utf-8"))
    return {
        "index": int(index),
        "key": point.key,
        "sha256": _digest(payload),
        "warm": warm,
        "doc": doc,
    }


def run_sweep(
    spec: SweepSpec,
    store: Any,
    *,
    resume: bool = False,
    run_id: Optional[str] = None,
    n_workers: int = 1,
    timeout_s: Optional[float] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepRunReport:
    """Run (or resume) one sweep spec to a complete sensitivity table.

    Raises :class:`~repro.supervise.signals.RunInterrupted` on a
    SIGINT/SIGTERM handled at a point barrier, lets journal write
    failures propagate, and raises
    :class:`~repro.parallel.pool.ChunkTimeout` (naming grid point
    indices) when a point is still hung past ``timeout_s`` on its final
    attempt — in every case the journal on disk is a valid prefix and a
    later ``resume=True`` call completes the sweep.
    """
    from repro.cache.keys import PIPELINE_EPOCH
    from repro.chaos.procfault import injector_from_env
    from repro.parallel.pool import ChunkTimeout, parallel_map

    spec.validate()
    say = progress if progress is not None else lambda _msg: None
    points = expand(spec)
    skey = spec.key()
    rid = run_id if run_id is not None else sweep_id_for(spec)
    path = journal_path(store, rid)
    hook = injector_from_env()
    delay_s = _stage_delay()

    with GracefulShutdown() as stop:
        journal, resumed = open_or_resume_journal(
            path,
            start_type="sweep_start",
            identity_field="sweep_key",
            identity=skey,
            resume=resume,
            explicit_id=run_id is not None,
            fault_hook=hook,
        )
        try:
            if journal.next_seq == 0:
                journal.append(
                    "sweep_start",
                    run_id=rid,
                    sweep_key=skey,
                    epoch=int(PIPELINE_EPOCH),
                    journal_version=JOURNAL_VERSION,
                    spec=spec.to_doc(),
                    n_points=len(points),
                )
            done = {
                int(rec.get("index")): rec
                for rec in journal.of_type("point")
                if rec.get("index") is not None
            }
            prior_end = journal.last("sweep_end")

            reducer = SensitivityReducer(spec)
            statuses: dict[int, PointStatus] = {}
            stale: set[int] = set()

            # -- verify journaled points against the store ------------------
            for point in points:
                rec = done.get(point.index)
                if rec is None:
                    continue
                payload = (
                    _reusable_summary(store, summary_key(point.key))
                    if rec.get("key") == point.key
                    else None
                )
                digest = rec.get("digest")
                if payload is not None and _digest(payload) == digest:
                    reducer.add(
                        point.index, json.loads(payload.decode("utf-8"))
                    )
                    statuses[point.index] = PointStatus(
                        point.index,
                        point.label,
                        point.key,
                        "verified",
                        digest,
                    )
                else:
                    # Journal and store disagree (corrupted, swapped or
                    # vanished artifact): drop it and redo the point.
                    store.delete(summary_key(point.key))
                    stale.add(point.index)
            pending = [
                p.index for p in points if p.index not in statuses
            ]
            say(
                f"sweep {rid}: {len(statuses)} verified, "
                f"{len(pending)} to run"
            )

            # -- shard the pending points, journaling at each barrier -------
            if pending:
                spec_doc = spec.to_doc()
                items = [
                    (str(store.root), spec_doc, index) for index in pending
                ]

                def on_point(_item_index: int, result: dict[str, Any]) -> None:
                    index = result["index"]
                    _pause(stop, delay_s)
                    recomputed = index in stale
                    extra = {"recomputed": True} if recomputed else {}
                    journal.append(
                        "point",
                        index=index,
                        key=result["key"],
                        digest=result["sha256"],
                        **extra,
                    )
                    reducer.add(index, result["doc"])
                    action = "recomputed" if recomputed else "computed"
                    statuses[index] = PointStatus(
                        index,
                        points[index].label,
                        result["key"],
                        action,
                        result["sha256"],
                        warm=result["warm"],
                    )
                    say(
                        f"point {index} ({points[index].label}): {action}"
                        f"{' [warm]' if result['warm'] else ''}"
                    )

                try:
                    parallel_map(
                        _compute_point,
                        items,
                        n_workers=n_workers,
                        timeout_s=timeout_s,
                        on_result=on_point,
                    )
                except ChunkTimeout as exc:
                    hung = [pending[i] for i in exc.indices]
                    raise ChunkTimeout(hung, exc.timeout_s) from exc

            # -- assemble + persist the table, then close the journal -------
            _pause(stop, delay_s)
            table = reducer.table()
            payload = document_json(table).encode("utf-8")
            table_sha = _digest(payload)
            store.put_bytes(table_key(spec), payload, "json")
            if prior_end is None or prior_end.get("table_sha256") != table_sha:
                journal.append(
                    "sweep_end",
                    table_sha256=table_sha,
                    n_points=len(points),
                )
            say(f"sweep_end: table {table_sha[:12]}")
            return SweepRunReport(
                run_id=rid,
                sweep_key=skey,
                journal_path=str(path),
                resumed=resumed,
                truncated_tail=journal.truncated_tail,
                points=tuple(
                    statuses[p.index] for p in points
                ),
                table=table,
                table_sha256=table_sha,
            )
        finally:
            journal.close()


def load_sweep_table(
    spec: SweepSpec, store: Any
) -> tuple[dict[str, Any], bytes]:
    """The persisted sensitivity table ``(doc, payload)`` of ``spec``.

    Raises :class:`KeyError` when the sweep has not completed into this
    store (run ``repro sweep run`` first).
    """
    raw = store.get_bytes(table_key(spec))
    if raw is None:
        raise KeyError(
            f"no sensitivity table for sweep {spec.name!r} "
            f"(key {spec.key()}) in {store.root}; run `repro sweep run` first"
        )
    payload, _kind = raw
    return json.loads(payload.decode("utf-8")), payload


def sweep_status(spec: SweepSpec, store: Any, run_id: Optional[str] = None) -> SweepStatus:
    """Progress of a sweep's journal without touching any physics."""
    rid = run_id if run_id is not None else sweep_id_for(spec)
    path = journal_path(store, rid)
    if not Path(path).exists():
        return SweepStatus(
            run_id=rid,
            path=str(path),
            exists=False,
            sweep_key=spec.key(),
            n_points=spec.n_points,
            n_done=0,
            complete=False,
            torn_tail=False,
        )
    records, _valid, problems = read_journal(path)
    n_points = spec.n_points
    for rec in records:
        if rec.type == "sweep_start":
            n_points = int(rec.get("n_points", n_points))
            break
    indices = {
        rec.get("index") for rec in records if rec.type == "point"
    }
    return SweepStatus(
        run_id=rid,
        path=str(path),
        exists=True,
        sweep_key=spec.key(),
        n_points=n_points,
        n_done=len(indices),
        complete=any(rec.type == "sweep_end" for rec in records),
        torn_tail=bool(problems),
    )
