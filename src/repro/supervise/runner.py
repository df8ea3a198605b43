"""The supervised study runner behind ``python -m repro run``.

Executes the full figure pipeline of one scenario with a journaled
barrier after every stage, so the run can be killed at any instant and
resumed to a byte-identical result:

* stage ``dataset`` — the telemetry layers are simulated (or
  warm-loaded) and persisted into the artifact store;
* one stage per figure (:data:`repro.core.study.FIGURES`) — the figure
  is computed (or warm-loaded), persisted under its content address,
  and its canonical SHA-256 digest journaled;
* ``run_end`` — the full golden document (figures + scorecard +
  headline) is assembled and its digest journaled.

The ordering invariant that makes resume sound: a stage's artifact is
durable in the store (atomic write + fsync) *before* its journal
record commits.  A journaled stage therefore always has its artifact;
a crash between the two merely recomputes a stage whose artifact
happens to be warm already.  On resume, journaled digests are verified
against the store — any disagreement (corrupted or swapped artifact)
invalidates the artifact and recomputes the stage, appending a
corrective record.

Byte-identity of ``--resume`` vs a cold run is asserted by
``repro chaos-run`` at every journal barrier and locked by the golden
suite: the document produced here is exactly
:func:`repro.core.golden.golden_document`.

``REPRO_RUN_STAGE_DELAY_S`` (float, seconds) inserts a pause before
each barrier — a determinism-preserving throttle the interrupt tests
use to reliably signal a run mid-flight.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from repro.supervise.journal import (
    JOURNAL_VERSION,
    JournalError,
    RunJournal,
    read_journal,
)
from repro.supervise.signals import GracefulShutdown

__all__ = [
    "StageStatus",
    "RunReport",
    "RunSummary",
    "run_id_for",
    "journal_path",
    "list_runs",
    "document_json",
    "open_or_resume_journal",
    "run_study",
    "STAGE_DELAY_ENV",
]

#: Test/chaos hook: sleep this many seconds before every journal barrier.
STAGE_DELAY_ENV = "REPRO_RUN_STAGE_DELAY_S"

_DATASET_STAGE = "dataset"


@dataclass(frozen=True)
class StageStatus:
    """How one stage was satisfied during this invocation."""

    name: str
    #: ``computed`` (fresh work, journaled), ``verified`` (journaled
    #: earlier, digest re-checked against the store), or ``recomputed``
    #: (journal/store disagreed; stage redone and re-journaled).
    action: str
    digest: str = ""


@dataclass(frozen=True)
class RunReport:
    """The outcome of one supervised run (or resume)."""

    run_id: str
    dataset_key: str
    journal_path: str
    resumed: bool
    truncated_tail: bool
    stages: tuple[StageStatus, ...]
    document: dict[str, Any]
    document_sha256: str

    @property
    def n_computed(self) -> int:
        return sum(1 for s in self.stages if s.action != "verified")

    @property
    def n_verified(self) -> int:
        return sum(1 for s in self.stages if s.action == "verified")


@dataclass(frozen=True)
class RunSummary:
    """One journal's identity, for ``repro run --list-runs``."""

    run_id: str
    path: str
    n_records: int
    complete: bool
    torn_tail: bool


def run_id_for(scenario: Any) -> str:
    """The deterministic run id of a scenario: one run per dataset.

    Derived from the dataset's content address, so the same
    ``(scenario, seed, epoch)`` always maps to the same journal and
    ``--resume`` needs no bookkeeping; an epoch bump or scenario change
    gets a fresh journal automatically.
    """
    from repro.cache import dataset_key

    return f"run-{dataset_key(scenario)[:16]}"


def journal_path(store: Any, run_id: str) -> Path:
    """Where ``run_id``'s journal lives under the store root."""
    return Path(store.root) / "runs" / f"{run_id}.jsonl"


def list_runs(store: Any) -> list[RunSummary]:
    """Every study-run journal under the store, sorted by run id.

    Sweep journals share the directory but start with ``sweep_start``;
    they are skipped here (``repro sweep status`` reports them).
    """
    runs_dir = Path(store.root) / "runs"
    summaries: list[RunSummary] = []
    try:
        paths = sorted(runs_dir.glob("*.jsonl"))
    except OSError:
        return []
    for path in paths:
        records, _valid, problems = read_journal(path)
        if records and records[0].type == "sweep_start":
            continue
        summaries.append(
            RunSummary(
                run_id=path.stem,
                path=str(path),
                n_records=len(records),
                complete=any(r.type == "run_end" for r in records),
                torn_tail=bool(problems),
            )
        )
    return summaries


def document_json(document: dict[str, Any]) -> str:
    """The canonical serialized form of a run's golden document.

    Every writer (``--out``, the chaos sweep, the benchmark) uses this
    one serialization so "byte-identical" is a statement about files.
    """
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _document_sha256(document: dict[str, Any]) -> str:
    return hashlib.sha256(document_json(document).encode("utf-8")).hexdigest()


def _pause(stop: GracefulShutdown, delay_s: float) -> None:
    """Honor pending signals at a barrier; apply the test throttle."""
    stop.check()
    if delay_s > 0.0:
        time.sleep(delay_s)
        stop.check()


def _stage_delay() -> float:
    raw = os.environ.get(STAGE_DELAY_ENV, "").strip()
    try:
        return max(0.0, float(raw)) if raw else 0.0
    except ValueError:
        return 0.0


def run_study(
    scenario: Any,
    store: Any,
    *,
    resume: bool = False,
    run_id: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> RunReport:
    """Run (or resume) the supervised figure pipeline of ``scenario``.

    Raises :class:`~repro.supervise.signals.RunInterrupted` on a
    SIGINT/SIGTERM handled at a barrier, and lets journal write
    failures (e.g. ENOSPC) propagate — in both cases the journal on
    disk is a valid prefix and a later ``resume=True`` call completes
    the run.
    """
    from repro.cache import artifact_key, dataset_key, load_or_simulate
    from repro.cache.pipeline import DATASET_LAYERS, _layer_key
    from repro.chaos.procfault import injector_from_env
    from repro.core.golden import figure_digest, golden_document
    from repro.core.study import FIGURES, TitanStudy

    say = progress if progress is not None else lambda _msg: None
    dkey = dataset_key(scenario)
    rid = run_id if run_id is not None else run_id_for(scenario)
    path = journal_path(store, rid)
    hook = injector_from_env()
    delay_s = _stage_delay()

    with GracefulShutdown() as stop:
        journal, resumed = open_or_resume_journal(
            path,
            start_type="run_start",
            identity_field="dataset_key",
            identity=dkey,
            resume=resume,
            explicit_id=run_id is not None,
            fault_hook=hook,
        )
        try:
            if journal.next_seq == 0:
                from repro.cache.keys import PIPELINE_EPOCH, scenario_fingerprint

                journal.append(
                    "run_start",
                    run_id=rid,
                    dataset_key=dkey,
                    epoch=int(PIPELINE_EPOCH),
                    journal_version=JOURNAL_VERSION,
                    scenario={
                        "name": scenario.name,
                        "seed": int(scenario.seed),
                        "fingerprint": scenario_fingerprint(scenario),
                    },
                    figures=list(FIGURES),
                )
            done = {rec.get("name"): rec for rec in journal.of_type("stage")}
            prior_end = journal.last("run_end")
            stages: list[StageStatus] = []

            # -- stage: dataset (simulate or warm-load, persist) ------------
            _pause(stop, delay_s)
            dataset, warm = load_or_simulate(scenario, store)
            if _DATASET_STAGE not in done:
                journal.append(
                    "stage",
                    name=_DATASET_STAGE,
                    warm=bool(warm),
                    artifact_keys=[
                        _layer_key(dkey, layer) for layer, _ in DATASET_LAYERS
                    ],
                )
                dataset_action = "computed"
            else:
                dataset_action = "verified"
            stages.append(StageStatus(_DATASET_STAGE, dataset_action, dkey))
            say(f"dataset: {dataset_action} ({'warm' if warm else 'simulated'})")

            # -- figure stages ----------------------------------------------
            study = TitanStudy(dataset, store=store)
            for name in FIGURES:
                _pause(stop, delay_s)
                digest = figure_digest(study.figure(name))
                key = artifact_key(dkey, f"fig/{name}")
                record = done.get(name)
                if record is None:
                    journal.append(
                        "stage", name=name, artifact_key=key, digest=digest
                    )
                    action = "computed"
                elif record.get("digest") == digest:
                    action = "verified"
                else:
                    # The store's artifact no longer matches the journaled
                    # digest (corruption or a swapped store): drop it,
                    # recompute the pure stage, journal a corrective record.
                    study.invalidate(name)
                    digest = figure_digest(study.figure(name))
                    journal.append(
                        "stage",
                        name=name,
                        artifact_key=key,
                        digest=digest,
                        recomputed=True,
                    )
                    action = "recomputed"
                stages.append(StageStatus(name, action, digest))
                say(f"{name}: {action}")

            # -- run end: the full golden document --------------------------
            _pause(stop, delay_s)
            document = golden_document(study)
            doc_sha = _document_sha256(document)
            if prior_end is None or prior_end.get("document_sha256") != doc_sha:
                journal.append(
                    "run_end",
                    document_sha256=doc_sha,
                    n_figures=len(FIGURES),
                )
            say(f"run_end: document {doc_sha[:12]}")
            return RunReport(
                run_id=rid,
                dataset_key=dkey,
                journal_path=str(path),
                resumed=resumed,
                truncated_tail=journal.truncated_tail,
                stages=tuple(stages),
                document=document,
                document_sha256=doc_sha,
            )
        finally:
            journal.close()


def open_or_resume_journal(
    path: Path,
    *,
    start_type: str,
    identity_field: str,
    identity: str,
    resume: bool,
    explicit_id: bool,
    fault_hook: Any,
) -> tuple[RunJournal, bool]:
    """Open a run's journal: resume a valid one, else start fresh.

    A journal is resumable when its first record has ``start_type`` and
    carries ``identity`` under ``identity_field`` — the study runner
    matches on the dataset key, the sweep engine on the sweep key.
    Resume accepts an empty/missing/torn-headed journal by falling back
    to a fresh run (the chaos sweeps kill processes before the first
    record commits, and "resume" must still complete).  An *explicitly
    named* journal recorded for a different identity is a user error
    and raises; an auto-derived id encodes the identity, so for the
    default path a mismatch can only mean a stale file — start over.
    """
    if resume:
        journal = RunJournal.resume(path, fault_hook=fault_hook)
        start = journal.records[0] if journal.records else None
        if (
            start is not None
            and start.type == start_type
            and start.get(identity_field) == identity
        ):
            return journal, True
        journal.close()
        if start is not None and explicit_id:
            raise JournalError(
                f"journal {path} records run "
                f"{start.get('run_id')!r} with {identity_field} "
                f"{start.get(identity_field)!r}, not {identity!r}; refusing "
                "to resume a different run under an explicit --run-id"
            )
    return RunJournal.create(path, fault_hook=fault_hook), False
