"""The journaled-run protocol behind ``repro run`` and ``repro sweep run``.

A journaled run is a sequence of *units* — the study's dataset and
figure stages (:func:`run_study`), or a sweep's grid points
(:func:`repro.sweep.engine.run_sweep`) — with one journal barrier
(:mod:`repro.supervise.journal`) per unit.  :class:`JournaledRun` owns
the protocol both share; only the record names differ
(``_VOCABULARIES``).

The ordering invariant that makes resume sound: a unit's artifact is
durable in the store (atomic write + fsync) *before* its journal
record commits.  A journaled unit therefore always has its artifact; a
crash between the two merely recomputes a unit whose artifact happens
to be warm already.  On resume, the caller verifies each journaled
unit against the store — any disagreement (corrupted or swapped
artifact) recomputes the unit and commits a corrective ``recomputed``
record.  The end record seals the digest of the canonical output
document (:func:`document_json`).

Byte-identity of ``--resume`` vs a cold run is asserted by
``repro chaos-run`` at every journal barrier and locked by the golden
suite: the document :func:`run_study` produces is exactly
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
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Hashable, NamedTuple, Optional, Sequence

from repro.supervise.journal import (
    JOURNAL_VERSION,
    JournalError,
    RunJournal,
    read_journal,
)
from repro.supervise.signals import GracefulShutdown

__all__ = [
    "UnitStatus",
    "RunReport",
    "RunSummary",
    "JournaledRun",
    "run_id_for",
    "journal_path",
    "summarize_journal",
    "list_runs",
    "document_json",
    "run_study",
    "STAGE_DELAY_ENV",
]

#: Test/chaos hook: sleep this many seconds before every journal barrier.
STAGE_DELAY_ENV = "REPRO_RUN_STAGE_DELAY_S"

_DATASET_STAGE = "dataset"


class _Vocabulary(NamedTuple):
    """The record names of one kind of journaled run: the start record
    and its identity-key field, the unit record and its unit-id field,
    the end record and its field sealing the document's SHA-256."""

    start: str
    identity: str
    unit: str
    unit_id: str
    end: str
    sealed: str


_VOCABULARIES = {
    "run": _Vocabulary("run_start", "dataset_key", "stage", "name",
                       "run_end", "document_sha256"),
    "sweep": _Vocabulary("sweep_start", "sweep_key", "point", "index",
                         "sweep_end", "table_sha256"),
}


@dataclass(frozen=True)
class UnitStatus:
    """How one unit (a stage or a grid point) was satisfied."""

    name: str
    #: ``computed`` (fresh work, journaled), ``verified`` (journaled
    #: earlier, digest re-checked against the store), or ``recomputed``
    #: (journal/store disagreed; unit redone and re-journaled).
    action: str
    digest: str = ""
    #: The unit's artifact was already warm in the store.
    warm: bool = False


@dataclass(frozen=True)
class RunReport:
    """The outcome of one journaled run (or resume)."""

    run_id: str
    #: The identity key: the dataset key of a study run, the spec key
    #: of a sweep.
    key: str
    journal_path: str
    resumed: bool
    truncated_tail: bool
    units: tuple[UnitStatus, ...]
    document: dict[str, Any]
    document_sha256: str

    @property
    def n_computed(self) -> int:
        return sum(1 for u in self.units if u.action != "verified")

    @property
    def n_verified(self) -> int:
        return sum(1 for u in self.units if u.action == "verified")


@dataclass(frozen=True)
class RunSummary:
    """One journal's progress, for ``--list-runs`` and ``sweep status``."""

    run_id: str
    path: str
    kind: str
    n_records: int
    n_units: int
    complete: bool
    torn_tail: bool


def journal_path(store: Any, run_id: str) -> Path:
    """Where ``run_id``'s journal lives under the store root."""
    return Path(store.root) / "runs" / f"{run_id}.jsonl"


def document_json(document: dict[str, Any]) -> str:
    """The canonical serialized form of a run's output document.

    Every writer (``--out``, the chaos harness, the benchmark, the
    sweep's table artifact) uses this one serialization so
    "byte-identical" is a statement about files.
    """
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _stage_delay() -> float:
    raw = os.environ.get(STAGE_DELAY_ENV, "").strip()
    try:
        return max(0.0, float(raw)) if raw else 0.0
    except ValueError:
        return 0.0


class JournaledRun:
    """One journaled run, opened (or resumed) as a context manager.

    Entering installs :class:`GracefulShutdown`, opens the journal at
    ``runs/<run_id>.jsonl`` under the store and, on a fresh journal,
    commits the start record: ``run_id``, the identity ``key``, the
    pipeline epoch, the journal version and the caller's ``start``
    payload.  With ``resume``, a journal whose start record carries
    ``key`` is resumed; an empty, missing or torn-headed one falls back
    to a fresh run (the chaos harness kills processes before the first
    record commits, and "resume" must still complete).  A journal
    recorded for another key is refused under an explicit ``run_id``
    (:class:`JournalError`) and replaced under the derived one, which
    encodes the key — a mismatch there can only mean a stale file.

    Inside, :attr:`done` maps each journaled unit id to its latest
    record; :meth:`barrier` precedes each unit, :meth:`commit` journals
    it once its artifact is durable, and :meth:`finish` seals the
    output document.
    """

    def __init__(
        self,
        kind: str,
        store: Any,
        key: str,
        *,
        run_id: Optional[str],
        resume: bool,
        start: dict[str, Any],
    ) -> None:
        self._vocab = _VOCABULARIES[kind]
        self.key = key
        self.run_id = (
            run_id if run_id is not None else self.derived_id(kind, key)
        )
        self.path = journal_path(store, self.run_id)
        self._explicit_id = run_id is not None
        self._resume = resume
        self._start = start
        self._stop = GracefulShutdown()
        self._delay_s = _stage_delay()
        self.resumed = False

    @staticmethod
    def derived_id(kind: str, key: str) -> str:
        """The run id without ``--run-id``: one journal per input key."""
        return f"{kind}-{key[:16]}"

    def __enter__(self) -> "JournaledRun":
        from repro.cache.keys import PIPELINE_EPOCH
        from repro.chaos.procfault import injector_from_env

        vocab = self._vocab
        with ExitStack() as stack:
            stack.enter_context(self._stop)
            hook = injector_from_env()
            if self._resume:
                journal = RunJournal.resume(self.path, fault_hook=hook)
                first = journal.records[0] if journal.records else None
                self.resumed = (
                    first is not None
                    and first.type == vocab.start
                    and first.get(vocab.identity) == self.key
                )
                if not self.resumed:
                    journal.close()
                    if first is not None and self._explicit_id:
                        raise JournalError(
                            f"journal {self.path} records run "
                            f"{first.get('run_id')!r} with {vocab.identity} "
                            f"{first.get(vocab.identity)!r}, not "
                            f"{self.key!r}; refusing to resume a different "
                            "run under an explicit --run-id"
                        )
            if not self.resumed:
                journal = RunJournal.create(self.path, fault_hook=hook)
            stack.callback(journal.close)
            if journal.next_seq == 0:
                journal.append(
                    vocab.start,
                    run_id=self.run_id,
                    epoch=int(PIPELINE_EPOCH),
                    journal_version=JOURNAL_VERSION,
                    **{vocab.identity: self.key},
                    **self._start,
                )
            self._exit = stack.pop_all()
        self._journal = journal
        self.done: dict[Hashable, Any] = {
            record.get(vocab.unit_id): record
            for record in journal.of_type(vocab.unit)
        }
        return self

    def __exit__(self, *_exc: Any) -> None:
        self._exit.close()

    def barrier(self) -> None:
        """Honor a pending SIGINT/SIGTERM; apply the test throttle."""
        self._stop.check()
        if self._delay_s > 0.0:
            time.sleep(self._delay_s)
            self._stop.check()

    def commit(self, unit_id: Hashable, **payload: Any) -> str:
        """Journal one unit whose artifact is durable; returns its action.

        A unit already in :attr:`done` is being corrected, so its new
        record carries ``recomputed: true`` (action ``recomputed``).
        """
        recomputed = unit_id in self.done
        extra = {"recomputed": True} if recomputed else {}
        self._journal.append(
            self._vocab.unit,
            **{self._vocab.unit_id: unit_id},
            **payload,
            **extra,
        )
        return "recomputed" if recomputed else "computed"

    def finish(
        self,
        document: dict[str, Any],
        units: Sequence[UnitStatus],
        **end: Any,
    ) -> RunReport:
        """Seal ``document`` with the end record and report the run.

        The end record (with the caller's ``end`` payload) is skipped
        when the journal already seals this very digest.
        """
        digest = hashlib.sha256(
            document_json(document).encode("utf-8")
        ).hexdigest()
        vocab = self._vocab
        prior = self._journal.last(vocab.end)
        if prior is None or prior.get(vocab.sealed) != digest:
            self._journal.append(vocab.end, **{vocab.sealed: digest}, **end)
        return RunReport(
            run_id=self.run_id,
            key=self.key,
            journal_path=str(self.path),
            resumed=self.resumed,
            truncated_tail=self._journal.truncated_tail,
            units=tuple(units),
            document=document,
            document_sha256=digest,
        )


def summarize_journal(path: str | Path) -> Optional[RunSummary]:
    """The progress recorded in the journal at ``path``, or ``None``
    when there is no journal there.

    A journal is a sweep's when it starts with ``sweep_start``, else a
    study run's (an empty or torn-headed journal reads as a run).
    """
    path = Path(path)
    if not path.exists():
        return None
    records, _valid, problems = read_journal(path)
    sweep = records and records[0].type == _VOCABULARIES["sweep"].start
    kind = "sweep" if sweep else "run"
    vocab = _VOCABULARIES[kind]
    return RunSummary(
        run_id=path.stem,
        path=str(path),
        kind=kind,
        n_records=len(records),
        n_units=len(
            {r.get(vocab.unit_id) for r in records if r.type == vocab.unit}
        ),
        complete=any(r.type == vocab.end for r in records),
        torn_tail=bool(problems),
    )


def list_runs(store: Any) -> list[RunSummary]:
    """Every study-run journal under the store, sorted by run id.

    Sweep journals share the directory; ``repro sweep status`` reports
    them.
    """
    paths = sorted((Path(store.root) / "runs").glob("*.jsonl"))
    summaries = [summarize_journal(path) for path in paths]
    return [s for s in summaries if s is not None and s.kind == "run"]


def run_id_for(scenario: Any) -> str:
    """The deterministic run id of a scenario: one run per dataset, so
    ``--resume`` needs no bookkeeping and an epoch bump or scenario
    change gets a fresh journal automatically."""
    from repro.cache import dataset_key

    return JournaledRun.derived_id("run", dataset_key(scenario))


def run_study(
    scenario: Any,
    store: Any,
    *,
    resume: bool = False,
    run_id: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> RunReport:
    """Run (or resume) the supervised figure pipeline of ``scenario``.

    Units: stage ``dataset`` (the telemetry layers simulated or
    warm-loaded, persisted into the store), then one stage per figure
    (:data:`repro.core.study.FIGURES`: computed or warm-loaded,
    persisted under its content address, its canonical digest
    journaled); the end record seals the full golden document (figures
    + scorecard + headline).

    Raises :class:`~repro.supervise.signals.RunInterrupted` on a
    SIGINT/SIGTERM handled at a barrier, and lets journal write
    failures (e.g. ENOSPC) propagate — in both cases the journal on
    disk is a valid prefix and a later ``resume=True`` call completes
    the run.
    """
    from repro.cache import artifact_key, dataset_key, load_or_simulate
    from repro.cache.keys import scenario_fingerprint
    from repro.cache.pipeline import DATASET_LAYERS, _layer_key
    from repro.core.golden import figure_digest, golden_document
    from repro.core.study import FIGURES, TitanStudy

    say = progress if progress is not None else lambda _msg: None
    dkey = dataset_key(scenario)
    start = {
        "scenario": {
            "name": scenario.name,
            "seed": int(scenario.seed),
            "fingerprint": scenario_fingerprint(scenario),
        },
        "figures": list(FIGURES),
    }
    with JournaledRun(
        "run", store, dkey, run_id=run_id, resume=resume, start=start
    ) as session:
        units: list[UnitStatus] = []

        # -- stage: dataset (simulate or warm-load, persist) ----------------
        session.barrier()
        dataset, warm = load_or_simulate(scenario, store)
        if _DATASET_STAGE in session.done:
            action = "verified"
        else:
            action = session.commit(
                _DATASET_STAGE,
                warm=bool(warm),
                artifact_keys=[
                    _layer_key(dkey, layer) for layer, _ in DATASET_LAYERS
                ],
            )
        units.append(UnitStatus(_DATASET_STAGE, action, dkey, bool(warm)))
        say(f"dataset: {action} ({'warm' if warm else 'simulated'})")

        # -- figure stages --------------------------------------------------
        study = TitanStudy(dataset, store=store)
        for name in FIGURES:
            session.barrier()
            digest = figure_digest(study.figure(name))
            record = session.done.get(name)
            if record is not None and record.get("digest") == digest:
                action = "verified"
            else:
                if record is not None:
                    # The store's artifact no longer matches the
                    # journaled digest (corruption or a swapped store):
                    # drop it and recompute the pure stage.
                    study.invalidate(name)
                    digest = figure_digest(study.figure(name))
                action = session.commit(
                    name,
                    artifact_key=artifact_key(dkey, f"fig/{name}"),
                    digest=digest,
                )
            units.append(UnitStatus(name, action, digest))
            say(f"{name}: {action}")

        # -- run end: the full golden document ------------------------------
        session.barrier()
        report = session.finish(
            golden_document(study), units, n_figures=len(FIGURES)
        )
    say(f"run_end: document {report.document_sha256[:12]}")
    return report
