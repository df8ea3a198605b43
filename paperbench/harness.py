"""Full-paper-scenario benchmark of the Titan reproduction pipeline.

Every workload runs ``Scenario.paper(seed)`` (18,688 GPUs, 21 months;
0.4-1.5M console lines depending on the seed, 1.23M at the golden seed)
in one process, through the public API with every call at its defaults.
An *op* is one timed unit of work:

* ``paper_cold`` -- simulate, render, parse, persist every dataset layer
  into a fresh :class:`~repro.cache.ArtifactStore`, then compute the 17
  figures, the Observation scorecard and the headline statistics: what a
  cold ``repro run`` does.
* ``paper_warm`` -- set-up persists the dataset once; the op warm-loads
  it with :func:`~repro.cache.load_or_simulate` and recomputes the
  analyses on a study opened with no store: the analyst loop.
* ``paper_chaos`` -- set-up corrupts the rendered console text once at a
  uniform 5% level; the op parses it with the default lenient parser
  (fallback and resync paths) and recomputes the analyses.

``BENCHMARK.json`` declares ``paper_warm`` and ``paper_chaos``;
``paper_cold`` runs on request only, because its 10-20 s ops leave too
few samples in one run for a steady figure.

The first op of a process pays imports, lazy memos and page faults, so
one warm-up op runs inside set-up and its cost lands in ``setup_s``.

End-to-end metrics (``--trace 0``) are normalized by input size, since
the seed moves the line count by a factor of ~3.5:

* ``lines_per_s`` -- console lines the op covers / median op seconds;
* ``rss_bytes_per_line`` -- peak RSS during the ops (the high-water mark
  is reset after set-up) above the RSS after import, per console line;
* ``setup_s`` -- process start (imports included) to the first measured
  op, warm-up op included;
* ``ok_ops`` -- share of measured ops that passed the correctness check;
* ``observations_ok`` -- Observation scorecard checks passing (fewest
  over the ops).

The ``summary:`` line before the result carries the raw figures: median
and tail op seconds (the highest percentile with ten samples beyond it,
never below the median), the op count and the peak RSS.

Correctness: after every op the study's
:func:`~repro.core.golden.golden_document` (figure digests, scorecard,
headline) must equal a reference.  At the golden scenario
(``tests/golden/paper.json``) the reference is that file; otherwise the
cold and warm workloads compare against the *other* path's document
(cold must equal warm), and ``paper_chaos`` against its warm-up op,
plus the :class:`~repro.telemetry.parser.ParseStats` partition
invariant.  Any mismatch, or an op that raises, is a failed op.

Spans are recorded from this file around each public call (see
:class:`Tracer`); ``repro.perf`` stages from inside the program are
copied into the traced report separately, as a second opinion.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro import perf
from repro.cache import ArtifactStore, load_or_simulate, persist_dataset
from repro.cache.keys import scenario_fingerprint
from repro.chaos.injector import ChaosConfig, CorruptionInjector
from repro.core.golden import golden_diff, golden_document
from repro.core.observations import headline_statistics, observation_scorecard
from repro.core.study import FIGURES, TitanStudy
from repro.sim import Scenario, TitanSimulation

__all__ = [
    "WORKLOADS",
    "END_TO_END",
    "PER_LAYER",
    "Tracer",
    "run",
]

#: Uniform line-corruption level of ``paper_chaos`` (5% of lines).
CHAOS_LEVEL = 0.05

#: Fewest measured ops per run (per kind -- traced and untraced -- in a
#: traced run), whatever ``--seconds`` says.
MIN_OPS = 2

#: Top-level spans of an op or set-up; ``study.<fig>`` spans nest
#: inside ``study.figures``.
TOP_SPANS = (
    "sim.run",
    "telemetry.render",
    "telemetry.parse",
    "telemetry.nvsmi",
    "telemetry.jobsnap",
    "cache.persist",
    "cache.load",
    "study.figures",
    "study.scorecard",
    "study.headline",
    "chaos.corrupt",
)
SPANS = TOP_SPANS + tuple(f"study.{name}" for name in FIGURES)

#: Layer counts an op or set-up reports.
COUNTS = (
    "sim.events",
    "sim.jobs",
    "telemetry.lines",
    "telemetry.parsed_ratio",
    "telemetry.rejected_lines",
    "telemetry.resynced_lines",
    "cache.persist_bytes",
    "cache.writes",
    "cache.hits",
    "cache.misses",
    "cache.hit_ratio",
    "chaos.corrupted_lines",
)

#: ``(name, unit)`` of every end-to-end metric (printed with ``--trace 0``).
END_TO_END = (
    ("lines_per_s", "lines/s"),
    ("rss_bytes_per_line", "B/line"),
    ("setup_s", "s"),
    ("ok_ops", "share"),
    ("observations_ok", "count"),
)

_COUNT_UNITS = {
    "telemetry.parsed_ratio": "share",
    "cache.hit_ratio": "share",
    "cache.persist_bytes": "B",
}

#: ``(name, unit)`` of every per-layer metric (printed with ``--trace 1``).
#: A layer's value comes from the steady ops; a layer the op never runs
#: reports its set-up figure instead (zero if set-up skips it too).
PER_LAYER = (
    tuple((f"{span}_s", "s") for span in SPANS)
    + tuple((name, _COUNT_UNITS.get(name, "count")) for name in COUNTS)
    + (("trace.unattributed_s", "s"), ("trace.overhead_s", "s"))
)


# -- tracing ------------------------------------------------------------------


def maxrss_mib() -> float:
    """The process's resident-set high-water mark (``ru_maxrss``), MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reset_peak_rss() -> bool:
    """Reset the high-water mark to the current RSS (Linux >= 4.0).

    Returns ``False`` where ``/proc/self/clear_refs`` is unavailable; the
    peak then still includes set-up.
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        return False
    return True


@dataclass
class SpanStat:
    """Accumulated cost of one span name within one op (or set-up)."""

    seconds: float = 0.0
    self_s: float = 0.0
    calls: int = 0
    maxrss_mib: float = 0.0


class Tracer:
    """Spans the benchmark records around its calls into each layer.

    Disabled, :meth:`span` only yields.  Enabled, each span adds its wall
    seconds, its self time (minus nested spans) and the ``ru_maxrss``
    reading at its end to :attr:`stats`; :attr:`top_level_s` sums the
    outermost spans, so ``op time - top_level_s`` is unattributed time.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.stats: dict[str, SpanStat] = {}
        self.top_level_s = 0.0
        self._child_s: list[float] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        self._child_s.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - t0
            children = self._child_s.pop()
            stat = self.stats.setdefault(name, SpanStat())
            stat.seconds += seconds
            stat.self_s += seconds - children
            stat.calls += 1
            stat.maxrss_mib = max(stat.maxrss_mib, maxrss_mib())
            if self._child_s:
                self._child_s[-1] += seconds
            else:
                self.top_level_s += seconds

    def seconds(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat.seconds if stat is not None else 0.0

    def report(self) -> dict[str, dict[str, float]]:
        return {name: asdict(stat) for name, stat in sorted(self.stats.items())}


# -- workloads ----------------------------------------------------------------


@dataclass
class OpOutcome:
    """What one op produced: the study to check and its layer counts."""

    study: TitanStudy
    lines: int
    counts: dict[str, float]
    scratch: Path | None = None


def analyse(study: TitanStudy, tr: Tracer) -> None:
    """The analyses every op ends with: 17 figures, scorecard, headline."""
    with tr.span("study.figures"):
        for name in FIGURES:
            with tr.span(f"study.{name}"):
                study.figure(name)
    with tr.span("study.scorecard"):
        observation_scorecard(study)
    with tr.span("study.headline"):
        headline_statistics(study)


def parse_counts(dataset: Any) -> dict[str, float]:
    stats = dataset.parse_stats
    return {
        "telemetry.parsed_ratio": stats.parsed_events / max(stats.total_lines, 1),
        "telemetry.rejected_lines": stats.malformed_lines + stats.unknown_xid_lines,
        "telemetry.resynced_lines": stats.resynced_lines,
    }


def store_writes(store: ArtifactStore) -> dict[str, float]:
    """What has been written to a freshly opened store."""
    return {
        "cache.persist_bytes": store.total_bytes(),
        "cache.writes": store.stats.writes,
    }


def store_reads(store: ArtifactStore, before: dict[str, int]) -> dict[str, float]:
    """Lookups since ``before`` (a ``store.stats.as_dict()`` snapshot)."""
    hits = store.stats.hits - before["hits"]
    misses = store.stats.misses - before["misses"]
    return {
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


def sim_counts(dataset: Any, rendered_lines: int) -> dict[str, float]:
    return {
        "sim.events": len(dataset.injection.events),
        "sim.jobs": len(dataset.trace),
        "telemetry.lines": rendered_lines,
    }


def render_and_parse(dataset: Any, tr: Tracer) -> None:
    """Materialize the observable layers of a simulated dataset."""
    with tr.span("telemetry.render"):
        dataset.console_text
    with tr.span("telemetry.parse"):
        dataset.parsed_events
    with tr.span("telemetry.nvsmi"):
        dataset.nvsmi_table
    with tr.span("telemetry.jobsnap"):
        dataset.jobsnap_records


class Workload:
    """Set-up, op and correctness reference of one benchmark workload."""

    name = ""

    def __init__(self, scenario: Scenario, workdir: Path, golden: dict | None):
        self.scenario = scenario
        self.workdir = workdir
        self.golden = golden
        self.ref: dict | None = None
        #: Input size: clean console lines, ground-truth events, jobs.
        self.sizes: dict[str, int] = {}
        #: Layer counts of set-up, for layers the op does not run.
        self.setup_counts: dict[str, float] = {}

    def setup(self, tr: Tracer) -> None:
        """Work done once per process, before the warm-up op."""

    def op(self, tr: Tracer) -> OpOutcome:
        raise NotImplementedError

    def reference(self, first: OpOutcome) -> dict:
        """The document every op must reproduce (``first`` is the warm-up)."""
        raise NotImplementedError

    def check(self, outcome: OpOutcome, doc: dict) -> list[str]:
        """Mismatches of one op's golden document against the reference."""
        assert self.ref is not None
        return golden_diff(self.ref, doc)

    def _record_sizes(self, dataset: Any) -> None:
        self.sizes = {
            "console_lines": dataset.parse_stats.total_lines,
            "ground_truth_events": len(dataset.injection.events),
            "jobs": len(dataset.trace),
        }


class PaperCold(Workload):
    """Simulate -> render -> parse -> persist -> analyse, from nothing."""

    name = "paper_cold"

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self._n_ops = 0

    def op(self, tr: Tracer) -> OpOutcome:
        scratch = self.workdir / f"cold-{self._n_ops}"
        self._n_ops += 1
        with tr.span("sim.run"):
            dataset = TitanSimulation(self.scenario).run()
        render_and_parse(dataset, tr)
        with tr.span("cache.persist"):
            store = ArtifactStore(scratch)
            persist_dataset(store, dataset)
        study = TitanStudy(dataset)
        analyse(study, tr)
        lines = dataset.parse_stats.total_lines
        counts = {
            **sim_counts(dataset, lines),
            **parse_counts(dataset),
            **store_writes(store),
        }
        if not self.sizes:
            self._record_sizes(dataset)
        return OpOutcome(study, lines, counts, scratch)

    def reference(self, first: OpOutcome) -> dict:
        if self.golden is not None:
            return self.golden
        assert first.scratch is not None
        warm, hit = load_or_simulate(self.scenario, ArtifactStore(first.scratch))
        if not hit:
            raise RuntimeError("the cold op's store did not load warm")
        return golden_document(TitanStudy(warm))


class PaperWarm(Workload):
    """Warm-load the persisted dataset, then recompute the analyses."""

    name = "paper_warm"

    def setup(self, tr: Tracer) -> None:
        with tr.span("sim.run"):
            dataset = TitanSimulation(self.scenario).run()
        render_and_parse(dataset, tr)
        self.store = ArtifactStore(self.workdir / "warm")
        with tr.span("cache.persist"):
            persist_dataset(self.store, dataset)
        self._record_sizes(dataset)
        self.setup_counts = {
            **sim_counts(dataset, dataset.parse_stats.total_lines),
            **parse_counts(dataset),
            **store_writes(self.store),
        }
        if self.golden is None:
            # Cold must equal warm: the cold study is the reference.
            self.ref = golden_document(TitanStudy(dataset))

    def op(self, tr: Tracer) -> OpOutcome:
        before = self.store.stats.as_dict()
        with tr.span("cache.load"):
            dataset, hit = load_or_simulate(self.scenario, self.store)
        if not hit:
            raise RuntimeError("warm load missed the persisted dataset")
        study = TitanStudy(dataset)
        analyse(study, tr)
        counts = {**parse_counts(dataset), **store_reads(self.store, before)}
        return OpOutcome(study, dataset.parse_stats.total_lines, counts)

    def reference(self, first: OpOutcome) -> dict:
        return self.golden if self.golden is not None else self.ref


class PaperChaos(Workload):
    """Parse a 5%-corrupted console log, then recompute the analyses."""

    name = "paper_chaos"

    def setup(self, tr: Tracer) -> None:
        with tr.span("sim.run"):
            dataset = TitanSimulation(self.scenario).run()
        with tr.span("telemetry.render"):
            text = dataset.console_text
        injector = CorruptionInjector(
            ChaosConfig.uniform(CHAOS_LEVEL), seed=chaos_seed(self.scenario.seed)
        )
        with tr.span("chaos.corrupt"):
            corrupted = injector.corrupt_text(text)
        self.sizes = {
            "console_lines": corrupted.n_lines_out,
            "ground_truth_events": len(dataset.injection.events),
            "jobs": len(dataset.trace),
        }
        self.setup_counts = {
            **sim_counts(dataset, corrupted.n_lines_in),
            "chaos.corrupted_lines": corrupted.total_corrupted,
        }
        # Keep only the corrupted stream resident; every op parses a
        # fresh copy of this dataset.
        self.base = dataset.with_console_text(corrupted.text)

    def op(self, tr: Tracer) -> OpOutcome:
        dataset = self.base.with_console_text(self.base.console_text)
        with tr.span("telemetry.parse"):
            dataset.parsed_events
        with tr.span("telemetry.nvsmi"):
            dataset.nvsmi_table
        with tr.span("telemetry.jobsnap"):
            dataset.jobsnap_records
        study = TitanStudy(dataset)
        analyse(study, tr)
        return OpOutcome(study, dataset.parse_stats.total_lines, parse_counts(dataset))

    def reference(self, first: OpOutcome) -> dict:
        return golden_document(first.study)

    def check(self, outcome: OpOutcome, doc: dict) -> list[str]:
        problems = super().check(outcome, doc)
        stats = outcome.study.ds.parse_stats
        if stats.accounted != stats.total_lines:
            problems.append(
                f"ParseStats partition broken: {stats.accounted} accounted "
                f"!= {stats.total_lines} lines"
            )
        if len(outcome.study.ds.parsed_events) != stats.parsed_events:
            problems.append("parsed log length != ParseStats.parsed_events")
        return problems


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PaperCold, PaperWarm, PaperChaos)
}


def chaos_seed(seed: int) -> int:
    """Corruption seed of ``paper_chaos``, derived from the workload seed."""
    return int(seed) + 1


# -- run context --------------------------------------------------------------


def golden_for(scenario: Scenario, root: Path) -> dict | None:
    """The committed golden document when it describes ``scenario``."""
    doc = json.loads((root / "tests" / "golden" / "paper.json").read_text())
    identity = {
        "name": scenario.name,
        "seed": int(scenario.seed),
        "fingerprint": scenario_fingerprint(scenario),
    }
    return doc if doc.get("scenario") == identity else None


def source_digest(root: Path) -> str:
    """SHA-256 over ``src/repro``'s Python files (the checkout may not be
    a git repository, so this identifies the code either way)."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> str | None:
    """HEAD's hash when ``root`` is a git work tree, else ``None``."""
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_context(root: Path, wl: Workload, peak_reset: bool) -> dict[str, Any]:
    return {
        "workload": wl.name,
        "seed": int(wl.scenario.seed),
        "scenario": wl.scenario.name,
        "input": wl.sizes,
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "peak_rss_reset": peak_reset,
    }


# -- the measurement ----------------------------------------------------------


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it (p50 floor:
    with 20 or fewer samples the tail is the median)."""
    return max(50.0, 100.0 * (1.0 - 10.0 / n))


def _median(values: list[float]) -> float:
    return float(np.median(values)) if values else 0.0


def _log(message: str) -> None:
    print(f"paperbench: {message}", file=sys.stderr, flush=True)


@dataclass
class _Op:
    seconds: float
    traced: bool
    ok: bool
    lines: int = 0
    observations_ok: int = 0
    tracer: Tracer | None = None
    counts: dict[str, float] = field(default_factory=dict)
    program: dict[str, object] = field(default_factory=dict)


def _program_stages(traced: bool, fn: Any, *args: Any) -> dict[str, object]:
    """Call ``fn(*args)``; when traced, under ``repro.perf``, returning
    its snapshot (``{}`` untraced)."""
    if not traced:
        fn(*args)
        return {}
    perf.reset()
    perf.enable()
    try:
        fn(*args)
    finally:
        perf.disable()
    return perf.snapshot()


def _timed_op(wl: Workload, traced: bool) -> tuple[_Op, OpOutcome | None]:
    """Run one op (``repro.perf`` on when traced); never raises."""
    tr = Tracer(traced)
    gc.collect()
    if traced:
        perf.reset()
        perf.enable()
    t0 = time.perf_counter()
    try:
        outcome = wl.op(tr)
    except Exception:  # a raising op is a failed op; keep measuring
        _log(f"op raised:\n{traceback.format_exc()}")
        return _Op(time.perf_counter() - t0, traced, ok=False, tracer=tr), None
    finally:
        if traced:
            perf.disable()
    seconds = time.perf_counter() - t0
    _log(f"{wl.name}: op {seconds:.3f} s")
    record = _Op(
        seconds,
        traced,
        ok=True,
        lines=outcome.lines,
        tracer=tr,
        counts=outcome.counts,
        program=perf.snapshot() if traced else {},
    )
    return record, outcome


def _check(wl: Workload, record: _Op, outcome: OpOutcome | None) -> None:
    """Fill ``record.ok``/``observations_ok`` and release the op's output."""
    if outcome is None:
        return
    try:
        doc = golden_document(outcome.study)
        problems = wl.check(outcome, doc)
        record.observations_ok = sum(1 for check in doc["scorecard"] if check["ok"])
    finally:
        if outcome.scratch is not None:
            shutil.rmtree(outcome.scratch, ignore_errors=True)
    if problems:
        record.ok = False
        _log(f"{wl.name}: op failed the correctness check:\n  " + "\n  ".join(problems))


def _layer_metrics(
    steady: list[_Op], untraced: list[_Op], setup_tr: Tracer, wl: Workload
) -> dict[str, float]:
    """Per-layer values: steady-op medians, else the set-up figure."""
    values: dict[str, float] = {}
    for span in SPANS:
        if any(span in op.tracer.stats for op in steady):
            value = _median([op.tracer.seconds(span) for op in steady])
        else:
            value = setup_tr.seconds(span)
        values[f"{span}_s"] = value
    for name in COUNTS:
        if any(name in op.counts for op in steady):
            value = _median([float(op.counts.get(name, 0)) for op in steady])
        else:
            value = float(wl.setup_counts.get(name, 0))
        values[name] = value
    values["trace.unattributed_s"] = _median(
        [op.seconds - op.tracer.top_level_s for op in steady]
    )
    values["trace.overhead_s"] = _median([op.seconds for op in steady]) - _median(
        [op.seconds for op in untraced]
    )
    return values


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    root: Path,
    t_start: float,
    scenario: Scenario | None = None,
    out_dir: Path | None = None,
) -> dict[str, Any]:
    """Set up, warm up and measure one workload; returns the result object.

    ``root`` is the checkout the program and golden file are read from;
    stores and trace reports go under ``out_dir`` (default
    ``<root>/.paperbench``).  ``scenario`` overrides
    ``Scenario.paper(seed)`` (the tests use a tiny one).  A traced run
    alternates untraced and traced ops and writes a trace report.
    """
    sc = scenario if scenario is not None else Scenario.paper(seed)
    out_dir = out_dir if out_dir is not None else root / ".paperbench"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    base_mib = maxrss_mib()
    try:
        wl = WORKLOADS[workload](sc, workdir, golden_for(sc, root))
        setup_tr = Tracer(trace)
        setup_program = _program_stages(trace, wl.setup, setup_tr)
        warmup, first = _timed_op(wl, trace)
        if first is None:
            raise RuntimeError("the warm-up op raised")
        wl.ref = wl.reference(first)
        _check(wl, warmup, first)
        del first
        gc.collect()
        peak_reset = reset_peak_rss()
        setup_s = time.perf_counter() - t_start

        ops: list[_Op] = []
        t_measure = time.perf_counter()
        while True:
            traced = trace and len(ops) % 2 == 1
            record, outcome = _timed_op(wl, traced)
            _check(wl, record, outcome)
            del outcome
            ops.append(record)
            n_traced = sum(1 for op in ops if op.traced)
            done = len(ops) - n_traced >= MIN_OPS and (
                not trace or n_traced >= MIN_OPS
            )
            elapsed = time.perf_counter() - t_measure
            if done and elapsed + _median([op.seconds for op in ops]) > seconds:
                break
        peak_mib = maxrss_mib()
        context = run_context(root, wl, peak_reset)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [op for op in ops if not op.traced]
    times = [op.seconds for op in untraced]
    lines = _median([float(op.lines) for op in untraced])
    n = len(times)
    op_s = _median(times)
    tail_p = tail_percentile(n)
    op_s_tail = float(np.percentile(times, tail_p))
    failed = sum(1 for op in ops if not op.ok)
    observations = min(op.observations_ok for op in ops)
    correct = failed == 0 and warmup.ok
    summary = {
        "ops": n,
        "op_s": op_s,
        "op_s_tail": op_s_tail,
        "tail_percentile": tail_p,
        "op_s_all": times,
        "lines": lines,
        "peak_rss_mib": peak_mib,
        "base_rss_mib": base_mib,
        "warmup_op_s": warmup.seconds,
    }
    if trace:
        steady = [op for op in ops if op.traced]
        values = _layer_metrics(steady, untraced, setup_tr, wl)
        units = dict(PER_LAYER)
        _write_trace_report(
            out_dir,
            context,
            summary,
            values,
            {"seconds": setup_s, "spans": setup_tr.report(), "program": setup_program},
            warmup,
            steady,
        )
    else:
        values = {
            "lines_per_s": lines / op_s,
            "rss_bytes_per_line": (peak_mib - base_mib) * 2**20 / lines,
            "setup_s": setup_s,
            "ok_ops": (len(ops) - failed) / len(ops),
            "observations_ok": float(observations),
        }
        units = dict(END_TO_END)
    print("context: " + json.dumps(context, sort_keys=True))
    print("summary: " + json.dumps(summary, sort_keys=True))
    return {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }


def _write_trace_report(
    out_dir: Path,
    context: dict[str, Any],
    summary: dict[str, Any],
    values: dict[str, float],
    setup: dict[str, Any],
    warmup: _Op,
    steady: list[_Op],
) -> Path:
    """One machine-readable file per traced run."""
    def op_doc(op: _Op) -> dict[str, Any]:
        assert op.tracer is not None
        return {
            "seconds": op.seconds,
            "unattributed_s": op.seconds - op.tracer.top_level_s,
            "spans": op.tracer.report(),
            "counts": op.counts,
        }

    doc = {
        "context": context,
        "summary": summary,
        "per_layer": values,
        "setup": {"seconds": setup["seconds"], "spans": setup["spans"]},
        "warmup_op": op_doc(warmup),
        "steady_ops": [op_doc(op) for op in steady],
        "program_stages": {
            "source": "repro.perf.snapshot() recorded inside the program; "
            "the spans above, recorded around each public call, are the "
            "source of truth",
            "setup": setup["program"],
            "warmup_op": warmup.program,
            "steady_ops": [op.program for op in steady],
        },
    }
    trace_dir = out_dir / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = trace_dir / f"{context['workload']}-seed{context['seed']}-{stamp}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"trace report: {path}")
    return path
