"""Crash-safety tests for :mod:`repro.supervise` and the process chaos
harness.

Three layers, matching how the machinery fails in the field:

* unit tests of the journal's durability contract (checksummed records,
  torn-tail truncation), the fault plans and the graceful-shutdown
  guard — all in-process and cheap;
* in-process runner tests: cold == resume byte-identity, corrupt
  artifacts recomputed, explicit run-id mismatches refused, run
  listing;
* subprocess tests: a real ``python -m repro run`` SIGINT/SIGTERMed
  mid-flight (exit 130/143, valid journal, no staging debris, clean
  resume) and a small ``chaos-run`` sweep — SIGKILL, torn write and
  ENOSPC at real journal barriers — asserting byte-identical recovery.
  CI runs the full every-barrier sweep; here a representative subset
  keeps the suite fast.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cache import ArtifactStore, artifact_key, dataset_key
from repro.chaos.procfault import (
    FAULT_MODES,
    PROCFAULT_ENV,
    FaultPlan,
    ProcessFaultInjector,
    plan_from_env,
)
from repro.core.study import FIGURES
from repro.sim import Scenario
from repro.supervise import (
    GracefulShutdown,
    JournalError,
    RunInterrupted,
    RunJournal,
    read_journal,
)
from repro.supervise.chaosrun import run_fault_sweep
from repro.supervise.runner import (
    STAGE_DELAY_ENV,
    document_json,
    journal_path,
    list_runs,
    run_id_for,
    run_study,
)
from repro.supervise.signals import interrupt_exit_code
from repro.supervise.watchdog import ChunkWatch, mark_started

_SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)


def _tiny_scenario(seed: int = 7) -> Scenario:
    return Scenario.smoke(seed=seed, days=3.0)


def _cli_env(**extra: str) -> dict:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        _SRC_DIR if not existing else _SRC_DIR + os.pathsep + existing
    )
    env.pop("REPRO_CACHE_DIR", None)
    env.pop(PROCFAULT_ENV, None)
    env.pop(STAGE_DELAY_ENV, None)
    env.update(extra)
    return env


# ---------------------------------------------------------------------------
# journal
# ---------------------------------------------------------------------------


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal.create(path) as journal:
            journal.append("run_start", run_id="r", dataset_key="d")
            journal.append("stage", name="fig2", digest="abc")
            journal.append("run_end", document_sha256="xyz")
        records, valid_bytes, problems = read_journal(path)
        assert [r.type for r in records] == ["run_start", "stage", "run_end"]
        assert [r.seq for r in records] == [0, 1, 2]
        assert records[1].get("name") == "fig2"
        assert valid_bytes == path.stat().st_size
        assert problems == []

    def test_missing_file_is_empty(self, tmp_path):
        records, valid_bytes, problems = read_journal(tmp_path / "nope.jsonl")
        assert (records, valid_bytes, problems) == ([], 0, [])

    def test_reserved_payload_field_rejected(self, tmp_path):
        with RunJournal.create(tmp_path / "r.jsonl") as journal:
            with pytest.raises(JournalError, match="reserved"):
                journal.append("stage", seq=9)

    def test_unserializable_payload_rejected(self, tmp_path):
        with RunJournal.create(tmp_path / "r.jsonl") as journal:
            with pytest.raises(JournalError, match="unserializable"):
                journal.append("stage", blob=object())
        # the bad append must not have committed anything
        records, _bytes, problems = read_journal(tmp_path / "r.jsonl")
        assert records == [] and problems == []

    def test_torn_tail_detected_and_truncated(self, tmp_path):
        path = tmp_path / "r.jsonl"
        with RunJournal.create(path) as journal:
            journal.append("run_start", run_id="r")
            journal.append("stage", name="fig2")
        good_size = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b'{"seq": 2, "type": "stage", "na')  # torn mid-record
        records, valid_bytes, problems = read_journal(path)
        assert len(records) == 2 and valid_bytes == good_size and problems
        with RunJournal.resume(path) as journal:
            assert journal.truncated_tail
            assert journal.next_seq == 2
            journal.append("stage", name="fig3")
        assert path.stat().st_size > good_size
        records, _bytes, problems = read_journal(path)
        assert [r.get("name") for r in records[1:]] == ["fig2", "fig3"]
        assert problems == []

    def test_corrupted_record_stops_parse(self, tmp_path):
        path = tmp_path / "r.jsonl"
        with RunJournal.create(path) as journal:
            journal.append("run_start", run_id="r")
            journal.append("stage", name="fig2")
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0xFF  # flip a byte inside the last record
        path.write_bytes(bytes(blob))
        records, _bytes, problems = read_journal(path)
        assert len(records) == 1 and problems

    def test_duplicated_line_rejected_by_seq(self, tmp_path):
        path = tmp_path / "r.jsonl"
        with RunJournal.create(path) as journal:
            journal.append("run_start", run_id="r")
        line = path.read_bytes()
        path.write_bytes(line + line)  # page-cache replay double-write
        records, _bytes, problems = read_journal(path)
        assert len(records) == 1 and problems

    def test_resume_missing_file_starts_empty(self, tmp_path):
        with RunJournal.resume(tmp_path / "fresh.jsonl") as journal:
            assert journal.next_seq == 0
            assert not journal.truncated_tail
            journal.append("run_start", run_id="r")

    def test_append_after_close_raises(self, tmp_path):
        journal = RunJournal.create(tmp_path / "r.jsonl")
        journal.close()
        with pytest.raises(JournalError, match="closed"):
            journal.append("stage")


# ---------------------------------------------------------------------------
# fault plans and the injector
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_encode_round_trip(self):
        for mode in FAULT_MODES:
            plan = FaultPlan.parse(f"{mode}:7")
            assert (plan.mode, plan.barrier) == (mode, 7)
            assert FaultPlan.parse(plan.encode()) == plan

    def test_bad_specs_rejected(self):
        for spec in ("nuke:1", "kill", "kill:", "kill:x", ":3"):
            with pytest.raises(ValueError):
                FaultPlan.parse(spec)
        with pytest.raises(ValueError, match=">= 0"):
            FaultPlan(mode="kill", barrier=-1)

    def test_plan_from_env(self):
        assert plan_from_env({}) is None
        assert plan_from_env({PROCFAULT_ENV: ""}) is None
        plan = plan_from_env({PROCFAULT_ENV: "torn:4"})
        assert (plan.mode, plan.barrier) == ("torn", 4)


class TestInjector:
    """In-process injector behavior, with ``_die`` recorded not obeyed."""

    @pytest.fixture
    def deaths(self, monkeypatch):
        recorded = []
        monkeypatch.setattr(
            "repro.chaos.procfault._die", lambda: recorded.append(True)
        )
        return recorded

    def test_kill_after_commit_at_barrier(self, tmp_path, deaths):
        hook = ProcessFaultInjector(FaultPlan("kill", 1))
        with RunJournal.create(tmp_path / "r.jsonl", fault_hook=hook) as j:
            j.append("run_start", run_id="r")
            assert not deaths
            j.append("stage", name="fig2")  # barrier 1: dies *after* commit
            assert len(deaths) == 1
            j.append("stage", name="fig3")  # trips at most once
            assert len(deaths) == 1
        records, _bytes, problems = read_journal(tmp_path / "r.jsonl")
        assert len(records) == 3 and problems == []

    def test_torn_write_leaves_invalid_tail(self, tmp_path, deaths):
        path = tmp_path / "r.jsonl"
        hook = ProcessFaultInjector(FaultPlan("torn", 1))
        with RunJournal.create(path, fault_hook=hook) as j:
            j.append("run_start", run_id="r")
            j.append("stage", name="fig2")  # torn: half the bytes + "death"
            assert len(deaths) == 1
        records, _bytes, problems = read_journal(path)
        assert len(records) == 1 and problems  # the torn record is invisible
        with RunJournal.resume(path) as j:
            assert j.truncated_tail and j.next_seq == 1

    def test_enospc_raises_with_journal_valid(self, tmp_path, deaths):
        path = tmp_path / "r.jsonl"
        hook = ProcessFaultInjector(FaultPlan("enospc", 1))
        with RunJournal.create(path, fault_hook=hook) as j:
            j.append("run_start", run_id="r")
            with pytest.raises(OSError, match="No space left"):
                j.append("stage", name="fig2")
            assert not deaths
            j.append("stage", name="fig2")  # tripped once; now succeeds
        records, _bytes, problems = read_journal(path)
        assert len(records) == 2 and problems == []


# ---------------------------------------------------------------------------
# signals and watchdog primitives
# ---------------------------------------------------------------------------


class TestSignals:
    def test_exit_codes(self):
        assert interrupt_exit_code(signal.SIGINT) == 130
        assert interrupt_exit_code(signal.SIGTERM) == 143

    def test_first_signal_defers_second_escalates(self):
        before = signal.getsignal(signal.SIGINT)
        with GracefulShutdown() as stop:
            assert not stop.triggered
            os.kill(os.getpid(), signal.SIGINT)
            time.sleep(0.01)  # let the handler run
            assert stop.triggered and stop.signum == signal.SIGINT
            with pytest.raises(RunInterrupted) as info:
                stop.check()
            assert info.value.exit_code == 130
            with pytest.raises(KeyboardInterrupt):
                os.kill(os.getpid(), signal.SIGINT)
                time.sleep(0.5)
        # the previous handler is restored on exit
        assert signal.getsignal(signal.SIGINT) is before


class TestWatchdogPrimitives:
    def test_queued_chunk_never_hung(self, tmp_path):
        watch = ChunkWatch(tmp_path / "missing")
        assert not watch.is_hung(1e9, timeout_s=0.001)

    def test_deadline_classification(self, tmp_path):
        mark_started(tmp_path / "item")
        watch = ChunkWatch(tmp_path / "item")
        assert not watch.is_hung(100.0, timeout_s=5.0)
        assert watch.is_hung(106.0, timeout_s=5.0)


# ---------------------------------------------------------------------------
# the runner (in-process)
# ---------------------------------------------------------------------------


class TestRunner:
    def test_cold_then_resume_byte_identical(self, tmp_path):
        scenario = _tiny_scenario()
        store = ArtifactStore(tmp_path / "cache")
        cold = run_study(scenario, store)
        assert not cold.resumed
        assert cold.n_computed == len(cold.units)
        warm = run_study(scenario, store, resume=True)
        assert warm.resumed
        assert warm.n_verified == len(warm.units)
        assert warm.document_sha256 == cold.document_sha256
        assert document_json(warm.document) == document_json(cold.document)

    def test_journal_written_and_listed(self, tmp_path):
        scenario = _tiny_scenario()
        store = ArtifactStore(tmp_path / "cache")
        report = run_study(scenario, store)
        rid = run_id_for(scenario)
        assert report.run_id == rid
        assert Path(report.journal_path) == journal_path(store, rid)
        records, _bytes, problems = read_journal(report.journal_path)
        assert problems == []
        assert len(records) == len(FIGURES) + 3
        assert [r.type for r in records] == [
            "run_start", *["stage"] * (len(FIGURES) + 1), "run_end",
        ]
        assert records[0].get("dataset_key") == dataset_key(scenario)
        assert records[-1].get("document_sha256") == report.document_sha256
        runs = list_runs(store)
        assert [r.run_id for r in runs] == [rid]
        assert runs[0].complete and not runs[0].torn_tail

    def test_dataset_stage_journals_written_keys(self, tmp_path):
        scenario = _tiny_scenario()
        store = ArtifactStore(tmp_path / "cache")
        report = run_study(scenario, store)
        records, _bytes, _problems = read_journal(report.journal_path)
        stage = next(
            r for r in records
            if r.type == "stage" and r.get("name") == "dataset"
        )
        keys = stage.get("artifact_keys")
        assert keys
        assert all(store.has(key) for key in keys), keys

    def test_corrupt_artifact_recomputed_on_resume(self, tmp_path):
        scenario = _tiny_scenario()
        store = ArtifactStore(tmp_path / "cache")
        cold = run_study(scenario, store)
        # Swap fig5's stored artifact for a valid-but-wrong object: the
        # journaled digest no longer matches, so the resume must drop
        # and recompute it — and still land on the cold document.
        key = artifact_key(dataset_key(scenario), "fig/fig5")
        store.put(key, {"bogus": 1}, "pickle")
        resumed = run_study(scenario, store, resume=True)
        actions = {u.name: u.action for u in resumed.units}
        assert actions["fig5"] == "recomputed"
        assert actions["fig2"] == "verified"
        assert resumed.document_sha256 == cold.document_sha256

    def test_explicit_run_id_mismatch_refused(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        run_study(_tiny_scenario(seed=7), store, run_id="run-pinned")
        with pytest.raises(JournalError, match="refusing to resume"):
            run_study(
                _tiny_scenario(seed=8), store, resume=True,
                run_id="run-pinned",
            )

    def test_auto_id_stale_journal_starts_fresh(self, tmp_path):
        # Same path, different dataset (hand-built stale journal): the
        # auto-derived id starts over instead of erroring.
        scenario = _tiny_scenario()
        store = ArtifactStore(tmp_path / "cache")
        path = journal_path(store, run_id_for(scenario))
        with RunJournal.create(path) as j:
            j.append("run_start", run_id="other", dataset_key="stale")
        report = run_study(scenario, store, resume=True)
        assert not report.resumed
        assert report.document_sha256

    def test_list_runs_skips_sweep_journals(self, tmp_path):
        # A finished sweep journals into the same runs/ directory but
        # ends with sweep_end, never run_end: it is not a run.
        from repro.sweep import SweepSpec, run_sweep, sweep_status

        scenario = _tiny_scenario()
        store = ArtifactStore(tmp_path / "cache")
        run_study(scenario, store)
        spec = SweepSpec(
            name="listed", base="smoke", seed=scenario.seed, days=3.0
        )
        sweep = run_sweep(spec, store)
        assert sweep_status(spec, store).complete
        assert Path(sweep.journal_path).parent == (
            journal_path(store, run_id_for(scenario)).parent
        )
        runs = list_runs(store)
        assert [r.run_id for r in runs] == [run_id_for(scenario)]
        assert runs[0].complete

    def test_interrupt_checked_at_barrier(self, tmp_path, monkeypatch):
        # Deliver SIGTERM before the run starts: the first barrier
        # check must raise with the journal still consistent.
        scenario = _tiny_scenario()
        store = ArtifactStore(tmp_path / "cache")
        original_enter = GracefulShutdown.__enter__

        def enter_and_signal(self):
            stop = original_enter(self)
            os.kill(os.getpid(), signal.SIGTERM)
            return stop

        monkeypatch.setattr(GracefulShutdown, "__enter__", enter_and_signal)
        with pytest.raises(RunInterrupted) as info:
            run_study(scenario, store)
        assert info.value.exit_code == 143
        monkeypatch.undo()
        report = run_study(scenario, store, resume=True)
        assert report.document_sha256


# ---------------------------------------------------------------------------
# real subprocesses: interrupts and the chaos sweep
# ---------------------------------------------------------------------------


def _run_argv(cache_dir: Path, out: Path) -> list:
    return [
        sys.executable, "-m", "repro", "run",
        "--days", "3", "--seed", "7",
        "--cache-dir", str(cache_dir), "--out", str(out),
    ]


class TestInterruptSubprocess:
    @pytest.mark.parametrize(
        "signum", [signal.SIGINT, signal.SIGTERM],
        ids=["sigint", "sigterm"],
    )
    def test_signal_mid_run_then_resume(self, tmp_path, signum):
        cache = tmp_path / "cache"
        out = tmp_path / "doc.json"
        rid = run_id_for(_tiny_scenario())
        jpath = cache / "runs" / f"{rid}.jsonl"
        proc = subprocess.Popen(
            _run_argv(cache, out),
            env=_cli_env(**{STAGE_DELAY_ENV: "0.2"}),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        # Wait (deterministically) until the run is a few barriers in,
        # then strike: the per-stage delay guarantees plenty of stages
        # remain, so the signal always lands mid-run.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if len(read_journal(jpath)[0]) >= 3:
                break
            time.sleep(0.05)
        else:
            proc.kill()
            pytest.fail("run never reached barrier 3")
        proc.send_signal(signum)
        _stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == interrupt_exit_code(signum), stderr
        assert "interrupted" in stderr
        assert not out.exists()

        # The store holds no staging debris and the journal is a valid,
        # partial prefix of the run.
        store = ArtifactStore(cache)
        debris = [p for p in store._iter_files() if ".tmp-" in p.name]
        assert debris == []
        assert journal_path(store, rid) == jpath
        records, _bytes, problems = read_journal(jpath)
        assert problems == []
        assert 0 < len(records) < len(FIGURES) + 3

        resumed = subprocess.run(
            [*_run_argv(cache, out), "--resume"],
            env=_cli_env(), capture_output=True, text=True, timeout=300,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "resumed run" in resumed.stdout
        reference = run_study(
            _tiny_scenario(), ArtifactStore(tmp_path / "ref")
        )
        assert out.read_text() == document_json(reference.document)


class TestChaosSweep:
    def test_representative_fault_points(self, tmp_path):
        """kill/torn/enospc at an early and the final barrier, each in a
        real subprocess, resumes byte-identically (CI sweeps them all)."""
        report = run_fault_sweep(
            ["run", "--days", "3", "--seed", "7"],
            tmp_path / "sweep",
            modes=FAULT_MODES,
            barriers=(1, len(FIGURES) + 2),
            timeout_s=300.0,
        )
        assert report.n_barriers == len(FIGURES) + 3
        assert report.ok, [
            (f.label, f.detail) for f in report.failures
        ]
        assert len(report.results) == len(FAULT_MODES) * 2


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCli:
    def test_run_requires_store(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        rc = main(["run", "--days", "3", "--no-cache"])
        assert rc == 2
        assert "cache" in capsys.readouterr().err

    def test_run_and_list_runs(self, tmp_path, capsys):
        from repro.cli import main

        cache = tmp_path / "cache"
        out = tmp_path / "doc.json"
        rc = main([
            "run", "--days", "3", "--seed", "7",
            "--cache-dir", str(cache), "--out", str(out), "--quiet",
        ])
        assert rc == 0
        assert json.loads(out.read_text())["figures"]
        rc = main([
            "run", "--cache-dir", str(cache), "--list-runs",
        ])
        assert rc == 0
        listing = capsys.readouterr().out
        assert "complete" in listing

    def test_run_summary_line_counts_warm_stages(self, tmp_path, capsys):
        """A rerun whose journal is gone finds every stage warm."""
        from repro.cli import main

        cache = tmp_path / "cache"
        args = ["run", "--days", "3", "--seed", "7", "--cache-dir", str(cache),
                "--quiet"]
        rid = run_id_for(_tiny_scenario())
        n = len(FIGURES) + 1  # the dataset stage and one per figure

        assert main(args) == 0
        cold = capsys.readouterr().out.splitlines()
        assert cold[0] == f"cold run {rid}: 0 stage(s) verified, 0 warm, {n} computed"

        os.unlink(journal_path(ArtifactStore(cache), rid))
        assert main(args) == 0
        rerun = capsys.readouterr().out.splitlines()
        assert rerun[0] == f"cold run {rid}: 0 stage(s) verified, {n} warm, 0 computed"
        assert rerun[1] == cold[1]  # the document's sha256

        assert main([*args, "--resume"]) == 0
        resumed = capsys.readouterr().out.splitlines()
        assert resumed[0] == (
            f"resumed run {rid}: {n} stage(s) verified, 0 warm, 0 computed"
        )

    def test_chaos_run_rejects_bad_mode(self, capsys):
        from repro.cli import main

        rc = main(["chaos-run", "--modes", "nuke"])
        assert rc == 2
        assert "nuke" in capsys.readouterr().err

    @pytest.mark.parametrize("days", ["0", "-5", "nan", "inf"])
    def test_run_rejects_bad_days_before_journaling(
        self, tmp_path, capsys, days
    ):
        from repro.cli import main

        with pytest.raises(SystemExit) as info:
            main(["run", "--cache-dir", str(tmp_path), "--days", days])
        assert info.value.code == 2
        assert "--days" in capsys.readouterr().err
        assert not list(tmp_path.glob("runs/*.jsonl"))

    def test_observations_rejects_empty_window(self):
        from repro.cli import main

        with pytest.raises(SystemExit) as info:
            main(["observations", "--days", "0"])
        assert info.value.code == 2

    def test_chaos_run_rejects_negative_barrier_before_running(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main

        calls = []
        monkeypatch.setattr(
            "repro.supervise.chaosrun._run_cli",
            lambda *args, **kwargs: calls.append(args),
        )
        workdir = tmp_path / "chaos"
        rc = main([
            "chaos-run", "--barriers", "1,-1", "--workdir", str(workdir),
        ])
        assert rc == 2
        assert "--barriers" in capsys.readouterr().err
        assert calls == [] and not workdir.exists()

    def test_chaos_run_rejects_barrier_past_the_journal(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        rc = main([
            "chaos-run", "--modes", "kill", "--barriers", "25",
            "--workdir", str(tmp_path / "chaos"),
            "run", "--days", "3", "--seed", "7",
        ])
        assert rc == 2
        last = len(FIGURES) + 2
        assert (
            f"barrier(s) [25] outside the reference run's journal "
            f"(barriers 0-{last})"
        ) in capsys.readouterr().err
        assert not (tmp_path / "chaos" / "kill-25").exists()
