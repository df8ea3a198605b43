"""Tests for the repro.perf stage-timer registry and the run report.

The registry lives outside the deterministic simulator subtree (it is
the one place allowed to touch the wall clock), so the key properties
are: disabled instrumentation is free and side-effect free, enabled
instrumentation accumulates, each layer books its own work (render,
parse and persist apart, however one draws the other), and a journaled
``python -m repro run`` prints the per-stage breakdown and writes it
to ``runs/<run_id>.report.json``.  A structural guard, with no timing,
pins that a warm load inflates no console shard.
"""

import dataclasses
import json
import math
import zlib
from collections import deque

import pytest

from repro import perf
from repro.cache import (
    ArtifactStore,
    dataset_key,
    load_dataset,
    load_or_simulate,
    persist_dataset,
)
from repro.core.study import TitanStudy
from repro.perf.timers import _NULL_SPAN, PerfRegistry
from repro.sim import Scenario
from repro.sim.simulation import TitanSimulation
from repro.supervise.runner import run_id_for
from repro.telemetry.console import RENDER_CHUNK_ROWS


@pytest.fixture()
def clean_perf():
    """A disabled, empty module-level registry before and after."""
    perf.disable()
    perf.reset()
    yield
    perf.disable()
    perf.reset()


class TestRegistry:
    def test_disabled_stage_is_shared_noop(self):
        reg = PerfRegistry()
        assert reg.stage("x") is _NULL_SPAN
        assert reg.stage("y") is reg.stage("z")
        with reg.stage("x"):
            pass
        reg.count("lines", 100)
        assert reg.snapshot() == {"stages": {}, "counters": {}}

    def test_enabled_accumulates_seconds_and_calls(self):
        reg = PerfRegistry()
        reg.enable()
        for _ in range(3):
            with reg.stage("parse"):
                pass
        with reg.stage("render"):
            pass
        reg.count("lines", 10)
        reg.count("lines", 5)
        reg.count("events")
        snap = reg.snapshot()
        assert snap["stages"]["parse"]["calls"] == 3
        assert snap["stages"]["parse"]["seconds"] >= 0.0
        assert snap["stages"]["render"]["calls"] == 1
        assert snap["counters"] == {"events": 1, "lines": 15}

    def test_spans_nest(self):
        reg = PerfRegistry()
        reg.enable()
        with reg.stage("outer"):
            with reg.stage("inner"):
                pass
        snap = reg.snapshot()
        assert snap["stages"]["outer"]["calls"] == 1
        assert snap["stages"]["inner"]["calls"] == 1
        assert snap["stages"]["outer"]["seconds"] >= (
            snap["stages"]["inner"]["seconds"]
        )

    def test_exception_still_records(self):
        reg = PerfRegistry()
        reg.enable()
        with pytest.raises(RuntimeError):
            with reg.stage("boom"):
                raise RuntimeError("surfaces")
        assert reg.snapshot()["stages"]["boom"]["calls"] == 1

    def test_reset_clears(self):
        reg = PerfRegistry()
        reg.enable()
        with reg.stage("x"):
            pass
        reg.count("n", 2)
        reg.reset()
        assert reg.snapshot() == {"stages": {}, "counters": {}}
        assert reg.enabled  # reset clears data, not the switch

    def test_snapshot_is_sorted_and_detached(self):
        reg = PerfRegistry()
        reg.enable()
        for name in ("b", "a", "c"):
            with reg.stage(name):
                pass
        snap = reg.snapshot()
        assert list(snap["stages"]) == ["a", "b", "c"]
        snap["stages"]["a"]["calls"] = 99  # mutating the view is safe
        assert reg.snapshot()["stages"]["a"]["calls"] == 1


@pytest.mark.usefixtures("clean_perf")
class TestModuleLevelRegistry:
    def test_disabled_by_default(self):
        assert not perf.is_enabled()
        with perf.stage("idle"):
            pass
        perf.count("idle", 7)
        assert perf.snapshot() == {"stages": {}, "counters": {}}

    def test_enable_disable_cycle(self):
        perf.enable()
        assert perf.is_enabled()
        with perf.stage("work"):
            pass
        perf.disable()
        with perf.stage("after"):
            pass
        snap = perf.snapshot()
        assert snap["stages"]["work"]["calls"] == 1
        assert "after" not in snap["stages"]


@pytest.mark.usefixtures("clean_perf")
class TestFigureStages:
    """A computed figure books ``study.<name>``; memo and store hits
    book nothing."""

    @staticmethod
    def _study_stages(snapshot):
        return {
            name: stat
            for name, stat in snapshot["stages"].items()
            if name.startswith("study.")
        }

    def test_memo_hit_records_nothing(self, smoke_dataset):
        study = TitanStudy(smoke_dataset)
        study.log
        perf.enable()
        first = study.fig10()
        assert study.fig10() is first
        perf.disable()
        stages = self._study_stages(perf.snapshot())
        assert list(stages) == ["study.fig10"]
        assert stages["study.fig10"]["calls"] == 1

    def test_warm_store_records_nothing(self, tmp_path, smoke_dataset):
        store = ArtifactStore(tmp_path)
        persist_dataset(store, smoke_dataset)
        TitanStudy(smoke_dataset, store=store).figs_all()
        warm = load_dataset(store, smoke_dataset.scenario)
        assert warm is not None
        perf.enable()
        TitanStudy(warm, store=store).figs_all()
        perf.disable()
        assert self._study_stages(perf.snapshot()) == {}


@pytest.mark.usefixtures("clean_perf")
class TestConsoleTextBooking:
    """``console_text`` books its time under the layer that did the work."""

    @staticmethod
    def _stages(dataset):
        perf.enable()
        dataset.console_text
        perf.disable()
        return perf.snapshot()["stages"]

    def test_warm_load_books_cache_load(self, tmp_path, smoke_dataset):
        store = ArtifactStore(tmp_path)
        persist_dataset(store, smoke_dataset)
        warm = load_dataset(store, smoke_dataset.scenario)
        assert warm is not None and warm._console_text is None
        stages = self._stages(warm)
        assert list(stages) == ["cache.load"]
        assert stages["cache.load"]["calls"] == 1
        assert warm.console_text == smoke_dataset.console_text

    def test_cold_render_books_telemetry_render(self, smoke_dataset):
        cold = dataclasses.replace(smoke_dataset, _console_text=None)
        stages = self._stages(cold)
        assert list(stages) == ["telemetry.render"]
        windows = math.ceil(len(smoke_dataset.events) / RENDER_CHUNK_ROWS)
        assert windows > 1
        assert stages["telemetry.render"]["calls"] == windows
        assert cold.console_text == smoke_dataset.console_text


@pytest.mark.usefixtures("clean_perf")
class TestLayerAttribution:
    """Render, parse and persist each book their own work, whether the
    parse draws the render directly or through the shard writer."""

    @staticmethod
    def _booked(run):
        perf.enable()
        try:
            result = run()
        finally:
            perf.disable()
        stages = perf.snapshot()["stages"]
        perf.reset()
        return result, stages

    def test_persisting_run_books_like_a_plain_run(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.cache.pipeline.DEFAULT_SHARD_LINES", 10_000)
        scenario = Scenario.smoke()
        plain = TitanSimulation(scenario).run()
        _, plain_stages = self._booked(lambda: plain.parsed_events)
        store = ArtifactStore(tmp_path)
        (persisted, warm), stages = self._booked(
            lambda: load_or_simulate(scenario, store)
        )
        assert not warm

        windows = math.ceil(len(plain.events) / RENDER_CHUNK_ROWS)
        assert windows > 1
        assert plain_stages["telemetry.render"]["calls"] == windows
        assert stages["telemetry.render"]["calls"] == windows
        assert (
            stages["telemetry.parse"]["calls"]
            == plain_stages["telemetry.parse"]["calls"]
        )
        assert "cache.persist" not in plain_stages
        manifest = store.get(f"{dataset_key(scenario)}/layer/console.manifest")
        assert len(manifest["shards"]) > 1
        assert stages["cache.persist"]["calls"] == len(manifest["shards"]) + 1
        assert persisted.parse_stats == plain.parse_stats


class TestWarmLoadInflatesNothing:
    """A warm load checks console shards by their container digest and
    inflates none; streaming the console inflates each shard once."""

    def test_decompress_calls(self, tmp_path, smoke_dataset, monkeypatch):
        monkeypatch.setattr("repro.cache.pipeline.DEFAULT_SHARD_LINES", 10_000)
        store = ArtifactStore(tmp_path)
        dkey = persist_dataset(store, smoke_dataset)
        manifest = store.get(f"{dkey}/layer/console.manifest")
        n_shards = len(manifest["shards"])
        assert n_shards >= 3

        calls = []
        decompress = zlib.decompress

        def counting_decompress(*args, **kwargs):
            calls.append(None)
            return decompress(*args, **kwargs)

        monkeypatch.setattr(zlib, "decompress", counting_decompress)
        warm = load_dataset(store, smoke_dataset.scenario)
        assert warm is not None
        assert len(calls) == 0
        deque(warm.console_lines(), maxlen=0)
        assert len(calls) == n_shards


class TestProfileCli:
    """The CLI's profile comes from ``repro run`` itself: a stage table
    on stdout and ``runs/<run_id>.report.json`` beside the journal."""

    ARGS = ["run", "--days", "3", "--seed", "7", "--quiet"]

    @staticmethod
    def _report(cache):
        run_id = run_id_for(Scenario.smoke(seed=7, days=3.0))
        assert (cache / "runs" / f"{run_id}.jsonl").exists()
        return json.loads((cache / "runs" / f"{run_id}.report.json").read_text())

    def test_profile_smoke_json(self, tmp_path):
        """Cold then warm, on the report file."""
        from repro.cli import main

        cache = tmp_path / "cache"
        assert main([*self.ARGS, "--cache-dir", str(cache)]) == 0
        cold = self._report(cache)
        stages = cold["stages"]
        for name in (
            "sim.machine",
            "sim.workload",
            "sim.inject",
            "telemetry.render",
            "telemetry.parse",
            "cache.persist",
        ):
            assert stages[name]["calls"] >= 1, name
        assert any(name.startswith("study.") for name in stages)
        assert sum(s["seconds"] for s in stages.values()) <= cold["wall_s"]
        assert cold["counters"]["telemetry.lines"] > 0
        assert cold["store"]["writes"] > 0

        assert main([*self.ARGS, "--cache-dir", str(cache)]) == 0
        warm = self._report(cache)
        assert "cache.load" in warm["stages"]
        assert "telemetry.render" not in warm["stages"]
        assert warm["store"]["hits"] > 0

    def test_profile_smoke_table(self, tmp_path, capsys):
        from repro.cli import main

        cache = tmp_path / "cache"
        assert main([*self.ARGS, "--cache-dir", str(cache)]) == 0
        rows = {
            line.split()[0]: line.split()[1:]
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        }
        report = self._report(cache)
        for name, stat in report["stages"].items():
            assert rows[name] == [f"{stat['seconds']:.3f}", str(stat["calls"])]
        for name in ("telemetry.render", "telemetry.parse", "cache.persist"):
            assert name in rows, name
        assert "(untimed)" in rows
        assert rows["total"] == ["wall", f"{report['wall_s']:.3f}"]

    def test_spans_never_nest(self, tmp_path, monkeypatch, capsys, clean_perf):
        """No span opens while another is open, on a cold run, on a
        corrupted sweep point and on storeless ``observations`` and
        ``figures`` runs, so stage seconds cannot sum past wall."""
        from repro.cli import main
        from repro.perf.timers import _Span
        from repro.sweep import SweepSpec

        open_spans, nested = [], []
        enter, leave = _Span.__enter__, _Span.__exit__

        def tracked_enter(span):
            if open_spans:
                nested.append((open_spans[-1], span._name))
            open_spans.append(span._name)
            return enter(span)

        def tracked_exit(span, *exc):
            open_spans.pop()
            return leave(span, *exc)

        monkeypatch.setattr(_Span, "__enter__", tracked_enter)
        monkeypatch.setattr(_Span, "__exit__", tracked_exit)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            SweepSpec(name="nest", base="smoke", days=3.0,
                      corruptions=(0.05,)).to_doc()
        ))
        cache = str(tmp_path / "cache")
        assert main([*self.ARGS, "--cache-dir", cache]) == 0
        assert main(["sweep", "run", "--spec", str(spec), "--cache-dir", cache,
                     "--jobs", "1", "--quiet"]) == 0
        assert "telemetry.parse" in capsys.readouterr().out
        # With no store the figures run on layers not yet drawn.
        perf.enable()
        for command in ("observations", "figures"):
            perf.reset()
            main([command, "--days", "3", "--seed", "7", "--no-cache"])
            stages = perf.snapshot()["stages"]
            for name in ("telemetry.parse", "telemetry.jobsnap", "study.fig2"):
                assert name in stages, (command, name)
        assert not open_spans and nested == []

    def test_profile_command_is_gone(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["profile"])
        assert info.value.code == 2
        assert "invalid choice: 'profile'" in capsys.readouterr().err
