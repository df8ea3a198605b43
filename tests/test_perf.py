"""Tests for the repro.perf stage-timer registry and the profile CLI.

The registry lives outside the deterministic simulator subtree (it is
the one place allowed to touch the wall clock), so the key properties
are: disabled instrumentation is free and side-effect free, enabled
instrumentation accumulates, and ``python -m repro profile`` surfaces
the per-stage breakdown.  A structural guard, with no timing, pins that
a warm load inflates no console shard.
"""

import dataclasses
import json
import zlib
from collections import deque

import pytest

from repro import perf
from repro.cache import ArtifactStore, load_dataset, persist_dataset
from repro.core.study import TitanStudy
from repro.perf.timers import _NULL_SPAN, PerfRegistry


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
        assert stages["telemetry.render"]["calls"] == 1
        assert cold.console_text == smoke_dataset.console_text


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
    def test_profile_smoke_json(self, capsys):
        from repro.cli import main

        rc = main(
            ["profile", "--days", "3", "--seed", "7", "--no-cache", "--json"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["wall_s"] > 0
        stages = doc["stages"]
        # The pipeline's load-bearing stages must all be present.
        for name in (
            "sim.workload",
            "sim.inject",
            "telemetry.render",
            "telemetry.parse",
        ):
            assert name in stages, name
            assert stages[name]["calls"] >= 1
        assert doc["counters"]["telemetry.lines"] > 0

    def test_profile_smoke_table(self, capsys):
        from repro.cli import main

        rc = main(["profile", "--days", "3", "--seed", "7", "--no-cache"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "telemetry.parse" in out
        assert "total wall" in out
