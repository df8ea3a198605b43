"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

#: Every analysis subcommand shares the common flag set (--seed,
#: --days/--full, --cache-dir, --no-cache).
ANALYSIS_COMMANDS = (
    "simulate",
    "figures",
    "observations",
    "fleet-health",
    "calibration",
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.command == "simulate"
        assert args.seed == 20131001
        assert not args.full

    def test_figures_outdir(self, tmp_path):
        args = build_parser().parse_args(
            ["figures", "--outdir", str(tmp_path)]
        )
        assert args.outdir == tmp_path

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_corrupt_defaults(self, tmp_path):
        args = build_parser().parse_args(["corrupt", str(tmp_path / "x.log")])
        assert args.rate == 0.01
        assert args.out is None
        assert args.outages == 0

    def test_simulate_chaos_rate_default_off(self):
        args = build_parser().parse_args(["simulate"])
        assert args.chaos_rate == 0.0

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["corrupt", "x.log", "--rate", "1.5"], "--rate"),
            (["corrupt", "x.log", "--rate", "nan"], "--rate"),
            (["corrupt", "x.log", "--rate", "-0.1"], "--rate"),
            (["simulate", "--chaos-rate", "nan"], "--chaos-rate"),
            (["simulate", "--chaos-rate", "2"], "--chaos-rate"),
            (["simulate", "--chaos-rate", "inf"], "--chaos-rate"),
            (["corrupt", "x.log", "--outages", "2", "--outage-hours", "nan"],
             "--outage-hours"),
            (["corrupt", "x.log", "--outage-hours", "-5"], "--outage-hours"),
            (["corrupt", "x.log", "--outage-hours", "inf"], "--outage-hours"),
            (["cache", "evict", "--max-mb", "nan"], "--max-mb"),
            (["cache", "evict", "--max-mb", "inf"], "--max-mb"),
            (["cache", "evict", "--max-mb", "-1"], "--max-mb"),
            (["fleet-health", "--top", "-3"], "--top"),
        ],
    )
    def test_out_of_range_rate_is_usage_error(self, capsys, argv, option):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(argv)
        assert info.value.code == 2
        assert f"argument {option}" in capsys.readouterr().err

    def test_rates_parse_to_floats(self):
        parse = build_parser().parse_args
        assert parse(["corrupt", "x.log", "--rate", " 0.5"]).rate == 0.5
        assert parse(["corrupt", "x.log", "--rate", "1"]).rate == 1.0
        assert parse(["simulate", "--chaos-rate", "0"]).chaos_rate == 0.0
        assert parse(["simulate", "--chaos-rate", "1e-3"]).chaos_rate == 0.001


class TestCommands:
    """Each command runs end-to-end on a small window."""

    ARGS = ["--days", "30", "--seed", "77"]

    def test_simulate_writes_log(self, tmp_path, capsys):
        log = tmp_path / "console.log"
        nvsmi = tmp_path / "nvsmi.csv"
        rc = main(["simulate", *self.ARGS, "--log-out", str(log),
                   "--nvsmi-out", str(nvsmi)])
        assert rc == 0
        assert log.exists() and log.stat().st_size > 1000
        assert "GPU XID" in log.read_text()[:5000]
        header = nvsmi.read_text().splitlines()[0]
        assert header == "slot,sbe,dbe,retired_pages,temp_c"

    def test_log_out_is_the_rendered_log(self, tmp_path, capsys):
        """Cold, first-cached and warm exports are the rendered log byte
        for byte; a chaos export is the injector's corruption of it."""
        from repro.chaos import ChaosConfig, CorruptionInjector
        from repro.sim import Scenario, TitanSimulation
        from repro.telemetry.console import ConsoleLogWriter

        dataset = TitanSimulation(Scenario.smoke(seed=77, days=10)).run()
        text = ConsoleLogWriter(dataset.machine).to_text(
            dataset.injection.events
        )
        args = ["simulate", "--days", "10", "--seed", "77"]
        store = str(tmp_path / "store")
        for name, extra in (
            ("cold.log", ["--no-cache"]),
            ("first.log", ["--cache-dir", store]),
            ("warm.log", ["--cache-dir", store]),
        ):
            log = tmp_path / name
            assert main([*args, *extra, "--log-out", str(log)]) == 0
            assert log.read_bytes() == text.encode()
        out = capsys.readouterr().out
        assert "cache: miss" in out and "cache: hit (warm)" in out

        chaos = tmp_path / "chaos.log"
        assert main([*args, "--no-cache", "--chaos-rate", "0.02",
                     "--log-out", str(chaos)]) == 0
        injector = CorruptionInjector(ChaosConfig.uniform(0.02), seed=77)
        assert chaos.read_bytes() == injector.corrupt_text(text).text.encode()

    def test_figures_prints_tables(self, tmp_path, capsys):
        rc = main(["figures", *self.ARGS, "--outdir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "GPU Error" in out
        assert "Fig. 2" in out
        assert (tmp_path / "fig02.csv").exists()

    def test_observations_scorecard(self, capsys):
        rc = main(["observations", "--days", "90", "--seed", "20131001"])
        out = capsys.readouterr().out
        assert "observation checks pass" in out
        assert rc == 0

    def test_fleet_health(self, capsys):
        rc = main(["fleet-health", *self.ARGS, "--top", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ledger anomalies" in out
        assert out.count("c") > 3  # cnames printed


class TestChaosCommands:
    """The corruption commands and the degradation sweep run end to end."""

    def test_corrupt_is_deterministic(self, tmp_path, capsys):
        log = tmp_path / "console.log"
        rc = main(["simulate", "--days", "10", "--seed", "77",
                   "--log-out", str(log)])
        assert rc == 0
        rc = main(["corrupt", str(log), "--rate", "0.05", "--seed", "5"])
        assert rc == 0
        first = (tmp_path / "console.log.corrupt").read_text()
        again = tmp_path / "again.log"
        rc = main(["corrupt", str(log), "--rate", "0.05", "--seed", "5",
                   "--out", str(again)])
        assert rc == 0
        assert again.read_text() == first  # byte-identical replay
        assert first != log.read_text()
        out = capsys.readouterr().out
        assert "corrupted" in out

    def test_corrupt_missing_file(self, tmp_path, capsys):
        rc = main(["corrupt", str(tmp_path / "nope.log")])
        assert rc == 2

    def test_simulate_chaos_rate(self, tmp_path, capsys):
        log = tmp_path / "chaos.log"
        rc = main(["simulate", "--days", "10", "--seed", "77",
                   "--chaos-rate", "0.02", "--log-out", str(log)])
        assert rc == 0
        assert "chaos: corrupted" in capsys.readouterr().out
        assert log.exists()

    def test_degradation_curve_is_a_sweep(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"name": "curve", "days": 20.0, "seed": 77,
             "corruptions": [0.0, 0.01]}
        ))
        common = ["--spec", str(spec), "--cache-dir", str(tmp_path / "store")]
        table = tmp_path / "table.json"
        assert main(["sweep", "run", *common, "--out", str(table),
                     "--quiet"]) == 0
        clean, dirty = json.loads(table.read_text())["rows"]
        assert clean["corrupt_fraction"] == 0.0
        assert dirty["corrupt_fraction"] > 0.0
        assert main(["sweep", "report", *common, "--no-projection"]) == 0
        report = capsys.readouterr().out.splitlines()
        header = next(line for line in report if line.startswith("idx"))
        row = next(line for line in report if line.startswith("1 "))
        assert header.split()[6] == "corrupt"
        assert row.split()[6] == f"{dirty['corrupt_fraction']:.3%}"


class TestCalibrationCommand:
    def test_calibration_passes(self, capsys):
        rc = main(["calibration", "--days", "45", "--seed", "20131001"])
        out = capsys.readouterr().out
        assert "calibration checks pass" in out
        assert rc == 0


class TestCacheFlags:
    """Every analysis subcommand takes --seed/--cache-dir consistently."""

    @pytest.mark.parametrize("command", ANALYSIS_COMMANDS)
    def test_seed_and_cache_dir_accepted(self, command, tmp_path):
        args = build_parser().parse_args(
            [command, "--seed", "5", "--cache-dir", str(tmp_path)]
        )
        assert args.seed == 5
        assert args.cache_dir == tmp_path
        assert not args.no_cache

    @pytest.mark.parametrize("command", ANALYSIS_COMMANDS)
    def test_no_cache_accepted(self, command):
        args = build_parser().parse_args([command, "--no-cache"])
        assert args.no_cache
        assert args.cache_dir is None

    def test_observations_warm_run_identical(self, tmp_path, capsys):
        # rc is data-dependent on a short window (nonzero when a check
        # fails); the contract is cold and warm agree *exactly*.
        argv = ["observations", "--days", "30", "--seed", "77",
                "--cache-dir", str(tmp_path / "store")]
        rc_cold = main(argv)
        cold = capsys.readouterr().out
        assert "cache: miss (simulated, persisted)" in cold
        rc_warm = main(argv)
        warm = capsys.readouterr().out
        assert "cache: hit (warm)" in warm
        assert rc_warm == rc_cold

        def analysis(text):
            return [l for l in text.splitlines()
                    if not l.startswith("cache:")]

        assert analysis(warm) == analysis(cold)

    def test_no_cache_wins_over_env(self, tmp_path, capsys, monkeypatch):
        envstore = tmp_path / "envstore"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(envstore))
        main(["observations", "--days", "30", "--seed", "77", "--no-cache"])
        assert "cache:" not in capsys.readouterr().out
        assert not envstore.exists()

    def test_env_var_enables_cache(self, tmp_path, capsys, monkeypatch):
        envstore = tmp_path / "envstore"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(envstore))
        main(["observations", "--days", "30", "--seed", "77"])
        assert "cache: miss" in capsys.readouterr().out
        assert envstore.exists()

    def test_ground_truth_run_warms_store_for_analysis(self, tmp_path,
                                                       capsys):
        """fleet-health always simulates (ground truth) but persists the
        observable layers, so a later observables-only run is warm."""
        store = str(tmp_path / "store")
        rc = main(["fleet-health", "--days", "30", "--seed", "77",
                   "--cache-dir", store, "--top", "3"])
        assert rc == 0
        assert "miss (simulated, persisted)" in capsys.readouterr().out
        main(["observations", "--days", "30", "--seed", "77",
              "--cache-dir", store])
        assert "cache: hit (warm)" in capsys.readouterr().out


class TestCacheCommand:
    """python -m repro cache {info,clear,evict} end to end."""

    def _populate(self, tmp_path):
        store = str(tmp_path / "store")
        rc = main(["simulate", "--days", "20", "--seed", "77",
                   "--cache-dir", store,
                   "--log-out", str(tmp_path / "c.log")])
        assert rc == 0
        return store

    def test_info_empty_store(self, tmp_path, capsys):
        rc = main(["cache", "info", "--cache-dir", str(tmp_path), "--json"])
        assert rc == 0
        info = json.loads(capsys.readouterr().out)
        assert info["n_artifacts"] == 0
        assert info["datasets"] == []

    def test_info_clear_roundtrip(self, tmp_path, capsys):
        store = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", store, "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        # console manifest + its one shard + four more dataset layers
        assert info["n_artifacts"] == 6
        assert len(info["datasets"]) == 1
        assert info["total_bytes"] > 0
        assert main(["cache", "clear", "--cache-dir", store, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["removed"] == 6
        assert main(["cache", "info", "--cache-dir", store, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["n_artifacts"] == 0

    def test_info_human_readable(self, tmp_path, capsys):
        store = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", store]) == 0
        out = capsys.readouterr().out
        assert "artifacts    6" in out
        assert "datasets     1" in out

    def test_evict_requires_budget(self, tmp_path, capsys):
        rc = main(["cache", "evict", "--cache-dir", str(tmp_path)])
        assert rc == 2
        assert "requires --max-mb" in capsys.readouterr().out

    def test_evict_to_zero(self, tmp_path, capsys):
        store = self._populate(tmp_path)
        capsys.readouterr()
        rc = main(["cache", "evict", "--cache-dir", store,
                   "--max-mb", "0", "--json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["evicted"]) == 6
        assert out["total_bytes"] == 0

    def test_no_store_exits_2_and_creates_nothing(self, tmp_path, capsys,
                                                  monkeypatch):
        # The store rule every command shares: --cache-dir, else
        # $REPRO_CACHE_DIR, else none (no ./.repro-cache fallback).
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        for action in (["info"], ["clear"], ["evict", "--max-mb", "1"]):
            assert main(["cache", *action]) == 2, action
            err = capsys.readouterr().err
            assert "--cache-dir" in err and "$REPRO_CACHE_DIR" in err
        assert list(tmp_path.iterdir()) == []

    def test_missing_store_exits_2_and_creates_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        # A mistyped path is reported, not made into an empty store,
        # whether it comes from --cache-dir or $REPRO_CACHE_DIR.
        missing = tmp_path / "typo_store"
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        actions = (["info"], ["clear"], ["evict", "--max-mb", "1"])
        for action in actions:
            assert main(["cache", *action, "--cache-dir", str(missing)]) == 2
            assert str(missing) in capsys.readouterr().err
        monkeypatch.setenv("REPRO_CACHE_DIR", str(missing))
        for action in actions:
            assert main(["cache", *action]) == 2
            assert str(missing) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        # An existing directory is a store with nothing in it yet: the
        # actions read it and leave it as it was.
        missing.mkdir()
        for action in actions:
            assert main(["cache", *action]) == 0
        assert list(missing.iterdir()) == []

    def test_env_var_names_the_store(self, tmp_path, capsys, monkeypatch):
        envstore = tmp_path / "envstore"
        envstore.mkdir()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(envstore))
        assert main(["cache", "info", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["root"] == str(envstore)

    def test_cache_action_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])
