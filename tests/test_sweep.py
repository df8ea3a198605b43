"""Tests for :mod:`repro.sweep`: spec, grid, engine, reducer, CLI.

The engine contract under test is the one the supervised runner
already honors one level down, lifted to whole scenario points:

* a sweep is a deterministic grid — same spec, same points, same
  content-addressed summary keys, in every process;
* the all-baseline *anchor* point is the untouched base scenario;
* a run can be killed at any journal barrier and resumed to a
  byte-identical sensitivity table;
* warm reruns (journal gone, store intact) reuse summaries without
  recomputing physics.
"""

import dataclasses
import json
import os
import re

import pytest

from repro.cache import ArtifactStore, dataset_key, scenario_fingerprint
from repro.chaos.procfault import FAULT_MODES
from repro.supervise.chaosrun import run_fault_sweep
from repro.supervise.journal import JournalError, read_journal
from repro.sweep import (
    RateMultipliers,
    SweepSpec,
    expand,
    load_sweep_table,
    preset,
    run_sweep,
    sweep_status,
)
from repro.sweep.reduce import (
    render_projection,
    render_sensitivity,
    scaling_projection,
    write_table_csv,
)
from repro.units import DAY


def _tiny(name, **overrides):
    # 3 days is the shortest window that still yields a job trace big
    # enough for the workload-characterization figure (>= 100 jobs).
    kwargs = dict(name=name, base="smoke", days=3.0)
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """One shared store: summaries are content-addressed, so tests
    reusing the same points warm-load each other's artifacts."""
    return ArtifactStore(tmp_path_factory.mktemp("sweep-store"))


# ---------------------------------------------------------------------------
# spec
# ---------------------------------------------------------------------------


class TestSpec:
    def test_presets(self):
        assert preset("smoke").n_points == 6
        assert preset("sensitivity").n_points == 12
        assert preset("scaling").n_points == 6
        assert preset("scaling").base == "paper"
        with pytest.raises(ValueError, match="unknown sweep preset"):
            preset("nope")

    @pytest.mark.parametrize(
        "overrides, match",
        [
            (dict(base="exotic"), "unknown base"),
            (dict(days=-1.0), "days must be positive"),
            (dict(scales=()), "at least one value"),
            (dict(scales=(1.0, 1.0)), "duplicate"),
            (dict(scales=(0.0,)), "scale must be positive"),
            (dict(windows=(0.0,)), "window must be positive"),
            (dict(bursts=(-2.0,)), "burst must be positive"),
            (dict(corruptions=(1.0,)), "corruption level"),
            (dict(rates=(RateMultipliers(dbe=-1.0),)), "must be positive"),
        ],
    )
    def test_validation_rejects(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            _tiny("bad", **overrides).validate()

    def test_doc_round_trip(self):
        spec = _tiny(
            "rt",
            scales=(1.0, 2.0),
            rates=(RateMultipliers(), RateMultipliers(dbe=2.0, xid=0.5)),
            windows=(None, 1.5),
            corruptions=(0.0, 0.05),
            availability=True,
        )
        again = SweepSpec.from_doc(spec.to_doc())
        assert again == spec
        assert again.key() == spec.key()

    def test_from_file_and_unknown_fields(self, tmp_path):
        doc = _tiny("f").to_doc()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        assert SweepSpec.from_file(path) == _tiny("f")
        doc["surprise"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unknown sweep spec fields"):
            SweepSpec.from_file(path)
        doc.pop("surprise")
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unsupported sweep spec"):
            SweepSpec.from_file(path)

    def test_key_moves_with_every_axis(self):
        base = _tiny("k")
        perturbed = [
            _tiny("k2"),
            _tiny("k", seed=base.seed + 1),
            _tiny("k", days=4.0),
            _tiny("k", scales=(1.0, 2.0)),
            _tiny("k", rates=(RateMultipliers(otb=2.0),)),
            _tiny("k", windows=(1.0,)),
            _tiny("k", bursts=(2.0,)),
            _tiny("k", corruptions=(0.01,)),
            _tiny("k", availability=True),
        ]
        keys = {p.key() for p in perturbed}
        assert base.key() not in keys
        assert len(keys) == len(perturbed)


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


class TestGrid:
    def test_anchor_is_the_untouched_base_scenario(self):
        spec = _tiny("g", scales=(1.0, 2.0))
        points = expand(spec)
        base = spec.base_scenario()
        anchor = points[0]
        assert anchor.is_anchor
        assert anchor.scenario == base
        assert anchor.dataset_key == dataset_key(base)
        other = points[1]
        assert not other.is_anchor
        assert other.scenario.seed != base.seed
        assert scenario_fingerprint(other.scenario) != (
            scenario_fingerprint(base)
        )

    def test_expansion_is_deterministic(self):
        spec = _tiny(
            "g2", scales=(1.0, 2.0), bursts=(1.0, 3.0),
            corruptions=(0.0, 0.02),
        )
        a, b = expand(spec), expand(spec)
        assert [p.key for p in a] == [p.key for p in b]
        assert [p.scenario.seed for p in a] == [p.scenario.seed for p in b]
        assert [p.label for p in a] == [p.label for p in b]
        assert [p.index for p in a] == list(range(spec.n_points))

    def test_scale_transforms_fleet_rates_only(self):
        spec = _tiny("g3", scales=(1.0, 2.0))
        base, scaled = (p.scenario for p in expand(spec))
        assert scaled.rates.dbe_mtbf_hours == base.rates.dbe_mtbf_hours / 2
        assert scaled.rates.otb_rate_before_fix_per_hour == (
            2 * base.rates.otb_rate_before_fix_per_hour
        )
        assert scaled.rates.xid31_rate_per_hour == (
            2 * base.rates.xid31_rate_per_hour
        )
        assert scaled.rates.xid57_expected_total == (
            2 * base.rates.xid57_expected_total
        )
        # per-card SBE physics is not a fleet rate
        assert scaled.rates.sbe_rate_per_proneness_hour == (
            base.rates.sbe_rate_per_proneness_hour
        )
        assert expand(spec)[1].n_nodes == 2 * 18_688

    def test_burst_and_category_multipliers(self):
        spec = _tiny(
            "g4",
            rates=(RateMultipliers(), RateMultipliers(sbe=3.0)),
            bursts=(1.0, 2.0),
        )
        points = expand(spec)
        base = points[0].scenario.rates
        burst = points[1].scenario.rates  # burst=2, rates baseline
        assert burst.sbe_burst_rate_per_sqrt_proneness_hour == (
            2 * base.sbe_burst_rate_per_sqrt_proneness_hour
        )
        assert burst.sbe_rate_per_proneness_hour == (
            base.sbe_rate_per_proneness_hour
        )
        sbe3 = points[2].scenario.rates  # sbe*3, burst baseline
        assert sbe3.sbe_rate_per_proneness_hour == (
            3 * base.sbe_rate_per_proneness_hour
        )

    def test_window_axis_clamps_scenario(self):
        spec = _tiny("g5", days=3.0, windows=(None, 1.5))
        base, windowed = (p.scenario for p in expand(spec))
        assert windowed.end == base.start + 1.5 * DAY
        assert windowed.workload.end_time == windowed.end
        assert base.start <= windowed.jobsnap_deployed_at <= windowed.end
        windowed.validate()

    def test_point_keys_unique(self):
        spec = _tiny(
            "g6", scales=(1.0, 2.0), rates=(
                RateMultipliers(), RateMultipliers(dbe=2.0),
            ), corruptions=(0.0, 0.01),
        )
        keys = [p.key for p in expand(spec)]
        assert len(set(keys)) == len(keys) == 8


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


def _spec12(name="twelve"):
    """A 12-point sweep small enough for CI: 3 scales x 2 rate
    multipliers x 2 burst levels over a 3-day window."""
    return _tiny(
        name,
        scales=(1.0, 2.0, 3.0),
        rates=(RateMultipliers(), RateMultipliers(dbe=2.0)),
        bursts=(1.0, 2.0),
    )


class TestEngine:
    def test_sharded_cold_then_warm_rerun(self, store):
        spec = _spec12()
        cold = run_sweep(spec, store, n_workers=2)
        assert not cold.resumed
        assert cold.key == spec.key()
        assert len(cold.units) == 12
        assert cold.n_computed == 12
        assert [u.name for u in cold.units] == [p.label for p in expand(spec)]
        assert len(cold.document["rows"]) == 12
        assert cold.document["anchor_index"] == 0
        records, _bytes, problems = read_journal(cold.journal_path)
        assert problems == []
        assert [r.type for r in records] == [
            "sweep_start", *["point"] * 12, "sweep_end",
        ]
        assert records[0].get("sweep_key") == spec.key()
        assert records[-1].get("table_sha256") == cold.document_sha256

        # resume: every journaled point verifies against the store
        warm = run_sweep(spec, store, resume=True)
        assert warm.resumed
        assert warm.n_verified == 12 and warm.n_computed == 0
        assert warm.document_sha256 == cold.document_sha256

        # journal gone, store intact: summaries reused byte-for-byte
        os.unlink(cold.journal_path)
        rerun = run_sweep(spec, store, n_workers=2)
        assert not rerun.resumed
        assert all(u.warm for u in rerun.units)
        assert rerun.document_sha256 == cold.document_sha256

        table, payload = load_sweep_table(spec, store)
        assert table == cold.document
        import hashlib

        assert hashlib.sha256(payload).hexdigest() == cold.document_sha256

    def test_corrupted_summary_recomputed_on_resume(self, store):
        from repro.sweep.engine import summary_key

        spec = _tiny("heal", scales=(1.0, 2.0))
        cold = run_sweep(spec, store)
        victim = expand(spec)[1]
        path = store._path(summary_key(victim.key))
        path.write_bytes(path.read_bytes()[: 40])  # torn container
        healed = run_sweep(spec, store, resume=True)
        actions = [u.action for u in healed.units]
        assert actions == ["verified", "recomputed"]
        assert healed.document_sha256 == cold.document_sha256

    def test_availability_section_requires_flag(self, store):
        plain = _tiny("avail-off")
        truth = _tiny("avail-on", availability=True)
        a = run_sweep(plain, store)
        b = run_sweep(truth, store)
        # ground truth is folded into the summary address: no collision
        assert expand(plain)[0].key != expand(truth)[0].key
        assert a.document["rows"][0]["availability"] is None
        avail = b.document["rows"][0]["availability"]
        assert 0.0 < avail["availability"] <= 1.0
        assert avail["n_outages"] >= 0
        assert "mttr_hours_by_cause" in avail

    def test_corruption_axis_degrades_observables(self, store):
        spec = _tiny("corr", corruptions=(0.0, 0.2))
        report = run_sweep(spec, store)
        clean, dirty = report.document["rows"]
        assert clean["is_anchor"] and not dirty["is_anchor"]
        docs = [
            json.loads(
                store.get_bytes(f"sweep/{p.key}/summary")[0].decode()
            )
            for p in expand(spec)
        ]
        # the corrupted point's telemetry-derived figures moved
        assert docs[0]["figures"] != docs[1]["figures"]

    def test_resume_under_explicit_id_refuses_other_sweep(self, store):
        spec_a = _tiny("id-a")
        run_sweep(spec_a, store, run_id="pinned")
        with pytest.raises(JournalError, match="refusing to resume"):
            run_sweep(_tiny("id-b"), store, resume=True, run_id="pinned")

    def test_kill_at_point_barrier_resumes_byte_identical(
        self, store, tmp_path
    ):
        spec = _tiny("chaos", scales=(1.0, 2.0))
        cold = run_sweep(spec, store)  # reference table, shared store

        specfile = tmp_path / "spec.json"
        specfile.write_text(json.dumps(spec.to_doc()))
        report = run_fault_sweep(
            ["sweep", "run", "--spec", str(specfile), "--quiet"],
            tmp_path / "chaos",
            modes=FAULT_MODES,
            barriers=(1,),
            timeout_s=600.0,
        )
        assert report.ok, [(f.label, f.detail) for f in report.failures]
        assert report.n_barriers == 1 + spec.n_points + 1
        assert report.reference_sha256 == cold.document_sha256
        _ref, ref_payload = load_sweep_table(spec, store)
        for mode in FAULT_MODES:
            cache = ArtifactStore(tmp_path / "chaos" / f"{mode}-01" / "cache")
            assert load_sweep_table(spec, cache)[1] == ref_payload

    def test_status_reporting(self, store):
        spec = _tiny("status-never-run", scales=(1.0, 4.0))
        assert sweep_status(spec, store) is None
        done = _tiny("heal", scales=(1.0, 2.0))  # ran above
        after = sweep_status(done, store)
        assert after.kind == "sweep" and after.complete
        assert after.n_units == done.n_points == 2


# ---------------------------------------------------------------------------
# reducer + CLI
# ---------------------------------------------------------------------------


class TestReducerAndCli:
    @staticmethod
    def _scale_row(index, scale, mtbf, **axes_overrides):
        axes = {
            "scale": scale,
            "rates": {"dbe": 1.0, "otb": 1.0, "sbe": 1.0, "xid": 1.0},
            "window_days": None,
            "burst": 1.0,
            "corruption": 0.0,
        }
        axes.update(axes_overrides)
        return {
            "index": index,
            "axes": axes,
            "n_nodes": round(18_688 * scale),
            "dbe_mtbf_hours": mtbf,
        }

    def test_scaling_projection_math(self):
        # Pure-function check of the paper's superposition argument:
        # MTBF(s) = MTBF(1)/s, restricted to scale-only rows.
        table = {
            "rows": [
                self._scale_row(0, 4.0, 40.0),
                self._scale_row(1, 1.0, 160.0),
                self._scale_row(2, 2.0, 81.0),
                self._scale_row(3, 2.0, 999.0, corruption=0.5),  # excluded
            ]
        }
        projection = scaling_projection(table)
        assert projection["titan_nodes"] == 18_688
        assert projection["anchor_mtbf_hours"] == 160.0
        assert [r["scale"] for r in projection["rows"]] == [1.0, 2.0, 4.0]
        assert [r["expected_mtbf_hours"] for r in projection["rows"]] == [
            160.0, 80.0, 40.0,
        ]
        assert projection["rows"][1]["dbe_mtbf_hours"] == 81.0

    def test_scaling_projection_from_live_table(self, store):
        spec = _spec12()  # summaries are warm from TestEngine
        report = run_sweep(spec, store, resume=True)
        projection = scaling_projection(report.document)
        assert projection["titan_nodes"] == 18_688
        assert [r["scale"] for r in projection["rows"]] == [1.0, 2.0, 3.0]
        assert projection["rows"][0]["n_nodes"] == 18_688
        anchor = projection["rows"][0]
        # a 3-day smoke window may legitimately see zero DBEs
        assert anchor["expected_mtbf_hours"] == anchor["dbe_mtbf_hours"]

    def test_renderers_and_csv(self, store, tmp_path):
        spec = _spec12()
        table, _payload = load_sweep_table(spec, store)
        text = render_sensitivity(table)
        assert "anchor" in text and "scale=3,dbe*2,burst=2" in text
        chart = render_projection(scaling_projection(table))
        assert "*titan*" in chart
        csv_path = write_table_csv(tmp_path / "t.csv", table)
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 12
        assert lines[0].startswith("index,label,scale")

    def test_cli_run_status_report(self, store, tmp_path, capsys):
        from repro.cli import main

        spec = _tiny("cli", scales=(1.0, 2.0))
        specfile = tmp_path / "spec.json"
        specfile.write_text(json.dumps(spec.to_doc()))
        common = ["--spec", str(specfile), "--cache-dir", str(store.root)]

        assert main(["sweep", "run", *common, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "cold sweep" in out and "table sha256" in out

        assert main(["sweep", "status", *common]) == 0
        assert "2/2 point(s) journaled, complete" in capsys.readouterr().out

        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "table.json"
        assert main([
            "sweep", "report", *common,
            "--csv", str(csv_path), "--out", str(json_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "sensitivity table" in out and "scaling projection" in out
        assert csv_path.exists()
        table, payload = load_sweep_table(spec, store)
        assert json_path.read_bytes() == payload

    def test_cli_requires_a_store(self, capsys):
        from repro.cli import main

        assert main(["sweep", "run", "--no-cache"]) == 2
        assert "artifact store" in capsys.readouterr().err

    def test_cli_hung_point_reports_timeout(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        # A fresh store (warm summaries finish inside any deadline) and
        # no retries: whichever point starts first runs past the deadline
        # on its only attempt, which is a timeout, not a journal failure.
        monkeypatch.setattr("repro.parallel.pool.MAX_RETRIES", 0)
        specfile = tmp_path / "spec.json"
        specfile.write_text(
            json.dumps(_tiny("cli-hang", scales=(1.0, 2.0)).to_doc())
        )
        rc = main([
            "sweep", "run", "--spec", str(specfile),
            "--cache-dir", str(tmp_path / "cache"),
            "--jobs", "2", "--timeout", "0.05", "--quiet",
        ])
        err = capsys.readouterr().err
        assert rc == 1
        hung = re.search(r"point\(s\) \[([0-9, ]+)\] still hung", err)
        assert hung and set(hung.group(1).split(", ")) <= {"0", "1"}
        assert "--timeout 0.05" in err
        assert "--resume" in err
        assert "journal write failed" not in err

    @pytest.mark.parametrize("bad", ["0", "-1", "nan"])
    def test_cli_rejects_nonpositive_timeout(self, tmp_path, capsys, bad):
        from repro.cli import main

        with pytest.raises(SystemExit) as info:
            main([
                "sweep", "run", "--cache-dir", str(tmp_path),
                "--jobs", "2", "--timeout", bad,
            ])
        assert info.value.code == 2
        assert "--timeout" in capsys.readouterr().err
        assert not list(tmp_path.glob("runs/*.jsonl"))

    def test_cli_report_before_run_fails_cleanly(self, store, capsys):
        from repro.cli import main

        assert main([
            "sweep", "report", "--spec", "/nonexistent.json",
            "--cache-dir", str(store.root),
        ]) == 2
        assert "cannot read sweep spec" in capsys.readouterr().err
        assert main([
            "sweep", "report", "--preset", "scaling",
            "--cache-dir", str(store.root),
        ]) == 1
        assert "no sensitivity table" in capsys.readouterr().err
