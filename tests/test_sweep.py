"""Tests for :mod:`repro.sweep`: spec, grid, engine, reducer, CLI.

The engine contract under test is the one the supervised runner
already honors one level down, lifted to whole scenario points:

* a sweep is a deterministic grid — same spec, same points, same
  content-addressed summary keys, in every process;
* the all-baseline *anchor* point is the untouched base scenario;
* a run can be killed at any journal barrier and resumed to a
  byte-identical sensitivity table;
* warm reruns (journal gone, store intact) reuse summaries without
  recomputing physics;
* a replica axis re-seeds each cell and leaves replica 0 — hence every
  ``replicas=1`` grid — exactly as it was.
"""

import dataclasses
import hashlib
import json
import math
import os
import re

import numpy as np
import pytest

from repro.cache import ArtifactStore, dataset_key, scenario_fingerprint
from repro.chaos.procfault import FAULT_MODES
from repro.core import TitanStudy, headline_statistics, observation_scorecard
from repro.sim import TitanSimulation
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
    table_key,
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
        degradation = preset("degradation")
        assert degradation.base == "paper"
        assert degradation.corruptions == (0.0, 0.001, 0.01, 0.05, 0.2)
        assert degradation.n_points == 5
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
            (dict(days=math.inf), "days must be positive and finite"),
            (dict(days=math.nan), "days must be positive and finite"),
            (dict(scales=(math.inf,)), "scale must be positive and finite"),
            (dict(rates=(RateMultipliers(xid=math.inf),)), "xid must be"),
            (dict(windows=(math.inf,)), "window must be positive and finite"),
            (dict(bursts=(math.inf,)), "burst must be positive and finite"),
            (dict(seed=1.5), "seed must be an integer >= 0"),
            (dict(seed=-1), "seed must be an integer >= 0"),
            (dict(replicas=0), "replicas must be"),
            (dict(replicas=True), "replicas must be"),
            (dict(replicas=2.0), "replicas must be"),
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
        replicated = dataclasses.replace(spec, replicas=3)
        assert SweepSpec.from_doc(replicated.to_doc()) == replicated

    def test_doc_without_replicas_loads(self):
        doc = _tiny("old").to_doc()
        del doc["replicas"]
        assert SweepSpec.from_doc(doc).replicas == 1

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("days", math.inf, "days must be positive"),
            ("days", math.nan, "days must be positive"),
            ("scales", [math.inf], "scale must be positive"),
            ("rates", [{"dbe": math.inf}], "dbe must be positive"),
            ("windows", [math.inf], "window must be positive"),
            ("bursts", [math.inf], "burst must be positive"),
            ("seed", 1.5, "seed must be"),
            ("replicas", 1.5, "replicas must be"),
            ("replicas", True, "replicas must be"),
            ("scales", math.inf, "malformed sweep spec"),
        ],
    )
    def test_json_spec_rejects(self, tmp_path, field, value, match):
        doc = _tiny("j").to_doc()
        doc[field] = value
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))  # inf and nan as Infinity, NaN
        with pytest.raises(ValueError, match=match):
            SweepSpec.from_file(path)

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
            _tiny("k", replicas=2),
        ]
        keys = {p.key() for p in perturbed}
        assert base.key() not in keys
        assert len(keys) == len(perturbed)

    def test_key_survives_a_spec_file(self):
        spec = _tiny("ints", days=3, scales=(1, 2), bursts=(1, 2))
        assert spec.key() == SweepSpec.from_doc(spec.to_doc()).key()
        assert spec.key() == _tiny("ints", scales=(1.0, 2.0), bursts=(1.0, 2.0)).key()


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
        # each summary reports the parse damage behind its figures
        clean = TitanSimulation(expand(spec)[0].scenario).run()
        clean_stats = clean.parse_stats
        assert docs[0]["telemetry"] == {
            "total_lines": clean_stats.total_lines,
            "parsed_events": clean_stats.parsed_events,
            "non_gpu_lines": clean_stats.non_gpu_lines,
            "malformed_lines": 0,
            "unknown_xid_lines": 0,
            "resynced_lines": 0,
            "quarantined_lines": 0,
            "corrupt_fraction": 0.0,
            "injected": {},
        }
        dirty_telemetry = docs[1]["telemetry"]
        assert dirty_telemetry["injected"]
        assert set(dirty_telemetry["injected"]) <= {
            "truncate", "garble", "splice", "duplicate", "displace", "skew",
        }
        assert dirty_telemetry["total_lines"] == (
            dirty_telemetry["parsed_events"]
            + dirty_telemetry["non_gpu_lines"]
            + dirty_telemetry["malformed_lines"]
            + dirty_telemetry["unknown_xid_lines"]
        )
        assert dirty["corrupt_fraction"] == (
            dirty_telemetry["corrupt_fraction"]
        ) > 0.0
        assert dirty["resynced_lines"] == dirty_telemetry["resynced_lines"] > 0
        anchor = report.document["rows"][0]
        assert anchor["corrupt_fraction"] == 0.0 == anchor["resynced_lines"]

    def test_resume_under_explicit_id_refuses_other_sweep(self, store):
        spec_a = _tiny("id-a")
        run_sweep(spec_a, store, run_id="pinned")
        with pytest.raises(JournalError, match="refusing to resume"):
            run_sweep(_tiny("id-b"), store, resume=True, run_id="pinned")

    def test_kill_at_point_barrier_resumes_byte_identical(
        self, store, tmp_path
    ):
        for replicas in (1, 2):
            spec = _tiny("chaos", scales=(1.0, 2.0), replicas=replicas)
            cold = run_sweep(spec, store)  # reference table, shared store

            specfile = tmp_path / f"spec-{replicas}.json"
            specfile.write_text(json.dumps(spec.to_doc()))
            workdir = tmp_path / f"chaos-{replicas}"
            report = run_fault_sweep(
                ["sweep", "run", "--spec", str(specfile), "--quiet"],
                workdir,
                modes=FAULT_MODES,
                barriers=(1,),
                timeout_s=600.0,
            )
            assert report.ok, [(f.label, f.detail) for f in report.failures]
            assert report.n_barriers == 1 + spec.n_points + 1
            assert report.reference_sha256 == cold.document_sha256
            _ref, ref_payload = load_sweep_table(spec, store)
            for mode in FAULT_MODES:
                cache = ArtifactStore(workdir / f"{mode}-01" / "cache")
                assert load_sweep_table(spec, cache)[1] == ref_payload

    def test_status_reporting(self, store):
        spec = _tiny("status-never-run", scales=(1.0, 4.0))
        assert sweep_status(spec, store) is None
        done = _tiny("heal", scales=(1.0, 2.0))  # ran above
        after = sweep_status(done, store)
        assert after.kind == "sweep" and after.complete
        assert after.n_units == done.n_points == 2


# ---------------------------------------------------------------------------
# replica axis
# ---------------------------------------------------------------------------


def _grid_digest(spec):
    """Digest of everything a grid decides that no epoch bump moves."""
    rows = [
        [p.index, p.label, p.scenario.seed, p.scenario.name, p.is_anchor,
         p.n_nodes]
        for p in expand(spec)
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


class TestReplicaAxis:
    #: ``_grid_digest`` of the three presets and of the CI job's 3x2 grid,
    #: recorded before the replica axis existed.
    GRIDS = {
        "smoke": "9dfe1eda7f8bb772",
        "sensitivity": "5d9a856ca63ef963",
        "scaling": "1d1d5e66496fa7c5",
        "ci": "bf2d984309680ea3",
    }

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_replicas_one_keeps_the_grid(self, name):
        spec = (
            _tiny(
                "ci",
                scales=(1.0, 2.0, 3.0),
                rates=(RateMultipliers(), RateMultipliers(dbe=2.0)),
            )
            if name == "ci"
            else preset(name)
        )
        assert spec.replicas == 1
        assert _grid_digest(spec) == self.GRIDS[name]

    def test_replica_zero_is_the_unreplicated_point(self):
        spec = _tiny("r", scales=(1.0, 2.0), corruptions=(0.0, 0.1))
        plain = expand(spec)
        replicated = expand(dataclasses.replace(spec, replicas=3))
        assert len(replicated) == 3 * len(plain)
        assert [
            (p.key, p.label, p.scenario, p.is_anchor)
            for p in replicated
            if p.replica == 0
        ] == [(p.key, p.label, p.scenario, p.is_anchor) for p in plain]
        assert sum(p.is_anchor for p in replicated) == 1
        # one scenario per (cell scenario, replica); corruption shares it
        seeds = {(p.scale, p.replica): p.scenario.seed for p in replicated}
        assert len(set(seeds.values())) == len(seeds) == 2 * 3
        for cell in plain:
            members = [
                p for p in replicated
                if (p.scale, p.corruption) == (cell.scale, cell.corruption)
            ]
            assert [p.replica for p in members] == [0, 1, 2]
            assert len({scenario_fingerprint(p.scenario) for p in members}) == 1
            assert len({p.key for p in members}) == 3
        assert len({p.label for p in replicated}) == len(replicated)

    def test_replica_sweep_matches_direct_runs(self, store, capsys, tmp_path):
        from repro.cli import main
        from repro.sweep.engine import summary_key

        spec = _tiny("replicas", replicas=3)
        report = run_sweep(spec, store, n_workers=2)
        points = expand(spec)
        docs = [
            json.loads(store.get_bytes(summary_key(p.key))[0].decode())
            for p in points
        ]
        studies = [TitanStudy(TitanSimulation(p.scenario).run()) for p in points]
        rows = report.document["rows"]
        for point, doc, study, row in zip(points, docs, studies, rows):
            assert doc["headline"] == headline_statistics(study)
            assert row["replica"] == point.replica
            assert row["dbe_total"] == doc["headline"]["dbe_total"]

        (band,) = report.document["bands"]
        assert band["label"] == "anchor" and band["indices"] == [0, 1, 2]
        common = set.intersection(*(set(d["headline"]) for d in docs))
        assert set(band["headline"]) == common
        for name in common:
            values = np.array([d["headline"][name] for d in docs])
            assert band["headline"][name] == [
                np.quantile(values, 0.05),
                np.median(values),
                np.quantile(values, 0.95),
            ]
        cards = [observation_scorecard(study) for study in studies]
        assert band["pass_counts"] == {
            check.name: sum(card[i].ok for card in cards)
            for i, check in enumerate(cards[0])
        }

        # journal gone, store intact: every replica is warm
        os.unlink(report.journal_path)
        rerun = run_sweep(spec, store)
        assert all(unit.warm for unit in rerun.units)
        assert rerun.document_sha256 == report.document_sha256

        specfile = tmp_path / "spec.json"
        specfile.write_text(json.dumps(spec.to_doc()))
        assert main([
            "sweep", "report", "--spec", str(specfile),
            "--cache-dir", str(store.root), "--no-projection",
        ]) == 0
        out = capsys.readouterr().out
        assert "replica bands: p05/median/p95 over 3 replicas" in out
        assert "rep=2" in out


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

    @staticmethod
    def _one_replica_bands(rows):
        return [
            {
                "indices": [r["index"]],
                "headline": {"dbe_mtbf_hours": [r["dbe_mtbf_hours"]] * 3},
            }
            for r in rows
        ]

    def test_scaling_projection_math(self):
        # Pure-function check of the paper's superposition argument:
        # MTBF(s) = MTBF(1)/s, restricted to scale-only cells.
        rows = [
            self._scale_row(0, 4.0, 40.0),
            self._scale_row(1, 1.0, 160.0),
            self._scale_row(2, 2.0, 81.0),
            self._scale_row(3, 2.0, 999.0, corruption=0.5),  # excluded
        ]
        table = {"rows": rows, "bands": self._one_replica_bands(rows)}
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
        # one replica: each cell's band median is its row's own value
        scale_only = sorted(
            (
                r for r in report.document["rows"]
                if r["axes"]["rates"]["dbe"] == 1.0
                and r["axes"]["burst"] == 1.0
            ),
            key=lambda r: r["n_nodes"],
        )
        assert [
            (p["scale"], p["n_nodes"], p["dbe_mtbf_hours"])
            for p in projection["rows"]
        ] == [
            (r["axes"]["scale"], r["n_nodes"], r["dbe_mtbf_hours"])
            for r in scale_only
        ]

    def test_scaling_projection_reads_replica_bands(self, store):
        spec = _tiny("proj", days=20.0, scales=(1.0, 2.0), replicas=2)
        table = run_sweep(spec, store).document
        projection = scaling_projection(table)
        assert [r["scale"] for r in projection["rows"]] == [1.0, 2.0]
        medians = [
            band["headline"]["dbe_mtbf_hours"][1] for band in table["bands"]
        ]
        anchor_median = medians[0]
        assert projection["anchor_mtbf_hours"] == anchor_median
        for row, median in zip(projection["rows"], medians):
            assert row["dbe_mtbf_hours"] == median
            assert row["expected_mtbf_hours"] == anchor_median / row["scale"]
        assert render_projection(projection).count("*titan*") == 1

    def test_renderers_and_csv(self, store, tmp_path):
        spec = _spec12()
        table, _payload = load_sweep_table(spec, store)
        text = render_sensitivity(table)
        assert "anchor" in text and "scale=3,dbe*2,burst=2" in text
        assert text.splitlines()[1].split()[6] == "corrupt"
        assert text.splitlines()[3].split()[6] == "0.000%"
        chart = render_projection(scaling_projection(table))
        assert "*titan*" in chart
        csv_path = write_table_csv(tmp_path / "t.csv", table)
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 12
        assert lines[0].startswith("index,label,scale")
        assert ",corrupt_fraction,resynced_lines," in lines[0]

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
        assert "replica bands" not in out  # one replica: no spread
        assert csv_path.exists()
        table, payload = load_sweep_table(spec, store)
        assert json_path.read_bytes() == payload

    def test_cli_summary_line_counts_warm_points(self, tmp_path, capsys):
        """The summary line tells a warm rerun from a full recompute."""
        from repro.cli import main

        spec = _tiny("summary-line", scales=(1.0, 2.0))
        specfile = tmp_path / "spec.json"
        specfile.write_text(json.dumps(spec.to_doc()))
        cache = tmp_path / "cache"
        common = ["--spec", str(specfile), "--cache-dir", str(cache), "--quiet"]
        rid = f"sweep-{spec.key()[:16]}"

        assert main(["sweep", "run", *common]) == 0
        cold = capsys.readouterr().out.splitlines()
        assert cold[0] == f"cold sweep {rid}: 0 point(s) verified, 0 warm, 2 computed"

        # Journal gone, store intact: every summary is reused.
        os.unlink(cache / "runs" / f"{rid}.jsonl")
        assert main(["sweep", "run", *common]) == 0
        rerun = capsys.readouterr().out.splitlines()
        assert rerun[0] == f"cold sweep {rid}: 0 point(s) verified, 2 warm, 0 computed"
        assert rerun[1] == cold[1]  # the table's sha256

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
        # a table an older build wrote under the same key reads as absent
        old = preset("scaling")
        store.put_bytes(
            table_key(old), json.dumps({"version": 2}).encode(), "json"
        )
        assert main([
            "sweep", "report", "--preset", "scaling",
            "--cache-dir", str(store.root),
        ]) == 1
        assert "no sensitivity table (version 3)" in capsys.readouterr().err
        store.delete(table_key(old))
