"""Tests for repro.cache: keys, serde, store durability, pipeline.

The contract under test is the one docs/PERFORMANCE.md documents:

* **key stability** — the content address is a pure function of
  ``(scenario configuration, seed, pipeline epoch)``; any perturbation
  of any axis produces a fresh key (hypothesis-checked);
* **corruption safety** — a truncated, garbled or checksum-broken
  artifact degrades to a *miss* (recompute), never a wrong answer;
* **atomicity** — concurrent writers/readers of one key never observe
  a torn container (two-process check);
* **incremental engine** — warm loads reproduce the cold dataset's
  observable artifacts exactly and never expose ground truth.
"""

import dataclasses
import hashlib
import json
import multiprocessing as mp
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.cache import (
    ArtifactStore,
    GroundTruthUnavailable,
    PIPELINE_EPOCH,
    canonical_encode,
    canonical_json,
    dataset_key,
    load_dataset,
    load_or_simulate,
    persist_dataset,
    scenario_fingerprint,
)
from repro.cache import serde, sweep_point_key
from repro.cache.store import _MAGIC
from repro.sim import Scenario
from repro.sweep import RateMultipliers, SweepSpec, expand, preset


# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------


class TestCanonicalEncoding:
    def test_float_bit_exact(self):
        assert canonical_json(0.1 + 0.2) != canonical_json(0.3)
        assert canonical_json(-0.0) != canonical_json(0.0)
        assert canonical_json(1.0) == canonical_json(1.0)

    def test_dict_order_insensitive(self):
        assert canonical_json({"a": 1, "b": 2}) == canonical_json(
            {"b": 2, "a": 1}
        )

    def test_numpy_round_trip(self):
        a = np.arange(6, dtype=np.float64).reshape(2, 3)
        b = np.arange(6, dtype=np.float64).reshape(2, 3)
        assert canonical_json(a) == canonical_json(b)
        assert canonical_json(a) != canonical_json(a.astype(np.float32))

    def test_rejects_unencodable(self):
        with pytest.raises(TypeError):
            canonical_encode(object())

    def test_encoding_is_stable_text(self):
        # Pin the canonical form itself: a silent format change would
        # orphan every existing cache entry without an epoch bump.
        assert canonical_json(1.5) == '["f","0x1.8000000000000p+0"]'


class TestKeys:
    def test_same_scenario_same_key(self):
        a = Scenario.smoke(seed=7)
        b = Scenario.smoke(seed=7)
        assert a is not b
        assert dataset_key(a) == dataset_key(b)

    def test_seed_excluded_from_fingerprint(self):
        assert scenario_fingerprint(Scenario.smoke(seed=1)) == (
            scenario_fingerprint(Scenario.smoke(seed=2))
        )
        assert dataset_key(Scenario.smoke(seed=1)) != (
            dataset_key(Scenario.smoke(seed=2))
        )

    def test_epoch_changes_key(self):
        sc = Scenario.smoke()
        assert dataset_key(sc, epoch=PIPELINE_EPOCH) != (
            dataset_key(sc, epoch=PIPELINE_EPOCH + 1)
        )

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        days=st.floats(min_value=1.0, max_value=600.0,
                       allow_nan=False, allow_infinity=False),
        folded=st.booleans(),
    )
    def test_key_pure_function_of_inputs(self, seed, days, folded):
        base = Scenario.smoke(seed=seed, days=days).evolve(
            folded_torus=folded
        )
        again = Scenario.smoke(seed=seed, days=days).evolve(
            folded_torus=folded
        )
        assert dataset_key(base) == dataset_key(again)
        # Every axis perturbation must move the key.
        perturbed = [
            base.evolve(seed=seed + 1),
            base.evolve(folded_torus=not folded),
            base.evolve(end=base.end + 1.0),
            base.evolve(name=base.name + "x"),
        ]
        keys = {dataset_key(p) for p in perturbed}
        assert dataset_key(base) not in keys
        assert len(keys) == len(perturbed)

    @settings(max_examples=40, deadline=None)
    @given(
        mtbf=st.floats(min_value=10.0, max_value=1e4,
                       allow_nan=False, allow_infinity=False),
    )
    def test_nested_rate_field_perturbs_key(self, mtbf):
        base = Scenario.smoke()
        changed = base.evolve(
            rates=dataclasses.replace(base.rates, dbe_mtbf_hours=mtbf)
        )
        same = dataset_key(changed) == dataset_key(base)
        assert same == (mtbf == base.rates.dbe_mtbf_hours)


class TestSweepPointKeys:
    """The sweep-point content address: injective, pure, process-stable."""

    def test_axis_flags_fold_into_key(self):
        sc = Scenario.smoke(seed=3)
        keys = {
            sweep_point_key(sc),
            sweep_point_key(sc, corruption=0.01),
            sweep_point_key(sc, ground_truth=True),
            sweep_point_key(sc, corruption=0.01, ground_truth=True),
            sweep_point_key(sc, epoch=PIPELINE_EPOCH + 1),
        }
        assert len(keys) == 5
        # purity: a freshly built equal scenario maps to the same key
        assert sweep_point_key(Scenario.smoke(seed=3)) == sweep_point_key(sc)

    def test_corruption_level_is_bit_exact(self):
        sc = Scenario.smoke()
        assert sweep_point_key(sc, corruption=0.1 + 0.2) != (
            sweep_point_key(sc, corruption=0.3)
        )

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        scales=st.lists(
            st.floats(min_value=0.25, max_value=8.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=3, unique=True,
        ),
        dbe=st.floats(min_value=0.5, max_value=4.0,
                      allow_nan=False, allow_infinity=False),
        bursts=st.lists(
            st.floats(min_value=0.5, max_value=4.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=2, unique=True,
        ),
        corruptions=st.lists(
            st.floats(min_value=0.0, max_value=0.2,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=2, unique=True,
        ),
        ground_truth=st.booleans(),
    )
    def test_keys_injective_across_the_grid(
        self, seed, scales, dbe, bursts, corruptions, ground_truth
    ):
        assume(dbe != 1.0)
        spec = SweepSpec(
            name="h",
            base="smoke",
            seed=seed,
            days=5.0,
            scales=tuple(scales),
            rates=(RateMultipliers(), RateMultipliers(dbe=dbe)),
            bursts=tuple(bursts),
            corruptions=tuple(corruptions),
            availability=ground_truth,
        )
        points = expand(spec)
        keys = [p.key for p in points]
        # distinct grid points never collide on one summary address...
        assert len(set(keys)) == len(keys)
        # ...and re-expanding the same spec reproduces them exactly.
        assert [p.key for p in expand(spec)] == keys

    def test_keys_stable_across_processes(self):
        points = expand(preset("smoke"))
        here = [p.key for p in points]
        src_root = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_root) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        code = (
            "from repro.sweep import expand, preset\n"
            "print('\\n'.join(p.key for p in expand(preset('smoke'))))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert proc.stdout.split() == here


# ---------------------------------------------------------------------------
# serde
# ---------------------------------------------------------------------------


class TestSerde:
    @pytest.mark.parametrize(
        "obj, kind",
        [
            ("console line one\nline two\n", "text"),
            ({"a": [1, 2], "b": "x"}, "json"),
            ({"x": np.arange(5), "y": np.ones((2, 3))}, "npz"),
            (((1, 2), {"k": np.float64(3.5)}), "pickle"),
        ],
    )
    def test_round_trip(self, obj, kind):
        decoded = serde.decode(serde.encode(obj, kind), kind)
        if kind == "npz":
            assert set(decoded) == set(obj)
            for name in obj:
                np.testing.assert_array_equal(decoded[name], obj[name])
        else:
            assert decoded == obj

    def test_unknown_kind_rejected(self):
        with pytest.raises(serde.SerdeError):
            serde.encode("x", "parquet")
        with pytest.raises(serde.SerdeError):
            serde.decode(b"x", "parquet")

    def test_wrong_payload_type_rejected(self):
        with pytest.raises(serde.SerdeError):
            serde.encode(123, "text")
        with pytest.raises(serde.SerdeError):
            serde.encode({"a": [1]}, "npz")

    def test_garbled_payload_raises(self):
        with pytest.raises(serde.SerdeError):
            serde.decode(b"\x00garbage\xff", "text")


# ---------------------------------------------------------------------------
# store durability
# ---------------------------------------------------------------------------


class TestStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("abc/layer/console", "hello\n", "text")
        assert store.get("abc/layer/console") == "hello\n"
        assert store.stats.writes == 1
        assert store.stats.hits == 1

    def test_miss_counts(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get("nope") is None
        assert store.stats.misses == 1

    def test_bad_keys_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for key in ("", "../escape", "a//b", ".hidden", "a/./b", "x" * 600):
            with pytest.raises(ValueError):
                store.put(key, "x", "text")

    #: Headers that are valid JSON but not a well-typed header object.
    _ILL_TYPED_HEADERS = {
        "header_list": lambda h: [1, 2],
        "header_string": lambda h: "kind",
        "header_number": lambda h: 5,
        "nbytes_null": lambda h: {**h, "nbytes": None},
        "nbytes_list": lambda h: {**h, "nbytes": [2]},
    }

    @pytest.mark.parametrize(
        "damage",
        [
            "truncate", "garble_payload", "garble_header", "bad_magic",
            "empty", *_ILL_TYPED_HEADERS,
        ],
    )
    def test_corruption_degrades_to_miss(self, tmp_path, damage):
        store = ArtifactStore(tmp_path)
        path = store.put("k", {"v": 1}, "json")
        blob = path.read_bytes()
        if damage in self._ILL_TYPED_HEADERS:
            base = len(_MAGIC) + 4
            end = base + int.from_bytes(blob[len(_MAGIC):base], "big")
            header = self._ILL_TYPED_HEADERS[damage](json.loads(blob[base:end]))
            text = json.dumps(header).encode("ascii")
            path.write_bytes(
                _MAGIC + len(text).to_bytes(4, "big") + text + blob[end:]
            )
            assert store.entries() == []  # inventory skips it, no raise
        elif damage == "truncate":
            path.write_bytes(blob[: len(blob) // 2])
        elif damage == "garble_payload":
            path.write_bytes(blob[:-3] + b"\x00\x00\x00")
        elif damage == "garble_header":
            cut = len(_MAGIC) + 4
            path.write_bytes(blob[:cut] + b"\xff" * 8 + blob[cut + 8:])
        elif damage == "bad_magic":
            path.write_bytes(b"XXXX" + blob[4:])
        else:
            path.write_bytes(b"")
        assert store.get("k") is None  # never a wrong answer
        assert store.stats.corrupt_dropped == 1
        assert not path.exists()  # dropped on detection
        # The slot is reusable immediately.
        store.put("k", {"v": 2}, "json")
        assert store.get("k") == {"v": 2}

    def test_stale_kind_after_code_change_is_miss(self, tmp_path):
        # A valid container whose payload no longer decodes under its
        # kind (e.g. pickle of a renamed class) must degrade to a miss.
        store = ArtifactStore(tmp_path)
        payload = serde.encode({"v": 1}, "json")
        store.put_bytes("k", payload[:-1] + b"{", "json")  # valid checksum,
        assert store.get("k") is None                      # broken codec
        assert store.stats.corrupt_dropped == 1

    def test_crashed_writer_staging_file_is_invisible(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("k", "x", "text")
        # Simulate a writer that died mid-stage: partial temp file.
        staging = store._objects / "k.art.tmp-99999-0"
        staging.write_bytes(b"partial garbage")
        assert store.get("k") == "x"
        assert [e.key for e in store.entries()] == ["k"]
        removed = store.clear()
        assert removed == 1  # staging files are not counted as artifacts
        assert not staging.exists()

    def test_atomic_replace_last_writer_wins(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for i in range(20):
            store.put("k", f"value-{i}", "text")
        assert store.get("k") == "value-19"
        # No staging debris left behind.
        assert not list(store._objects.glob("*tmp*"))

    def test_evict_oldest_first(self, tmp_path):
        store = ArtifactStore(tmp_path)
        paths = []
        for i in range(4):
            paths.append(store.put(f"k{i}", "x" * 1000, "text"))
        # Make mtimes strictly ordered without wall-clock sleeps.
        for i, path in enumerate(paths):
            os.utime(path, (1_000_000 + i, 1_000_000 + i))
        removed = store.evict(store.total_bytes() - 1)
        assert removed == ["k0"]
        assert store.evict(0) == ["k1", "k2", "k3"]
        assert store.total_bytes() == 0

    def test_info_inventory(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("d1/layer/console", "text", "text")
        store.put("d1/fig/fig2", {"x": 1}, "pickle")
        store.put("d2/layer/nvsmi", {"a": np.ones(3)}, "npz")
        info = store.info()
        assert info.n_artifacts == 3
        assert set(info.datasets) == {"d1", "d2"}
        assert set(info.by_kind) == {"text", "pickle", "npz"}


class TestStoreHardening:
    """Races with concurrent processes and crashed-writer debris."""

    def test_open_sweeps_dead_writer_staging(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("k", "x", "text")
        # A staging file whose embedded pid is genuinely dead.
        import subprocess
        import sys

        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait(timeout=60)
        stale = store._objects / f"k.art.tmp-{proc.pid}-0"
        stale.write_bytes(b"partial")
        reopened = ArtifactStore(tmp_path)
        assert not stale.exists()
        assert reopened.get("k") == "x"

    def test_open_keeps_live_writer_staging(self, tmp_path):
        store = ArtifactStore(tmp_path)
        # pid 1 is always alive (signal-0 gives EPERM, not ESRCH), and
        # our own pid is skipped outright: both must survive the sweep.
        own = store._objects / f"a.art.tmp-{os.getpid()}-0"
        init = store._objects / "b.art.tmp-1-0"
        own.write_bytes(b"inflight")
        init.write_bytes(b"inflight")
        ArtifactStore(tmp_path)
        assert own.exists() and init.exists()

    def test_open_sweeps_garbled_staging_name(self, tmp_path):
        store = ArtifactStore(tmp_path)
        junk = store._objects / "k.art.tmp-notapid"
        junk.write_bytes(b"junk")
        ArtifactStore(tmp_path)
        assert not junk.exists()

    def test_entries_ignores_foreign_files(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("d/k", "x", "text")
        (store._objects / "d" / "README").write_text("not an artifact")
        assert [e.key for e in store.entries()] == ["d/k"]

    def test_concurrent_clear_and_evict_never_raise(self, tmp_path):
        # Multiple actors tearing down the same store must race
        # gracefully: files vanishing between listing and stat/unlink
        # are "already done", never an error.
        import threading

        store = ArtifactStore(tmp_path)
        for i in range(120):
            store.put(f"d{i % 8}/k{i}", "x" * 256, "text")
        errors: list[Exception] = []

        def teardown(mode: str) -> None:
            try:
                other = ArtifactStore(tmp_path)
                if mode == "clear":
                    other.clear()
                else:
                    other.evict(0)
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [
            threading.Thread(target=teardown, args=(mode,))
            for mode in ("clear", "evict", "clear", "evict")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        assert ArtifactStore(tmp_path).entries() == []


# ---------------------------------------------------------------------------
# two-process atomicity
# ---------------------------------------------------------------------------


def _writer_proc(root: str, n: int) -> None:
    store = ArtifactStore(root)
    for i in range(n):
        store.put("contended", {"i": i, "pad": "x" * (1 + i % 977)}, "json")


def _reader_proc(root: str, n: int, out) -> None:
    store = ArtifactStore(root)
    bad = 0
    seen = 0
    for _ in range(n):
        value = store.get("contended")
        if value is None:
            continue
        seen += 1
        if not (isinstance(value, dict)
                and value.get("pad") == "x" * (1 + value["i"] % 977)):
            bad += 1
    out.put((seen, bad, store.stats.corrupt_dropped))


class TestConcurrency:
    def test_two_process_reader_never_sees_torn_write(self, tmp_path):
        ctx = mp.get_context("spawn")
        out = ctx.Queue()
        writer = ctx.Process(target=_writer_proc, args=(str(tmp_path), 300))
        reader = ctx.Process(
            target=_reader_proc, args=(str(tmp_path), 300, out)
        )
        writer.start()
        reader.start()
        seen, bad, corrupt = out.get(timeout=120)
        writer.join(timeout=120)
        reader.join(timeout=120)
        assert writer.exitcode == 0 and reader.exitcode == 0
        assert bad == 0
        assert corrupt == 0  # os.replace is atomic: old or new, never torn
        final = ArtifactStore(tmp_path).get("contended")
        assert final == {"i": 299, "pad": "x" * (1 + 299 % 977)}

    def test_two_process_distinct_keys_all_land(self, tmp_path):
        ctx = mp.get_context("spawn")
        procs = [
            ctx.Process(target=_writer_proc, args=(str(tmp_path), 50))
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        assert ArtifactStore(tmp_path).get("contended")["i"] == 49


# ---------------------------------------------------------------------------
# the incremental engine
# ---------------------------------------------------------------------------

SMOKE = Scenario.smoke(days=15.0, seed=424242)


class TestPipeline:
    @pytest.fixture(scope="class")
    def warm_store(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cache")
        store = ArtifactStore(root)
        dataset, warm = load_or_simulate(SMOKE, store)
        assert not warm
        return store, dataset

    def test_cold_persists_all_layers(self, warm_store):
        store, _ = warm_store
        assert load_dataset(store, SMOKE) is not None
        dkey = dataset_key(SMOKE)
        assert all(key.startswith(dkey) for key in store.keys())

    def test_warm_load_bit_identical_observables(self, warm_store):
        store, cold = warm_store
        warm = load_dataset(store, SMOKE)
        assert warm.provenance == "cache"
        assert warm.console_text == cold.console_text
        assert len(warm.parsed_events) == len(cold.parsed_events)
        np.testing.assert_array_equal(
            warm.parsed_events.time, cold.parsed_events.time
        )
        np.testing.assert_array_equal(
            warm.nvsmi_table["sbe_total"], cold.nvsmi_table["sbe_total"]
        )
        np.testing.assert_array_equal(warm.trace.user, cold.trace.user)
        assert len(warm.jobsnap_records) == len(cold.jobsnap_records)
        assert warm.parse_stats == cold.parse_stats

    def test_warm_flag_and_store_counters(self, warm_store):
        store, _ = warm_store
        before = store.stats.hits
        _, warm = load_or_simulate(SMOKE, store)
        assert warm
        assert store.stats.hits > before

    def test_ground_truth_never_cached(self, warm_store):
        store, _ = warm_store
        warm = load_dataset(store, SMOKE)
        for attr in ("events", "injection", "fleet", "thermal", "users",
                     "nvsmi", "node_state_log", "sbe_by_slot", "sbe_by_job"):
            with pytest.raises(GroundTruthUnavailable):
                getattr(warm, attr)

    def test_require_ground_truth_simulates(self, warm_store):
        store, _ = warm_store
        dataset, warm = load_or_simulate(
            SMOKE, store, require_ground_truth=True
        )
        assert not warm
        assert len(dataset.events)  # ground truth present

    def test_corrupt_layer_forces_transparent_recompute(self, warm_store):
        store, cold = warm_store
        dkey = dataset_key(SMOKE)
        path = store._path(f"{dkey}/layer/parsed")
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 3])  # torn write
        before = store.stats.corrupt_dropped
        dataset, warm = load_or_simulate(SMOKE, store)
        assert not warm  # miss, resimulated
        assert store.stats.corrupt_dropped == before + 1
        assert dataset.console_text == cold.console_text
        # ... and the recompute re-persisted the damaged layer.
        assert load_dataset(store, SMOKE) is not None

    def test_modified_stream_never_persisted(self, warm_store):
        store, cold = warm_store
        modified = cold.with_console_text("GPU XID garbage\n")
        assert modified.provenance == "modified"
        with pytest.raises(ValueError):
            persist_dataset(store, modified)

    def test_epoch_bump_is_a_clean_miss(self, warm_store):
        store, _ = warm_store
        assert load_dataset(store, SMOKE, epoch=PIPELINE_EPOCH + 1) is None

    def test_monolithic_console_layer_is_a_miss(self, tmp_path, warm_store):
        """A store written before the console layer was sharded holds
        one monolithic ``console`` artifact: it must read as a miss and
        be re-persisted in the sharded form."""
        _, cold = warm_store
        store = ArtifactStore(tmp_path)
        dkey = dataset_key(SMOKE)
        for layer, obj, kind in (
            ("console", cold.console_text, "text"),
            ("parsed", (cold.parsed_events, cold.parse_stats), "pickle"),
            ("nvsmi", cold.nvsmi_table, "npz"),
            ("jobsnap", cold.jobsnap_records, "pickle"),
            ("trace", cold.trace, "pickle"),
        ):
            store.put(f"{dkey}/layer/{layer}", obj, kind)
        assert not store.has(f"{dkey}/layer/console.manifest")
        assert load_dataset(store, SMOKE) is None

        _, warm = load_or_simulate(SMOKE, store)
        assert not warm
        assert store.has(f"{dkey}/layer/console.manifest")
        assert store.has(f"{dkey}/layer/console.000000")
        reloaded, warm = load_or_simulate(SMOKE, store)
        assert warm
        assert reloaded.console_text == cold.console_text

    def test_v1_console_manifest_is_a_miss(self, tmp_path, warm_store):
        """A version-1 manifest records digests of the shard *text*: it
        must read as a miss, never be checked against container digests,
        and be re-persisted as version 2."""
        _, cold = warm_store
        store = ArtifactStore(tmp_path)
        dkey = dataset_key(SMOKE)
        text = cold.console_text
        encoded = text.encode("utf-8")
        for layer, obj, kind in (
            ("console.000000", text, "text"),
            ("parsed", (cold.parsed_events, cold.parse_stats), "pickle"),
            ("nvsmi", cold.nvsmi_table, "npz"),
            ("jobsnap", cold.jobsnap_records, "pickle"),
            ("trace", cold.trace, "pickle"),
            ("console.manifest", {
                "version": 1,
                "total_lines": text.count("\n"),
                "total_bytes": len(encoded),
                "shards": [{
                    "name": "console.000000",
                    "lines": text.count("\n"),
                    "nbytes": len(encoded),
                    "sha256": hashlib.sha256(encoded).hexdigest(),
                }],
            }, "json"),
        ):
            store.put(f"{dkey}/layer/{layer}", obj, kind)
        assert load_dataset(store, SMOKE) is None

        _, warm = load_or_simulate(SMOKE, store)
        assert not warm
        manifest = store.get(f"{dkey}/layer/console.manifest")
        assert manifest["version"] == 2
        assert manifest["shards"][0]["sha256"] == (
            store.get_verified(f"{dkey}/layer/console.000000")[2]
        )
        reloaded, warm = load_or_simulate(SMOKE, store)
        assert warm
        assert reloaded.console_text == cold.console_text


class TestStudyMemoization:
    def test_figure_store_round_trip(self, tmp_path, smoke_dataset):
        from repro.core import TitanStudy

        store = ArtifactStore(tmp_path)
        persist_dataset(store, smoke_dataset)
        cold = TitanStudy(smoke_dataset, store=store)
        fig2 = cold.fig2()
        assert cold.fig2() is fig2  # in-process memo
        warm_ds = load_dataset(store, smoke_dataset.scenario)
        warm = TitanStudy(warm_ds, store=store)
        from repro.core.golden import figure_digest

        assert figure_digest(warm.fig2()) == figure_digest(fig2)
        assert store.stats.hits > 0

    def test_non_default_args_bypass_cache(self, smoke_dataset, tmp_path):
        from repro.core import TitanStudy

        store = ArtifactStore(tmp_path)
        study = TitanStudy(smoke_dataset, store=store)
        fig10_wide = study.fig10(dedup_window_s=60.0)
        fig10_default = study.fig10()
        assert fig10_wide.total <= fig10_default.total
        # only the default call was persisted
        assert [k for k in store.keys() if "fig10" in k] == [
            f"{study.dataset_key}/fig/fig10"
        ]

    def test_modified_dataset_does_not_write_store(
        self, smoke_dataset, tmp_path
    ):
        from repro.core import TitanStudy

        store = ArtifactStore(tmp_path)
        modified = smoke_dataset.with_console_text(
            smoke_dataset.console_text
        )
        study = TitanStudy(modified, store=store)
        study.fig2()
        assert store.keys() == []  # nothing persisted for modified streams


class TestDegradationReuse:
    def test_sweep_reuses_cached_baseline(self, tmp_path, monkeypatch):
        """A corrupted sweep point warm-loads the clean dataset its
        anchor persisted: the curve simulates the scenario once."""
        from repro.sim import TitanSimulation
        from repro.sweep import point_summary_doc

        store = ArtifactStore(tmp_path)
        spec = SweepSpec(
            name="deg", days=15.0, seed=11, corruptions=(0.0, 0.01)
        )
        clean, corrupted = expand(spec)
        assert corrupted.dataset_key == clean.dataset_key
        point_summary_doc(clean, store)
        assert load_dataset(store, clean.scenario) is not None

        def no_simulation(_self):
            raise AssertionError("the corrupted point re-simulated")

        monkeypatch.setattr(TitanSimulation, "run", no_simulation)
        hits_before = store.stats.hits
        doc = point_summary_doc(corrupted, store)
        assert store.stats.hits > hits_before
        assert doc["telemetry"]["corrupt_fraction"] > 0.0
        assert doc["telemetry"]["injected"]


class TestReplicaCache:
    def test_replicas_warm_from_cache_dir(self, tmp_path):
        from repro.sweep import SweepSpec, expand, run_sweep

        spec = SweepSpec(name="rep", days=15.0, seed=0, replicas=2)
        cold = run_sweep(spec, ArtifactStore(tmp_path))
        store = ArtifactStore(tmp_path)
        for point in expand(spec):
            assert load_dataset(store, point.scenario) is not None
        os.unlink(cold.journal_path)  # a new campaign over the same store
        warm = run_sweep(spec, store)
        assert all(unit.warm for unit in warm.units)
        assert warm.document_sha256 == cold.document_sha256
