"""The streamed telemetry pipeline: shards, batched parse, cache layers.

Everything here guards one contract: streaming is a *memory*
optimization, never a semantic one.  The console shards the artifact
store writes concatenate byte-identical to the whole text, batched
parses of line streams and of stored shards reproduce the serial
parser's log, statistics and quarantine exactly, the sharded console
cache layer round-trips under the dataset key (and any damaged or
foreign manifest reads as a miss), and a paper run whose console text
is never materialized reproduces the committed golden digests bit for
bit.  The bugfix satellites ride along: LRU eviction, the coverage
edge clamp, fused-record seam recovery and the half-up fleet rounding.
"""

import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cache import ArtifactStore, load_dataset, persist_dataset
from repro.cache.pipeline import (
    _CONSOLE_MANIFEST_LAYER,
    ShardCorruption,
    ShardManifest,
    _console_shard_layer,
    _console_shard_source,
    _layer_key,
    _put_console_shards,
    dataset_key,
    load_or_simulate,
)
from repro.telemetry.console import ConsoleLogWriter
from repro.telemetry.coverage import infer_outage_windows
from repro.telemetry.ingestion import IngestionError
from repro.telemetry.parser import ConsoleLogParser, _split_lines

_COLUMNS = ("time", "gpu", "etype", "structure", "job", "parent", "aux")

#: Dataset key the shard-mechanics tests store their shards under.
DKEY = "shardtest"


def assert_logs_equal(a, b):
    for name in _COLUMNS:
        np.testing.assert_array_equal(
            getattr(a, name), getattr(b, name), err_msg=f"column {name}"
        )


def parse_in_batches(machine, lines, batch_lines, **kwargs):
    """``ConsoleLogParser.parse_lines`` with ``batch_lines``-line batches."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.telemetry.parser.PARSE_CHUNK_LINES", batch_lines)
        return ConsoleLogParser(machine, **kwargs).parse_lines(lines)


def put_blocks(store, blocks, shard_lines):
    """Store the text ``blocks`` (runs of newline-terminated lines) as
    console shards of ``shard_lines`` lines each.

    Returns the manifest the persist would write and the payloads the
    writer yielded.
    """
    shards = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.cache.pipeline.DEFAULT_SHARD_LINES", shard_lines)
        payloads = list(_put_console_shards(store, DKEY, blocks, shards))
    manifest = ShardManifest(
        total_lines=sum(s.lines for s in shards),
        total_bytes=sum(s.nbytes for s in shards),
        shards=tuple(shards),
    )
    return manifest, payloads


def put_shards(store, lines, shard_lines, block_lines=3):
    """:func:`put_blocks` of ``lines``, ``block_lines`` to a block, so
    that shards are cut both inside blocks and between them."""
    lines = list(lines)
    return put_blocks(
        store,
        (
            "".join(f"{line}\n" for line in lines[i : i + block_lines])
            for i in range(0, len(lines), block_lines)
        ),
        shard_lines,
    )


def load_shards(store, manifest):
    """The verified shard source a warm load builds, or ``None``."""
    return _console_shard_source(store, DKEY, manifest.to_doc())


def stored_lines(store, manifest):
    """Every line of the stored shards, read back as a warm load does."""
    source = load_shards(store, manifest)
    assert source is not None
    return [line for payload in source() for line in payload.splitlines()]


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


@pytest.fixture(scope="module")
def console_lines(smoke_dataset):
    """The smoke scenario's rendered console lines (no trailing '')."""
    return smoke_dataset.console_text.splitlines()


@pytest.fixture(scope="module")
def gpu_record_lines(smoke_dataset, console_lines):
    """Two console lines that each parse to exactly one GPU event."""
    parser = ConsoleLogParser(smoke_dataset.machine)
    picked = []
    for line in console_lines:
        _log, stats = parser.parse_lines([line])
        if stats.parsed_events == 1:
            picked.append(line)
        if len(picked) == 2:
            return picked
    raise AssertionError("smoke console has fewer than two GPU records")


# ---------------------------------------------------------------------------
# Console shard mechanics
# ---------------------------------------------------------------------------


class TestShards:
    def test_empty_stream(self, store):
        manifest, payloads = put_shards(store, [], 4)
        assert manifest.total_lines == 0
        assert manifest.shards == ()
        assert payloads == []
        assert stored_lines(store, manifest) == []

    def test_single_line_shards(self, store):
        manifest, payloads = put_shards(store, iter(["a", "bb", "ccc"]), 1)
        assert [s.lines for s in manifest.shards] == [1, 1, 1]
        assert [s.name for s in manifest.shards] == [
            _console_shard_layer(i) for i in range(3)
        ]
        assert payloads == ["a\n", "bb\n", "ccc\n"]
        assert stored_lines(store, manifest) == ["a", "bb", "ccc"]

    def test_manifest_round_trip(self, store):
        lines = [f"line {i}" for i in range(10)]
        manifest, payloads = put_shards(store, lines, 4)
        assert ShardManifest.from_doc(manifest.to_doc()) == manifest
        assert manifest.total_lines == 10
        assert [s.lines for s in manifest.shards] == [4, 4, 2]
        assert payloads[-1] == "line 8\nline 9\n"
        assert manifest.total_bytes == len("".join(payloads))
        assert stored_lines(store, manifest) == lines

    def test_torn_final_shard_detected(self, store, smoke_dataset):
        lines = [f"line {i}" for i in range(8)]

        def tear_last_shard(manifest):
            key = _layer_key(DKEY, manifest.shards[-1].name)
            victim = store._path(key)
            victim.write_bytes(victim.read_bytes()[:-3])

        manifest, _ = put_shards(store, lines, 4)
        tear_last_shard(manifest)
        assert load_shards(store, manifest) is None  # torn before the load

        manifest, _ = put_shards(store, lines, 4)
        source = load_shards(store, manifest)
        assert source is not None
        tear_last_shard(manifest)  # torn after the load
        loaded = dataclasses.replace(
            smoke_dataset, _console_text=None, _console_shards=source
        )
        with pytest.raises(ShardCorruption):
            ConsoleLogParser(smoke_dataset.machine).parse_lines(
                loaded.console_lines()
            )

    def test_shard_swapped_after_load_detected(self, store, smoke_dataset):
        """A valid container holding other text, written over a shard
        after the load checked it, fails the re-read's manifest check
        instead of being served as the console log."""
        dkey = persist_dataset(store, smoke_dataset)
        cached = load_dataset(store, smoke_dataset.scenario)
        assert cached is not None
        shard_key = _layer_key(dkey, _console_shard_layer(0))
        store.put(shard_key, "tampered line\n", "text")
        with pytest.raises(ShardCorruption):
            cached.console_text


# ---------------------------------------------------------------------------
# Parse equivalence: batched and shard-driven vs the serial parser
# ---------------------------------------------------------------------------


class TestParseEquivalence:
    def test_chunked_matches_serial_smoke(self, smoke_dataset, console_lines):
        serial = ConsoleLogParser(smoke_dataset.machine).parse_lines(
            console_lines
        )
        chunked = parse_in_batches(
            smoke_dataset.machine, iter(console_lines), 1000
        )
        assert_logs_equal(serial[0], chunked[0])
        assert serial[1] == chunked[1]

    @pytest.mark.parametrize("batch_lines", [1, 1024])
    def test_shard_parse_matches_serial(
        self, store, smoke_dataset, console_lines, batch_lines
    ):
        lines = console_lines[:6000]
        manifest, _ = put_shards(store, lines, 1024)
        serial = ConsoleLogParser(smoke_dataset.machine).parse_lines(lines)
        sharded = parse_in_batches(
            smoke_dataset.machine,
            iter(stored_lines(store, manifest)),
            batch_lines,
        )
        assert_logs_equal(serial[0], sharded[0])
        assert serial[1] == sharded[1]

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(data=st.data())
    def test_property_shard_round_trip(
        self, data, tmp_path_factory, smoke_dataset, console_lines
    ):
        """Any line mix, any shard and batch size: bytes and parse both
        identical.

        Lines are drawn from real console records and printable
        garbage; shard and parse-batch granularity span the degenerate
        single-line case.  The sharded, batched parse must reproduce
        the one-batch parse's log and statistics verbatim, and the
        stored shards must concatenate to the monolithic rendering.
        """
        pool = console_lines[:200]
        line = st.one_of(
            st.sampled_from(pool),
            st.text(
                alphabet=st.characters(
                    blacklist_categories=("Cs", "Cc"), max_codepoint=0x2FF
                ),
                max_size=80,
            ),
        )
        lines = data.draw(st.lists(line, max_size=60))
        shard_size = data.draw(st.integers(min_value=1, max_value=50))
        block_lines = data.draw(st.integers(min_value=1, max_value=70))
        batch_lines = data.draw(st.integers(min_value=1, max_value=50))
        store = ArtifactStore(tmp_path_factory.mktemp("prop-shards"))

        manifest, _ = put_shards(store, lines, shard_size, block_lines)
        assert manifest.total_lines == len(lines)
        expected_text = "\n".join(lines) + "\n" if lines else ""
        assert "".join(load_shards(store, manifest)()) == expected_text

        serial = ConsoleLogParser(smoke_dataset.machine).parse_lines(lines)
        sharded = parse_in_batches(
            smoke_dataset.machine,
            iter(stored_lines(store, manifest)),
            batch_lines,
        )
        assert_logs_equal(serial[0], sharded[0])
        assert serial[1] == sharded[1]

    def test_chunked_strict_error_has_global_line_number(
        self, smoke_dataset, gpu_record_lines
    ):
        lines = [gpu_record_lines[0]] * 5 + ["garbage GPU XID zzz"]
        with pytest.raises(IngestionError) as excinfo:
            parse_in_batches(smoke_dataset.machine, iter(lines), 2, strict=True)
        assert excinfo.value.line_no == 6


# ---------------------------------------------------------------------------
# Seam recovery: a newline lost at a shard boundary (satellite bugfix)
# ---------------------------------------------------------------------------


class TestSeamRecovery:
    def test_fused_records_both_recovered(
        self, smoke_dataset, gpu_record_lines
    ):
        a, b = gpu_record_lines
        log, stats = ConsoleLogParser(smoke_dataset.machine).parse_lines(
            [a + b]
        )
        assert stats.total_lines == 2  # the seam splits into two logical lines
        assert stats.parsed_events == 2
        assert stats.resynced_lines == 1
        reference, _ = ConsoleLogParser(smoke_dataset.machine).parse_lines(
            [a, b]
        )
        assert_logs_equal(log, reference)

    def test_lost_newline_at_shard_boundary(
        self, store, smoke_dataset, console_lines
    ):
        """Reassembling shards whose boundary newline was dropped must
        not lose the two records it fuses."""
        lines = console_lines[:400]
        _, payloads = put_shards(store, lines, 200)
        assert len(payloads) == 2
        fused_text = payloads[0][:-1] + payloads[1]  # newline torn at the seam
        fused_lines = fused_text.splitlines()
        assert len(fused_lines) == len(lines) - 1

        reference = ConsoleLogParser(smoke_dataset.machine).parse_lines(lines)
        log, stats = ConsoleLogParser(smoke_dataset.machine).parse_lines(
            fused_lines
        )
        assert stats.total_lines == reference[1].total_lines
        assert stats.parsed_events == reference[1].parsed_events
        assert stats.resynced_lines == reference[1].resynced_lines + 1
        assert_logs_equal(log, reference[0])

    def test_fused_line_at_parse_chunk_boundary(
        self, smoke_dataset, gpu_record_lines
    ):
        a, b = gpu_record_lines
        lines = [a, b, a + b, b, a]
        serial = ConsoleLogParser(smoke_dataset.machine).parse_lines(lines)
        for batch_lines in (1, 2, 3):
            chunked = parse_in_batches(
                smoke_dataset.machine, iter(lines), batch_lines
            )
            assert_logs_equal(serial[0], chunked[0])
            assert serial[1] == chunked[1]


# ---------------------------------------------------------------------------
# Streamed simulation and the sharded console cache layer
# ---------------------------------------------------------------------------


def _streamed_replica(dataset):
    """The same simulation with its console text and parse dropped, so
    the parse streams from a windowed render."""
    return dataclasses.replace(dataset, _console_text=None, _parsed=None)


#: Every ``str.splitlines`` boundary, plus ordinary characters.
_SPLIT_ALPHABET = "ab\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


class TestSplitLines:
    """Resident console text is split one block at a time, cutting only
    right after a newline; the lines are exactly ``str.splitlines``'s."""

    @given(
        text=st.text(alphabet=_SPLIT_ALPHABET, max_size=60),
        block=st.integers(min_value=0, max_value=12),
    )
    @example(text="", block=0)
    @example(text="a", block=0)
    @example(text="a\r\nb", block=1)
    @example(text="a\n\nb\r", block=2)
    @settings(max_examples=500, deadline=None)
    def test_matches_splitlines(self, text, block):
        assert list(_split_lines(text, block)) == text.splitlines()

    def test_resident_text_lines(self, smoke_dataset, console_lines):
        text = "\n".join(console_lines[:3000]) + "\n"
        resident = smoke_dataset.with_console_text(text)
        assert list(resident.console_lines()) == console_lines[:3000]


class TestStreamedSimulation:
    def test_streamed_parse_bit_identical(self, smoke_dataset):
        streamed = _streamed_replica(smoke_dataset)
        assert_logs_equal(
            smoke_dataset.parsed_events, streamed.parsed_events
        )
        assert smoke_dataset.parse_stats == streamed.parse_stats
        # The whole point: the monolithic text never materialized.
        assert streamed._console_text is None

    def test_chaos_replacement_overrides_streaming(self, smoke_dataset):
        streamed = _streamed_replica(smoke_dataset)
        modified = streamed.with_console_text("one garbled line")
        assert modified.provenance == "modified"
        assert modified.parse_stats.total_lines == 1
        assert modified.parse_stats.parsed_events == 0


class TestShardedCacheLayer:
    @pytest.fixture()
    def small_shards(self, monkeypatch):
        """Persist the smoke log's ~53k lines as several shards."""
        monkeypatch.setattr("repro.cache.pipeline.DEFAULT_SHARD_LINES", 10_000)

    @staticmethod
    def _manifest(store, dkey):
        return ShardManifest.from_doc(
            store.get(_layer_key(dkey, _CONSOLE_MANIFEST_LAYER))
        )

    def test_streaming_persist_round_trip(
        self, store, smoke_dataset, small_shards
    ):
        persist_dataset(store, smoke_dataset)
        dkey = dataset_key(smoke_dataset.scenario)
        manifest = self._manifest(store, dkey)
        assert len(manifest.shards) >= 2
        for shard in manifest.shards:
            assert store.has(_layer_key(dkey, shard.name))
        assert not store.has(_layer_key(dkey, "console"))

        cached = load_dataset(store, smoke_dataset.scenario)
        assert cached is not None
        assert list(cached.console_lines()) == (
            smoke_dataset.console_text.splitlines()
        )
        assert cached._console_text is None  # lines came from the shards
        assert cached.console_text == smoke_dataset.console_text
        assert_logs_equal(
            cached.parsed_events, smoke_dataset.parsed_events
        )

    def test_corrupt_shard_degrades_to_recompute(
        self, store, smoke_dataset, small_shards
    ):
        persist_dataset(store, smoke_dataset)
        dkey = dataset_key(smoke_dataset.scenario)
        manifest = self._manifest(store, dkey)
        assert len(manifest.shards) >= 2
        shard_key = _layer_key(dkey, manifest.shards[-1].name)
        store.put(shard_key, "tampered\n", "text")  # valid artifact, wrong sha
        assert load_dataset(store, smoke_dataset.scenario) is None

        dataset, warm = load_or_simulate(smoke_dataset.scenario, store)
        assert not warm
        assert dataset.console_text == smoke_dataset.console_text
        reloaded = load_dataset(store, smoke_dataset.scenario)
        assert reloaded is not None
        assert reloaded.console_text == smoke_dataset.console_text

    @pytest.mark.parametrize(
        "damage",
        [
            lambda doc: [1, 2, 3],
            lambda doc: "console.000000",
            lambda doc: {**doc, "version": 99},
            lambda doc: {k: v for k, v in doc.items() if k != "shards"},
        ],
        ids=["list", "string", "version-99", "no-shards"],
    )
    def test_unreadable_manifest_is_a_miss(self, store, smoke_dataset, damage):
        """A damaged or stale manifest degrades to a miss, never raises."""
        dkey = persist_dataset(store, smoke_dataset)
        key = _layer_key(dkey, _CONSOLE_MANIFEST_LAYER)
        store.put(key, damage(store.get(key)), "json")
        assert load_dataset(store, smoke_dataset.scenario) is None

    @pytest.mark.parametrize(
        ("name", "copy_payload"),
        [("../escape", False), ("parsed", False), ("console.000007", True)],
        ids=["escape", "parsed", "console.000007"],
    )
    def test_foreign_shard_name_is_a_miss(
        self, store, smoke_dataset, name, copy_payload
    ):
        """Shard i must be named ``console.{i:06d}``: a manifest naming
        any other artifact is a miss, even one holding the right bytes."""
        dkey = persist_dataset(store, smoke_dataset)
        key = _layer_key(dkey, _CONSOLE_MANIFEST_LAYER)
        doc = store.get(key)
        first = doc["shards"][0]
        if copy_payload:
            payload = store.get(_layer_key(dkey, first["name"]))
            store.put(_layer_key(dkey, name), payload, "text")
        first["name"] = name
        store.put(key, doc, "json")
        assert load_dataset(store, smoke_dataset.scenario) is None

    def test_missing_shard_fails_the_load(
        self, store, smoke_dataset, small_shards
    ):
        """Shard keys sort before the manifest, so an LRU evict can drop
        a shard and keep every layer: the load must see it."""
        persist_dataset(store, smoke_dataset)
        dkey = dataset_key(smoke_dataset.scenario)
        manifest = self._manifest(store, dkey)
        assert store.delete(_layer_key(dkey, manifest.shards[1].name))
        assert store.has(_layer_key(dkey, _CONSOLE_MANIFEST_LAYER))
        assert load_dataset(store, smoke_dataset.scenario) is None

    def test_cold_persist_renders_once(
        self, store, smoke_dataset, small_shards, monkeypatch
    ):
        """Persisting an unparsed simulation feeds the parse and the
        shards from one render, in window blocks; the whole text is
        never built."""
        text = smoke_dataset.console_text
        log, stats = smoke_dataset.parsed_events, smoke_dataset.parse_stats
        renders = []
        for name in ("lines", "blocks", "to_text"):
            render = getattr(ConsoleLogWriter, name)

            def counting_render(writer, events, name=name, render=render):
                renders.append(name)
                return render(writer, events)

            monkeypatch.setattr(ConsoleLogWriter, name, counting_render)
        replica = _streamed_replica(smoke_dataset)
        dkey = persist_dataset(store, replica)
        assert renders == ["blocks"]
        assert replica._console_text is None
        assert_logs_equal(replica.parsed_events, log)
        assert replica.parse_stats == stats

        assert len(self._manifest(store, dkey).shards) >= 2
        cached = load_dataset(store, smoke_dataset.scenario)
        assert cached is not None
        assert cached.console_text == text
        assert cached.parse_stats == stats

    def test_streamed_cache_key_matches_monolithic(self, store, smoke_dataset):
        """The sharded layer lives under the scenario's dataset key, and
        a load streams back the lines of the rendered log."""
        dkey = persist_dataset(store, smoke_dataset)
        assert dkey == dataset_key(smoke_dataset.scenario)
        cached = load_dataset(store, smoke_dataset.scenario)
        assert cached is not None
        assert list(cached.console_lines()) == (
            smoke_dataset.console_text.splitlines()
        )
        assert cached._console_text is None  # lines came from the shards


class TestWriterShards:
    def test_console_shards_match_to_text(self, store, smoke_dataset):
        writer = ConsoleLogWriter(smoke_dataset.machine)
        events = smoke_dataset.injection.events
        manifest, payloads = put_blocks(store, writer.blocks(events), 7_000)
        assert len(manifest.shards) >= 2
        assert [s.lines for s in manifest.shards[:-1]] == [7_000] * (
            len(manifest.shards) - 1
        )
        assert "".join(payloads) == writer.to_text(events)
        assert [
            line for payload in payloads for line in payload.splitlines()
        ] == list(writer.lines(events))
        assert list(load_shards(store, manifest)()) == payloads


# ---------------------------------------------------------------------------
# Satellite bugfixes: LRU eviction, coverage clamp, grid rounding
# ---------------------------------------------------------------------------


class TestEvictionLRU:
    def _put(self, store, key, mtime):
        store.put(key, f"payload {key}", "text")
        os.utime(store._path(key), (mtime, mtime))

    def test_read_refreshes_recency(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        self._put(store, "d1/fig/old", 1_000.0)
        self._put(store, "d1/fig/mid", 2_000.0)
        self._put(store, "d1/fig/new", 3_000.0)
        # Reading the oldest artifact must make it the *hottest*.
        assert store.get("d1/fig/old") is not None
        evicted = store.evict(max_bytes=0)
        assert evicted[-1] == "d1/fig/old"
        assert evicted[:2] == ["d1/fig/mid", "d1/fig/new"]

    def test_unread_artifacts_evict_in_write_order(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        self._put(store, "d1/fig/a", 1_000.0)
        self._put(store, "d1/fig/b", 2_000.0)
        entry = next(e for e in store.entries() if e.key == "d1/fig/a")
        evicted = store.evict(max_bytes=entry.nbytes)
        assert evicted == ["d1/fig/a"]
        assert store.has("d1/fig/b")

    def test_touch_tolerates_racing_delete(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "s")
        store.put("d1/fig/x", "payload", "text")

        def exploding_utime(*args, **kwargs):
            raise OSError("unlinked under us")

        monkeypatch.setattr(os, "utime", exploding_utime)
        assert store.get("d1/fig/x") == "payload"  # read still succeeds


class TestCoverageEdgeClamp:
    def test_trailing_outage_clamped_not_dropped(self):
        # Events stop at t=20 in a [0, 1000) window with a 100 s gap
        # threshold: the tail silence is one outage clamped to the
        # window end.  (The old end anchor sat 1e-9 inside the window,
        # leaving a phantom observed sliver that erased this outage.)
        windows = infer_outage_windows(
            [0.0, 10.0, 20.0], 0.0, 1000.0, min_gap_s=100.0
        )
        assert windows.windows == ((0.0, 70.0),)
        assert windows.n_outages == 1
        assert windows.coverage_fraction == pytest.approx(0.07)

    def test_leading_outage_clamped_symmetrically(self):
        windows = infer_outage_windows(
            [980.0, 990.0], 0.0, 1000.0, min_gap_s=100.0
        )
        assert windows.windows == ((930.0, 1000.0),)

    def test_healthy_stream_full_coverage(self):
        times = np.arange(0.0, 1000.0, 50.0)
        windows = infer_outage_windows(times, 0.0, 1000.0, min_gap_s=100.0)
        assert windows.coverage_fraction == 1.0


class TestGridRounding:
    def test_known_fleet_sizes(self):
        from repro.sweep.grid import _scaled_nodes
        from repro.topology.machine import N_COMPUTE_NODES

        assert _scaled_nodes(1.0) == N_COMPUTE_NODES == 18_688
        assert _scaled_nodes(2.0) == 37_376
        assert _scaled_nodes(4.0) == 74_752

    def test_monotone_over_dense_grid(self):
        from repro.sweep.grid import _scaled_nodes

        sizes = [_scaled_nodes(s) for s in np.linspace(0.25, 4.0, 1501)]
        assert sizes == sorted(sizes)

    def test_half_ties_round_up_not_to_even(self):
        from repro.sweep.grid import _scaled_nodes
        from repro.topology.machine import N_COMPUTE_NODES

        checked = 0
        for k in range(0, 400, 2):  # even targets: banker's would round DOWN
            scale = (k + 0.5) / N_COMPUTE_NODES
            if N_COMPUTE_NODES * scale != k + 0.5:
                continue  # float round-trip inexact for this k; skip
            assert round(N_COMPUTE_NODES * scale) == k  # the old bug
            assert _scaled_nodes(scale) == k + 1
            checked += 1
        assert checked > 0

    def test_near_duplicate_scales_get_unique_labels(self):
        from repro.sweep import SweepSpec
        from repro.sweep.grid import expand

        points = expand(
            SweepSpec(
                name="labels",
                base="smoke",
                days=1.0,
                scales=(1.0, 1.0 + 1e-12, 1.0 + 2e-12),
            )
        )
        labels = [p.label for p in points]
        assert len(set(labels)) == len(points)
        # Distinct %g renderings stay human-friendly (no escalation).
        assert points[0].label == "anchor"


# ---------------------------------------------------------------------------
# End to end: the golden paper run
# ---------------------------------------------------------------------------


class TestStreamedGolden:
    def test_streamed_paper_run_matches_golden_digests(self, paper_dataset):
        """The full paper scenario parsed straight from a windowed render
        must reproduce the committed golden figure digests bit for bit."""
        from repro.core.golden import golden_diff, golden_document
        from repro.core.study import TitanStudy

        golden_file = Path(__file__).parent / "golden" / "paper.json"
        committed = json.loads(golden_file.read_text())
        streamed = _streamed_replica(paper_dataset)
        doc = golden_document(TitanStudy(streamed))
        assert golden_diff(committed, doc) == []
        assert streamed._console_text is None
