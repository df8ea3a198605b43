"""Tests for hardened telemetry ingestion.

Strict/lenient/budgeted parser regimes, resync-on-garbage recovery,
quarantine, the nvsmi fleet-stream parser, the jobsnap record-stream
round trip, and hypothesis fuzz over the console parser: it must never
raise on arbitrary input, and the ParseStats primary counters must
always partition the input lines.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.chaos.injector import ChaosConfig, CorruptionInjector
from repro.errors.xid import ErrorType
from repro.telemetry.console import render_event_line
from repro.telemetry.ingestion import (
    IngestionDegraded,
    IngestionError,
    QuarantineSink,
)
from repro.telemetry.jobsnap import (
    JOBSNAP_HEADER,
    parse_jobsnap_records,
    render_jobsnap_records,
)
from repro.telemetry.nvsmi_text import (
    parse_nvsmi_fleet,
    parse_nvsmi_query,
    render_nvsmi_query,
)
from repro.telemetry.parser import ConsoleLogParser
from repro.telemetry.timecodec import parse_timestamp


@pytest.fixture(scope="module")
def gpu_lines(smoke_dataset):
    """Real rendered GPU-event lines from the smoke scenario."""
    lines = [
        line
        for line in smoke_dataset.console_text.splitlines()[:5000]
        if "GPU XID" in line
    ]
    assert len(lines) >= 20
    return lines


@pytest.fixture(scope="module")
def parser(smoke_dataset):
    return ConsoleLogParser(smoke_dataset.machine)


class TestParserRegimes:
    def test_clean_round_trip_accounts_all_lines(self, parser, smoke_dataset):
        text = "\n".join(smoke_dataset.console_text.splitlines()[:2000])
        log, stats = parser.parse_text(text)
        assert stats.accounted == stats.total_lines
        assert stats.malformed_lines == 0
        assert stats.unknown_xid_lines == 0
        assert stats.corrupt_fraction == 0.0
        assert len(log) == stats.parsed_events

    def test_lenient_counts_garbage(self, parser, gpu_lines):
        lines = [gpu_lines[0], "### total garbage ###", gpu_lines[1]]
        log, stats = parser.parse_lines(lines)
        assert stats.total_lines == 3
        assert stats.parsed_events == 2
        assert stats.malformed_lines == 1
        assert stats.accounted == stats.total_lines

    def test_strict_raises_with_context(self, smoke_dataset):
        strict = ConsoleLogParser(smoke_dataset.machine, strict=True)
        with pytest.raises(IngestionError) as excinfo:
            strict.parse_lines(["### total garbage ###"])
        assert excinfo.value.category == "malformed"
        assert excinfo.value.line_no == 1
        assert "garbage" in excinfo.value.line

    def test_resync_recovers_spliced_line(self, parser, gpu_lines):
        spliced = "GARBAGE####" + gpu_lines[0]
        log, stats = parser.parse_lines([spliced])
        assert stats.parsed_events == 1
        assert stats.resynced_lines == 1
        assert stats.malformed_lines == 0
        assert len(log) == 1

    def test_resync_recovers_torn_plus_full(self, parser, gpu_lines):
        spliced = gpu_lines[0][:30] + gpu_lines[1]
        log, stats = parser.parse_lines([spliced])
        assert stats.parsed_events == 1
        assert stats.resynced_lines == 1

    def test_resync_disabled_rejects(self, smoke_dataset, gpu_lines):
        no_resync = ConsoleLogParser(smoke_dataset.machine, resync=False)
        _, stats = no_resync.parse_lines(["GARBAGE####" + gpu_lines[0]])
        assert stats.parsed_events == 0
        assert stats.malformed_lines == 1

    def test_error_budget_degrades_with_partial_log(
        self, smoke_dataset, gpu_lines
    ):
        budgeted = ConsoleLogParser(smoke_dataset.machine, error_budget=0.2)
        lines = gpu_lines[:5] + ["@@corrupt@@"] * 5
        with pytest.raises(IngestionDegraded) as excinfo:
            budgeted.parse_lines(lines)
        exc = excinfo.value
        assert exc.fraction == pytest.approx(0.5)
        assert exc.budget == pytest.approx(0.2)
        assert len(exc.log) == 5  # the partial log is still usable
        assert exc.stats.accounted == exc.stats.total_lines == 10

    def test_error_budget_not_exceeded_returns(self, smoke_dataset, gpu_lines):
        budgeted = ConsoleLogParser(smoke_dataset.machine, error_budget=0.6)
        log, stats = budgeted.parse_lines(gpu_lines[:5] + ["@@corrupt@@"] * 2)
        assert len(log) == 5
        assert stats.corrupt_fraction < 0.6

    def test_invalid_budget_rejected(self, smoke_dataset):
        with pytest.raises(ValueError):
            ConsoleLogParser(smoke_dataset.machine, error_budget=1.5)

    def test_quarantine_sink(self, smoke_dataset, gpu_lines):
        sink = QuarantineSink(capacity=3)
        quarantining = ConsoleLogParser(
            smoke_dataset.machine, quarantine=sink
        )
        _, stats = quarantining.parse_lines(
            [gpu_lines[0]] + [f"@@bad {i}@@" for i in range(5)]
        )
        assert sink.total == 5
        assert len(sink.records) == 3  # capacity-bounded raw retention
        assert sink.n_overflowed == 2
        assert sink.summary() == {"malformed": 5}
        assert sink.records[0].category == "malformed"
        assert stats.quarantined_lines == 5

    def test_overflowing_int_fields_rejected(self, parser, gpu_lines):
        big = "9" * 25
        line = gpu_lines[0] + f" [job={big}]"
        _, stats = parser.parse_lines([line])
        # Either resync re-reads a clean prefix or the line is rejected;
        # it must never crash the columnar store.
        assert stats.accounted == stats.total_lines == 1


_LINE_TEXT = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",), blacklist_characters="\n\r"
    ),
    max_size=120,
)
_SEMI_VALID = st.builds(
    lambda body: "2013-06-03T12:00:00.000000 c1-2c0s3n1 " + body,
    st.text(
        alphabet=st.characters(
            blacklist_categories=("Cs",), blacklist_characters="\n\r"
        ),
        max_size=80,
    ),
)


class TestParserFuzz:
    """Property: the lenient parser is total over arbitrary text."""

    @given(lines=st.lists(st.one_of(_LINE_TEXT, _SEMI_VALID), max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_never_raises_and_counters_partition(self, bare_machine, lines):
        parser = ConsoleLogParser(bare_machine)
        log, stats = parser.parse_lines(lines)
        assert stats.accounted == stats.total_lines
        assert len(log) == stats.parsed_events
        assert stats.total_lines <= len(lines)  # blanks are skipped

    @given(
        prefix=_LINE_TEXT,
        job=st.integers(min_value=0, max_value=10**30),
        page=st.integers(min_value=0, max_value=10**30),
    )
    @settings(max_examples=60, deadline=None)
    def test_huge_numerals_never_crash(self, bare_machine, prefix, job, page):
        parser = ConsoleLogParser(bare_machine)
        line = (
            "2013-06-03T12:00:00.000000 c1-2c0s3n1 GPU XID 48 double-bit "
            f"ECC error in device_memory page 0x{page:x} [job={job}] {prefix}"
        )
        log, stats = parser.parse_lines([line])
        assert stats.accounted == stats.total_lines == 1


class TestNvsmiFleetStream:
    @pytest.fixture(scope="class")
    def reports(self, smoke_dataset):
        records = [smoke_dataset.nvsmi.query(slot) for slot in range(4)]
        return [
            render_nvsmi_query(record, gpu_index=i)
            for i, record in enumerate(records)
        ]

    def test_fleet_round_trip(self, reports):
        parsed, stats = parse_nvsmi_fleet("".join(reports))
        assert stats.total_reports == 4
        assert stats.parsed_reports == 4
        assert stats.rejected_reports == 0
        assert stats.corrupt_fraction == 0.0

    def test_damaged_report_counted_not_fatal(self, reports):
        damaged = reports[1].replace("Serial Number", "Ser### Num###")
        parsed, stats = parse_nvsmi_fleet(
            reports[0] + damaged + reports[2]
        )
        assert stats.total_reports == 3
        assert stats.parsed_reports == 2
        assert stats.rejected_reports == 1

    def test_lenient_garbled_temperature(self, reports):
        garbled = reports[0].replace(
            reports[0].split("GPU Current Temp")[1].split("\n")[0],
            "                : 7..5 C",
        )
        assert parse_nvsmi_query(garbled, strict=False) is None
        with pytest.raises(ValueError):
            parse_nvsmi_query(garbled, strict=True)

    def test_leading_torn_text_ignored(self, reports):
        parsed, stats = parse_nvsmi_fleet("torn tail of a report\n" + reports[0])
        assert stats.total_reports == 1
        assert stats.parsed_reports == 1


class TestJobsnapStream:
    @pytest.fixture(scope="class")
    def records(self, smoke_dataset):
        records = smoke_dataset.jobsnap_records[:40]
        assert records
        return records

    def test_round_trip(self, records):
        text = render_jobsnap_records(records)
        assert text.startswith(JOBSNAP_HEADER)
        parsed, stats = parse_jobsnap_records(text)
        assert stats.parsed_rows == len(records)
        assert stats.malformed_rows == 0
        assert [r.job for r in parsed] == [r.job for r in records]
        assert parsed[0].gpu_core_hours == pytest.approx(
            records[0].gpu_core_hours, abs=1e-6
        )
        assert [r.sbe_delta for r in parsed] == [
            r.sbe_delta for r in records
        ]

    def test_damage_counted_not_fatal(self, records):
        lines = render_jobsnap_records(records).splitlines()
        lines[2] = "xx\tyy"  # wrong arity + non-numeric
        lines[3] = lines[3].replace("\t", "\t" + "9" * 25, 1)  # torn digits
        lines.append("1\t2\t3\tinf\t0\t0\t0\t0")  # non-finite float
        parsed, stats = parse_jobsnap_records("\n".join(lines))
        assert stats.malformed_rows == 3
        assert stats.parsed_rows == len(records) - 2
        assert stats.corrupt_fraction == pytest.approx(
            3 / (len(records) + 1)
        )

    def test_strict_raises(self, records):
        text = render_jobsnap_records(records) + "garbage row\n"
        with pytest.raises(ValueError, match="malformed jobsnap row"):
            parse_jobsnap_records(text, strict=True)

    def test_duplicate_headers_skipped(self, records):
        text = render_jobsnap_records(records)
        spliced = text + JOBSNAP_HEADER + "\n" + text
        parsed, stats = parse_jobsnap_records(spliced)
        assert stats.parsed_rows == 2 * len(records)
        assert stats.malformed_rows == 0


def _assert_logs_equal(got, want):
    """Row-for-row equality over every EventLog column (``time`` bit
    for bit)."""
    assert len(got) == len(want)
    assert np.array_equal(got.time.view(np.int64), want.time.view(np.int64))
    for column in ("gpu", "etype", "structure", "job", "parent", "aux"):
        assert np.array_equal(getattr(got, column), getattr(want, column)), column


def _assert_same_parse(machine, lines):
    """The default parser (block decoder + reference fallback) and the
    regex reference alone must be observably identical: same log rows,
    same statistics."""
    fast_log, fast_stats = ConsoleLogParser(machine, fast=True).parse_lines(lines)
    slow_log, slow_stats = ConsoleLogParser(machine, fast=False).parse_lines(lines)
    _assert_logs_equal(fast_log, slow_log)
    assert fast_stats == slow_stats
    assert fast_stats.accounted == fast_stats.total_lines
    return fast_log


class TestFastSlowEquivalence:
    """The block decoder leaves every doubtful line to the regex
    reference, so the default and ``fast=False`` parses are the same
    function."""

    def test_clean_console_text(self, smoke_dataset):
        _assert_same_parse(
            smoke_dataset.machine,
            smoke_dataset.console_text.splitlines()[:4000],
        )

    @pytest.mark.parametrize("level", [0.02, 0.25])
    def test_corrupted_console_text(self, smoke_dataset, level):
        base = smoke_dataset.console_text.splitlines()[:2500]
        injector = CorruptionInjector(ChaosConfig.uniform(level), seed=13)
        corrupted, counts, _ = injector.corrupt_lines(base)
        assert sum(counts.values()) > 0
        _assert_same_parse(smoke_dataset.machine, corrupted)

    @given(lines=st.lists(st.one_of(_LINE_TEXT, _SEMI_VALID), max_size=25))
    @settings(max_examples=100, deadline=None)
    def test_fuzzed_lines(self, bare_machine, lines):
        _assert_same_parse(bare_machine, lines)

    def test_near_canonical_edge_lines(self, smoke_dataset, gpu_lines):
        # Lines one mutation away from canonical: each must land in the
        # same counter on both paths (most fall through to slow).
        base = gpu_lines[0]
        variants = [
            base + " ",  # trailing space (rstripped)
            base + " trailing garbage",
            base.replace(" [job=", " [job=00", 1),  # zero-padded job
            base[:26] + "  " + base[27:],  # double separator
            base.replace("T", " ", 1),  # broken stamp separator
            "c0-0c0s0n0 missing stamp",
            base[:10],  # truncated mid-stamp
        ]
        _assert_same_parse(smoke_dataset.machine, variants)


_STAMP = "2014-03-02T14:55:01.123456"
_HEAD = "GPU XID 13: Graphics Engine Exception"
_DBE_HEAD = "GPU XID 48: DBE (Double Bit Error) detected in device_memory page 0x01a2f3"


def _line(cname, stamp=_STAMP, head=_HEAD, tail=" [job=98765]"):
    return f"{stamp} {cname} {head}{tail}"


#: Lines at the edge of the block decoder's claim rule, built around
#: one canonical line (``_line(cname)``); each maps a GPU's canonical
#: cname to the line.
_CLAIM_EDGES = {
    # cnames
    "cname-nul-end": lambda c: _line(c + "\x00"),
    "cname-nul-inside": lambda c: _line(c[:3] + "\x00" + c[4:]),
    "cname-node-9": lambda c: _line(c[:-1] + "9"),
    "cname-zero-padded": lambda c: _line("c0" + c[1:]),
    # dates
    "year-0": lambda c: _line(c, stamp="0000-01-01" + _STAMP[10:]),
    "feb-30": lambda c: _line(c, stamp="2014-02-30" + _STAMP[10:]),
    "hour-24": lambda c: _line(c, stamp=_STAMP[:11] + "24" + _STAMP[13:]),
    "far-future": lambda c: _line(c, stamp="2400-01-01T00:00:00.000001"),
    "far-past": lambda c: _line(c, stamp="1700-01-01T00:00:00.000001"),
    # digits
    "job-arabic-indic": lambda c: _line(c, tail=" [job=\u0661\u0662\u0663]"),
    "us-arabic-indic": lambda c: _line(c, stamp=_STAMP[:20] + "\u0661" * 6),
    "year-fullwidth": lambda c: _line(c, stamp="\uff12\uff10\uff11\uff14" + _STAMP[4:]),
    # jobs
    "job-18-digits": lambda c: _line(c, tail=" [job=" + "9" * 18 + "]"),
    "job-19-digits": lambda c: _line(c, tail=" [job=" + "9" * 19 + "]"),
    "job-empty": lambda c: _line(c, tail=" [job=]"),
    "job-zeros": lambda c: _line(c, tail=" [job=" + "0" * 17 + "7]"),
    "job-all-zeros": lambda c: _line(c, tail=" [job=000]"),
    "job-twice": lambda c: _line(c, tail=" [job=1] [job=2]"),
    "job-trailing-space": lambda c: _line(c, tail=" [job=98765] "),
    "no-job": lambda c: _line(c, tail=""),
    # heads
    "head-plus-byte": lambda c: _line(c, head=_HEAD + "s"),
    "head-minus-byte": lambda c: _line(c, head=_HEAD[:-1]),
    "head-xff": lambda c: _line(c, head=_HEAD[:4] + "\xff" + _HEAD[5:]),
    "head-surrogate": lambda c: _line(c, head=_HEAD[:4] + "\ud800" + _HEAD[5:]),
    "in-structure": lambda c: _line(c, head=_DBE_HEAD),
    # shapes
    "len-38": lambda c: _line(c)[:38],
    "len-39": lambda c: _line(c)[:39],
    "blank": lambda c: "",
    "whitespace-only": lambda c: "   ",
    "tab-separator": lambda c: _line(c).replace(" ", "\t", 1),
    "carriage-return": lambda c: _line(c, head=_HEAD[:10] + "\r" + _HEAD[10:]),
    "carriage-return-end": lambda c: _line(c) + "\r",
    "fused-records": lambda c: _line(c) + _line(c, tail=" [job=1]"),
    "embedded-newline": lambda c: _line(c)[:40] + "\n" + _line(c)[40:],
    "trailing-newline": lambda c: _line(c) + "\n",
}

#: Characters a one-edit mutation of a canonical line draws from.
_EDIT_POOL = (
    "\x00", "\xff", "\ud800", "\u0663", "\uff13", " ", "]", "[", "\n",
    "\r", "\t", "0", "9", "-", ":", ".", "T", "c", "x",
)
_LOGGABLE = [t for t in ErrorType if t is not ErrorType.SBE]


class TestClaimRule:
    """The block decoder claims a line only when every byte of it is
    canonical; each edge case parses exactly as the reference does,
    alone and between two canonical lines."""

    @pytest.mark.parametrize("case", sorted(_CLAIM_EDGES))
    def test_edge_line(self, bare_machine, case):
        cname = bare_machine.cname(4321)
        line = _CLAIM_EDGES[case](cname)
        _assert_same_parse(bare_machine, [line])
        _assert_same_parse(
            bare_machine, [_line(cname), line, _line(bare_machine.cname(7))]
        )

    @pytest.mark.parametrize("stamp", ["2400-01-01T00:00:00.000001",
                                       "1700-01-01T00:00:00.000001",
                                       _STAMP])
    def test_time_equals_the_codec(self, bare_machine, stamp):
        line = _line(bare_machine.cname(4321), stamp=stamp)
        log = _assert_same_parse(bare_machine, [line])
        want = np.array([parse_timestamp(stamp)]).view(np.int64)
        assert np.array_equal(log.time.view(np.int64), want)

    def test_canonical_lines_are_claimed(self, bare_machine):
        cname = bare_machine.cname(4321)
        lines = [_line(cname), _line(cname, tail=""), _line(cname, head=_DBE_HEAD)]
        perf.reset()
        perf.enable()
        try:
            _assert_same_parse(bare_machine, lines)
            # Two parses (default and reference): 1 + 3 lines fall back.
            assert perf.snapshot()["counters"]["telemetry.fallback_lines"] == 4
        finally:
            perf.disable()
            perf.reset()

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_edit_from_canonical(self, bare_machine, data):
        line = render_event_line(
            data.draw(st.floats(min_value=-3e9, max_value=3e9)),
            bare_machine.cname(data.draw(st.integers(0, bare_machine.n_gpus - 1))),
            data.draw(st.sampled_from(_LOGGABLE)),
            job=data.draw(st.integers(min_value=-1, max_value=10**19)),
        )
        at = data.draw(st.integers(0, len(line) - 1))
        edit = data.draw(st.sampled_from(["substitute", "delete", "insert"]))
        char = data.draw(st.sampled_from(_EDIT_POOL))
        if edit == "substitute":
            mutated = line[:at] + char + line[at + 1 :]
        elif edit == "delete":
            mutated = line[:at] + line[at + 1 :]
        else:
            mutated = line[:at] + char + line[at:]
        _assert_same_parse(bare_machine, [mutated])
        _assert_same_parse(bare_machine, [line, mutated, line])

    def test_batch_edges(self, smoke_dataset, gpu_lines, monkeypatch):
        # Claimed, fallback (an "in <structure>" clause, garbage) and
        # two-record lines, with fused lines on both sides of each edge
        # of 20-line batches.
        dbe = [ln for ln in smoke_dataset.console_text.splitlines() if " in " in ln]
        canonical = [ln for ln in gpu_lines if " in " not in ln]
        lines = []
        for i in range(60):
            kind = 0 if i in (19, 20, 39, 40) else i % 5
            if kind == 0:
                lines.append(canonical[i] + canonical[i + 1])
            elif kind == 1:
                lines.append(dbe[i % len(dbe)])
            elif kind == 2:
                lines.append(f"@@garbage {i}@@")
            else:
                lines.append(canonical[i])
        parser = ConsoleLogParser(smoke_dataset.machine)
        whole_log, whole_stats = parser.parse_lines(lines)
        _assert_same_parse(smoke_dataset.machine, lines)
        monkeypatch.setattr("repro.telemetry.parser.PARSE_CHUNK_LINES", 20)
        batched_log, batched_stats = parser.parse_lines(lines)
        _assert_logs_equal(batched_log, whole_log)
        assert batched_stats == whole_stats
        assert whole_stats.resynced_lines >= 12
        _assert_same_parse(smoke_dataset.machine, lines)

    def test_fallback_counter_fences_the_format(self, smoke_dataset):
        # Only DBE and page-retirement lines (an "in <structure>"
        # clause) leave the block decoder on a clean log; a writer
        # change that silently turns block decoding off fails here.
        lines = smoke_dataset.console_text.splitlines()
        perf.reset()
        perf.enable()
        try:
            ConsoleLogParser(smoke_dataset.machine).parse_lines(lines)
            counters = perf.snapshot()["counters"]
        finally:
            perf.disable()
            perf.reset()
        with_clause = sum(" in " in line for line in lines)
        assert with_clause > 0
        assert counters["telemetry.fallback_lines"] == with_clause


class TestParallelParse:
    """A parse drained in many batches must be observably identical to
    a one-batch parse: same rows, stats, errors and quarantine
    contents.  Each test parses with the default batch size first, then
    patches ``PARSE_CHUNK_LINES`` to 20 to force real multi-batch
    parsing of test-sized inputs."""

    @staticmethod
    def _batches_of_20(monkeypatch):
        monkeypatch.setattr("repro.telemetry.parser.PARSE_CHUNK_LINES", 20)

    def test_parallel_matches_serial(
        self, smoke_dataset, gpu_lines, monkeypatch
    ):
        lines = gpu_lines[:50] + ["@@garbage@@"] + gpu_lines[50:60]
        parser = ConsoleLogParser(smoke_dataset.machine)
        serial_log, serial_stats = parser.parse_lines(lines)
        self._batches_of_20(monkeypatch)
        batched_log, batched_stats = parser.parse_lines(lines)
        _assert_logs_equal(batched_log, serial_log)
        assert batched_stats == serial_stats

    def test_torn_line_at_chunk_boundary(
        self, smoke_dataset, gpu_lines, monkeypatch
    ):
        # 40 lines in batches of 20 -> the batch boundary falls after
        # index 19.  Tear the last line of the first batch (a splice of
        # two records, the classic torn-write shape): batching must not
        # change how the parser heals it, and the ParseStats must still
        # partition the input.
        base = gpu_lines[:40]
        lines = list(base)
        lines[19] = base[19][:25] + base[20]
        parser = ConsoleLogParser(smoke_dataset.machine)
        serial_log, serial_stats = parser.parse_lines(lines)
        self._batches_of_20(monkeypatch)
        batched_log, batched_stats = parser.parse_lines(lines)
        assert batched_stats.resynced_lines == serial_stats.resynced_lines >= 1
        assert batched_stats.accounted == batched_stats.total_lines == 40
        _assert_logs_equal(batched_log, serial_log)
        assert batched_stats == serial_stats

    def test_quarantine_merge_parity(
        self, smoke_dataset, gpu_lines, monkeypatch
    ):
        lines = []
        for i, line in enumerate(gpu_lines[:40]):
            lines.append(line)
            if i % 7 == 0:
                lines.append(f"@@bad {i}@@")
        serial_sink = QuarantineSink(capacity=3)
        ConsoleLogParser(
            smoke_dataset.machine, quarantine=serial_sink
        ).parse_lines(lines)
        self._batches_of_20(monkeypatch)
        batched_sink = QuarantineSink(capacity=3)
        ConsoleLogParser(
            smoke_dataset.machine, quarantine=batched_sink
        ).parse_lines(lines)
        assert batched_sink.total == serial_sink.total
        assert batched_sink.counts == serial_sink.counts
        assert batched_sink.n_overflowed == serial_sink.n_overflowed
        assert [r.line for r in batched_sink.records] == [
            r.line for r in serial_sink.records
        ]

    def test_strict_raises_earliest_global_error(
        self, smoke_dataset, gpu_lines, monkeypatch
    ):
        # Garbage in both batches; the batched strict error must carry
        # the stream-wide line number of the *first* one, as a one-batch
        # parse raises.
        lines = list(gpu_lines[:40])
        lines[25] = "@@late garbage@@"
        lines[4] = "@@early garbage@@"
        parser = ConsoleLogParser(smoke_dataset.machine, strict=True)
        with pytest.raises(IngestionError) as serial_exc:
            parser.parse_lines(lines)
        self._batches_of_20(monkeypatch)
        with pytest.raises(IngestionError) as batched_exc:
            parser.parse_lines(lines)
        assert batched_exc.value.line_no == serial_exc.value.line_no == 5
        assert batched_exc.value.category == serial_exc.value.category

    def test_budget_evaluated_on_merged_stats(
        self, smoke_dataset, gpu_lines, monkeypatch
    ):
        # The first batch is clean and the second all corrupt: only the
        # whole-stream fraction (0.5) decides against the 0.2 budget.
        lines = gpu_lines[:20] + ["@@corrupt@@"] * 20
        parser = ConsoleLogParser(smoke_dataset.machine, error_budget=0.2)
        with pytest.raises(IngestionDegraded) as serial_exc:
            parser.parse_lines(lines)
        self._batches_of_20(monkeypatch)
        with pytest.raises(IngestionDegraded) as batched_exc:
            parser.parse_lines(lines)
        assert batched_exc.value.stats == serial_exc.value.stats
        assert batched_exc.value.fraction == serial_exc.value.fraction == 0.5
        _assert_logs_equal(batched_exc.value.log, serial_exc.value.log)
