"""Tests for console rendering/parsing, SEC rules, nvsmi, jobsnap."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors.event import STRUCTURE_CODES, EventLog, EventLogBuilder
from repro.errors.xid import ErrorType
from repro.gpu.fleet import GPUFleet
from repro.gpu.k20x import MemoryStructure
from repro.rng import RngTree
from repro.telemetry.console import RENDER_CHUNK_ROWS, ConsoleLogWriter
from repro.telemetry.jobsnap import JobSnapshotFramework
from repro.telemetry.nvsmi import NvidiaSmi
from repro.telemetry.parser import ConsoleLogParser
from repro.telemetry.sec import SEC_RULES, UnmatchedLine, classify_line
from repro.topology.machine import TitanMachine
from repro.topology.thermal import ThermalModel
from repro.units import datetime_to_timestamp
from repro.workload.jobs import JobTraceBuilder
from tests.telemetry_oracles import render_event_line, render_lines_reference
from tests.test_timecodec import _EDGE_TS, _TS_RANGE


@pytest.fixture(scope="module")
def machine():
    return TitanMachine()


class TestRendering:
    def test_xid_line(self):
        line = render_event_line(
            0.0, "c3-17c2s5n1", ErrorType.GRAPHICS_ENGINE_EXCEPTION, job=42
        )
        assert line == (
            "2013-06-01T00:00:00.000000 c3-17c2s5n1 "
            "GPU XID 13: Graphics Engine Exception [job=42]"
        )

    def test_dbe_line_with_structure(self):
        line = render_event_line(
            3661.5, "c0-1c0s1n0", ErrorType.DBE,
            structure_name="device_memory", page=0x1A2F3,
        )
        assert "GPU XID 48" in line
        assert "in device_memory page 0x01a2f3" in line

    def test_otb_line_has_no_xid(self):
        line = render_event_line(0.0, "c0-1c0s1n0", ErrorType.OFF_THE_BUS)
        assert "XID" not in line
        assert "fallen off the bus" in line

    def test_sbe_never_rendered(self):
        with pytest.raises(ValueError):
            render_event_line(0.0, "c0-1c0s1n0", ErrorType.SBE)


class TestSecRules:
    def test_all_xids_covered(self):
        for etype in ErrorType:
            if etype.xid is None:
                continue
            line = f"GPU XID {etype.xid}: whatever"
            got = classify_line(line)
            assert got is not None and got.xid == etype.xid

    def test_off_the_bus_phrase(self):
        assert classify_line("GPU has fallen off the bus") is ErrorType.OFF_THE_BUS

    def test_non_gpu_line(self):
        assert classify_line("kernel: Lustre timeout on nid00123") is None

    def test_unknown_xid_raises(self):
        with pytest.raises(UnmatchedLine):
            classify_line("GPU XID 79: some brand-new error class")

    def test_exact_code_match(self):
        # XID 13 rule must not match XID 130-style lines
        with pytest.raises(UnmatchedLine):
            classify_line("GPU XID 130: future error")

    def test_rules_are_ordered_unique(self):
        names = [r.name for r in SEC_RULES]
        assert len(set(names)) == len(names)


class TestRoundTrip:
    def build_log(self, machine):
        b = EventLogBuilder()
        b.add(100.0, 17, ErrorType.DBE,
              structure=MemoryStructure.DEVICE_MEMORY, job=9, aux=4242)
        b.add(105.5, 17, ErrorType.ECC_PAGE_RETIREMENT,
              structure=MemoryStructure.DEVICE_MEMORY, aux=4242)
        b.add(200.0, 9000, ErrorType.GRAPHICS_ENGINE_EXCEPTION, job=11)
        b.add(300.0, 3, ErrorType.OFF_THE_BUS)
        b.add(400.0, 4, ErrorType.SBE, structure=MemoryStructure.L2_CACHE)
        return b.freeze()

    def test_write_parse_roundtrip(self, machine):
        log = self.build_log(machine)
        writer = ConsoleLogWriter(machine)
        text = writer.to_text(log)
        parsed, stats = ConsoleLogParser(machine).parse_text(text)
        # SBE line is never written
        assert stats.parsed_events == 4
        assert len(parsed) == 4
        assert parsed.count_by_type()[ErrorType.DBE] == 1
        # fields survive
        dbe = parsed.of_type(ErrorType.DBE)
        assert int(dbe.gpu[0]) == 17
        assert int(dbe.job[0]) == 9
        assert int(dbe.aux[0]) == 4242
        assert float(dbe.time[0]) == pytest.approx(100.0, abs=1e-5)

    def test_parent_links_not_in_text(self, machine):
        b = EventLogBuilder()
        p = b.add(10.0, 5, ErrorType.DBE)
        b.add(11.0, 5, ErrorType.PREEMPTIVE_CLEANUP, parent=p)
        text = ConsoleLogWriter(machine).to_text(b.freeze())
        parsed, _ = ConsoleLogParser(machine).parse_text(text)
        assert np.all(parsed.parent == -1)  # analysis must re-derive them

    def test_malformed_lines_counted(self, machine):
        text = "garbage line\n2014-01-01T00:00:00.000000 c0-1c0s1n0 GPU XID 48: DBE\n"
        parsed, stats = ConsoleLogParser(machine).parse_text(text)
        assert stats.malformed_lines == 1
        assert stats.parsed_events == 1

    def test_non_ascii_stamp_digits_follow_strptime(self, machine):
        # strptime takes a non-ASCII digit in %Y but not in %m.
        taken = "\u0662014-01-01T00:00:00.000000 c0-1c0s1n0 GPU XID 48: DBE"
        refused = "2014-0\u0663-01T00:00:00.000000 c0-1c0s1n0 GPU XID 48: DBE"
        parsed, stats = ConsoleLogParser(machine).parse_text(
            f"{taken}\n{refused}\n"
        )
        assert stats.parsed_events == 1
        assert stats.malformed_lines == 1
        assert float(parsed.time[0]) == datetime_to_timestamp(
            dt.datetime(2014, 1, 1)
        )

    def test_unknown_xid_collected(self, machine):
        text = "2014-01-01T00:00:00.000000 c0-1c0s1n0 GPU XID 99: new thing\n"
        parsed, stats = ConsoleLogParser(machine).parse_text(text)
        assert len(parsed) == 0
        assert stats.unknown_xid_lines == 1
        assert stats.unknown_xids_seen == {"99"}

    def test_empty_lines_skipped(self, machine):
        parsed, stats = ConsoleLogParser(machine).parse_text("\n\n\n")
        assert stats.total_lines == 0

    def test_fast_lines_match_reference(self, machine):
        # The table-driven writer must be byte-identical to the per-row
        # render oracle, including the SBE skip.
        log = self.build_log(machine)
        writer = ConsoleLogWriter(machine)
        assert list(writer.lines(log)) == list(render_lines_reference(machine, log))

    def test_fast_lines_match_reference_at_scale(self, smoke_dataset):
        writer = ConsoleLogWriter(smoke_dataset.machine)
        events = smoke_dataset.events
        assert list(writer.lines(events)) == list(
            render_lines_reference(smoke_dataset.machine, events)
        )


def _one_row(time=0.0, gpu=7, etype=ErrorType.GRAPHICS_ENGINE_EXCEPTION):
    return EventLog.from_arrays(
        time=np.array([time]), gpu=np.array([gpu]), etype=np.array([etype.code])
    )


#: The first second past year 9999 and the last before year 1.
_PAST_9999 = datetime_to_timestamp(dt.datetime(9999, 12, 31, 23, 59, 59)) + 1.0
_BEFORE_1 = datetime_to_timestamp(dt.datetime(1, 1, 1)) - 1.0


class TestUnrepresentableRows:
    """A row the console cannot spell raises instead of rendering a
    line that parses back as a wrong event; SBE rows are skipped
    whatever they hold."""

    @pytest.mark.parametrize(
        "time",
        [float("inf"), -float("inf"), float("nan"), 9.3e18, -9.3e18,
         _PAST_9999, _BEFORE_1],
    )
    def test_time_without_a_stamp_raises(self, machine, time):
        log = _one_row(time=time)
        with pytest.raises(ValueError, match="no stamp"):
            list(ConsoleLogWriter(machine).lines(log))
        with pytest.raises(ValueError, match="no stamp"):
            list(render_lines_reference(machine, log))

    @pytest.mark.parametrize("gpu", [-1, -18_688, 18_688, 10**12])
    def test_gpu_outside_the_machine_raises(self, machine, gpu):
        log = _one_row(gpu=gpu)
        with pytest.raises(ValueError, match="outside"):
            list(ConsoleLogWriter(machine).lines(log))
        with pytest.raises(ValueError, match="outside"):
            list(render_lines_reference(machine, log))

    def test_sbe_rows_are_skipped_whatever_they_hold(self, machine):
        log = EventLog.from_arrays(
            time=np.array([float("inf"), 5.0, float("nan")]),
            gpu=np.array([-1, 7, 10**12]),
            etype=np.array([ErrorType.SBE.code, ErrorType.DBE.code,
                            ErrorType.SBE.code]),
        )
        lines = list(ConsoleLogWriter(machine).lines(log))
        assert lines == list(render_lines_reference(machine, log))
        assert lines == [f"2013-06-01T00:00:05.000000 {machine.cname(7)} "
                         "GPU XID 48: DBE (Double Bit Error) detected"]

    @pytest.mark.parametrize("year", [1, 500, 999, 1000, 9999])
    def test_every_year_gets_four_digits_and_parses_back(self, machine, year):
        time = datetime_to_timestamp(dt.datetime(year, 3, 4, 5, 6, 7))
        (line,) = ConsoleLogWriter(machine).lines(_one_row(time=time))
        assert line.startswith(f"{year:04d}-03-04T05:06:07.000000 ")
        assert list(render_lines_reference(machine, _one_row(time=time))) == [line]
        parsed, stats = ConsoleLogParser(machine).parse_lines([line])
        assert stats.parsed_events == 1
        assert float(parsed.time[0]) == time


#: Times across the study window with a year of slack either side, and
#: the µs rounding edges the timestamp codec is tested on.
_RENDER_TIMES = st.one_of(_TS_RANGE, st.sampled_from(_EDGE_TS))


@st.composite
def _event_logs(draw):
    """Event logs of every etype (SBE rows included), with and without
    a structure and a page, and jobs from -1 up to 18 digits."""
    rows = draw(st.lists(
        st.tuples(
            _RENDER_TIMES,
            st.integers(0, 18_687),
            st.sampled_from([t.code for t in ErrorType]),
            st.sampled_from([-1, *STRUCTURE_CODES.values()]),
            st.integers(-1, 10**18 - 1),
            st.one_of(st.just(-1), st.integers(0, 2**40)),
        ),
        max_size=40,
    ))
    names = ("time", "gpu", "etype", "structure", "job", "aux")
    return EventLog.from_arrays(
        **{name: [row[i] for row in rows] for i, name in enumerate(names)}
    )


class TestRenderWindows:
    """The writer renders the same bytes at any window size."""

    @given(log=_event_logs())
    @settings(max_examples=150, deadline=None)
    def test_any_window_size_renders_the_oracle(self, machine, log):
        want = list(render_lines_reference(machine, log))
        for rows in (1, 7, RENDER_CHUNK_ROWS):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr("repro.telemetry.console.RENDER_CHUNK_ROWS", rows)
                assert list(ConsoleLogWriter(machine).lines(log)) == want, rows


class TestNvsmi:
    @pytest.fixture()
    def small(self):
        tree = RngTree(4)
        fleet = GPUFleet(200, tree.fresh_generator("fleet"), n_sbe_prone=20)
        cages = np.zeros(200, dtype=np.int64)
        thermal = ThermalModel(cages, tree.fresh_generator("thermal"))
        return fleet, NvidiaSmi(fleet, thermal)

    def test_query_single(self, small):
        fleet, smi = small
        card = fleet.card_in_slot(7)
        card.inforom.record_sbe(MemoryStructure.L2_CACHE, 5)
        rec = smi.query(7)
        assert rec.sbe_total == 5
        assert rec.sbe_by_structure == {"l2_cache": 5}
        assert rec.slot == 7 and rec.serial == card.serial

    def test_query_fleet_columns(self, small):
        fleet, smi = small
        fleet.card_in_slot(3).inforom.record_sbe(MemoryStructure.L2_CACHE, 2)
        table = smi.query_fleet()
        assert table["sbe_total"].shape == (200,)
        assert table["sbe_total"][3] == 2
        assert table["sbe_l2"][3] == 2

    def test_undercount_vs_ground_truth(self, small):
        fleet, smi = small
        card = fleet.card_in_slot(0)
        # 50 DBEs with a 30% loss race: nvsmi total falls short
        rng = np.random.default_rng(0)
        for _ in range(50):
            card.apply_dbe(
                MemoryStructure.DEVICE_MEMORY, page=int(rng.integers(1000)),
                timestamp=1.0, u_loss=float(rng.random()), u_double=1.0,
            )
        assert card.n_dbe == 50
        assert smi.fleet_dbe_total() < 50

    def test_inconsistent_cards_detected(self, small):
        fleet, smi = small
        card = fleet.card_in_slot(9)
        card.inforom.record_dbe(
            MemoryStructure.DEVICE_MEMORY, u_loss=0.99, u_double=0.99
        )
        assert 9 in smi.inconsistent_cards()


class TestJobSnap:
    def make_trace(self):
        b = JobTraceBuilder()
        for i, start in enumerate([0.0, 100.0, 200.0]):
            b.add(user=i % 2, submit=start, start=start, end=start + 50.0,
                  gpu_util=0.5, max_memory_gb=8.0, total_memory=4.0,
                  n_apruns=2, runs=[(i * 10, 4)])
        return b.freeze()

    def test_coverage_window(self):
        trace = self.make_trace()
        fw = JobSnapshotFramework(deployed_at=150.0)
        assert fw.covered_jobs(trace).tolist() == [2]

    def test_collect_and_arrays(self):
        trace = self.make_trace()
        fw = JobSnapshotFramework(deployed_at=0.0)
        records = fw.collect(trace, np.array([3, 0, 7]))
        assert len(records) == 3
        arrays = JobSnapshotFramework.to_arrays(records)
        assert arrays["sbe"].tolist() == [3, 0, 7]
        assert arrays["n_nodes"].tolist() == [4, 4, 4]
        assert arrays["user"].tolist() == [0, 1, 0]

    def test_shape_validated(self):
        trace = self.make_trace()
        fw = JobSnapshotFramework(deployed_at=0.0)
        with pytest.raises(ValueError):
            fw.collect(trace, np.array([1, 2]))
