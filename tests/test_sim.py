"""Tests for scenarios and the end-to-end simulation (smoke scale)."""

import numpy as np
import pytest

from repro.errors.xid import ErrorType
from repro.sim import Scenario, TitanSimulation, default_dataset


class TestScenario:
    def test_paper_defaults(self):
        sc = Scenario.paper()
        sc.validate()
        assert sc.folded_torus
        assert sc.end > sc.start

    def test_named_ablations(self):
        assert not Scenario.no_thermal_gradient().rates.thermal_enabled
        assert Scenario.no_solder_fix().rates.otb_fix_time is None
        assert not Scenario.unfolded_torus().folded_torus

    def test_evolve(self):
        sc = Scenario.paper().evolve(seed=7)
        assert sc.seed == 7
        assert Scenario.paper().seed != 7 or True

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario.paper().evolve(end=-1.0).validate()
        with pytest.raises(ValueError):
            Scenario.paper().evolve(jobsnap_deployed_at=-5.0).validate()

    @pytest.mark.parametrize("days", [float("inf"), float("nan")])
    def test_window_must_be_finite(self, days):
        scenario = Scenario.smoke(days=days)
        with pytest.raises(ValueError, match="window must be finite"):
            scenario.validate()
        with pytest.raises(ValueError, match="window must be finite"):
            TitanSimulation(scenario)

    def test_smoke_is_consistent(self):
        sc = Scenario.smoke()
        sc.validate()
        assert sc.workload.end_time == sc.end


class TestSimulationSmoke:
    def test_dataset_shapes(self, smoke_dataset):
        ds = smoke_dataset
        assert ds.machine.n_gpus == 18_688
        assert ds.sbe_by_slot.shape == (18_688,)
        assert ds.sbe_by_job.shape == (len(ds.trace),)
        assert len(ds.trace) > 500

    def test_events_sorted_within_window(self, smoke_dataset):
        ev = smoke_dataset.events
        assert ev.is_sorted()
        assert ev.time.min() >= 0.0

    def test_console_roundtrip_counts(self, smoke_dataset):
        ds = smoke_dataset
        stats = ds.parse_stats
        assert stats.malformed_lines == 0
        assert stats.unknown_xid_lines == 0
        # every loggable event survives the text round trip
        loggable = len(ds.events) - len(ds.events.of_type(ErrorType.SBE))
        assert stats.parsed_events == loggable
        assert len(ds.parsed_events) == loggable

    def test_parsed_log_has_no_parents(self, smoke_dataset):
        assert np.all(smoke_dataset.parsed_events.parent == -1)

    def test_parsed_matches_ground_truth_types(self, smoke_dataset):
        ds = smoke_dataset
        truth = {
            t: n for t, n in ds.events.count_by_type().items()
            if t is not ErrorType.SBE
        }
        parsed = ds.parsed_events.count_by_type()
        assert parsed == truth

    def test_nvsmi_table_consistency(self, smoke_dataset):
        table = smoke_dataset.nvsmi_table
        # InfoROM totals equal injected totals (SBE writes never race)
        assert table["sbe_total"].sum() == smoke_dataset.sbe_by_slot.sum()

    def test_jobsnap_covers_second_half(self, smoke_dataset):
        ds = smoke_dataset
        records = ds.jobsnap_records
        assert len(records) > 0
        deployed = ds.scenario.jobsnap_deployed_at
        assert all(
            ds.trace.start[r.job] >= deployed for r in records
        )

    def test_reproducible(self, smoke_dataset):
        again = TitanSimulation(Scenario.smoke()).run()
        assert len(again.events) == len(smoke_dataset.events)
        assert np.array_equal(again.events.time, smoke_dataset.events.time)
        assert np.array_equal(again.sbe_by_slot, smoke_dataset.sbe_by_slot)

    def test_different_seed_differs(self, smoke_dataset):
        other = TitanSimulation(Scenario.smoke(seed=12345)).run()
        assert not np.array_equal(
            other.events.time, smoke_dataset.events.time
        )

    def test_default_dataset_memoizes(self, smoke_dataset):
        assert default_dataset(Scenario.smoke()) is smoke_dataset

    def test_unfolded_machine_allocation(self):
        ds = TitanSimulation(
            Scenario.unfolded_torus().evolve(
                end=Scenario.smoke().end,
                workload=Scenario.smoke().workload,
                jobsnap_deployed_at=Scenario.smoke().jobsnap_deployed_at,
            )
        ).run()
        # unfolded: allocation order walks physical rows 0,1,2,...
        rows = ds.machine.row[ds.machine.allocation_order]
        _, first_idx = np.unique(rows, return_index=True)
        visit = rows[np.sort(first_idx)]
        assert visit[0] == 0 and visit[1] == 1 and visit[2] == 2


class TestNextGenerationScenario:
    def test_rates_improved(self):
        from repro.sim import Scenario

        sc = Scenario.next_generation()
        sc.validate()
        base = Scenario.paper()
        assert sc.rates.dbe_mtbf_hours > 2 * base.rates.dbe_mtbf_hours
        assert sc.rates.otb_rate_before_fix_per_hour == 0.0
        assert (
            sc.rates.sbe_rate_per_proneness_hour
            < base.rates.sbe_rate_per_proneness_hour
        )
