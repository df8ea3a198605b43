"""Tests for the parallel helpers, report renderers, and CSV writers."""

import numpy as np
import pytest

from repro.core import TitanStudy, headline_statistics
from repro.core.report import (
    render_bar,
    render_heatmap,
    render_monthly_series,
    render_table,
)
from repro.parallel.pool import parallel_map
from repro.parallel.replicas import (
    ReplicaSummary,
    replica_confidence_intervals,
    run_replicas,
)
from repro.sim import Scenario
from repro.viz.csvout import write_grid_csv, write_rows_csv, write_series_csv


def _square(x):  # module-level: picklable
    return x * x


class TestPool:
    def test_serial_map(self):
        assert parallel_map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_parallel_map_order_preserved(self):
        out = parallel_map(_square, list(range(20)), n_workers=2)
        assert out == [x * x for x in range(20)]

    def test_lambda_rejected_in_parallel(self):
        with pytest.raises(ValueError):
            parallel_map(lambda x: x, [1, 2, 3], n_workers=2)

    def test_lambda_fine_serially(self):
        assert parallel_map(lambda x: x + 1, [1], n_workers=1) == [2]

    def test_single_item_stays_serial(self):
        assert parallel_map(_square, [5], n_workers=8) == [25]


class TestReplicas:
    def test_summarize_smoke(self, smoke_dataset):
        stats = headline_statistics(TitanStudy(smoke_dataset))
        assert stats["dbe_total"] > 0
        assert 0 <= stats["sbe_fraction"] < 0.05
        assert "spearman_core_hours" in stats

    def test_run_replicas_serial(self):
        base = Scenario.smoke(days=20.0)
        summaries = run_replicas(base, [1, 2], n_workers=1)
        assert len(summaries) == 2
        assert summaries[0].seed == 1
        # different seeds -> different samples
        assert summaries[0]["dbe_total"] != summaries[1]["dbe_total"] or (
            summaries[0]["sbe_cards"] != summaries[1]["sbe_cards"]
        )

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            run_replicas(Scenario.smoke(), [])

    def test_confidence_intervals(self):
        summaries = [
            ReplicaSummary(seed=i, statistics={"x": float(i)}) for i in range(11)
        ]
        ci = replica_confidence_intervals(summaries, confidence=0.8)
        lo, med, hi = ci["x"]
        assert med == 5.0
        assert lo < med < hi

    def test_ci_validation(self):
        with pytest.raises(ValueError):
            replica_confidence_intervals([])
        with pytest.raises(ValueError):
            replica_confidence_intervals(
                [ReplicaSummary(0, {"x": 1.0})], confidence=2.0
            )

    def test_ci_only_common_keys(self):
        summaries = [
            ReplicaSummary(0, {"a": 1.0, "b": 2.0}),
            ReplicaSummary(1, {"a": 3.0}),
        ]
        ci = replica_confidence_intervals(summaries)
        assert set(ci) == {"a"}


class TestRenderers:
    def test_table(self):
        text = render_table(["name", "xid"], [["DBE", 48], ["OTB", "-"]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "48" in text and "OTB" in text
        with pytest.raises(ValueError):
            render_table(["a"], [["x", "y"]])

    def test_bar(self):
        assert render_bar(5.0, 10.0, width=10) == "#####"
        assert render_bar(20.0, 10.0, width=10) == "##########"  # clamped
        assert render_bar(1.0, 0.0) == ""

    def test_monthly_series(self):
        text = render_monthly_series(
            ["Jun'13", "Jul'13"], np.array([2, 4]), "DBEs"
        )
        assert text.startswith("DBEs")
        assert "Jun'13" in text
        with pytest.raises(ValueError):
            render_monthly_series(["x"], np.array([1, 2]), "t")

    def test_heatmap(self):
        text = render_heatmap(
            np.array([[0.0, 1.0], [0.5, 0.25]]),
            row_labels=["r0", "r1"],
            col_labels=["c0", "c1"],
            title="T",
        )
        assert text.startswith("T")
        assert "r0" in text and "c0" in text
        with pytest.raises(ValueError):
            render_heatmap(np.zeros(3))

    def test_heatmap_all_zero(self):
        text = render_heatmap(np.zeros((2, 2)))
        assert text  # renders blanks, no crash


class TestCsv:
    def test_rows(self, tmp_path):
        path = write_rows_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2], [3, 4]])
        content = path.read_text().strip().splitlines()
        assert content[0] == "a,b"
        assert content[2] == "3,4"
        with pytest.raises(ValueError):
            write_rows_csv(tmp_path / "bad.csv", ["a"], [[1, 2]])

    def test_series(self, tmp_path):
        path = write_series_csv(
            tmp_path / "s.csv", ["x", "y"], np.array([1, 2])
        )
        assert "x,1" in path.read_text()
        with pytest.raises(ValueError):
            write_series_csv(tmp_path / "bad.csv", ["x"], np.array([1, 2]))

    def test_grid(self, tmp_path):
        path = write_grid_csv(tmp_path / "g.csv", np.arange(4).reshape(2, 2))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "row,col,value"
        assert len(lines) == 5
        with pytest.raises(ValueError):
            write_grid_csv(tmp_path / "bad.csv", np.zeros(3))
