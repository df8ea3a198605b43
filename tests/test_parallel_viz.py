"""Tests for the parallel helpers, replica bands, report renderers, and
CSV writers."""

import numpy as np
import pytest

from repro.cache import ArtifactStore
from repro.core import TitanStudy, headline_statistics
from repro.core.report import (
    render_bar,
    render_heatmap,
    render_monthly_series,
    render_table,
)
from repro.parallel.pool import parallel_map
from repro.sweep import SensitivityReducer, SweepSpec, expand, run_sweep
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


def _summary(point, headline, passing=()):
    """A synthetic summary doc for ``point``: only what the reducer reads."""
    return {
        "point": {
            "key": point.key,
            "dataset_key": point.dataset_key,
            "axes": {},
            "n_nodes": point.n_nodes,
        },
        "headline": headline,
        "scorecard": [
            {"name": name, "ok": name in passing} for name in ("a", "b")
        ],
        "telemetry": {"corrupt_fraction": 0.0, "resynced_lines": 0},
    }


class TestReplicas:
    """Replica campaigns are sweeps with ``replicas=K``: one scenario,
    K seeds, reduced to per-statistic bands and per-check pass counts."""

    def test_summarize_smoke(self, smoke_dataset):
        stats = headline_statistics(TitanStudy(smoke_dataset))
        assert stats["dbe_total"] > 0
        assert 0 <= stats["sbe_fraction"] < 0.05
        assert "spearman_core_hours" in stats

    def test_replica_sweep_serial(self, tmp_path):
        spec = SweepSpec(name="serial", days=20.0, seed=1, replicas=2)
        report = run_sweep(spec, ArtifactStore(tmp_path), n_workers=1)
        first, second = report.document["rows"]
        assert (first["replica"], second["replica"]) == (0, 1)
        assert expand(spec)[0].scenario.seed == 1  # replica 0: base seed
        # different seeds -> different samples
        assert first["dbe_total"] != second["dbe_total"] or (
            first["sbe_fraction"] != second["sbe_fraction"]
        )

    def test_empty_seeds_rejected(self, tmp_path):
        spec = SweepSpec(name="empty", replicas=0)
        with pytest.raises(ValueError, match="replicas must be"):
            spec.validate()
        with pytest.raises(ValueError, match="replicas must be"):
            run_sweep(spec, ArtifactStore(tmp_path))
        assert not list(tmp_path.glob("runs/*"))  # nothing journaled

    def test_confidence_intervals(self):
        reducer = SensitivityReducer(SweepSpec(name="ci", replicas=11))
        for point in reducer.points:
            passing = ("a", "b") if point.replica % 2 == 0 else ("b",)
            reducer.add(
                point.index,
                _summary(point, {"x": float(point.replica)}, passing),
            )
        (band,) = reducer.table()["bands"]
        lo, med, hi = band["headline"]["x"]
        assert med == 5.0
        assert lo < med < hi
        values = np.arange(11.0)
        assert [lo, med, hi] == [
            np.quantile(values, 0.05),
            np.median(values),
            np.quantile(values, 0.95),
        ]
        assert band["n_replicas"] == 11
        assert band["indices"] == list(range(11))
        assert band["pass_counts"] == {"a": 6, "b": 11}

    def test_ci_validation(self):
        for bad in (True, 1.5, "2", -1):
            with pytest.raises(ValueError, match="replicas must be"):
                SweepSpec(replicas=bad).validate()
        reducer = SensitivityReducer(SweepSpec(name="ci", replicas=2))
        first, second = reducer.points
        # a replica's band input is its own summary, not its cell's
        with pytest.raises(ValueError, match="grid expects"):
            reducer.add(second.index, _summary(first, {"x": 1.0}))
        reducer.add(first.index, _summary(first, {"x": 1.0}))
        with pytest.raises(ValueError, match="incomplete"):
            reducer.table()

    def test_ci_only_common_keys(self):
        reducer = SensitivityReducer(SweepSpec(name="common", replicas=2))
        first, second = reducer.points
        reducer.add(first.index, _summary(first, {"a": 1.0, "b": 2.0}))
        reducer.add(second.index, _summary(second, {"a": 3.0}))
        (band,) = reducer.table()["bands"]
        assert set(band["headline"]) == {"a"}


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
