"""Tests for the experiment infrastructure and drivers (tiny scales).

Each figure driver runs end-to-end at a micro scale.  The paper's
qualitative claims are asserted on the deterministic cell-access counter
only (who scans fewest cells, how accesses move with k); CPU-time
orderings are wall-clock and belong to ``python3 -m bench``.
"""

import pytest

from repro.experiments import common, reporting
from repro.experiments.common import (
    build_monitor,
    make_workload,
    run_algorithms,
    scaled_grid,
    scaled_spec,
)

TINY = 0.004  # N=400, n=20 — fast enough for unit tests


def assert_cpm_scans_fewest(result, rivals=("YPK-CNN", "SEA-CNN")):
    """CPM's cell accesses strictly below each rival's at every sweep value."""
    cpm = result.series("CPM", "cell_accesses")
    for rival in rivals:
        theirs = result.series(rival, "cell_accesses")
        for value, a, b in zip(result.values(), cpm, theirs):
            assert a < b, (result.experiment, value, rival)


class TestScaledSpec:
    def test_paper_scale_reproduces_table_6_1(self):
        spec = scaled_spec(1.0)
        assert spec.n_objects == 100_000
        assert spec.n_queries == 5_000
        assert spec.k == 16
        assert spec.timestamps == 100

    def test_downscaling(self):
        spec = scaled_spec(0.05)
        assert spec.n_objects == 5_000
        assert spec.n_queries == 250
        assert 5 <= spec.timestamps <= 100

    def test_overrides(self):
        spec = scaled_spec(0.05, k=4, object_speed="fast")
        assert spec.k == 4
        assert spec.object_speed == "fast"

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            scaled_spec(0.0)

    def test_scaled_grid_matches_density(self):
        # Full scale keeps the paper's 128; small scales shrink as sqrt.
        assert scaled_grid(1.0) == 128
        assert scaled_grid(0.25) == 64
        assert scaled_grid(0.01) == 16

    def test_scaled_grid_floor(self):
        assert scaled_grid(0.0001) == 16


class TestBuildMonitor:
    def test_known_algorithms(self):
        for name in ("CPM", "YPK-CNN", "SEA-CNN"):
            assert build_monitor(name, 16).name == name

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            build_monitor("QUADTREE", 16)


class TestRunAlgorithms:
    def test_produces_one_point_per_algorithm(self):
        spec = scaled_spec(TINY)
        workload = make_workload(spec)
        points = run_algorithms(workload, 16, "x", 1)
        assert [p.algorithm for p in points] == ["CPM", "YPK-CNN", "SEA-CNN"]
        assert all(p.report.timestamps == spec.timestamps for p in points)


class TestReporting:
    def test_format_table_alignment(self):
        table = reporting.format_table(
            ["a", "bb"], [[1, 2.5], [10, 0.001]]
        )
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1  # aligned

    def test_render_result(self):
        spec = scaled_spec(TINY)
        workload = make_workload(spec)
        result = common.ExperimentResult(
            experiment="T", title="t", parameter="p"
        )
        result.points.extend(run_algorithms(workload, 16, "p", 7))
        text = reporting.render_result(result)
        assert "CPM" in text and "YPK-CNN" in text
        assert "7" in text


class TestFigureDrivers:
    def test_fig_6_1(self):
        from repro.experiments import fig_6_1

        result = fig_6_1.run(scale=TINY)
        assert result.values()  # at least one granularity
        assert set(result.algorithms()) == {"CPM", "YPK-CNN", "SEA-CNN"}
        for algo in result.algorithms():
            assert all(v > 0 for v in result.series(algo))
        assert_cpm_scans_fewest(result)

    def test_fig_6_2(self):
        from repro.experiments import fig_6_2

        res_a = fig_6_2.run_objects(scale=TINY)
        # Tiny scales may collapse adjacent paper sweep values.
        assert 3 <= len(res_a.values()) <= 5
        assert_cpm_scans_fewest(res_a)
        res_b = fig_6_2.run_queries(scale=TINY)
        assert len(res_b.values()) >= 3
        assert_cpm_scans_fewest(res_b)

    def test_fig_6_3(self):
        from repro.experiments import fig_6_3

        result = fig_6_3.run(scale=TINY)
        assert result.values()
        # Figure 6.3b: CPM far below the baselines at every k, and cell
        # accesses grow with k for every method.
        assert_cpm_scans_fewest(result)
        for algo in result.algorithms():
            accesses = result.series(algo, "cell_accesses")
            assert all(a < b for a, b in zip(accesses, accesses[1:])), algo

    def test_fig_6_4(self):
        from repro.experiments import fig_6_4

        res_a = fig_6_4.run_object_speed(scale=TINY)
        assert res_a.values() == ["slow", "medium", "fast"]
        assert_cpm_scans_fewest(res_a)
        res_b = fig_6_4.run_query_speed(scale=TINY)
        assert res_b.values() == ["slow", "medium", "fast"]
        assert_cpm_scans_fewest(res_b)

    def test_fig_6_5(self):
        from repro.experiments import fig_6_5

        res_a = fig_6_5.run_object_agility(scale=TINY)
        assert res_a.values() == [0.1, 0.2, 0.3, 0.4, 0.5]
        assert_cpm_scans_fewest(res_a)

    def test_fig_6_6(self):
        from repro.experiments import fig_6_6

        res_a = fig_6_6.run_moving(scale=TINY)
        assert set(res_a.algorithms()) == {"CPM", "YPK-CNN"}  # SEA omitted
        assert_cpm_scans_fewest(res_a, rivals=("YPK-CNN",))
        res_b = fig_6_6.run_static(scale=TINY)
        assert set(res_b.algorithms()) == {"CPM", "YPK-CNN", "SEA-CNN"}
        assert_cpm_scans_fewest(res_b)

    def test_space_table(self):
        from repro.experiments import space_table

        experiment = space_table.run(scale=TINY)
        modeled = {r.method: r.modeled_units for r in experiment.modeled_full}
        # Footnote-6 ordering at paper-default size.
        assert modeled["YPK-CNN"] < modeled["SEA-CNN"] < modeled["CPM"]
        measured = {r.method: r.measured_units for r in experiment.measured_scaled}
        assert all(v > 0 for v in measured.values())

    def test_ablations(self):
        from repro.experiments import ablations

        result = ablations.run(scale=TINY)
        assert result.values() == ["full", "no-merge", "no-bookkeeping"]
        # Each mechanism saves work.  (The two ablations are not ordered
        # relative to each other: no-merge recomputes more *often*,
        # no-bookkeeping makes each re-computation *pricier*.)
        full, no_merge, no_bookkeeping = result.series("CPM", "cell_accesses")
        assert full <= no_merge
        assert full <= no_bookkeeping


class TestTable21Properties:
    """Table 2.1: capability matrix of the monitoring methods, asserted
    against the living implementations."""

    def test_all_methods_are_exact_nn_monitors(self):
        # (Exactness is established by the equivalence suites; here we
        # assert the interface-level properties.)
        from repro.baselines.sea import SeaCnnMonitor
        from repro.baselines.ypk import YpkCnnMonitor
        from repro.core.cpm import CPMMonitor
        from repro.monitor import ContinuousMonitor

        for cls in (CPMMonitor, YpkCnnMonitor, SeaCnnMonitor):
            assert issubclass(cls, ContinuousMonitor)

    def test_methods_are_centralized_main_memory(self):
        # All three process the full update stream centrally over an
        # in-memory grid: the grid object lives in process memory.
        from repro.grid.grid import Grid

        for name in ("CPM", "YPK-CNN", "SEA-CNN"):
            monitor = build_monitor(name, 8)
            assert isinstance(monitor.grid, Grid)

    def test_cpm_supports_query_types_baselines_do_not(self):
        from repro.core.cpm import CPMMonitor

        cpm = CPMMonitor(cells_per_axis=8)
        assert hasattr(cpm, "install_ann_query")
        assert hasattr(cpm, "install_constrained_query")
        for name in ("YPK-CNN", "SEA-CNN"):
            monitor = build_monitor(name, 8)
            assert not hasattr(monitor, "install_ann_query")
