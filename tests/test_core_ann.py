"""Tests for aggregate-NN monitoring (Section 5: sum / min / max)."""

import math
import random

import pytest

from repro.core.cpm import CPMMonitor
from repro.core.strategies import AggregateNNStrategy
from repro.geometry.aggregates import adist
from repro.updates import appear_update, disappear_update, move_update
from tests.conftest import scatter


def brute_ann(positions, query_points, k, fn):
    entries = sorted(
        (adist(p, query_points, fn), oid) for oid, p in positions.items()
    )
    return entries[:k]


def fresh(n_objects=70, cells=8, seed=8):
    monitor = CPMMonitor(cells_per_axis=cells)
    objs = scatter(n_objects, seed=seed)
    monitor.load_objects(objs)
    return monitor, dict(objs)


QUERY_SETS = [
    [(0.3, 0.3), (0.6, 0.4), (0.45, 0.7)],          # triangle (Figure 5.1)
    [(0.1, 0.1), (0.9, 0.9)],                        # spread diagonal
    [(0.48, 0.52)],                                  # single point
    [(0.2, 0.8), (0.2, 0.8)],                        # duplicated points
    [(0.05, 0.5), (0.95, 0.5), (0.5, 0.05), (0.5, 0.95)],  # wide MBR
]


class TestAnnSearch:
    @pytest.mark.parametrize("fn", ["sum", "min", "max"])
    @pytest.mark.parametrize("points", QUERY_SETS)
    def test_matches_brute_force(self, fn, points):
        monitor, positions = fresh()
        result = monitor.install_ann_query(0, points, k=3, fn=fn)
        assert result == brute_ann(positions, points, 3, fn)

    @pytest.mark.parametrize("fn", ["sum", "min", "max"])
    def test_various_k(self, fn):
        monitor, positions = fresh()
        points = QUERY_SETS[0]
        for qid, k in enumerate([1, 2, 8, 16]):
            assert monitor.install_ann_query(qid, points, k=k, fn=fn) == brute_ann(
                positions, points, k, fn
            )

    def test_single_point_sum_equals_plain_nn(self):
        monitor, _ = fresh()
        ann = monitor.install_ann_query(0, [(0.37, 0.59)], k=4, fn="sum")
        nn = monitor.install_query(1, (0.37, 0.59), 4)
        assert ann == nn

    def test_mbr_spanning_many_cells(self):
        monitor, positions = fresh(cells=16)
        points = [(0.05, 0.05), (0.95, 0.95)]
        assert monitor.install_ann_query(0, points, k=2, fn="sum") == brute_ann(
            positions, points, 2, "sum"
        )

    def test_k_exceeding_population(self):
        monitor = CPMMonitor(cells_per_axis=4)
        monitor.load_objects([(1, (0.5, 0.5)), (2, (0.7, 0.7))])
        result = monitor.install_ann_query(0, [(0.4, 0.4), (0.6, 0.6)], k=5, fn="max")
        assert len(result) == 2


class TestAnnMonitoring:
    @pytest.mark.parametrize("fn", ["sum", "min", "max"])
    def test_random_update_stream(self, fn):
        rng = random.Random(hash(fn) % 1000)
        monitor, positions = fresh()
        points = QUERY_SETS[0]
        monitor.install_ann_query(0, points, k=3, fn=fn)
        for t in range(10):
            updates = []
            for oid in rng.sample(list(positions), 15):
                old = positions[oid]
                new = (
                    min(max(old[0] + rng.uniform(-0.2, 0.2), 0.0), 1.0),
                    min(max(old[1] + rng.uniform(-0.2, 0.2), 0.0), 1.0),
                )
                positions[oid] = new
                updates.append(move_update(oid, old, new))
            monitor.process(updates)
            assert monitor.result(0) == brute_ann(positions, points, 3, fn), (fn, t)

    @pytest.mark.parametrize("fn", ["sum", "min", "max"])
    def test_monitoring_cost_same_order_as_plain_nn(self, fn):
        """Section 5: an aggregate query is monitored at a cost of the same
        order as a plain NN query over the same update stream."""
        rng = random.Random(7)
        _, positions = fresh(n_objects=500)
        batches = []
        for _ in range(10):
            updates = []
            for oid in rng.sample(sorted(positions), 50):
                old = positions[oid]
                new = (
                    min(max(old[0] + rng.uniform(-0.05, 0.05), 0.0), 1.0),
                    min(max(old[1] + rng.uniform(-0.05, 0.05), 0.0), 1.0),
                )
                positions[oid] = new
                updates.append(move_update(oid, old, new))
            batches.append(updates)

        def scans(install):
            monitor, _ = fresh(n_objects=500)
            install(monitor)
            for updates in batches:
                monitor.process(updates)
            return monitor.stats.cell_scans

        plain = scans(lambda m: m.install_query(0, (0.5, 0.5), k=8))
        aggregate = scans(
            lambda m: m.install_ann_query(0, QUERY_SETS[0], k=8, fn=fn)
        )
        assert 0 < aggregate < 100 * plain

    def test_best_ann_disappears(self):
        monitor, positions = fresh()
        points = QUERY_SETS[1]
        monitor.install_ann_query(0, points, k=2, fn="sum")
        best_oid = monitor.result(0)[0][1]
        monitor.process([disappear_update(best_oid, positions[best_oid])])
        del positions[best_oid]
        assert monitor.result(0) == brute_ann(positions, points, 2, "sum")

    def test_incoming_object_handled_without_rescan(self):
        monitor, positions = fresh()
        points = [(0.45, 0.45), (0.55, 0.55)]
        monitor.install_ann_query(0, points, k=1, fn="sum")
        monitor.reset_stats()
        monitor.process([appear_update(999, (0.5, 0.5))])
        positions[999] = (0.5, 0.5)
        assert monitor.result(0)[0][1] == 999
        assert monitor.stats.cell_scans == 0
        assert monitor.result(0) == brute_ann(positions, points, 1, "sum")

    def test_mixed_ann_and_point_queries(self):
        rng = random.Random(4)
        monitor, positions = fresh()
        points = QUERY_SETS[0]
        monitor.install_ann_query(0, points, k=2, fn="max")
        monitor.install_query(1, (0.5, 0.5), 3)
        for _ in range(6):
            updates = []
            for oid in rng.sample(list(positions), 10):
                old = positions[oid]
                new = (rng.random(), rng.random())
                positions[oid] = new
                updates.append(move_update(oid, old, new))
            monitor.process(updates)
            assert monitor.result(0) == brute_ann(positions, points, 2, "max")
            from tests.conftest import brute_knn

            assert monitor.result(1) == brute_knn(positions, (0.5, 0.5), 3)


class TestAnnInfluenceRegion:
    def test_influence_region_is_iso_adist_contour(self):
        """Cells with amindist < best_dist must all be marked (they are the
        cells whose updates can change the result)."""
        monitor, _ = fresh()
        points = QUERY_SETS[0]
        for fn in ("sum", "min", "max"):
            monitor_f = CPMMonitor(cells_per_axis=8)
            monitor_f.load_objects(scatter(70, seed=8))
            monitor_f.install_ann_query(0, points, k=3, fn=fn)
            best = monitor_f.best_dist(0)
            strategy = monitor_f.query_state(0).strategy
            marked = set(monitor_f.grid.marked_cells(0))
            strict = {
                (i, j)
                for i, j in monitor_f.grid.all_cells()
                if strategy.cell_key(monitor_f.grid, i, j) < best - 1e-12
            }
            assert strict <= marked, fn

    def test_min_region_looks_like_union_of_circles(self):
        """For f=min the influence region is the union of per-point circles
        (Figure 5.2a)."""
        monitor, _ = fresh(n_objects=120)
        points = [(0.2, 0.2), (0.8, 0.8)]
        monitor.install_ann_query(0, points, k=1, fn="min")
        best = monitor.best_dist(0)
        for i, j in monitor.grid.marked_cells(0):
            assert min(
                monitor.grid.mindist(i, j, q) for q in points
            ) <= best + 1e-12


class TestVisitListOrder:
    def test_strip_keys_do_not_overshoot_their_cells(self):
        """Regression: the engine once keyed level ``l + 1`` of a strip as
        ``key + level_step``; here that sum overshot the strip's cells by
        an ulp, so a cell left the heap below an earlier key and the visit
        list that ``reconcile_marks`` bisects came out unsorted."""
        monitor = CPMMonitor(cells_per_axis=10)
        monitor.load_objects([(0, (1.0, 0.3)), (1, (0.6, 0.9))])
        monitor.install_ann_query(0, [(0.8, 0.0)], k=1, fn="max")
        keys = monitor.query_state(0).visit_keys
        assert keys == sorted(keys)
        monitor.check_invariants()
