"""Tests for Minkowski-metric NN monitoring (footnote 3 extension)."""

import math
import random

import pytest

from repro.core.cpm import CPMMonitor
from repro.core.metrics_ext import MinkowskiNNStrategy, minkowski_dist
from repro.updates import move_update
from tests.conftest import scatter


def brute_minkowski(positions, q, k, p):
    entries = sorted(
        (minkowski_dist(x, y, q[0], q[1], p), oid)
        for oid, (x, y) in positions.items()
    )
    return entries[:k]


class TestMinkowskiDist:
    def test_l1(self):
        assert minkowski_dist(0, 0, 3, 4, 1.0) == 7.0

    def test_l2(self):
        assert minkowski_dist(0, 0, 3, 4, 2.0) == 5.0

    def test_linf(self):
        assert minkowski_dist(0, 0, 3, 4, None) == 4.0

    def test_general_p(self):
        assert minkowski_dist(0, 0, 1, 1, 3.0) == pytest.approx(2 ** (1 / 3))

    def test_norm_ordering(self):
        # L1 >= L2 >= Linf for any displacement.
        for dx, dy in [(0.3, 0.7), (1.0, 0.0), (0.5, 0.5)]:
            l1 = minkowski_dist(0, 0, dx, dy, 1.0)
            l2 = minkowski_dist(0, 0, dx, dy, 2.0)
            linf = minkowski_dist(0, 0, dx, dy, None)
            assert l1 >= l2 >= linf


class TestStrategyValidation:
    def test_unknown_metric_raises(self):
        with pytest.raises(ValueError):
            MinkowskiNNStrategy(0.5, 0.5, "cosine")

    def test_exponent_below_one_raises(self):
        with pytest.raises(ValueError):
            MinkowskiNNStrategy(0.5, 0.5, 0.5)

    def test_l2_equals_euclidean_strategy(self):
        from repro.core.strategies import PointNNStrategy

        mink = MinkowskiNNStrategy(0.3, 0.7, "l2")
        plain = PointNNStrategy(0.3, 0.7)
        for x, y in [(0.1, 0.9), (0.5, 0.5), (0.99, 0.01)]:
            assert mink.dist(x, y) == pytest.approx(plain.dist(x, y))

    def test_cell_key_lower_bounds_dist(self):
        from repro.grid.grid import Grid

        rng = random.Random(4)
        grid = Grid(8)
        for metric in ("l1", "l2", "linf", 3.0):
            s = MinkowskiNNStrategy(0.37, 0.58, metric)
            for _ in range(50):
                i, j = rng.randrange(8), rng.randrange(8)
                x0, y0, x1, y1 = grid.cell_rect(i, j)
                px, py = rng.uniform(x0, x1), rng.uniform(y0, y1)
                assert s.cell_key(grid, i, j) <= s.dist(px, py) + 1e-12

    def test_strip_keys_lower_bound_strip_cells(self):
        from repro.core.partition import DIRECTIONS
        from repro.grid.grid import Grid

        grid = Grid(8)
        for metric in ("l1", "linf"):
            s = MinkowskiNNStrategy(0.41, 0.66, metric)
            part = s.partition(grid)
            for direction in DIRECTIONS:
                if not part.exists(direction, 0):
                    continue
                key = s.strip_key(grid, part, direction)
                level = 0
                while part.exists(direction, level):
                    for i, j in part.strip_cells(direction, level):
                        assert s.cell_key(grid, i, j) >= key - 1e-12
                    key += s.level_step(grid)
                    level += 1


class TestMonitoring:
    @pytest.mark.parametrize("metric,p", [("l1", 1.0), ("l2", 2.0), ("linf", None)])
    def test_search_matches_brute_force(self, metric, p):
        monitor = CPMMonitor(cells_per_axis=8)
        objs = scatter(70, seed=31)
        monitor.load_objects(objs)
        positions = dict(objs)
        for qid, q in enumerate([(0.5, 0.5), (0.1, 0.9), (0.97, 0.03)]):
            result = monitor.install_strategy_query(
                qid, MinkowskiNNStrategy(q[0], q[1], metric), k=4
            )
            assert result == brute_minkowski(positions, q, 4, p)

    @pytest.mark.parametrize("metric,p", [("l1", 1.0), ("linf", None)])
    def test_updates_match_brute_force(self, metric, p):
        rng = random.Random(5)
        monitor = CPMMonitor(cells_per_axis=8)
        objs = scatter(60, seed=32)
        monitor.load_objects(objs)
        positions = dict(objs)
        q = (0.45, 0.55)
        monitor.install_strategy_query(0, MinkowskiNNStrategy(*q, metric), k=3)
        for _ in range(10):
            updates = []
            for oid in rng.sample(list(positions), 12):
                old = positions[oid]
                new = (rng.random(), rng.random())
                positions[oid] = new
                updates.append(move_update(oid, old, new))
            monitor.process(updates)
            assert monitor.result(0) == brute_minkowski(positions, q, 3, p)

    def test_metrics_can_disagree_on_the_nn(self):
        # A point far along one axis beats a diagonal point under Linf but
        # loses under L1.
        monitor = CPMMonitor(cells_per_axis=8)
        monitor.load_objects([(1, (0.8, 0.5)), (2, (0.68, 0.68))])
        q = (0.5, 0.5)
        l1 = monitor.install_strategy_query(0, MinkowskiNNStrategy(*q, "l1"), 1)
        linf = monitor.install_strategy_query(1, MinkowskiNNStrategy(*q, "linf"), 1)
        assert l1[0][1] == 1       # L1: 0.3 vs 0.36
        assert linf[0][1] == 2     # Linf: 0.3 vs 0.18
