"""Unit tests for the query-geometry strategies (Sections 3 and 5)."""

import math

import pytest

from repro.core.metrics_ext import MinkowskiNNStrategy
from repro.core.partition import DIRECTIONS, DOWN, LEFT, RIGHT, UP
from repro.core.strategies import (
    AggregateNNStrategy,
    ConstrainedStrategy,
    PointNNStrategy,
)
from repro.geometry.rects import Rect
from repro.grid.grid import Grid


@pytest.fixture
def grid() -> Grid:
    return Grid(8)  # delta = 0.125


class TestPointNNStrategy:
    def test_dist_is_euclidean(self):
        s = PointNNStrategy(0.0, 0.0)
        assert s.dist(3.0, 4.0) == 5.0

    def test_accepts_everything(self):
        s = PointNNStrategy(0.5, 0.5)
        assert s.accepts(0.0, 0.0)
        assert s.accepts(100.0, -100.0)

    def test_core_range_is_query_cell(self, grid):
        s = PointNNStrategy(0.3, 0.7)
        assert s.core_range(grid) == (2, 2, 5, 5)

    def test_cell_key_matches_grid_mindist(self, grid):
        s = PointNNStrategy(0.3, 0.7)
        for i in range(8):
            for j in range(8):
                assert s.cell_key(grid, i, j) == grid.mindist(i, j, (0.3, 0.7))

    def test_strip_key0_is_perpendicular_gap(self, grid):
        # q at (0.30, 0.70): cell (2, 5) covers [0.25,0.375)x[0.625,0.75).
        s = PointNNStrategy(0.30, 0.70)
        part = s.partition(grid)
        assert s.strip_key(grid, part, UP) == pytest.approx(0.75 - 0.70)
        assert s.strip_key(grid, part, DOWN) == pytest.approx(0.70 - 0.625)
        assert s.strip_key(grid, part, RIGHT) == pytest.approx(0.375 - 0.30)
        assert s.strip_key(grid, part, LEFT) == pytest.approx(0.30 - 0.25)

    def test_opposite_strip_keys_sum_to_delta(self, grid):
        # As in the Figure 3.2a example: U0+D0 = L0+R0 = delta.
        s = PointNNStrategy(0.41, 0.83)
        part = s.partition(grid)
        up = s.strip_key(grid, part, UP)
        down = s.strip_key(grid, part, DOWN)
        left = s.strip_key(grid, part, LEFT)
        right = s.strip_key(grid, part, RIGHT)
        assert up + down == pytest.approx(grid.delta)
        assert left + right == pytest.approx(grid.delta)

    def test_strip_key_lower_bounds_cells(self, grid):
        # Lemma 3.1 usage: strip key must lower-bound every cell in it.
        s = PointNNStrategy(0.55, 0.45)
        part = s.partition(grid)
        step = s.level_step(grid)
        for direction in DIRECTIONS:
            key = s.strip_key(grid, part, direction)
            level = 0
            while part.exists(direction, level):
                for i, j in part.strip_cells(direction, level):
                    assert s.cell_key(grid, i, j) >= key - 1e-12
                key += step
                level += 1

    def test_level_step_is_delta(self, grid):
        assert PointNNStrategy(0.5, 0.5).level_step(grid) == grid.delta

    def test_reference_point(self):
        assert PointNNStrategy(0.2, 0.8).reference_point() == (0.2, 0.8)


class TestAggregateNNStrategy:
    POINTS = [(0.2, 0.2), (0.4, 0.3), (0.3, 0.55)]

    def test_empty_points_raises(self):
        with pytest.raises(ValueError):
            AggregateNNStrategy([], "sum")

    def test_dist_sum(self):
        s = AggregateNNStrategy(self.POINTS, "sum")
        p = (0.5, 0.5)
        expected = sum(math.hypot(p[0] - x, p[1] - y) for x, y in self.POINTS)
        assert s.dist(*p) == pytest.approx(expected)

    def test_dist_min_max(self):
        p = (0.5, 0.5)
        dists = [math.hypot(p[0] - x, p[1] - y) for x, y in self.POINTS]
        assert AggregateNNStrategy(self.POINTS, "min").dist(*p) == pytest.approx(min(dists))
        assert AggregateNNStrategy(self.POINTS, "max").dist(*p) == pytest.approx(max(dists))

    def test_mbr(self):
        s = AggregateNNStrategy(self.POINTS, "sum")
        m = s.mbr
        assert (m.x0, m.y0, m.x1, m.y1) == (0.2, 0.2, 0.4, 0.55)

    def test_core_range_covers_mbr(self, grid):
        s = AggregateNNStrategy(self.POINTS, "sum")
        i_lo, i_hi, j_lo, j_hi = s.core_range(grid)
        assert (i_lo, j_lo) == grid.cell_of(0.2, 0.2)
        assert (i_hi, j_hi) == grid.cell_of(0.4, 0.55)
        assert i_lo <= i_hi and j_lo <= j_hi

    def test_cell_key_is_amindist(self, grid):
        for fn in ("sum", "min", "max"):
            s = AggregateNNStrategy(self.POINTS, fn)
            mindists = [grid.mindist(6, 6, q) for q in self.POINTS]
            expected = {"sum": sum, "min": min, "max": max}[fn](mindists)
            assert s.cell_key(grid, 6, 6) == pytest.approx(expected)

    def test_cell_key_lower_bounds_adist(self, grid):
        # amindist(c, Q) <= adist(p, Q) for any p in c.
        import random

        rng = random.Random(9)
        for fn in ("sum", "min", "max"):
            s = AggregateNNStrategy(self.POINTS, fn)
            for _ in range(40):
                i, j = rng.randrange(8), rng.randrange(8)
                x0, y0, x1, y1 = grid.cell_rect(i, j)
                px, py = rng.uniform(x0, x1), rng.uniform(y0, y1)
                assert s.cell_key(grid, i, j) <= s.dist(px, py) + 1e-12

    def test_strip_key0_lower_bounds_strip_cells(self, grid):
        for fn in ("sum", "min", "max"):
            s = AggregateNNStrategy(self.POINTS, fn)
            part = s.partition(grid)
            step = s.level_step(grid)
            for direction in DIRECTIONS:
                if not part.exists(direction, 0):
                    continue
                key = s.strip_key(grid, part, direction)
                level = 0
                while part.exists(direction, level):
                    for i, j in part.strip_cells(direction, level):
                        assert s.cell_key(grid, i, j) >= key - 1e-12
                    key += step
                    level += 1

    def test_level_step_corollaries(self, grid):
        # Corollary 5.1: sum steps by m * delta; 5.2: min/max step by delta.
        m = len(self.POINTS)
        assert AggregateNNStrategy(self.POINTS, "sum").level_step(grid) == pytest.approx(
            m * grid.delta
        )
        assert AggregateNNStrategy(self.POINTS, "min").level_step(grid) == pytest.approx(
            grid.delta
        )
        assert AggregateNNStrategy(self.POINTS, "max").level_step(grid) == pytest.approx(
            grid.delta
        )

    def test_single_point_sum_equals_point_nn(self, grid):
        ann = AggregateNNStrategy([(0.3, 0.7)], "sum")
        nn = PointNNStrategy(0.3, 0.7)
        assert ann.dist(0.9, 0.1) == pytest.approx(nn.dist(0.9, 0.1))
        assert ann.core_range(grid) == nn.core_range(grid)
        part = ann.partition(grid)
        for direction in DIRECTIONS:
            assert ann.strip_key(grid, part, direction) == pytest.approx(
                nn.strip_key(grid, part, direction)
            )

    def test_reference_point_is_mbr_center(self):
        s = AggregateNNStrategy([(0.2, 0.2), (0.4, 0.6)], "sum")
        assert s.reference_point() == (pytest.approx(0.3), pytest.approx(0.4))


class TestConstrainedStrategy:
    def test_accepts_filters_region(self):
        s = ConstrainedStrategy(PointNNStrategy(0.5, 0.5), Rect(0.5, 0.5, 1.0, 1.0))
        assert s.accepts(0.7, 0.7)
        assert not s.accepts(0.3, 0.7)
        assert s.accepts(0.5, 0.5)  # border inclusive

    def test_dist_unchanged(self):
        inner = PointNNStrategy(0.0, 0.0)
        s = ConstrainedStrategy(inner, Rect(0.0, 0.0, 1.0, 1.0))
        assert s.dist(0.3, 0.4) == inner.dist(0.3, 0.4)

    def test_cell_allowed_by_intersection(self, grid):
        s = ConstrainedStrategy(
            PointNNStrategy(0.5, 0.5), Rect(0.5, 0.5, 1.0, 1.0)
        )
        assert s.cell_allowed(grid, 7, 7)
        assert not s.cell_allowed(grid, 0, 0)
        # Cell touching the region border counts as intersecting.
        assert s.cell_allowed(grid, 3, 3)

    def test_no_nesting(self):
        inner = ConstrainedStrategy(PointNNStrategy(0.5, 0.5), Rect(0, 0, 1, 1))
        with pytest.raises(TypeError):
            ConstrainedStrategy(inner, Rect(0, 0, 1, 1))

    def test_wraps_aggregate(self, grid):
        s = ConstrainedStrategy(
            AggregateNNStrategy([(0.2, 0.2), (0.3, 0.3)], "max"),
            Rect(0.0, 0.0, 0.5, 0.5),
        )
        assert s.accepts(0.4, 0.4)
        assert not s.accepts(0.6, 0.4)
        assert s.level_step(grid) == grid.delta


LATTICE = [i / 10 for i in range(11)]


@pytest.mark.parametrize(
    "make",
    [
        lambda x, y: PointNNStrategy(x, y),
        lambda x, y: AggregateNNStrategy([(x, y), (0.35, 0.6)], "sum"),
        lambda x, y: AggregateNNStrategy([(x, y), (0.35, 0.6)], "min"),
        lambda x, y: AggregateNNStrategy([(x, y)], "max"),
        lambda x, y: MinkowskiNNStrategy(x, y, "l1"),
        lambda x, y: MinkowskiNNStrategy(x, y, "linf"),
        lambda x, y: MinkowskiNNStrategy(x, y, 3.0),
    ],
    ids=["nn", "ann-sum", "ann-min", "ann-max", "l1", "linf", "l3"],
)
def test_strip_keys_never_exceed_their_cells(make):
    """Every level's strip key lower-bounds its cells' keys *exactly* (no
    tolerance) for queries on lattice points, where cell edges and query
    coordinates coincide and rounding decides ties — the order the search
    heap relies on to keep the visit list sorted."""
    grid = Grid(10)
    for x in LATTICE:
        for y in LATTICE:
            s = make(x, y)
            part = s.partition(grid)
            for direction in DIRECTIONS:
                level = 0
                while part.exists(direction, level):
                    key = s.strip_key(grid, part, direction, level)
                    for i, j in part.strip_cells(direction, level):
                        assert s.cell_key(grid, i, j) >= key, (x, y, direction, level)
                    level += 1
