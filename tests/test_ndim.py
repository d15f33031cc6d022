"""Tests for the d-dimensional CPM package (footnote 3 extension)."""

import math
import random

import pytest

from ndim.cpm import NdCPMMonitor
from ndim.grid import NdGrid
from ndim.partition import NdConceptualPartition
from repro.updates import ObjectUpdate, appear_update, disappear_update, move_update


def nd_scatter(n, d, seed=0):
    rng = random.Random(seed)
    return [(oid, tuple(rng.random() for _ in range(d))) for oid in range(n)]


def brute_knn(positions, q, k):
    return sorted((math.dist(p, q), oid) for oid, p in positions.items())[:k]


class TestNdGrid:
    def test_cell_of_and_clamping(self):
        grid = NdGrid(4, dimensions=3)
        assert grid.cell_of((0.0, 0.0, 0.0)) == (0, 0, 0)
        assert grid.cell_of((0.99, 0.5, 0.26)) == (3, 2, 1)
        assert grid.cell_of((1.0, 1.0, 1.0)) == (3, 3, 3)
        assert grid.cell_of((-1.0, 2.0, 0.5)) == (0, 3, 2)

    def test_dimension_mismatch_raises(self):
        grid = NdGrid(4, dimensions=3)
        with pytest.raises(ValueError):
            grid.cell_of((0.5, 0.5))

    def test_mindist_zero_inside(self):
        grid = NdGrid(4, dimensions=3)
        q = (0.3, 0.6, 0.9)
        assert grid.mindist(grid.cell_of(q), q) == 0.0

    def test_mindist_lower_bound(self):
        rng = random.Random(1)
        grid = NdGrid(4, dimensions=3)
        for oid, p in nd_scatter(50, 3, seed=2):
            grid.insert(oid, p)
        q = tuple(rng.random() for _ in range(3))
        for cell in grid.all_cells():
            md = grid.mindist(cell, q)
            for _oid, p in grid.peek(cell).items():
                assert md <= math.dist(p, q) + 1e-12

    def test_boundary_object_zero_mindist(self):
        grid = NdGrid(6, dimensions=3)
        q = (1.0, 1.0, 1.0)
        assert grid.mindist(grid.cell_of(q), q) == 0.0

    def test_insert_delete_and_marks(self):
        grid = NdGrid(4, dimensions=3)
        cell = grid.insert(1, (0.1, 0.2, 0.3))
        assert len(grid) == 1
        grid.add_mark(cell, 7)
        assert grid.marks(cell) == {7}
        grid.remove_mark(cell, 7)
        assert grid.total_marks == 0
        grid.delete(1, (0.1, 0.2, 0.3))
        assert len(grid) == 0

    def test_non_cubic_bounds(self):
        grid = NdGrid(4, bounds=[(0.0, 2.0), (0.0, 1.0), (-1.0, 1.0)])
        assert grid.deltas == (0.5, 0.25, 0.5)
        assert grid.cell_of((1.9, 0.1, 0.9)) == (3, 0, 3)

    def test_total_cells(self):
        assert NdGrid(3, dimensions=4).total_cells == 81


class TestNdPartition:
    @pytest.mark.parametrize("d,cells", [(1, 7), (2, 6), (3, 5), (4, 4)])
    def test_tiles_grid_exactly_once(self, d, cells):
        rng = random.Random(d)
        core = tuple(rng.randrange(cells) for _ in range(d))
        part = NdConceptualPartition.around_cell(core, cells)
        counts = {}
        for direction in range(part.direction_count):
            level = 0
            while part.exists(direction, level):
                for cell in part.slab_cells(direction, level):
                    counts[cell] = counts.get(cell, 0) + 1
                level += 1
        for cell in part.core_cells():
            counts[cell] = counts.get(cell, 0) + 1
        assert len(counts) == cells**d
        assert all(c == 1 for c in counts.values())

    def test_block_core_tiles(self):
        part = NdConceptualPartition((1, 0, 2), (2, 1, 2), 5)
        counts = {}
        for direction in range(6):
            level = 0
            while part.exists(direction, level):
                for cell in part.slab_cells(direction, level):
                    counts[cell] = counts.get(cell, 0) + 1
                level += 1
        for cell in part.core_cells():
            counts[cell] = counts.get(cell, 0) + 1
        assert len(counts) == 125
        assert all(c == 1 for c in counts.values())

    def test_owner_of_matches_enumeration(self):
        part = NdConceptualPartition.around_cell((2, 2, 2), 5)
        for direction in range(6):
            level = 0
            while part.exists(direction, level):
                for cell in part.slab_cells(direction, level):
                    assert part.owner_of(cell) == (direction, level)
                level += 1
        assert part.owner_of((2, 2, 2)) is None

    def test_two_dimensional_rings_match_2d_package(self):
        """Corner assignment differs from the 2D pinwheel (axis priority vs
        rotation), but each ring's total cell count — and hence the overall
        tiling — is identical."""
        from repro.core.partition import DIRECTIONS, ConceptualPartition

        nd = NdConceptualPartition.around_cell((3, 4), 9)
        p2 = ConceptualPartition.around_cell((3, 4), 9, 9)
        for level in range(5):
            nd_ring = sum(
                sum(1 for _ in nd.slab_cells(direction, level))
                for direction in range(nd.direction_count)
                if nd.exists(direction, level)
            )
            p2_ring = sum(
                p2.strip_cell_count(direction, level)
                for direction in DIRECTIONS
                if p2.exists(direction, level)
            )
            assert nd_ring == p2_ring

    def test_invalid_core_raises(self):
        with pytest.raises(ValueError):
            NdConceptualPartition.around_cell((5, 5), 4)

    def test_slab_distance_recurrence(self):
        """d-dimensional Lemma 3.1: slab mindist == gap0 + level * delta."""
        grid = NdGrid(6, dimensions=3)
        q = (0.31, 0.52, 0.77)
        part = NdConceptualPartition.around_cell(grid.cell_of(q), 6)
        for direction in range(6):
            if not part.exists(direction, 0):
                continue
            axis, _sign = part.direction_axis_sign(direction)
            level = 0
            while part.exists(direction, level):
                slab_min = min(
                    grid.mindist(cell, q) for cell in part.slab_cells(direction, level)
                )
                # All slabs span q's projection: min mindist == perpendicular.
                level_keys = [
                    grid.mindist(cell, q) for cell in part.slab_cells(direction, level)
                ]
                assert min(level_keys) == pytest.approx(slab_min)
                if level > 0:
                    assert slab_min == pytest.approx(
                        prev + grid.deltas[axis], abs=1e-9
                    )
                prev = slab_min
                level += 1


class TestNdCPMSearch:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_brute_force(self, d):
        monitor = NdCPMMonitor(cells_per_axis=4, dimensions=d)
        objs = nd_scatter(60, d, seed=d)
        monitor.load_objects(objs)
        positions = dict(objs)
        rng = random.Random(d + 10)
        for qid in range(6):
            q = tuple(rng.random() for _ in range(d))
            k = rng.choice([1, 3, 5])
            assert monitor.install_query(qid, q, k) == brute_knn(positions, q, k)

    def test_k_larger_than_population(self):
        monitor = NdCPMMonitor(cells_per_axis=3, dimensions=3)
        monitor.load_objects([(1, (0.5, 0.5, 0.5))])
        result = monitor.install_query(0, (0.1, 0.1, 0.1), 4)
        assert len(result) == 1
        assert math.isinf(monitor.best_dist(0))

    def test_empty_grid(self):
        monitor = NdCPMMonitor(cells_per_axis=3, dimensions=3)
        assert monitor.install_query(0, (0.5, 0.5, 0.5), 2) == []

    def test_dimension_mismatch_raises(self):
        monitor = NdCPMMonitor(cells_per_axis=3, dimensions=3)
        with pytest.raises(ValueError):
            monitor.install_query(0, (0.5, 0.5), 1)

    def test_visit_keys_ascending(self):
        monitor = NdCPMMonitor(cells_per_axis=4, dimensions=3)
        monitor.load_objects(nd_scatter(40, 3, seed=5))
        monitor.install_query(0, (0.4, 0.6, 0.5), 3)
        state = monitor._queries[0]
        assert state.visit_keys == sorted(state.visit_keys)

    def test_search_is_cell_minimal(self):
        monitor = NdCPMMonitor(cells_per_axis=4, dimensions=3)
        monitor.load_objects(nd_scatter(50, 3, seed=6))
        q = (0.5, 0.5, 0.5)
        monitor.install_query(0, q, 2)
        state = monitor._queries[0]
        best = state.best_dist
        visited = set(state.visit_cells)
        for cell in monitor.grid.all_cells():
            md = monitor.grid.mindist(cell, q)
            if md < best - 1e-12:
                assert cell in visited
            elif md > best + 1e-12:
                assert cell not in visited

    def test_remove_query_unmarks(self):
        monitor = NdCPMMonitor(cells_per_axis=4, dimensions=3)
        monitor.load_objects(nd_scatter(40, 3, seed=7))
        monitor.install_query(0, (0.5, 0.5, 0.5), 2)
        assert monitor.grid.total_marks > 0
        monitor.remove_query(0)
        assert monitor.grid.total_marks == 0


class TestNdCPMMonitoring:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_random_update_stream(self, d):
        rng = random.Random(40 + d)
        monitor = NdCPMMonitor(cells_per_axis=4, dimensions=d)
        objs = nd_scatter(50, d, seed=40 + d)
        monitor.load_objects(objs)
        positions = dict(objs)
        q1 = tuple(0.5 for _ in range(d))
        q2 = tuple(rng.random() for _ in range(d))
        monitor.install_query(0, q1, 3)
        monitor.install_query(1, q2, 2)
        for t in range(10):
            updates = []
            for oid in rng.sample(list(positions), 12):
                old = positions[oid]
                new = tuple(rng.random() for _ in range(d))
                positions[oid] = new
                updates.append(move_update(oid, old, new))
            monitor.process(updates)
            assert monitor.result(0) == brute_knn(positions, q1, 3), (d, t)
            assert monitor.result(1) == brute_knn(positions, q2, 2), (d, t)

    def test_appear_disappear(self):
        monitor = NdCPMMonitor(cells_per_axis=4, dimensions=3)
        monitor.load_objects([(1, (0.9, 0.9, 0.9))])
        monitor.install_query(0, (0.5, 0.5, 0.5), 1)
        monitor.process([appear_update(2, (0.51, 0.5, 0.5))])
        assert monitor.result(0)[0][1] == 2
        monitor.process([disappear_update(2, (0.51, 0.5, 0.5))])
        assert monitor.result(0)[0][1] == 1

    def test_merge_without_grid_access(self):
        monitor = NdCPMMonitor(cells_per_axis=4, dimensions=3)
        monitor.load_objects([(1, (0.5, 0.5, 0.52)), (2, (0.9, 0.9, 0.9))])
        monitor.install_query(0, (0.5, 0.5, 0.5), 1)
        monitor.reset_stats()
        monitor.process([
            ObjectUpdate(1, (0.5, 0.5, 0.52), (0.9, 0.1, 0.9)),   # outgoing
            ObjectUpdate(2, (0.9, 0.9, 0.9), (0.5, 0.5, 0.49)),   # incomer
        ])
        assert monitor.stats.cell_scans == 0
        assert monitor.result(0)[0][1] == 2

    def test_nn_departure_triggers_recompute(self):
        monitor = NdCPMMonitor(cells_per_axis=4, dimensions=3)
        objs = nd_scatter(40, 3, seed=9)
        monitor.load_objects(objs)
        positions = dict(objs)
        q = (0.5, 0.5, 0.5)
        monitor.install_query(0, q, 2)
        nn_oid = monitor.result(0)[0][1]
        old = positions[nn_oid]
        monitor.process([move_update(nn_oid, old, (0.01, 0.99, 0.01))])
        positions[nn_oid] = (0.01, 0.99, 0.01)
        assert monitor.result(0) == brute_knn(positions, q, 2)
