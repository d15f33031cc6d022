"""Unit tests for repro.grid.grid (the grid index G of Section 3)."""

import math

import pytest

from repro.geometry.rects import Rect
from repro.grid.grid import Grid

from tests.conftest import scatter


class TestConstruction:
    def test_cells_per_axis(self):
        grid = Grid(128)
        assert grid.cols == 128
        assert grid.rows == 128
        assert grid.delta == pytest.approx(1.0 / 128.0)

    def test_delta(self):
        grid = Grid(delta=0.25)
        assert grid.cols == 4
        assert grid.rows == 4

    def test_non_square_workspace(self):
        grid = Grid(delta=0.25, bounds=(0.0, 0.0, 1.0, 0.5))
        assert grid.cols == 4
        assert grid.rows == 2

    def test_both_params_raises(self):
        with pytest.raises(ValueError):
            Grid(8, delta=0.1)

    def test_neither_param_raises(self):
        with pytest.raises(ValueError):
            Grid()

    def test_bad_values(self):
        with pytest.raises(ValueError):
            Grid(0)
        with pytest.raises(ValueError):
            Grid(delta=-0.1)
        with pytest.raises(ValueError):
            Grid(8, bounds=(0, 0, 0, 1))


class TestAddressing:
    def test_cell_of_paper_convention(self):
        # c_{i,j} covers [i*delta, (i+1)*delta) x [j*delta, (j+1)*delta).
        grid = Grid(4)  # delta = 0.25
        assert grid.cell_of(0.0, 0.0) == (0, 0)
        assert grid.cell_of(0.24, 0.24) == (0, 0)
        assert grid.cell_of(0.25, 0.0) == (1, 0)
        assert grid.cell_of(0.0, 0.25) == (0, 1)
        assert grid.cell_of(0.99, 0.99) == (3, 3)

    def test_max_edge_clamps_into_last_cell(self):
        grid = Grid(4)
        assert grid.cell_of(1.0, 1.0) == (3, 3)

    def test_out_of_bounds_clamps(self):
        grid = Grid(4)
        assert grid.cell_of(-0.5, 2.0) == (0, 3)

    def test_offset_workspace(self):
        grid = Grid(delta=1.0, bounds=(10.0, 20.0, 14.0, 24.0))
        assert grid.cell_of(10.5, 23.5) == (0, 3)
        assert grid.cell_of(13.999, 20.0) == (3, 0)

    def test_in_bounds(self):
        grid = Grid(4)
        assert grid.in_bounds(0, 0)
        assert grid.in_bounds(3, 3)
        assert not grid.in_bounds(4, 0)
        assert not grid.in_bounds(0, -1)

    def test_cell_rect(self):
        grid = Grid(4)
        assert grid.cell_rect(1, 2) == pytest.approx((0.25, 0.5, 0.5, 0.75))


class TestMindist:
    def test_query_inside_cell_is_zero(self):
        grid = Grid(4)
        assert grid.mindist(2, 2, (0.6, 0.6)) == 0.0

    def test_axis_distance(self):
        grid = Grid(4)
        # q in cell (0,0), cell (2,0) starts at x=0.5.
        assert grid.mindist(2, 0, (0.1, 0.1)) == pytest.approx(0.4)

    def test_diagonal_distance(self):
        grid = Grid(4)
        # Cell (2,2) corner (0.5, 0.5) is nearest to q=(0.2, 0.1).
        assert grid.mindist(2, 2, (0.2, 0.1)) == pytest.approx(
            math.hypot(0.3, 0.4)
        )

    def test_lower_bound_property(self, small_grid):
        # mindist(c, q) <= dist(p, q) for every object p in the cell.
        q = (0.37, 0.59)
        for i in range(small_grid.cols):
            for j in range(small_grid.rows):
                md = small_grid.mindist(i, j, q)
                for _oid, (x, y) in small_grid.peek(i, j).items():
                    assert md <= math.hypot(x - q[0], y - q[1]) + 1e-12


class TestObjectMaintenance:
    def test_insert_delete_roundtrip(self):
        grid = Grid(8)
        coord = grid.insert(7, 0.3, 0.9)
        assert grid.cell_of(0.3, 0.9) == coord
        assert len(grid) == 1
        assert grid.delete(7, 0.3, 0.9) == coord
        assert len(grid) == 0
        assert grid.occupied_cells == 0

    def test_double_insert_raises(self):
        grid = Grid(8)
        grid.insert(1, 0.5, 0.5)
        with pytest.raises(KeyError):
            grid.insert(1, 0.5, 0.5)

    def test_delete_missing_raises(self):
        grid = Grid(8)
        with pytest.raises(KeyError):
            grid.delete(1, 0.5, 0.5)

    def test_delete_wrong_position_raises(self):
        grid = Grid(8)
        grid.insert(1, 0.1, 0.1)
        with pytest.raises(KeyError):
            grid.delete(1, 0.9, 0.9)

    def test_move_across_cells(self):
        grid = Grid(8)
        grid.insert(1, 0.1, 0.1)
        old, new = grid.move(1, (0.1, 0.1), (0.9, 0.9))
        assert old == (0, 0)
        assert new == (7, 7)
        assert grid.peek(7, 7) == {1: (0.9, 0.9)}
        assert grid.peek(0, 0) == {}

    def test_move_within_cell(self):
        grid = Grid(8)
        grid.insert(1, 0.10, 0.10)
        old, new = grid.move(1, (0.10, 0.10), (0.11, 0.11))
        assert old == new == (0, 0)

    def test_bulk_load(self):
        grid = Grid(8)
        objs = scatter(50, seed=3)
        grid.bulk_load(objs)
        assert len(grid) == 50

    def test_counters(self):
        grid = Grid(8)
        grid.insert(1, 0.5, 0.5)
        grid.move(1, (0.5, 0.5), (0.1, 0.1))
        grid.delete(1, 0.1, 0.1)
        assert grid.stats.inserts == 2
        assert grid.stats.deletes == 2


class TestScanAccounting:
    def test_scan_counts_access(self, small_grid):
        before = small_grid.stats.cell_scans
        small_grid.scan(0, 0)
        assert small_grid.stats.cell_scans == before + 1

    def test_scan_counts_objects(self):
        grid = Grid(2)
        grid.insert(1, 0.1, 0.1)
        grid.insert(2, 0.2, 0.2)
        grid.scan(0, 0)
        assert grid.stats.objects_scanned == 2

    def test_scan_empty_cell(self):
        grid = Grid(2)
        assert grid.scan(1, 1) == {}
        assert grid.stats.cell_scans == 1
        assert grid.stats.objects_scanned == 0

    def test_repeat_scans_count_each_time(self, small_grid):
        # "a cell may be accessed multiple times within a cycle"
        small_grid.stats.reset()
        small_grid.scan(2, 2)
        small_grid.scan(2, 2)
        assert small_grid.stats.cell_scans == 2

    def test_peek_does_not_count(self, small_grid):
        small_grid.stats.reset()
        small_grid.peek(2, 2)
        assert small_grid.stats.cell_scans == 0


class TestCellEnumeration:
    def test_cells_in_rect_full_cover(self):
        grid = Grid(4)
        assert set(grid.cells_in_rect(0.0, 0.0, 1.0, 1.0)) == set(grid.all_cells())

    def test_cells_in_rect_single(self):
        grid = Grid(4)
        assert list(grid.cells_in_rect(0.3, 0.3, 0.3, 0.3)) == [(1, 1)]

    def test_cells_in_rect_clips(self):
        grid = Grid(4)
        cells = set(grid.cells_in_rect(-5.0, -5.0, 0.1, 0.1))
        assert cells == {(0, 0)}

    def test_cells_in_rect_inverted_empty(self):
        grid = Grid(4)
        assert list(grid.cells_in_rect(0.8, 0.8, 0.2, 0.2)) == []

    def test_cells_in_circle_radius_zero(self):
        grid = Grid(4)
        assert set(grid.cells_in_circle((0.3, 0.3), 0.0)) == {(1, 1)}

    def test_cells_in_circle_excludes_far_corners(self):
        grid = Grid(4)
        cells = set(grid.cells_in_circle((0.125, 0.125), 0.3))
        assert (0, 0) in cells
        assert (3, 3) not in cells

    def test_cells_in_circle_matches_mindist_filter(self):
        grid = Grid(8)
        center, radius = (0.4, 0.6), 0.27
        expected = {
            (i, j)
            for i in range(8)
            for j in range(8)
            if grid.mindist(i, j, center) <= radius
        }
        assert set(grid.cells_in_circle(center, radius)) == expected

    def test_negative_radius_empty(self):
        grid = Grid(4)
        assert list(grid.cells_in_circle((0.5, 0.5), -1.0)) == []


class TestMarks:
    def test_add_and_read(self):
        grid = Grid(4)
        grid.add_mark((1, 1), 42)
        assert grid.marks((1, 1)) == {42}
        assert grid.marks((0, 0)) == frozenset()

    def test_add_idempotent(self):
        grid = Grid(4)
        grid.add_mark((1, 1), 42)
        grid.add_mark((1, 1), 42)
        assert grid.total_marks == 1
        assert grid.stats.mark_ops == 1

    def test_remove(self):
        grid = Grid(4)
        grid.add_mark((1, 1), 42)
        grid.remove_mark((1, 1), 42)
        assert grid.marks((1, 1)) == frozenset()
        assert grid.total_marks == 0

    def test_remove_absent_is_noop(self):
        grid = Grid(4)
        grid.remove_mark((1, 1), 42)  # no raise
        assert grid.stats.mark_ops == 0

    def test_multiple_queries_per_cell(self):
        grid = Grid(4)
        grid.add_mark((2, 2), 1)
        grid.add_mark((2, 2), 2)
        assert grid.marks((2, 2)) == {1, 2}

    def test_marked_cells(self):
        grid = Grid(4)
        grid.add_mark((0, 0), 9)
        grid.add_mark((3, 1), 9)
        grid.add_mark((3, 1), 8)
        assert sorted(grid.marked_cells(9)) == [(0, 0), (3, 1)]

    def test_memory_units(self):
        grid = Grid(4)
        grid.insert(1, 0.1, 0.1)
        grid.insert(2, 0.9, 0.9)
        grid.add_mark((0, 0), 7)
        # 3 units per object + 1 per mark (Section 4.1 accounting).
        assert grid.memory_units() == 7


class TestWorkspaceBounds:
    def test_rect_bounds_accepted(self):
        grid = Grid(4, bounds=Rect(0.0, 0.0, 2.0, 2.0))
        assert grid.delta == pytest.approx(0.5)

    def test_objects_in_offset_workspace(self):
        grid = Grid(delta=1.0, bounds=(-2.0, -2.0, 2.0, 2.0))
        coord = grid.insert(1, -1.5, 1.5)
        assert coord == (0, 3)


class TestPackedIdApi:
    """The flat packed-cell-id surface used by the monitoring hot paths."""

    def test_pack_unpack_roundtrip(self):
        grid = Grid(8)
        for i in (0, 3, 7):
            for j in (0, 5, 7):
                assert grid.unpack(grid.pack(i, j)) == (i, j)

    def test_cell_id_matches_cell_of(self):
        grid = Grid(16)
        for x, y in [(0.0, 0.0), (0.999, 0.001), (0.5, 0.5), (1.0, 1.0), (-3.0, 7.0)]:
            assert grid.unpack(grid.cell_id(x, y)) == grid.cell_of(x, y)

    def test_insert_at_and_delete_at_mirror_coordinate_api(self):
        grid = Grid(8)
        cid = grid.cell_id(0.3, 0.7)
        grid.insert_at(cid, 1, (0.3, 0.7))
        assert grid.peek(*grid.unpack(cid)) == {1: (0.3, 0.7)}
        assert len(grid) == 1
        assert grid.occupied_cells == 1
        grid.delete_at(cid, 1)
        assert len(grid) == 0
        assert grid.occupied_cells == 0

    def test_insert_at_duplicate_raises(self):
        grid = Grid(8)
        cid = grid.cell_id(0.5, 0.5)
        grid.insert_at(cid, 1, (0.5, 0.5))
        with pytest.raises(KeyError):
            grid.insert_at(cid, 1, (0.5, 0.5))

    def test_delete_at_missing_raises(self):
        grid = Grid(8)
        with pytest.raises(KeyError):
            grid.delete_at(grid.cell_id(0.5, 0.5), 99)

    def test_relocate_at_counts_as_delete_plus_insert(self):
        grid = Grid(8)
        cid = grid.cell_id(0.51, 0.51)
        grid.insert_at(cid, 1, (0.51, 0.51))
        before_ins, before_del = grid.stats.inserts, grid.stats.deletes
        grid.relocate_at(cid, 1, (0.52, 0.52))
        assert grid.peek(*grid.unpack(cid))[1] == (0.52, 0.52)
        assert grid.stats.inserts == before_ins + 1
        assert grid.stats.deletes == before_del + 1
        assert len(grid) == 1

    def test_relocate_at_missing_raises(self):
        grid = Grid(8)
        with pytest.raises(KeyError):
            grid.relocate_at(grid.cell_id(0.5, 0.5), 1, (0.5, 0.5))

    def test_mark_ids_mirror_coordinate_marks(self):
        grid = Grid(8)
        cid = grid.pack(2, 3)
        grid.add_mark_id(cid, 42)
        assert grid.marks((2, 3)) == {42}
        assert grid.marks_id(cid) == {42}
        assert grid.total_marks == 1
        grid.remove_mark_id(cid, 42)
        assert grid.marks((2, 3)) == frozenset()
        assert grid.total_marks == 0

    def test_add_mark_out_of_bounds_raises(self):
        grid = Grid(8)
        with pytest.raises(ValueError):
            grid.add_mark((8, 0), 1)

    def test_remove_mark_out_of_bounds_is_noop(self):
        grid = Grid(8)
        grid.remove_mark((99, 99), 1)  # no raise
        assert grid.total_marks == 0

    def test_scan_id_charges_a_cell_access(self):
        grid = Grid(8)
        cid = grid.cell_id(0.1, 0.1)
        grid.insert_at(cid, 1, (0.1, 0.1))
        before = grid.stats.cell_scans
        cell = grid.scan_id(cid)
        assert cell == {1: (0.1, 0.1)}
        assert grid.stats.cell_scans == before + 1
        assert grid.stats.objects_scanned >= 1

    def test_emptied_cell_keeps_reusable_container(self):
        """Cells that empty and refill reuse their dict (no realloc churn)."""
        grid = Grid(8)
        cid = grid.cell_id(0.4, 0.4)
        grid.insert_at(cid, 1, (0.4, 0.4))
        grid.delete_at(cid, 1)
        assert grid.occupied_cells == 0
        assert grid.peek(*grid.unpack(cid)) == {}
        grid.insert_at(cid, 2, (0.41, 0.41))
        assert grid.occupied_cells == 1

    def test_install_and_evict_cell_are_uncounted_storage_motions(self):
        """The partitioned shards' halo motions: rows arrive and leave
        with the tallies right and no counter touched."""
        grid = Grid(8)
        cid = grid.pack(2, 3)
        assert grid.cell_rows(cid) == ((), (), ())
        grid.install_cell(cid, (7, 9), (0.26, 0.3), (0.4, 0.41))
        assert grid.cell_rows(cid) == ((7, 9), (0.26, 0.3), (0.4, 0.41))
        assert grid.peek(2, 3) == {7: (0.26, 0.4), 9: (0.3, 0.41)}
        assert (len(grid), grid.occupied_cells) == (2, 1)
        stand_in = object()
        assert grid.evict_cell(cid, stand_in) == [7, 9]
        assert grid._cells[cid] is stand_in
        assert (len(grid), grid.occupied_cells) == (0, 0)
        assert grid.evict_cell(grid.pack(0, 0)) == []  # never allocated
        assert grid.stats.snapshot() == Grid(8).stats.snapshot()

    def test_sparse_fallback_semantics(self):
        """Grids beyond the dense limit behave identically via the sparse store."""
        from repro.grid import grid as grid_mod

        old_limit = grid_mod._DENSE_LIMIT
        grid_mod._DENSE_LIMIT = 0  # force the sparse store
        try:
            grid = Grid(8)
            assert isinstance(grid._cells, grid_mod._SparseStore)
            coord = grid.insert(1, 0.9, 0.9)
            assert grid.peek(*coord) == {1: (0.9, 0.9)}
            grid.add_mark(coord, 5)
            assert grid.marked_cells(5) == [coord]
            assert grid.total_marks == 1
            grid.delete(1, 0.9, 0.9)
            grid.remove_mark(coord, 5)
            assert len(grid) == 0
            assert grid.occupied_cells == 0
            assert grid.total_marks == 0
        finally:
            grid_mod._DENSE_LIMIT = old_limit
