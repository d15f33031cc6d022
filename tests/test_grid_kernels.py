"""Unit tests for the columnar cell store and the grid's fused scans."""

import math
import subprocess
import sys

import pytest

from repro.grid.grid import Grid
from repro.grid.kernels import CellColumns


class TestCellColumns:
    def test_insert_and_position(self):
        cell = CellColumns()
        cell.insert(7, 0.25, 0.75)
        assert len(cell) == 1
        assert 7 in cell
        assert cell.position(7) == (0.25, 0.75)

    def test_delete_by_swap_moves_last_row(self):
        cell = CellColumns()
        for oid in range(4):
            cell.insert(oid, oid * 0.1, oid * 0.2)
        cell.delete(1)  # row 3 swaps into slot 1
        assert len(cell) == 3
        assert 1 not in cell
        assert cell.position(3) == pytest.approx((0.3, 0.6))
        # Slot invariant: slot[oids[i]] == i for every row.
        assert all(cell.slot[oid] == i for i, oid in enumerate(cell.oids))

    def test_delete_last_row(self):
        cell = CellColumns()
        cell.insert(1, 0.1, 0.1)
        cell.insert(2, 0.2, 0.2)
        cell.delete(2)
        assert cell.oids == [1]
        assert cell.slot == {1: 0}

    def test_delete_missing_raises(self):
        cell = CellColumns()
        with pytest.raises(KeyError):
            cell.delete(5)

    def test_relocate_in_place(self):
        cell = CellColumns()
        cell.insert(1, 0.1, 0.1)
        cell.relocate(1, 0.9, 0.8)
        assert cell.position(1) == (0.9, 0.8)
        assert len(cell) == 1

    def test_as_dict_snapshot(self):
        cell = CellColumns()
        cell.insert(1, 0.1, 0.2)
        cell.insert(2, 0.3, 0.4)
        snapshot = cell.as_dict()
        assert snapshot == {1: (0.1, 0.2), 2: (0.3, 0.4)}
        snapshot[3] = (9.9, 9.9)  # mutating the snapshot is harmless
        assert 3 not in cell

    def test_columns_tuple_is_prebuilt_and_live(self):
        cell = CellColumns()
        columns = cell.columns
        cell.insert(4, 0.5, 0.6)
        assert columns is cell.columns
        assert [list(col) for col in columns] == [[4], [0.5], [0.6]]


class TestKernels:
    """``Grid.scan_within`` over one cell (cell 0 of a 1x1 grid)."""

    def _grid(self):
        grid = Grid(1)
        grid.insert(1, 0.0, 0.0)
        grid.insert(2, 0.3, 0.0)
        grid.insert(3, 0.0, 0.6)
        return grid

    def test_within_filters_inclusively(self):
        hits = self._grid().scan_within(0, 0.0, 0.0, 0.3)
        assert sorted(hits) == [(0.0, 1), (0.3, 2)]

    def test_within_infinite_radius_returns_all(self):
        hits = self._grid().scan_within(0, 0.0, 0.0, math.inf)
        assert sorted(oid for _d, oid in hits) == [1, 2, 3]


def _run_python(code: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestNumpyIsOptional:
    """numpy is probed on the first grid construction, never required."""

    def test_importing_the_library_does_not_import_numpy(self):
        _run_python(
            "import sys, repro, repro.grid.grid, repro.core.cpm\n"
            "assert 'numpy' not in sys.modules"
        )

    def test_grids_bind_no_accelerator_where_numpy_does_not_import(self):
        """``sys.modules['numpy'] = None`` makes ``import numpy`` raise,
        which is what an interpreter without the package does."""
        out = _run_python(
            "import sys; sys.modules['numpy'] = None\n"
            "from repro.grid.grid import Grid\n"
            "from repro.grid.kernels import vec_cell_ids\n"
            "g = Grid(1)\n"
            "assert vec_cell_ids() is None and g._vec_cell_ids is None\n"
            "for oid in range(200): g.insert(oid, oid / 200, 0.5)\n"
            "print(len(g.scan_within(0, 0.5, 0.5, 0.25)),"
            " g.batch_cell_ids([0.1] * 200, [0.9] * 200) == [0] * 200)"
        )
        assert out.split() == ["101", "True"]


class TestGridKernelAccounting:
    """Every kernel front-end charges exactly one cell access."""

    def _grid(self):
        grid = Grid(4)
        grid.insert(1, 0.1, 0.1)
        grid.insert(2, 0.2, 0.1)
        return grid

    @pytest.mark.parametrize(
        "call",
        [
            lambda g, cid: g.scan_within(cid, 0.1, 0.1, math.inf),
            lambda g, cid: g.scan_all_flat(cid),
            lambda g, cid: g.scan_id(cid),
        ],
    )
    def test_kernel_charges_one_scan(self, call):
        grid = self._grid()
        cid = grid.cell_id(0.1, 0.1)
        before_scans = grid.stats.cell_scans
        before_objects = grid.stats.objects_scanned
        call(grid, cid)
        assert grid.stats.cell_scans == before_scans + 1
        assert grid.stats.objects_scanned == before_objects + 2

    def test_empty_cell_charges_scan_but_no_objects(self):
        grid = self._grid()
        cid = grid.cell_id(0.9, 0.9)
        grid.stats.reset()
        assert grid.scan_within(cid, 0.5, 0.5, math.inf) == []
        assert grid.scan_all_flat(cid) == ((), (), ())
        assert grid.stats.cell_scans == 2
        assert grid.stats.objects_scanned == 0

    def test_scan_within_matches_scan_id(self):
        grid = self._grid()
        cid = grid.cell_id(0.1, 0.1)
        expected = sorted(
            (math.hypot(x - 0.15, y - 0.15), oid)
            for oid, (x, y) in grid.scan_id(cid).items()
        )
        assert sorted(grid.scan_within(cid, 0.15, 0.15, math.inf)) == expected
