"""d-dimensional regular grid index.

The direct generalization of the library's 2-D grid: cells are addressed
by integer coordinate tuples, cover half-open boxes of side ``delta`` per
dimension, carry query marks, and charge one *cell access* per
object-list scan.

Cell storage is columnar: parallel ``oids`` / ``pts`` lists plus an
``oid -> slot`` side index (append-insert, delete-by-swap, both expected
O(1)).  :meth:`NdGrid.scan_within` computes every object distance in one
comprehension; there is no vectorized variant.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

NdPoint = tuple[float, ...]
NdCell = tuple[int, ...]

_EMPTY_OBJECTS: dict[int, NdPoint] = {}
_EMPTY_MARKS: frozenset[int] = frozenset()


@dataclass(slots=True)
class NdGridStats:
    """Access counters: ``cell_scans`` counts complete object-list scans
    (the paper's cell accesses), ``objects_scanned`` the objects they met."""

    cell_scans: int = 0
    objects_scanned: int = 0
    inserts: int = 0
    deletes: int = 0
    mark_ops: int = 0

    def reset(self) -> None:
        self.cell_scans = self.objects_scanned = 0
        self.inserts = self.deletes = self.mark_ops = 0


class _NdCellColumns:
    """One d-dimensional cell as ``oids`` / ``pts`` columns + slot index."""

    __slots__ = ("oids", "pts", "slot")

    def __init__(self) -> None:
        self.oids: list[int] = []
        self.pts: list[NdPoint] = []
        self.slot: dict[int, int] = {}

    def insert(self, oid: int, point: NdPoint) -> None:
        self.slot[oid] = len(self.oids)
        self.oids.append(oid)
        self.pts.append(point)

    def delete(self, oid: int) -> None:
        idx = self.slot.pop(oid)
        last_oid = self.oids.pop()
        last_pt = self.pts.pop()
        if last_oid != oid:
            self.oids[idx] = last_oid
            self.pts[idx] = last_pt
            self.slot[last_oid] = idx


class NdGrid:
    """Regular grid over a d-dimensional box workspace.

    Args:
        cells_per_axis: number of cells along every dimension.
        bounds: per-dimension ``(lo, hi)`` pairs; defaults to the unit
            hypercube of the given dimensionality.
        dimensions: dimensionality when ``bounds`` is omitted.
    """

    __slots__ = (
        "boundary_epsilon",
        "bounds",
        "cells_per_axis",
        "deltas",
        "dimensions",
        "stats",
        "_cells",
        "_marks",
        "_n_objects",
    )

    def __init__(
        self,
        cells_per_axis: int,
        *,
        bounds: Sequence[tuple[float, float]] | None = None,
        dimensions: int = 3,
    ) -> None:
        if cells_per_axis < 1:
            raise ValueError("cells_per_axis must be positive")
        if bounds is None:
            bounds = [(0.0, 1.0)] * dimensions
        bounds = [(float(lo), float(hi)) for lo, hi in bounds]
        if not bounds:
            raise ValueError("at least one dimension required")
        for lo, hi in bounds:
            if hi <= lo:
                raise ValueError(f"degenerate extent ({lo}, {hi})")
        self.bounds = tuple(bounds)
        self.dimensions = len(bounds)
        self.cells_per_axis = cells_per_axis
        self.deltas = tuple((hi - lo) / cells_per_axis for lo, hi in bounds)
        self.boundary_epsilon = 1e-12 * (
            1.0 + sum(abs(lo) + abs(hi) for lo, hi in bounds)
        )
        self.stats = NdGridStats()
        self._cells: dict[NdCell, _NdCellColumns] = {}
        self._marks: dict[NdCell, set[int]] = {}
        self._n_objects = 0

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------

    def cell_of(self, point: NdPoint) -> NdCell:
        """Cell containing ``point`` (clamped into the grid)."""
        if len(point) != self.dimensions:
            raise ValueError(
                f"point has {len(point)} coordinates, grid has "
                f"{self.dimensions} dimensions"
            )
        cell = []
        for value, (lo, _hi), delta in zip(point, self.bounds, self.deltas):
            idx = int((value - lo) / delta)
            if idx < 0:
                idx = 0
            elif idx >= self.cells_per_axis:
                idx = self.cells_per_axis - 1
            cell.append(idx)
        return tuple(cell)

    def cell_extent(self, cell: NdCell, axis: int) -> tuple[float, float]:
        """``(lo, hi)`` extent of a cell along one axis (last cell reaches
        the workspace edge exactly, mirroring the 2D grid)."""
        lo_w, hi_w = self.bounds[axis]
        delta = self.deltas[axis]
        lo = lo_w + cell[axis] * delta
        hi = lo + delta
        if cell[axis] == self.cells_per_axis - 1 and hi < hi_w:
            hi = hi_w
        return (lo, hi)

    def mindist(self, cell: NdCell, q: NdPoint) -> float:
        """Minimum distance between the cell's box and point ``q``."""
        acc = 0.0
        for axis in range(self.dimensions):
            lo, hi = self.cell_extent(cell, axis)
            value = q[axis]
            if value < lo:
                gap = lo - value
            elif value > hi:
                gap = value - hi
            else:
                continue
            acc += gap * gap
        return math.sqrt(acc)

    def all_cells(self) -> Iterator[NdCell]:
        """Dense enumeration of every cell (test/diagnostic use)."""
        def rec(prefix: tuple[int, ...], axis: int):
            if axis == self.dimensions:
                yield prefix
                return
            for c in range(self.cells_per_axis):
                yield from rec(prefix + (c,), axis + 1)

        yield from rec((), 0)

    @property
    def total_cells(self) -> int:
        return self.cells_per_axis**self.dimensions

    # ------------------------------------------------------------------
    # Objects
    # ------------------------------------------------------------------

    def insert(self, oid: int, point: NdPoint) -> NdCell:
        coord = self.cell_of(point)
        cell = self._cells.get(coord)
        if cell is None:
            cell = _NdCellColumns()
            self._cells[coord] = cell
        if oid in cell.slot:
            raise KeyError(f"object {oid} already present in cell {coord}")
        cell.insert(oid, tuple(point))
        self._n_objects += 1
        self.stats.inserts += 1
        return coord

    def delete(self, oid: int, point: NdPoint) -> NdCell:
        coord = self.cell_of(point)
        cell = self._cells.get(coord)
        if cell is None or oid not in cell.slot:
            raise KeyError(f"object {oid} not found in cell {coord}")
        cell.delete(oid)
        if not cell.oids:
            del self._cells[coord]
        self._n_objects -= 1
        self.stats.deletes += 1
        return coord

    def peek(self, cell: NdCell) -> dict[int, NdPoint]:
        """Object list of a cell *without* charging a cell access.

        Tests/diagnostics only — the monitor goes through
        :meth:`scan_within`.
        """
        columns = self._cells.get(cell)
        if columns is None:
            return _EMPTY_OBJECTS
        return dict(zip(columns.oids, columns.pts))

    def scan_within(
        self, cell: NdCell, q: NdPoint, r: float
    ) -> list[tuple[float, int]]:
        """Fused scan-and-filter: ``(dist, oid)`` pairs with ``dist <= r``.

        One charged cell access; the whole cell population counts as
        scanned (the bound prunes candidates, not cost).  ``r = inf``
        returns every object.
        """
        columns = self._cells.get(cell)
        self.stats.cell_scans += 1
        if columns is None:
            return []
        self.stats.objects_scanned += len(columns.oids)
        return [
            (d, oid)
            for oid, p in zip(columns.oids, columns.pts)
            if (d := math.dist(p, q)) <= r
        ]

    def __len__(self) -> int:
        return self._n_objects

    # ------------------------------------------------------------------
    # Marks (influence lists)
    # ------------------------------------------------------------------

    def add_mark(self, cell: NdCell, qid: int) -> None:
        marks = self._marks.get(cell)
        if marks is None:
            marks = set()
            self._marks[cell] = marks
        if qid not in marks:
            marks.add(qid)
            self.stats.mark_ops += 1

    def remove_mark(self, cell: NdCell, qid: int) -> None:
        marks = self._marks.get(cell)
        if marks is None:
            return
        if qid in marks:
            marks.discard(qid)
            self.stats.mark_ops += 1
            if not marks:
                del self._marks[cell]

    def marks(self, cell: NdCell) -> frozenset[int] | set[int]:
        return self._marks.get(cell, _EMPTY_MARKS)

    @property
    def total_marks(self) -> int:
        return sum(len(m) for m in self._marks.values())
