"""d-dimensional regular grid index.

The direct generalization of :class:`repro.grid.grid.Grid`: cells are
addressed by integer coordinate tuples, cover half-open boxes of side
``delta`` per dimension, carry query marks, and charge one *cell access*
per object-list scan.

Cell storage is columnar, mirroring the 2-D grid: parallel ``oids`` /
``pts`` lists plus an ``oid -> slot`` side index (append-insert,
delete-by-swap, both expected O(1)).  The fused
:meth:`NdGrid.scan_within` kernel computes every object distance in one
comprehension; :meth:`NdGrid.scan` remains the dict compatibility view
with identical accounting.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence

from repro.grid.kernels import VEC_MIN_OCCUPANCY, accelerators, within_nd
from repro.grid.stats import GridStats

NdPoint = tuple[float, ...]
NdCell = tuple[int, ...]

_EMPTY_OBJECTS: dict[int, NdPoint] = {}
_EMPTY_MARKS: frozenset[int] = frozenset()


class _NdCellColumns:
    """One d-dimensional cell as ``oids`` / ``pts`` columns + slot index."""

    __slots__ = ("oids", "pts", "slot")

    def __init__(self) -> None:
        self.oids: list[int] = []
        self.pts: list[NdPoint] = []
        self.slot: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.oids)

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

    def as_dict(self) -> dict[int, NdPoint]:
        return dict(zip(self.oids, self.pts))


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
        "_vec_within_nd",
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
        self.stats = GridStats()
        self._cells: dict[NdCell, _NdCellColumns] = {}
        self._marks: dict[NdCell, set[int]] = {}
        self._n_objects = 0
        # d-dimensional cells keep rows as point tuples; the optional
        # numpy kernel (None without numpy) copies them into a matrix, so
        # it only pays off from the crossover occupancy up.
        self._vec_within_nd = accelerators().within_nd

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

    def in_bounds(self, cell: NdCell) -> bool:
        return all(0 <= c < self.cells_per_axis for c in cell)

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

    def bulk_load(self, objects: Iterable[tuple[int, NdPoint]]) -> None:
        for oid, point in objects:
            self.insert(oid, point)

    def scan(self, cell: NdCell) -> dict[int, NdPoint]:
        """Scan a cell's object list — charges one cell access.

        Dict compatibility view (a fresh snapshot per call); the hot path
        is the fused :meth:`scan_within` kernel, which charges
        identically.
        """
        columns = self._cells.get(cell)
        self.stats.cell_scans += 1
        if columns is None:
            return _EMPTY_OBJECTS
        self.stats.objects_scanned += len(columns.oids)
        return columns.as_dict()

    def peek(self, cell: NdCell) -> dict[int, NdPoint]:
        """Object list of a cell *without* charging a cell access.

        Tests/diagnostics only — algorithm code must go through
        :meth:`scan` or :meth:`scan_within` (mirrors the 2-D grid).
        """
        columns = self._cells.get(cell)
        if columns is None:
            return _EMPTY_OBJECTS
        return columns.as_dict()

    def scan_within(
        self, cell: NdCell, q: NdPoint, r: float
    ) -> list[tuple[float, int]]:
        """Fused scan-and-filter: ``(dist, oid)`` pairs with ``dist <= r``.

        One charged cell access with the same accounting as :meth:`scan`
        (the whole cell population counts as scanned; the bound prunes
        candidates, not cost).  ``r = inf`` returns every object.
        """
        columns = self._cells.get(cell)
        self.stats.cell_scans += 1
        if columns is None:
            return []
        oids = columns.oids
        self.stats.objects_scanned += len(oids)
        vec = self._vec_within_nd
        if vec is not None and len(oids) >= VEC_MIN_OCCUPANCY:
            return vec(oids, columns.pts, q, r)
        return within_nd(oids, columns.pts, q, r)

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

    def marked_cells(self, qid: int) -> list[NdCell]:
        return [cell for cell, marks in self._marks.items() if qid in marks]

    @property
    def total_marks(self) -> int:
        return sum(len(m) for m in self._marks.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NdGrid(d={self.dimensions}, {self.cells_per_axis}^d cells, "
            f"objects={self._n_objects})"
        )
