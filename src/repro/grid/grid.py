"""The main-memory grid index ``G`` of Section 3.

Cell storage is *flat*: a cell ``c_{i,j}`` is addressed by its packed id
``cid = i * rows + j`` into array-backed stores (plain Python lists), so
the hot path — object relocation and influence-list probing on every
update — costs one integer multiply-add and one list index instead of a
tuple allocation plus a tuple hash.  Grids too large for dense backing
(beyond ~2M cells; the paper's finest granularity, 1024x1024, stays dense)
fall back transparently to a sparse store with identical semantics.

Per-cell object lists are *columnar*
(:class:`repro.grid.kernels.CellColumns`): an ``oids`` list and two
``array('d')`` coordinate columns plus an ``oid -> slot`` hash side
index.  The side index preserves the paper's cost model ("the object
lists of the cells are implemented as hash tables so that the deletion of
an object from its old cell and the insertion into its new one takes
expected ``Time_ind = 2``", Section 4.1: insert appends a row, delete
swaps the last row into the freed slot — both expected O(1)), while the
flat coordinate columns let the scans (:meth:`Grid.scan_within`,
:meth:`Grid.scan_all_flat`) run their distance-and-filter loops as
single fused comprehensions.  Empty cell columns and mark sets are kept in
place once allocated: cells that repeatedly empty and refill (the common
case under sustained update streams) reuse their containers instead of
churning the allocator.

The grid additionally hosts *query marks*: per-cell sets of query ids.  CPM
uses them as influence lists ("each cell c of the grid is associated with
(ii) the list of queries whose influence region contains c"), and SEA-CNN
uses the identical mechanism for its answer-region book-keeping.  The
total mark count is maintained incrementally, making :attr:`total_marks`
O(1).

Two parallel APIs are exposed: the coordinate API (``insert``, ``scan``,
``add_mark`` ... over ``(i, j)`` tuples — the stable public surface) and
the packed-id API (``cell_id``, ``insert_at``, ``delete_at``,
``relocate_at``, ``add_mark_id`` ...).  The CPM engine inlines this
module's storage layout directly in its hottest loops — cell addressing,
columnar mutations, influence probes, scans and mark maintenance;
any change to the packing scheme, the cell decision or the column layout
here must be mirrored in ``repro.core.cpm`` and ``repro.core.bookkeeping``
(the storage-mirror contract — those two modules and no other).  Both
views address the same storage and may be mixed freely.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from math import hypot as _hypot

from repro.geometry.points import Point
from repro.geometry.rects import Rect
from repro.grid.cell import CellCoord, cell_bounds, cell_index
from repro.grid.kernels import VEC_MIN_BATCH as _VEC_MIN_BATCH
from repro.grid.kernels import CellColumns, vec_cell_ids
from repro.grid.stats import GridStats

_EMPTY_OBJECTS: dict[int, Point] = {}
_EMPTY_MARKS: frozenset[int] = frozenset()
#: immutable empty column triple returned by flat scans of empty cells.
_EMPTY_COLUMNS: tuple = ((), (), ())

#: largest cell count served by dense (list) backing; 1024x1024 — the
#: paper's finest evaluated granularity — is ~1M cells and stays dense.
_DENSE_LIMIT = 1 << 21


class _SparseStore(dict):
    """A dict that reads like an infinite array of ``None``.

    Backs grids beyond :data:`_DENSE_LIMIT` cells: ``store[cid]`` returns
    ``None`` for untouched cells without inserting anything, so the packed
    id code paths are identical for dense and sparse grids.
    """

    __slots__ = ()

    def __missing__(self, key: int) -> None:
        return None


class Grid:
    """Regular grid over a rectangular workspace.

    Args:
        cells_per_axis: number of cells per dimension (the paper's grids are
            square: 32x32 ... 1024x1024).  Mutually exclusive with ``delta``.
        delta: cell side length.  The produced column/row counts cover the
            workspace, the last column/row possibly extending past it.
        bounds: workspace rectangle; defaults to the unit square used by the
            paper's normalized datasets.
    """

    __slots__ = (
        "boundary_epsilon",
        "bounds",
        "cols",
        "delta",
        "rows",
        "stats",
        "_cells",
        "_mark_count",
        "_marks",
        "_n_objects",
        "_occupied",
        "_vec_cell_ids",
    )

    def __init__(
        self,
        cells_per_axis: int | None = None,
        *,
        delta: float | None = None,
        bounds: Rect | tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0),
    ) -> None:
        if not isinstance(bounds, Rect):
            bounds = Rect(*bounds)
        if bounds.width <= 0 or bounds.height <= 0:
            raise ValueError("workspace must have positive area")
        if (cells_per_axis is None) == (delta is None):
            raise ValueError("specify exactly one of cells_per_axis or delta")
        if cells_per_axis is not None:
            if cells_per_axis <= 0:
                raise ValueError("cells_per_axis must be positive")
            extent = max(bounds.width, bounds.height)
            delta = extent / cells_per_axis
        assert delta is not None
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.bounds = bounds
        self.delta = delta
        self.cols = max(1, math.ceil(bounds.width / delta - 1e-9))
        self.rows = max(1, math.ceil(bounds.height / delta - 1e-9))
        # Floating-point slack for boundary decisions (e.g. whether a cell
        # still belongs to an influence region): a few ulps at the scale of
        # the workspace coordinates.
        self.boundary_epsilon = 1e-12 * (
            1.0
            + abs(bounds.x0) + abs(bounds.y0)
            + abs(bounds.x1) + abs(bounds.y1)
        )
        self.stats = GridStats()
        # The optional numpy batch addressing pass (None without numpy),
        # called from VEC_MIN_BATCH rows up — same cell ids as the scalar
        # loop either way (see repro.grid.kernels).
        self._vec_cell_ids = vec_cell_ids()
        n_cells = self.cols * self.rows
        # cid -> CellColumns and cid -> {qid, ...}; dense list backing
        # when the grid fits, sparse fallback otherwise.
        if n_cells <= _DENSE_LIMIT:
            self._cells: list | _SparseStore = [None] * n_cells
            self._marks: list | _SparseStore = [None] * n_cells
        else:
            self._cells = _SparseStore()
            self._marks = _SparseStore()
        self._n_objects = 0
        self._occupied = 0
        self._mark_count = 0

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------

    def cell_of(self, x: float, y: float) -> CellCoord:
        """Cell containing the point ``(x, y)`` (clamped to the grid)."""
        return (
            cell_index(x, self.bounds.x0, self.delta, self.cols),
            cell_index(y, self.bounds.y0, self.delta, self.rows),
        )

    def cell_id(self, x: float, y: float) -> int:
        """Packed id of the cell containing ``(x, y)`` (clamped).

        Identical cell decision as :meth:`cell_of` (same float operations),
        returned as ``i * rows + j``.
        """
        bounds = self.bounds
        delta = self.delta
        i = int((x - bounds.x0) / delta)
        if i < 0:
            i = 0
        elif i >= self.cols:
            i = self.cols - 1
        j = int((y - bounds.y0) / delta)
        if j < 0:
            j = 0
        elif j >= self.rows:
            j = self.rows - 1
        return i * self.rows + j

    def batch_cell_ids(self, xs, ys, skip=None) -> list[int]:
        """Packed cell ids for whole coordinate columns at once.

        The batch twin of :meth:`cell_id` (identical clamped cell
        decisions, row by row): ``xs`` / ``ys`` are parallel columns —
        a :class:`repro.updates.FlatUpdateBatch`'s coordinate arrays in
        the hot path — and ``skip`` is an optional byte mask whose
        truthy rows are omitted from the result (the masked columnar
        loops address only the unmasked rows).

        With numpy importable the pass runs vectorized from
        :data:`repro.grid.kernels.VEC_MIN_BATCH` rows up; otherwise a
        scalar loop produces the same list.  Either way an addressed row
        with a non-finite coordinate raises: ``ValueError``, or
        ``OverflowError`` from the scalar loop on an infinity.
        """
        bounds = self.bounds
        bx0 = bounds.x0
        by0 = bounds.y0
        delta = self.delta
        rows = self.rows
        cols_1 = self.cols - 1
        rows_1 = rows - 1
        vec = self._vec_cell_ids
        if vec is not None and len(xs) >= _VEC_MIN_BATCH:
            return vec(xs, ys, bx0, by0, delta, cols_1, rows_1, rows, skip)
        out: list[int] = []
        append = out.append
        rows_iter = (
            zip(xs, ys)
            if skip is None
            else ((x, y) for x, y, s in zip(xs, ys, skip) if not s)
        )
        for x, y in rows_iter:
            i = int((x - bx0) / delta)
            if i < 0:
                i = 0
            elif i > cols_1:
                i = cols_1
            j = int((y - by0) / delta)
            if j < 0:
                j = 0
            elif j > rows_1:
                j = rows_1
            append(i * rows + j)
        return out

    def pack(self, i: int, j: int) -> int:
        """Packed id of ``c_{i,j}``."""
        return i * self.rows + j

    def unpack(self, cid: int) -> CellCoord:
        """Coordinate pair of a packed cell id."""
        return divmod(cid, self.rows)

    def in_bounds(self, i: int, j: int) -> bool:
        """Whether ``c_{i,j}`` is a real cell of this grid."""
        return 0 <= i < self.cols and 0 <= j < self.rows

    def cell_rect(self, i: int, j: int) -> tuple[float, float, float, float]:
        """Spatial extent ``(x0, y0, x1, y1)`` of cell ``c_{i,j}``.

        The last column/row extends exactly to the workspace edge: objects
        on the boundary are clamped into those cells by :meth:`cell_of`,
        and the lower-bound property ``mindist(c, q) <= dist(p, q)`` for
        every object ``p`` in ``c`` must survive that clamping.
        """
        x0, y0, x1, y1 = cell_bounds(i, j, self.bounds.x0, self.bounds.y0, self.delta)
        if i == self.cols - 1 and x1 < self.bounds.x1:
            x1 = self.bounds.x1
        if j == self.rows - 1 and y1 < self.bounds.y1:
            y1 = self.bounds.y1
        return (x0, y0, x1, y1)

    def mindist_xy(self, i: int, j: int, qx: float, qy: float) -> float:
        """``mindist(c, q)`` of Table 3.1 for the point ``(qx, qy)``.

        Inlined (no :meth:`cell_rect` call, no point tuple): this runs once
        per en-heaped cell in every NN search, the hottest loop of the
        library.
        """
        delta = self.delta
        bounds = self.bounds
        x0 = bounds.x0 + i * delta
        if qx < x0:
            dx = x0 - qx
        else:
            x1 = x0 + delta
            if i == self.cols - 1 and x1 < bounds.x1:
                x1 = bounds.x1
            dx = qx - x1 if qx > x1 else 0.0
        y0 = bounds.y0 + j * delta
        if qy < y0:
            dy = y0 - qy
        else:
            y1 = y0 + delta
            if j == self.rows - 1 and y1 < bounds.y1:
                y1 = bounds.y1
            dy = qy - y1 if qy > y1 else 0.0
        if dx == 0.0:
            return dy
        if dy == 0.0:
            return dx
        return math.hypot(dx, dy)

    def mindist(self, i: int, j: int, q: Point) -> float:
        """``mindist(c, q)`` with the query as a point tuple."""
        return self.mindist_xy(i, j, q[0], q[1])

    def all_cells(self) -> Iterator[CellCoord]:
        """Every cell coordinate of the grid (dense enumeration)."""
        for i in range(self.cols):
            for j in range(self.rows):
                yield (i, j)

    def cells_in_rect(
        self, x0: float, y0: float, x1: float, y1: float
    ) -> Iterator[CellCoord]:
        """Cells intersecting the closed rectangle ``[x0,x1] x [y0,y1]``.

        Used by YPK-CNN's square search regions and by SEA-CNN's circular
        region bounding boxes.
        """
        if x1 < x0 or y1 < y0:
            return
        lo_i = cell_index(x0, self.bounds.x0, self.delta, self.cols)
        hi_i = cell_index(x1, self.bounds.x0, self.delta, self.cols)
        lo_j = cell_index(y0, self.bounds.y0, self.delta, self.rows)
        hi_j = cell_index(y1, self.bounds.y0, self.delta, self.rows)
        for i in range(lo_i, hi_i + 1):
            for j in range(lo_j, hi_j + 1):
                yield (i, j)

    def cells_in_circle(self, center: Point, radius: float) -> Iterator[CellCoord]:
        """Cells whose extent intersects the disk ``(center, radius)``."""
        if radius < 0:
            return
        cx, cy = center
        for coord in self.cells_in_rect(cx - radius, cy - radius, cx + radius, cy + radius):
            if self.mindist_xy(coord[0], coord[1], cx, cy) <= radius:
                yield coord

    # ------------------------------------------------------------------
    # Object maintenance
    # ------------------------------------------------------------------

    def insert_at(self, cid: int, oid: int, point: Point) -> None:
        """Insert object ``oid`` into the cell with packed id ``cid``.

        The caller vouches that ``cid == self.cell_id(*point)``.
        """
        cells = self._cells
        cell = cells[cid]
        if cell is None:
            cell = CellColumns()
            cells[cid] = cell
        slot = cell.slot
        if oid in slot:
            raise KeyError(
                f"object {oid} already present in cell {self.unpack(cid)}"
            )
        oids = cell.oids
        if not oids:
            self._occupied += 1
        slot[oid] = len(oids)
        oids.append(oid)
        cell.xs.append(point[0])
        cell.ys.append(point[1])
        self._n_objects += 1
        self.stats.inserts += 1

    def delete_at(self, cid: int, oid: int) -> None:
        """Delete object ``oid`` from the cell with packed id ``cid``.

        Delete-by-swap: the last column row moves into the freed slot, so
        removal is O(1) regardless of the cell population.
        """
        cell = self._cells[cid]
        if cell is None or oid not in cell.slot:
            raise KeyError(f"object {oid} not found in cell {self.unpack(cid)}")
        cell.delete(oid)
        if not cell.oids:
            self._occupied -= 1
        self._n_objects -= 1
        self.stats.deletes += 1

    def relocate_at(self, cid: int, oid: int, point: Point) -> None:
        """Move an object within its cell (same-cell location update).

        Observationally a delete followed by an insert into the same cell
        (both counters bump), executed as two in-place column stores.
        """
        cell = self._cells[cid]
        if cell is None:
            raise KeyError(f"object {oid} not found in cell {self.unpack(cid)}")
        idx = cell.slot.get(oid)
        if idx is None:
            raise KeyError(f"object {oid} not found in cell {self.unpack(cid)}")
        cell.xs[idx] = point[0]
        cell.ys[idx] = point[1]
        self.stats.deletes += 1
        self.stats.inserts += 1

    def insert(self, oid: int, x: float, y: float) -> CellCoord:
        """Insert object ``oid`` at ``(x, y)``; returns its cell."""
        cid = self.cell_id(x, y)
        self.insert_at(cid, oid, (x, y))
        return divmod(cid, self.rows)

    def delete(self, oid: int, x: float, y: float) -> CellCoord:
        """Delete object ``oid`` located at ``(x, y)``; returns its old cell."""
        cid = self.cell_id(x, y)
        self.delete_at(cid, oid)
        return divmod(cid, self.rows)

    def move(
        self, oid: int, old: Point, new: Point
    ) -> tuple[CellCoord, CellCoord]:
        """Relocate an object; returns ``(old_cell, new_cell)``.

        The coordinate-addressed front of :meth:`move_ids` (which the
        update loops drive directly with batch-computed cell ids).
        """
        old_cid = self.cell_id(old[0], old[1])
        new_cid = self.cell_id(new[0], new[1])
        self.move_ids(oid, old_cid, new_cid, new[0], new[1])
        rows = self.rows
        return (divmod(old_cid, rows), divmod(new_cid, rows))

    def move_ids(
        self, oid: int, old_cid: int, new_cid: int, nx: float, ny: float
    ) -> None:
        """Relocate an object between two cells given by packed id.

        The whole object-maintenance path of the YPK-CNN / SEA-CNN
        update loops, which address whole batches through
        :meth:`batch_cell_ids` first.  Same-cell moves (the common case
        at coarse granularities) take an in-place relocate fast path;
        counters are identical either way (one delete plus one insert
        bump), and both columnar mutations run inline (zero callee
        frames).
        """
        cells = self._cells
        stats = self.stats
        cell = cells[old_cid]
        if old_cid == new_cid:
            # Inlined relocate_at.
            idx = None if cell is None else cell.slot.get(oid)
            if idx is None:
                raise KeyError(
                    f"object {oid} not found in cell {self.unpack(old_cid)}"
                )
            cell.xs[idx] = nx
            cell.ys[idx] = ny
        else:
            # Inlined delete_at (delete-by-swap) ...
            idx = None if cell is None else cell.slot.pop(oid, None)
            if idx is None:
                raise KeyError(
                    f"object {oid} not found in cell {self.unpack(old_cid)}"
                )
            oids = cell.oids
            last_oid = oids.pop()
            lx = cell.xs.pop()
            ly = cell.ys.pop()
            if last_oid != oid:
                oids[idx] = last_oid
                cell.xs[idx] = lx
                cell.ys[idx] = ly
                cell.slot[last_oid] = idx
            elif not oids:
                self._occupied -= 1
            # ... and inlined insert_at on the new cell.
            cell = cells[new_cid]
            if cell is None:
                cell = CellColumns()
                cells[new_cid] = cell
            slot = cell.slot
            if oid in slot:
                raise KeyError(
                    f"object {oid} already present in cell {self.unpack(new_cid)}"
                )
            oids = cell.oids
            if not oids:
                self._occupied += 1
            slot[oid] = len(oids)
            oids.append(oid)
            cell.xs.append(nx)
            cell.ys.append(ny)
        stats.deletes += 1
        stats.inserts += 1

    def bulk_load(self, objects: Iterable[tuple[int, Point]]) -> None:
        """Insert many objects at once (initial workload loading)."""
        for oid, (x, y) in objects:
            self.insert(oid, x, y)

    # ------------------------------------------------------------------
    # Object access
    # ------------------------------------------------------------------

    def scan_id(self, cid: int) -> dict[int, Point]:
        """Scan the object list of the cell ``cid`` — *this is a cell access*.

        Every call increments the counters that back Figure 6.3b.  This is
        the dict *compatibility view* over the columnar store (a fresh
        ``{oid: (x, y)}`` snapshot per call); hot paths use the fused
        scans (:meth:`scan_within`, :meth:`scan_all_flat`) instead, which
        charge identically.
        """
        cell = self._cells[cid]
        stats = self.stats
        stats.cell_scans += 1
        if cell is not None and cell.oids:
            stats.objects_scanned += len(cell.oids)
            return cell.as_dict()
        return _EMPTY_OBJECTS

    def scan(self, i: int, j: int) -> dict[int, Point]:
        """Scan the object list of ``c_{i,j}`` (a charged cell access).

        Dict compatibility view, like :meth:`scan_id`.
        """
        if 0 <= i < self.cols and 0 <= j < self.rows:
            cell = self._cells[i * self.rows + j]
        else:
            cell = None
        stats = self.stats
        stats.cell_scans += 1
        if cell is not None and cell.oids:
            stats.objects_scanned += len(cell.oids)
            return cell.as_dict()
        return _EMPTY_OBJECTS

    # -- fused scans (see repro.grid.kernels) --------------------------

    def scan_within(
        self, cid: int, qx: float, qy: float, r: float
    ) -> list[tuple[float, int]]:
        """Fused scan-and-filter: ``(dist, oid)`` pairs with ``dist <= r``.

        One charged cell access (same accounting as :meth:`scan_id`: the
        whole cell population counts as scanned — the bound prunes the
        *candidates*, not the paper's cost).  ``r = inf`` returns every
        object with its distance computed.
        """
        cell = self._cells[cid]
        stats = self.stats
        stats.cell_scans += 1
        if cell is None:
            return []
        oids = cell.oids
        if not oids:
            return []
        stats.objects_scanned += len(oids)
        return [
            (d, oid)
            for oid, x, y in zip(oids, cell.xs, cell.ys)
            if (d := _hypot(x - qx, y - qy)) <= r
        ]

    def scan_all_flat(
        self, cid: int
    ) -> tuple[list[int], list[float], list[float]]:
        """The cell's raw ``(oids, xs, ys)`` columns — a charged access.

        For strategy-generic consumers that apply their own predicate.
        The returned lists are the live columns; callers must not mutate
        them (and must not hold them across grid mutations).
        """
        cell = self._cells[cid]
        stats = self.stats
        stats.cell_scans += 1
        if cell is None:
            return _EMPTY_COLUMNS
        oids = cell.oids
        if not oids:
            return _EMPTY_COLUMNS
        stats.objects_scanned += len(oids)
        return cell.columns

    def peek(self, i: int, j: int) -> dict[int, Point]:
        """Object list of ``c_{i,j}`` *without* charging a cell access.

        Reserved for assertions, tests and size inspection — algorithm code
        must go through :meth:`scan` or the fused scans.
        """
        if 0 <= i < self.cols and 0 <= j < self.rows:
            cell = self._cells[i * self.rows + j]
            if cell is not None and cell.oids:
                return cell.as_dict()
        return _EMPTY_OBJECTS

    def cell_size(self, i: int, j: int) -> int:
        """Number of objects currently in ``c_{i,j}`` (no access charged)."""
        if 0 <= i < self.cols and 0 <= j < self.rows:
            cell = self._cells[i * self.rows + j]
            if cell is not None:
                return len(cell.oids)
        return 0

    def __len__(self) -> int:
        """Total number of indexed objects."""
        return self._n_objects

    @property
    def occupied_cells(self) -> int:
        """Number of cells currently holding at least one object."""
        return self._occupied

    # ------------------------------------------------------------------
    # Uncounted storage motions (the partitioned shards' halo cells)
    # ------------------------------------------------------------------

    @property
    def dense(self) -> bool:
        """Whether the cell store is list-backed (up to ``_DENSE_LIMIT``
        cells) rather than the sparse fallback."""
        return isinstance(self._cells, list)

    def cell_rows(self, cid: int) -> tuple[tuple, tuple, tuple]:
        """Detached ``(oids, xs, ys)`` copy of a cell — no access charged."""
        cell = self._cells[cid]
        if cell is None:
            return _EMPTY_COLUMNS
        return (tuple(cell.oids), tuple(cell.xs), tuple(cell.ys))

    def install_cell(self, cid: int, oids, xs, ys) -> CellColumns:
        """Put a fresh cell holding these rows into slot ``cid``.

        A storage motion, not an update: no counter moves, only the
        object and occupancy tallies.  The slot must hold no objects
        (``None``, an empty cell or a stand-in from :meth:`evict_cell`).
        """
        cell = CellColumns()
        for oid, x, y in zip(oids, xs, ys):
            cell.insert(oid, x, y)
        self._cells[cid] = cell
        if oids:
            self._occupied += 1
            self._n_objects += len(oids)
        return cell

    def evict_cell(self, cid: int, stand_in=None) -> list[int]:
        """Inverse of :meth:`install_cell`: leave ``stand_in`` in the slot
        and return the oids the cell held — no counter moves."""
        cell = self._cells[cid]
        self._cells[cid] = stand_in
        if cell is None or not cell.oids:
            return []
        self._occupied -= 1
        self._n_objects -= len(cell.oids)
        return cell.oids

    # ------------------------------------------------------------------
    # Query marks (influence lists / answer regions)
    # ------------------------------------------------------------------

    def add_mark_id(self, cid: int, qid: int) -> None:
        """Mark the cell ``cid`` as influenced by query ``qid`` (idempotent)."""
        marks = self._marks
        ms = marks[cid]
        if ms is None:
            marks[cid] = {qid}
        elif qid not in ms:
            ms.add(qid)
        else:
            return
        self._mark_count += 1
        self.stats.mark_ops += 1

    def remove_mark_id(self, cid: int, qid: int) -> None:
        """Remove query ``qid``'s mark from ``cid`` (no-op when absent)."""
        ms = self._marks[cid]
        if ms and qid in ms:
            ms.remove(qid)
            self._mark_count -= 1
            self.stats.mark_ops += 1

    def marks_id(self, cid: int) -> set[int] | None:
        """Mark set of the cell ``cid`` — ``None`` or empty when unmarked.

        Returns the live set (callers must not mutate) and may return
        ``None`` instead of an empty collection so callers can branch on
        truthiness without an allocation.  The CPM update loop indexes the
        mark store directly rather than paying this call per probe; this
        accessor is the encapsulated equivalent for everything else.
        """
        return self._marks[cid]

    def add_mark(self, coord: CellCoord, qid: int) -> None:
        """Mark cell ``coord`` as influenced by query ``qid`` (idempotent)."""
        i, j = coord
        if not (0 <= i < self.cols and 0 <= j < self.rows):
            raise ValueError(f"cell {coord} outside the {self.cols}x{self.rows} grid")
        self.add_mark_id(i * self.rows + j, qid)

    def remove_mark(self, coord: CellCoord, qid: int) -> None:
        """Remove query ``qid``'s mark from ``coord`` (no-op when absent)."""
        i, j = coord
        if 0 <= i < self.cols and 0 <= j < self.rows:
            self.remove_mark_id(i * self.rows + j, qid)

    def marks(self, coord: CellCoord) -> frozenset[int] | set[int]:
        """Queries marked on ``coord`` (possibly empty, never None)."""
        i, j = coord
        if 0 <= i < self.cols and 0 <= j < self.rows:
            ms = self._marks[i * self.rows + j]
            if ms:
                return ms
        return _EMPTY_MARKS

    def marked_cells(self, qid: int) -> list[CellCoord]:
        """All cells carrying a mark of ``qid`` (test/diagnostic helper).

        Ordered by packed cell id (column-major).
        """
        marks = self._marks
        rows = self.rows
        if isinstance(marks, list):
            items: Iterable[tuple[int, set[int] | None]] = enumerate(marks)
        else:
            items = sorted(marks.items())
        return [divmod(cid, rows) for cid, ms in items if ms and qid in ms]

    @property
    def total_marks(self) -> int:
        """Total number of (cell, query) mark pairs currently stored."""
        return self._mark_count

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def memory_units(self) -> int:
        """Memory units per the Section 4.1 accounting model.

        "The minimum unit of memory can store a (real or integer) number";
        an object costs ``s_obj = 3`` (id + two coordinates) and every mark
        costs 1 unit (a query id in an influence list).  This feeds the
        footnote-6 space comparison.
        """
        return 3 * self._n_objects + self._mark_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Grid({self.cols}x{self.rows}, delta={self.delta:.6g}, "
            f"objects={self._n_objects}, marks={self._mark_count})"
        )
