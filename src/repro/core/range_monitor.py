"""Continuous range monitoring via the CPM influence-list machinery.

Section 2 surveys a generation of systems (Q-index, MQM, Mobieyes, SINA)
built solely for *range* monitoring; Section 5 argues CPM's machinery is a
"general methodology that can be applied to several types of spatial
queries".  This module is the range-query instantiation: a continuous
range query's influence region is simply the fixed set of cells
intersecting its rectangle, so

* installation marks those cells and scans them once;
* update handling is pure influence-list filtering — an update touches a
  query only when its old or new cell is marked, and membership changes
  are decided from the update tuple alone (no grid access, ever);
* termination unmarks the cells.

This is strictly incremental (SINA's "positive/negative updates") with
CPM's book-keeping style, and it reuses the same :class:`repro.grid.Grid`
substrate, including cell-access accounting.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.geometry.points import Point
from repro.geometry.rects import Rect
from repro.grid.cell import CellCoord
from repro.grid.grid import Grid
from repro.grid.stats import GridStats
from repro.updates import ObjectUpdate


class _RangeQuery:
    __slots__ = ("cells", "members", "rect")

    def __init__(self, rect: Rect, cells: list[CellCoord]) -> None:
        self.rect = rect
        self.cells = cells
        self.members: set[int] = set()


class GridRangeMonitor:
    """Continuous range-query monitor over the shared grid substrate.

    Results are sets of object ids inside each query rectangle, kept
    exact under arbitrary object movement, appearance and disappearance.
    """

    name = "CPM-Range"

    def __init__(
        self,
        cells_per_axis: int = 128,
        *,
        bounds: Rect | tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0),
        delta: float | None = None,
    ) -> None:
        if delta is not None:
            self._grid = Grid(delta=delta, bounds=bounds)
        else:
            self._grid = Grid(cells_per_axis, bounds=bounds)
        self._positions: dict[int, Point] = {}
        self._queries: dict[int, _RangeQuery] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def grid(self) -> Grid:
        return self._grid

    @property
    def stats(self) -> GridStats:
        return self._grid.stats

    def reset_stats(self) -> None:
        self._grid.stats.reset()

    @property
    def object_count(self) -> int:
        return len(self._positions)

    def object_position(self, oid: int) -> Point | None:
        return self._positions.get(oid)

    def query_ids(self) -> list[int]:
        return list(self._queries)

    def influence_cells(self, qid: int) -> list[CellCoord]:
        """The (static) influence region: cells intersecting the range."""
        return list(self._queries[qid].cells)

    # ------------------------------------------------------------------
    # Objects
    # ------------------------------------------------------------------

    def load_objects(self, objects: Iterable[tuple[int, Point]]) -> None:
        if self._queries:
            raise RuntimeError(
                "bulk loading after query installation would corrupt results; "
                "send appearance updates instead"
            )
        for oid, (x, y) in objects:
            self._grid.insert(oid, x, y)
            self._positions[oid] = (x, y)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def install_range_query(self, qid: int, rect: Rect) -> set[int]:
        """Register a continuous range query; returns its initial result."""
        if qid in self._queries:
            raise KeyError(f"query {qid} is already installed")
        cells = [
            coord
            for coord in self._grid.cells_in_rect(rect.x0, rect.y0, rect.x1, rect.y1)
        ]
        query = _RangeQuery(rect, cells)
        grid = self._grid
        rows = grid.rows
        contains = rect.contains_point
        for coord in cells:
            grid.add_mark(coord, qid)
            oids, xs, ys = grid.scan_all_flat(coord[0] * rows + coord[1])
            query.members.update(
                oid for oid, x, y in zip(oids, xs, ys) if contains(x, y)
            )
        self._queries[qid] = query
        return set(query.members)

    def remove_query(self, qid: int) -> None:
        query = self._queries.pop(qid)
        for coord in query.cells:
            self._grid.remove_mark(coord, qid)

    def result(self, qid: int) -> set[int]:
        """Current members of the range (a copy)."""
        return set(self._queries[qid].members)

    # ------------------------------------------------------------------
    # Stream processing
    # ------------------------------------------------------------------

    def process(self, object_updates: Sequence[ObjectUpdate]) -> set[int]:
        """Apply one cycle of object updates; returns changed query ids.

        Never scans a cell: membership transitions are decided entirely
        from the update tuples and the influence marks — the best case of
        the CPM methodology (range results need no re-computation).
        """
        grid = self._grid
        queries = self._queries
        changed: set[int] = set()
        for upd in object_updates:
            oid = upd.oid
            old = upd.old
            new = upd.new
            if old is not None:
                old_cell = grid.delete(oid, old[0], old[1])
                for qid in grid.marks(old_cell):
                    query = queries[qid]
                    if oid in query.members and (
                        new is None or not query.rect.contains_point(new[0], new[1])
                    ):
                        query.members.discard(oid)
                        changed.add(qid)
            if new is not None:
                new_cell = grid.insert(oid, new[0], new[1])
                self._positions[oid] = new
                for qid in grid.marks(new_cell):
                    query = queries[qid]
                    if oid not in query.members and query.rect.contains_point(
                        new[0], new[1]
                    ):
                        query.members.add(oid)
                        changed.add(qid)
            else:
                self._positions.pop(oid, None)
        return changed
