"""YPK-CNN [YPK05]: periodic grid-based k-NN re-evaluation.

The method of Yu et al. (ICDE 2005) as described in Section 2 of the CPM
paper:

* object updates are applied directly to the grid (no per-update result
  maintenance);
* every installed query is re-evaluated once per cycle, whether or not any
  update fell near it;
* a *first-time* (or moving) query runs the two-step square search of
  Figure 2.1a;
* a *stationary* query is refreshed from its previous result: ``d_max`` is
  the largest distance of the previous neighbors' current locations, and
  the new result is computed among the objects in the cells intersecting
  the square ``SR`` centered at the query cell with side
  ``2*d_max + delta`` (Figure 2.1b);
* a moving query is handled as a brand new one.

If a previous neighbor went off-line, ``d_max`` is undefined and the query
falls back to the fresh two-step search.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from repro.baselines.common import collect_cell_objects, square_cells, two_step_nn_search
from repro.geometry.points import Point
from repro.geometry.rects import Rect
from repro.grid.grid import Grid
from repro.grid.stats import GridStats
from repro.monitor import ContinuousMonitor, CycleChanges, QueryRecord, ResultEntry
from repro.updates import FlatUpdateBatch, QueryUpdate


class _YpkQuery:
    __slots__ = ("entries", "k", "x", "y")

    def __init__(self, x: float, y: float, k: int) -> None:
        self.x = x
        self.y = y
        self.k = k
        self.entries: list[ResultEntry] = []


class YpkCnnMonitor(ContinuousMonitor):
    """YPK-CNN continuous monitor over a main-memory grid."""

    name = "YPK-CNN"

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
        self._queries: dict[int, _YpkQuery] = {}

    # ------------------------------------------------------------------
    # Objects
    # ------------------------------------------------------------------

    @property
    def grid(self) -> Grid:
        return self._grid

    @property
    def stats(self) -> GridStats:
        return self._grid.stats

    def load_objects(self, objects: Iterable[tuple[int, Point]]) -> None:
        for oid, (x, y) in objects:
            self._grid.insert(oid, x, y)
            self._positions[oid] = (x, y)

    def object_position(self, oid: int) -> Point | None:
        return self._positions.get(oid)

    @property
    def object_count(self) -> int:
        return len(self._positions)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def install_query(self, qid: int, point: Point, k: int = 1) -> list[ResultEntry]:
        if qid in self._queries:
            raise KeyError(f"query {qid} is already installed")
        query = _YpkQuery(point[0], point[1], k)
        query.entries = two_step_nn_search(self._grid, point, k)
        self._queries[qid] = query
        return list(query.entries)

    def remove_query(self, qid: int) -> None:
        del self._queries[qid]

    def result(self, qid: int) -> list[ResultEntry]:
        return list(self._queries[qid].entries)

    def query_ids(self) -> list[int]:
        return list(self._queries)

    def query_k(self, qid: int) -> int:
        return self._queries[qid].k

    def _query_records(self) -> list[QueryRecord]:
        return [
            QueryRecord(qid, q.k, point=(q.x, q.y))
            for qid, q in self._queries.items()
        ]

    # ------------------------------------------------------------------
    # Processing
    # ------------------------------------------------------------------

    def _cycle(
        self,
        batch: FlatUpdateBatch,
        query_updates: Sequence[QueryUpdate],
        keep_before: bool,
    ) -> CycleChanges:
        """One YPK-CNN cycle over the batch's columns.

        "YPK-CNN does not process updates as they arrive, but directly
        applies the changes to the grid": one move/insert/delete per row
        (movements through :meth:`Grid.move_ids`, whose same-cell fast
        path relocates in place with identical delete+insert counters).
        Both cell ids of every row come from one batch addressing pass
        (:meth:`repro.grid.grid.Grid.batch_cell_ids`, vectorized where
        numpy imports) and the columns are consumed by a single zip.
        """
        grid = self._grid
        positions = self._positions
        # Full-row alignment: appearance rows carry placeholder old
        # coordinates (their old cid lands in cell 0, unused), so no
        # mask is needed and both id columns stay row-aligned.
        old_cids = grid.batch_cell_ids(batch.old_xs, batch.old_ys)
        new_cids = grid.batch_cell_ids(batch.new_xs, batch.new_ys)
        insert_at = grid.insert_at
        delete_at = grid.delete_at
        move_ids = grid.move_ids
        positions_pop = positions.pop
        for oid, nx, ny, ap, dis, ocid, ncid in zip(
            batch.oids,
            batch.new_xs,
            batch.new_ys,
            batch.appear,
            batch.disappear,
            old_cids,
            new_cids,
        ):
            if ap:
                if oid in positions:
                    raise KeyError(f"object {oid} appeared twice")
                insert_at(ncid, oid, (nx, ny))
                positions[oid] = (nx, ny)
            elif dis:
                delete_at(ocid, oid)
                positions_pop(oid, None)
            else:
                move_ids(oid, ocid, ncid, nx, ny)
                positions[oid] = (nx, ny)
        return self._finish_cycle(query_updates, keep_before)

    def _finish_cycle(
        self, query_updates: Sequence[QueryUpdate], keep_before: bool
    ) -> CycleChanges:
        """The query-update phase ("when a query q changes location, it is
        handled as a new one"), then the periodic re-evaluation sweep."""
        changes: CycleChanges = ({}, {})
        self._apply_query_updates(query_updates, changes, keep_before)

        # Periodic re-evaluation of every other installed query.
        before, after = changes
        for qid, query in self._queries.items():
            if qid in after:
                continue
            new_entries = self._re_evaluate(query)
            if new_entries != query.entries:
                before[qid] = query.entries
                after[qid] = query.entries = new_entries
        return changes

    def _re_evaluate(self, query: _YpkQuery) -> list[ResultEntry]:
        """Figure 2.1b: bound the search by the furthest previous neighbor."""
        if len(query.entries) < query.k:
            return two_step_nn_search(self._grid, (query.x, query.y), query.k)
        d_max = 0.0
        for _dist, oid in query.entries:
            pos = self._positions.get(oid)
            if pos is None:
                # A previous neighbor went off-line; recompute from scratch.
                return two_step_nn_search(self._grid, (query.x, query.y), query.k)
            d = math.hypot(pos[0] - query.x, pos[1] - query.y)
            if d > d_max:
                d_max = d
        cq = self._grid.cell_of(query.x, query.y)
        candidates: list[ResultEntry] = []
        cells = square_cells(self._grid, cq, d_max + self._grid.delta / 2.0)
        collect_cell_objects(self._grid, cells, (query.x, query.y), candidates)
        candidates.sort()
        if len(candidates) < query.k:  # pragma: no cover - defensive
            return two_step_nn_search(self._grid, (query.x, query.y), query.k)
        return candidates[: query.k]
