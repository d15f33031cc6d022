"""SEA-CNN [XMA05]: shared-execution answer-region monitoring.

The method of Xiong et al. (ICDE 2005) as described in Section 2 of the CPM
paper.  Each query keeps an *answer region* — the circle centered at the
query with radius ``best_dist`` (the current k-th NN distance) — and marks
the grid cells intersecting it.  Updates touching marked cells classify the
query into one of three cases (Figure 2.2), each defining a circular search
region ``SR`` of radius ``r``:

1. neighbors moving *within* the answer region, or outer objects *entering*
   it: ``r = best_dist``;
2. a current neighbor moving *out* of the answer region: ``r = d_max``, the
   distance of the previous neighbor that moved furthest;
3. the query itself moving to ``q'``: ``r = best_dist + dist(q, q')``,
   centered at ``q'``.

The new result is computed among all objects in the cells intersecting
``SR``.  SEA-CNN "focuses exclusively on monitoring the NN changes, without
including a module for the first-time evaluation", so — as in the paper's
experimental study — initial results (and recovery from neighbors that go
off-line) use YPK-CNN's two-step search.

Queries whose result is under-full (fewer than k objects on-line) have an
unbounded answer region; they are flagged and re-evaluated from scratch
whenever any object update arrives.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from repro.baselines.common import two_step_nn_search
from repro.geometry.points import Point
from repro.geometry.rects import Rect
from repro.grid.cell import CellCoord
from repro.grid.grid import Grid
from repro.grid.stats import GridStats
from repro.monitor import ContinuousMonitor, CycleChanges, QueryRecord, ResultEntry
from repro.updates import FlatUpdateBatch, QueryUpdate, QueryUpdateKind


class _SeaQuery:
    __slots__ = ("best_dist", "entries", "ids", "k", "marked", "monitor_all", "x", "y")

    def __init__(self, x: float, y: float, k: int) -> None:
        self.x = x
        self.y = y
        self.k = k
        self.entries: list[ResultEntry] = []
        self.ids: set[int] = set()
        self.best_dist = math.inf
        self.marked: set[CellCoord] = set()
        self.monitor_all = False


class _SeaScratch:
    """Per-cycle classification flags for one affected query."""

    __slots__ = ("d_max", "offline", "within")

    def __init__(self) -> None:
        self.within = False
        self.d_max = 0.0
        self.offline = False


class SeaCnnMonitor(ContinuousMonitor):
    """SEA-CNN continuous monitor over a main-memory grid."""

    name = "SEA-CNN"

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
        self._queries: dict[int, _SeaQuery] = {}

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
        query = _SeaQuery(point[0], point[1], k)
        self._queries[qid] = query
        self._set_result(qid, query, two_step_nn_search(self._grid, point, k))
        return list(query.entries)

    def remove_query(self, qid: int) -> None:
        query = self._queries.pop(qid)
        for coord in query.marked:
            self._grid.remove_mark(coord, qid)

    def result(self, qid: int) -> list[ResultEntry]:
        return list(self._queries[qid].entries)

    def _query_records(self) -> list[QueryRecord]:
        return [
            QueryRecord(qid, q.k, point=(q.x, q.y))
            for qid, q in self._queries.items()
        ]

    def query_ids(self) -> list[int]:
        return list(self._queries)

    def query_k(self, qid: int) -> int:
        return self._queries[qid].k

    def answer_region_cells(self, qid: int) -> set[CellCoord]:
        """Cells currently marked for the query (tests/diagnostics)."""
        return set(self._queries[qid].marked)

    # ------------------------------------------------------------------
    # Processing
    # ------------------------------------------------------------------

    def _cycle(
        self,
        batch: FlatUpdateBatch,
        query_updates: Sequence[QueryUpdate],
        keep_before: bool,
    ) -> CycleChanges:
        """One SEA-CNN cycle over the batch's columns.

        Movements relocate through :meth:`Grid.move_ids` (same-cell fast
        path, counters identical to delete+insert); the mark probes only
        read answer-region state, so running both after the move matches
        the delete-then-insert interleaving exactly.  Both cell ids of
        every row come from one batch addressing pass
        (:meth:`repro.grid.grid.Grid.batch_cell_ids`, vectorized where
        numpy imports) and the mark sets are read straight off the
        packed-id store — no coordinate tuples anywhere in the loop.
        """
        grid = self._grid
        queries = self._queries
        positions = self._positions
        updated_qids = {qu.qid for qu in query_updates}
        scratch: dict[int, _SeaScratch] = {}
        scratch_get = scratch.get
        marks_store = grid._marks
        hypot = math.hypot
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
                old_ms = None
                new_ms = marks_store[ncid]
            elif dis:
                delete_at(ocid, oid)
                positions_pop(oid, None)
                old_ms = marks_store[ocid]
                new_ms = None
            else:
                move_ids(oid, ocid, ncid, nx, ny)
                positions[oid] = (nx, ny)
                old_ms = marks_store[ocid]
                new_ms = marks_store[ncid]
            if old_ms:
                for qid in old_ms:
                    if qid in updated_qids:
                        continue
                    query = queries[qid]
                    if oid not in query.ids:
                        continue
                    sc = scratch_get(qid)
                    if sc is None:
                        sc = scratch[qid] = _SeaScratch()
                    if dis:
                        sc.offline = True
                    else:
                        d = hypot(nx - query.x, ny - query.y)
                        if d > query.best_dist:
                            if d > sc.d_max:
                                sc.d_max = d
                        else:
                            sc.within = True
            if new_ms:
                for qid in new_ms:
                    if qid in updated_qids:
                        continue
                    query = queries[qid]
                    if oid in query.ids:
                        continue
                    d = hypot(nx - query.x, ny - query.y)
                    if d <= query.best_dist:
                        sc = scratch_get(qid)
                        if sc is None:
                            sc = scratch[qid] = _SeaScratch()
                        sc.within = True
        return self._finish_cycle(
            scratch, updated_qids, len(batch.oids) > 0, query_updates, keep_before
        )

    def _finish_cycle(
        self,
        scratch: dict[int, _SeaScratch],
        updated_qids: set[int],
        had_updates: bool,
        query_updates: Sequence[QueryUpdate],
        keep_before: bool,
    ) -> CycleChanges:
        """Re-evaluation of the affected queries, then the query-update
        phase."""
        queries = self._queries
        # Under-full queries watch the whole workspace.
        if had_updates:
            for qid, query in queries.items():
                if query.monitor_all and qid not in updated_qids and qid not in scratch:
                    sc = scratch[qid] = _SeaScratch()
                    sc.offline = True  # force a fresh search

        changes: CycleChanges = ({}, {})
        before, after = changes
        for qid, sc in scratch.items():
            query = queries[qid]
            old_entries = query.entries
            if sc.offline:
                entries = two_step_nn_search(self._grid, (query.x, query.y), query.k)
            else:
                radius = sc.d_max if sc.d_max > 0.0 else query.best_dist
                entries = self._range_evaluate(query, (query.x, query.y), radius)
            self._set_result(qid, query, entries)
            if entries != old_entries:
                before[qid] = old_entries
                after[qid] = entries

        self._apply_query_updates(query_updates, changes, keep_before)
        return changes

    def apply_query_update(self, update: QueryUpdate) -> None:
        """A moving query is case (iii) of Figure 2.2b, not a re-install."""
        if update.kind is QueryUpdateKind.MOVE:
            self._move_query(update.qid, update.point, update.k)
        else:
            super().apply_query_update(update)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _move_query(self, qid: int, point: Point | None, k: int | None) -> None:
        """Case (iii) of Figure 2.2b: ``r = best_dist + dist(q, q')``."""
        assert point is not None
        query = self._queries[qid]
        if k is not None and k != query.k:
            # Changing k invalidates the answer region; restart the query.
            self.remove_query(qid)
            self.install_query(qid, point, k)
            return
        travel = math.hypot(point[0] - query.x, point[1] - query.y)
        old_best = query.best_dist
        query.x, query.y = point
        if query.monitor_all or math.isinf(old_best):
            entries = two_step_nn_search(self._grid, point, query.k)
        else:
            entries = self._range_evaluate(query, point, old_best + travel)
        self._set_result(qid, query, entries)

    def _range_evaluate(
        self, query: _SeaQuery, center: Point, radius: float
    ) -> list[ResultEntry]:
        """Scan the cells intersecting the circle ``(center, radius)`` and
        return the k best objects found.

        Cell scans read the raw columns (:meth:`Grid.scan_all_flat`) —
        SEA-CNN considers *every* object of an intersecting cell a
        candidate (the paper's semantics), so the circle prunes cells,
        not objects, and the zip loop avoids position-tuple unpacking.
        """
        grid = self._grid
        candidates: list[ResultEntry] = []
        cx, cy = center
        scan_all_flat = grid.scan_all_flat
        rows = grid.rows
        append = candidates.append
        hypot = math.hypot
        for i, j in grid.cells_in_circle(center, radius):
            oids, xs, ys = scan_all_flat(i * rows + j)
            if oids:
                for oid, x, y in zip(oids, xs, ys):
                    append((hypot(x - cx, y - cy), oid))
        candidates.sort()
        if len(candidates) < query.k:
            # Defensive: the population shrank below k inside SR.
            return two_step_nn_search(self._grid, center, query.k)
        return candidates[: query.k]

    def _set_result(self, qid: int, query: _SeaQuery, entries: list[ResultEntry]) -> None:
        """Store a new result and re-mark the answer region cells."""
        query.entries = entries
        query.ids = {oid for _dist, oid in entries}
        query.best_dist = entries[query.k - 1][0] if len(entries) >= query.k else math.inf
        query.monitor_all = not math.isfinite(query.best_dist)
        if query.monitor_all:
            new_marked: set[CellCoord] = set()
        else:
            # Epsilon slack keeps the k-th NN's own cell marked even when
            # floating-point jitter pushes its mindist a hair above
            # best_dist (same guard as CPM's reconcile_marks).
            new_marked = set(
                self._grid.cells_in_circle(
                    (query.x, query.y),
                    query.best_dist + self._grid.boundary_epsilon,
                )
            )
        for coord in query.marked - new_marked:
            self._grid.remove_mark(coord, qid)
        for coord in new_marked - query.marked:
            self._grid.add_mark(coord, qid)
        query.marked = new_marked
