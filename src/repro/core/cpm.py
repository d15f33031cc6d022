"""The CPM continuous monitoring algorithm (Section 3).

The monitor owns the grid ``G``, the query table ``QT`` and the full
processing pipeline:

* **NN computation** (Figure 3.4) — best-first search over the conceptual
  partitioning; processes the minimal set of cells (those intersecting the
  circle with radius ``best_dist``) and leaves behind the visit list, the
  residual search heap and the influence-list marks.
* **NN re-computation** (Figure 3.6) — re-runs an affected query by
  re-scanning the visit list sequentially (O(1) "get next" instead of heap
  operations) and only then resuming the residual heap.
* **Update handling** (Figure 3.8) — batch processing of a cycle's object
  updates.  Only queries whose influence region intersects an updated cell
  are touched; if the incomers (the figure's in-list) outnumber the
  outgoing NNs (``out_count``) the new result is assembled *without
  accessing the grid*, otherwise re-computation runs.  One rule is added
  to the figure: an NN that moves into a cell not marked for the query is
  outgoing even at ``dist == best_dist`` (see
  :meth:`CPMMonitor._apply_flat_rows`), so every NN lies in a marked cell.
  The row loop orders nothing: it re-keys and evicts NNs in the query's
  oid -> distance map and collects incomers in a plain dict, and each
  touched query's list is sorted once, when it is finalized — the
  ``k log k`` per-cycle re-ordering term of the Section 4.1 cost model.
  **Touched-until-finalize invariant:** from a query's first touch in a
  cycle (:meth:`CPMMonitor._acquire_scratch`) to its
  :meth:`CPMMonitor._finalize_query`, ``nn._dists`` is live and
  ``nn._entries`` is the intact pre-cycle result; the loop reads only
  membership and ``state.best_dist`` (constant until finalize), and nothing
  may read ``entries()`` / ``kth_dist`` of a touched query in between.
* **NN monitoring** (Figure 3.9) — the per-cycle driver: object updates
  first (ignoring queries that received updates), then query terminations,
  movements (termination + re-insertion) and insertions.

Query generality (Section 5): any :class:`repro.core.strategies.QueryStrategy`
can be installed, so the same engine monitors point NN, aggregate NN
(sum/min/max) and constrained queries.

Ablation/robustness switches (see DESIGN.md):

* ``reuse_bookkeeping=False`` — the paper's low-memory fallback: drop the
  visit list/heap and recompute affected queries from scratch.
* ``merge_optimization=False`` — disable the Section 3.3 batch enhancement;
  any outgoing NN triggers re-computation as in the single-update
  processing of Section 3.2.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Iterable, Sequence
from heapq import heappop, heappush
from itertools import compress, repeat
from math import hypot, inf as _INF

from repro.core.bookkeeping import CycleScratch, QueryState
from repro.core.heap import CELL, RECT
from repro.core.partition import DIRECTIONS
from repro.core.strategies import (
    AggregateNNStrategy,
    ConstrainedStrategy,
    FilteredStrategy,
    PointNNStrategy,
    QueryStrategy,
)
from repro.geometry.aggregates import AggregateFunction
from repro.geometry.points import Point
from repro.geometry.rects import Rect
from repro.grid.grid import Grid
from repro.grid.kernels import VEC_MIN_BATCH as _VEC_MIN_BATCH
from repro.grid.kernels import CellColumns
from repro.grid.stats import GridStats
from repro.monitor import ContinuousMonitor, CycleChanges, QueryRecord, ResultEntry
from repro.updates import FlatUpdateBatch, QueryUpdate


class CPMMonitor(ContinuousMonitor):
    """Conceptual Partitioning Monitoring over a main-memory grid."""

    name = "CPM"

    def __init__(
        self,
        cells_per_axis: int = 128,
        *,
        bounds: Rect | tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0),
        delta: float | None = None,
        reuse_bookkeeping: bool = True,
        merge_optimization: bool = True,
    ) -> None:
        if delta is not None:
            self._grid = Grid(delta=delta, bounds=bounds)
        else:
            self._grid = Grid(cells_per_axis, bounds=bounds)
        # oid -> packed cell id: the authoritative object->cell map.  The
        # update loop reads it instead of re-deriving the old cell from
        # the update's old coordinates (one dict hit versus ~a dozen
        # float/int operations per endpoint).  It is also the only
        # per-object side table: positions are *not* shadowed in a second
        # dict — object_position() reads them back through the cell
        # columns, so the update loop saves one dict store and one tuple
        # allocation per move.
        self._object_cells: dict[int, int] = {}
        self._queries: dict[int, QueryState] = {}
        # qid -> (state, nn, qx, qy, is_point): the influence-probe
        # record.  One dict hit + tuple unpack replaces an attribute
        # chase per probed query in the update loop (the fields are
        # immutable per installation; the NeighborList identity is stable
        # - merge() rebinds its internals, not the object, which is why
        # the record holds the list and never its distance map).
        self._query_probes: dict[int, tuple] = {}
        # Recycled CycleScratch instances (see CycleScratch.reset): the
        # steady-state update loop allocates no per-cycle scratch objects.
        self._scratch_pool: list[CycleScratch] = []
        self.reuse_bookkeeping = reuse_bookkeeping
        self.merge_optimization = merge_optimization

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def grid(self) -> Grid:
        """The underlying object grid ``G`` (read-only use by callers)."""
        return self._grid

    @property
    def stats(self) -> GridStats:
        return self._grid.stats

    @property
    def object_count(self) -> int:
        return len(self._object_cells)

    def object_position(self, oid: int) -> Point | None:
        cid = self._object_cells.get(oid)
        if cid is None:
            return None
        cell = self._grid._cells[cid]
        idx = cell.slot[oid]
        return (cell.xs[idx], cell.ys[idx])

    def iter_objects(self) -> Iterable[tuple[int, Point]]:
        """Ascending-oid iteration (positions read back through the cell
        columns — CPM keeps no second position table)."""
        cells = self._grid._cells
        for oid in sorted(self._object_cells):
            cell = cells[self._object_cells[oid]]
            idx = cell.slot[oid]
            yield oid, (cell.xs[idx], cell.ys[idx])

    def query_ids(self) -> list[int]:
        return list(self._queries)

    def query_k(self, qid: int) -> int:
        return self._queries[qid].k

    def _query_records(self) -> list[QueryRecord]:
        """Capture hook: every query re-installs from its strategy."""
        return [
            QueryRecord(qid, state.k, strategy=state.strategy)
            for qid, state in self._queries.items()
        ]

    def query_state(self, qid: int) -> QueryState:
        """Book-keeping of a query (tests, diagnostics, space accounting)."""
        return self._queries[qid]

    def best_dist(self, qid: int) -> float:
        """Distance of the query's k-th neighbor (``inf`` when under-full)."""
        return self._queries[qid].best_dist

    def influence_cells(self, qid: int) -> list[tuple[int, int]]:
        """Cells currently in the query's influence region (marked cells)."""
        return self._queries[qid].influence_cells()

    def check_invariants(self) -> None:
        """Test hook: raise ``AssertionError`` unless every query's result
        is settled and consistent.  Valid between cycles only.

        Per query: ``nn._entries`` is sorted and is the same oid ->
        distance relation as ``nn._dists`` (the stale window of update
        handling is closed), at most k entries, ``best_dist`` is the k-th
        distance, every NN lies in a cell marked for the query (the
        tie rule of :meth:`_apply_flat_rows`), and the visit keys are
        non-decreasing (:meth:`QueryState.reconcile_marks` bisects
        them).  Per object: the cell the
        object->cell map names holds the object in its slot table, and
        those cells hold no other objects (their slot counts sum to the
        size of the map).
        """
        grid = self._grid
        cells_store = grid._cells
        marks_store = grid._marks
        object_cells = self._object_cells
        for oid, cid in object_cells.items():
            cell = cells_store[cid]
            if cell is None or oid not in cell.slot:
                raise AssertionError(
                    f"object {oid} maps to cell {grid.unpack(cid)}, which "
                    "does not hold it"
                )
        held = sum(len(cells_store[cid].slot) for cid in set(object_cells.values()))
        if held != len(object_cells):
            raise AssertionError(
                f"the mapped cells hold {held} objects, the object->cell map "
                f"{len(object_cells)}"
            )
        for qid, state in self._queries.items():
            nn = state.nn
            entries = nn._entries
            if entries != sorted(zip(nn._dists.values(), nn._dists)):
                raise AssertionError(
                    f"query {qid}: entries {entries} are not the sorted "
                    f"distance map {nn._dists}"
                )
            if len(entries) > state.k:
                raise AssertionError(f"query {qid}: {len(entries)} NNs, k={state.k}")
            if state.best_dist != nn.kth_dist:
                raise AssertionError(
                    f"query {qid}: best_dist {state.best_dist} is not the "
                    f"k-th distance {nn.kth_dist}"
                )
            for _d, oid in entries:
                ms = marks_store[object_cells[oid]]
                if not ms or qid not in ms:
                    raise AssertionError(
                        f"query {qid}: NN {oid} lies in unmarked cell "
                        f"{grid.unpack(object_cells[oid])}"
                    )
            keys = state.visit_keys
            for pos in range(1, len(keys)):
                if keys[pos] < keys[pos - 1]:
                    raise AssertionError(
                        f"query {qid}: visit key {keys[pos]!r} at position "
                        f"{pos} is below its predecessor {keys[pos - 1]!r}"
                    )

    # ------------------------------------------------------------------
    # Object population
    # ------------------------------------------------------------------

    def load_objects(self, objects: Iterable[tuple[int, Point]]) -> None:
        """Bulk-load the initial object set.

        Only valid before any query is installed — afterwards objects must
        arrive as appearance updates so that results stay consistent.
        """
        if self._queries:
            raise RuntimeError(
                "bulk loading after query installation would corrupt results; "
                "send appearance updates instead"
            )
        grid = self._grid
        for oid, (x, y) in objects:
            cid = grid.cell_id(x, y)
            grid.insert_at(cid, oid, (x, y))
            self._object_cells[oid] = cid

    # ------------------------------------------------------------------
    # Query installation (Figure 3.4)
    # ------------------------------------------------------------------

    def install_query(self, qid: int, point: Point, k: int = 1) -> list[ResultEntry]:
        """Register a plain point k-NN query."""
        return self.install_strategy_query(qid, PointNNStrategy(point[0], point[1]), k)

    def install_ann_query(
        self,
        qid: int,
        points: Sequence[Point],
        k: int = 1,
        fn: str | AggregateFunction = "sum",
    ) -> list[ResultEntry]:
        """Register an aggregate NN query over ``points`` (Section 5)."""
        return self.install_strategy_query(qid, AggregateNNStrategy(points, fn), k)

    def install_constrained_query(
        self, qid: int, point: Point, region: Rect, k: int = 1
    ) -> list[ResultEntry]:
        """Register a constrained NN query (Figure 5.3)."""
        strategy = ConstrainedStrategy(PointNNStrategy(point[0], point[1]), region)
        return self.install_strategy_query(qid, strategy, k)

    def install_strategy_query(
        self, qid: int, strategy: QueryStrategy, k: int = 1
    ) -> list[ResultEntry]:
        """Register a query with an arbitrary geometry strategy."""
        if qid in self._queries:
            raise KeyError(f"query {qid} is already installed")
        if isinstance(strategy, FilteredStrategy):
            # Filter predicates read this monitor's live tag table; bound
            # here (not at construction) so strategies travel through
            # specs/wire/pickle free of engine state.
            strategy.bind_tags(self.tag_table)
        state = QueryState(qid, strategy, k, strategy.partition(self._grid))
        self._seed_heap(state)
        self._run_search(state)
        state.best_dist = state.nn.kth_dist
        state.reconcile_marks(self._grid, processed_upto=state.visit_length)
        self._register_query(state)
        return state.result_entries()

    def _register_query(self, state: QueryState) -> None:
        """Enter a searched (or adopted) query into QT and the probe table."""
        self._queries[state.qid] = state
        self._query_probes[state.qid] = (
            state, state.nn, state.qx, state.qy, state.is_point
        )

    def remove_query(self, qid: int) -> None:
        """Terminate a query: drop its QT entry and influence marks."""
        state = self._queries.pop(qid)
        del self._query_probes[qid]
        state.unmark_all(self._grid)

    def result(self, qid: int) -> list[ResultEntry]:
        return self._queries[qid].result_entries()

    def _live_result(self, qid: int) -> list[ResultEntry] | None:
        state = self._queries.get(qid)
        return None if state is None else state.nn._entries

    # ------------------------------------------------------------------
    # Search internals
    # ------------------------------------------------------------------

    def _seed_heap(self, state: QueryState) -> None:
        """Lines 3-5 of Figure 3.4: en-heap the core cells and the level-0
        rectangle of each direction."""
        grid = self._grid
        strategy = state.strategy
        heap = state.heap
        partition = state.partition
        if state.is_point:
            # Plain point NN: the core is the single query cell (mindist
            # 0 by construction would be wrong for clamped out-of-bounds
            # queries, so it is still computed) and the four level-0 keys
            # are perpendicular gaps to the strip's near grid line,
            # computed with the float expression its cells' mindist uses
            # (the same key rule as _run_search's deeper levels).
            qx = state.qx
            qy = state.qy
            ci = partition.i_lo
            cj = partition.j_lo
            bounds = grid.bounds
            bx0 = bounds.x0
            by0 = bounds.y0
            delta = grid.delta
            heap.push_cell(grid.mindist_xy(ci, cj, qx, qy), ci, cj)
            rows_2 = partition.rows - 2
            cols_2 = partition.cols - 2
            if cj <= rows_2:  # UP_0 exists
                gap = by0 + (cj + 1) * delta - qy
                heap.push_rect(gap if gap > 0.0 else 0.0, 0, 0)
            if ci <= cols_2:  # RIGHT_0
                gap = bx0 + (ci + 1) * delta - qx
                heap.push_rect(gap if gap > 0.0 else 0.0, 1, 0)
            if cj >= 1:  # DOWN_0: row cj-1's top edge, as its cells' y1
                gap = qy - (by0 + (cj - 1) * delta + delta)
                heap.push_rect(gap if gap > 0.0 else 0.0, 2, 0)
            if ci >= 1:  # LEFT_0: column ci-1's right edge, as its x1
                gap = qx - (bx0 + (ci - 1) * delta + delta)
                heap.push_rect(gap if gap > 0.0 else 0.0, 3, 0)
        else:
            for i, j in partition.core_cells():
                if strategy.cell_allowed(grid, i, j):
                    heap.push_cell(strategy.cell_key(grid, i, j), i, j)
            for direction in DIRECTIONS:
                if partition.exists(direction, 0):
                    heap.push_rect(
                        strategy.strip_key(grid, partition, direction, 0), direction, 0
                    )

    def _run_search(self, state: QueryState) -> None:
        """The de-heaping loop of Figure 3.4 (also the heap continuation of
        Figure 3.6): process entries in ascending key order until the next
        key is ``>= best_dist`` (``kth_dist`` is ``inf`` while under-full,
        so the comparison never stops an unfinished search).

        De-heaped cells run lines 10-12 of Figure 3.4 inline: scan the
        cell, update ``best_NN``, insert the query into the cell's
        influence list, extend the visit list.  For plain point queries the
        cell scan (:meth:`Grid.scan_within` bounded by the live k-th
        distance) and the best-NN insertion (the semantics of
        ``NeighborList.add``) are one inlined loop over the cell columns
        and the live entry/distance containers — the only point-query
        scan, and the hottest loop of the library.
        """
        grid = self._grid
        strategy = state.strategy
        heap = state.heap
        nn = state.nn
        partition = state.partition
        is_point = state.is_point
        qx = state.qx
        qy = state.qy
        qid = state.qid
        rows = grid.rows
        visit_cids = state.visit_cids
        visit_keys = state.visit_keys
        # Inlined partition geometry for the point path: the core cell,
        # the workspace frame and the per-direction level bounds (the
        # max_level arithmetic of ConceptualPartition) as plain locals.
        bounds = grid.bounds
        bx0 = bounds.x0
        by0 = bounds.y0
        bx1 = bounds.x1
        by1 = bounds.y1
        delta = grid.delta
        cols_1 = grid.cols - 1
        rows_1 = rows - 1
        ci = partition.i_lo
        cj = partition.j_lo
        # Inlined grid storage (the mirror contract of the grid module
        # docstring): the cell columns, the mark store and the counters
        # are driven directly — zero function frames per processed cell.
        cells_store = grid._cells
        marks_store = grid._marks
        stats = grid.stats
        # The NN list identity is stable here: the search only inserts (in
        # place); replace() — which rebinds — never runs during a search.
        heap_list = heap._heap
        entries = nn._entries
        dists = nn._dists
        k = nn.k
        n_cur = len(entries)
        kd = entries[k - 1][0] if n_cur >= k else _INF
        # Counters accumulate in locals and flush once after the loop:
        # nothing reads them mid-search, and an attribute bump per cell
        # is measurable at this loop's trip count.
        n_scans = 0
        n_objs = 0
        n_marks = 0
        while heap_list:
            if heap_list[0][0] >= kd:
                break
            key, _seq, kind, a, b = heappop(heap_list)
            if kind == CELL:
                cid = a * rows + b
                # Inlined Grid.scan_within / scan_all_flat: one charged
                # cell access, objects_scanned bumped by the population.
                cell = cells_store[cid]
                n_scans += 1
                if cell is not None and (coids := cell.oids):
                    n_objs += len(coids)
                    if is_point:
                        # Fused scan-and-merge over the coordinate
                        # columns; ties resolve by (dist, oid) entry
                        # order exactly as NeighborList.add.
                        for oid, x, y in zip(coids, cell.xs, cell.ys):
                            d = hypot(x - qx, y - qy)
                            if d <= kd:
                                if n_cur < k:
                                    insort(entries, (d, oid))
                                    dists[oid] = d
                                    n_cur += 1
                                    if n_cur == k:
                                        kd = entries[-1][0]
                                else:
                                    entry = (d, oid)
                                    last = entries[-1]
                                    if entry < last:
                                        entries.pop()
                                        del dists[last[1]]
                                        insort(entries, entry)
                                        dists[oid] = d
                                        kd = entries[-1][0]
                    else:
                        for oid, x, y in zip(coids, cell.xs, cell.ys):
                            if strategy.accepts(x, y, oid):
                                nn.add(strategy.dist(x, y), oid)
                        n_cur = len(entries)
                        kd = entries[k - 1][0] if n_cur >= k else _INF
                # Inlined Grid.add_mark_id (idempotent influence mark).
                ms = marks_store[cid]
                if ms is None:
                    marks_store[cid] = {qid}
                    n_marks += 1
                elif qid not in ms:
                    ms.add(qid)
                    n_marks += 1
                visit_cids.append(cid)
                visit_keys.append(key)
            elif is_point:
                # Rectangle expansion, point path: the strip ranges (the
                # pinwheel arms of ConceptualPartition.strip_cell_range),
                # the per-cell mindist (exact float ops of
                # Grid.mindist_xy) and the heap pushes all run inline —
                # this is where most heap entries are born.
                direction, level = a, b
                seq = heap._seq
                # ``gap``: the next level's key, the distance to its grid
                # line spelled exactly as its cells' mindist spells it, so
                # no cell ever keys below the strip that en-heaps it (an
                # accumulated ``key + step`` can, by one ulp).
                if direction == 0:  # UP: row cj+level+1, columns vary
                    jj = cj + level + 1
                    gap = by0 + (jj + 1) * delta - qy
                    lo = ci - level
                    if lo < 0:
                        lo = 0
                    hi = ci + level + 1
                    if hi > cols_1:
                        hi = cols_1
                    horizontal = True
                    nxt = rows_1 - 1 - cj >= level + 1
                elif direction == 1:  # RIGHT: column ci+level+1, rows vary
                    ii = ci + level + 1
                    gap = bx0 + (ii + 1) * delta - qx
                    lo = cj - level - 1
                    if lo < 0:
                        lo = 0
                    hi = cj + level
                    if hi > rows_1:
                        hi = rows_1
                    horizontal = False
                    nxt = cols_1 - 1 - ci >= level + 1
                elif direction == 2:  # DOWN: row cj-level-1, columns vary
                    jj = cj - level - 1
                    gap = qy - (by0 + (jj - 1) * delta + delta)
                    lo = ci - level - 1
                    if lo < 0:
                        lo = 0
                    hi = ci + level
                    if hi > cols_1:
                        hi = cols_1
                    horizontal = True
                    nxt = cj - 1 >= level + 1
                else:  # LEFT: column ci-level-1, rows vary
                    ii = ci - level - 1
                    gap = qx - (bx0 + (ii - 1) * delta + delta)
                    lo = cj - level
                    if lo < 0:
                        lo = 0
                    hi = cj + level + 1
                    if hi > rows_1:
                        hi = rows_1
                    horizontal = False
                    nxt = ci - 1 >= level + 1
                if horizontal:
                    # Fixed-row arm: dy is constant (same branch structure
                    # as mindist_xy, computed once), dx varies per column.
                    y0 = by0 + jj * delta
                    if qy < y0:
                        dy = y0 - qy
                    else:
                        y1 = y0 + delta
                        if jj == rows_1 and y1 < by1:
                            y1 = by1
                        dy = qy - y1 if qy > y1 else 0.0
                    for i in range(lo, hi + 1):
                        x0 = bx0 + i * delta
                        if qx < x0:
                            dx = x0 - qx
                        else:
                            x1 = x0 + delta
                            if i == cols_1 and x1 < bx1:
                                x1 = bx1
                            dx = qx - x1 if qx > x1 else 0.0
                        if dx == 0.0:
                            md = dy
                        elif dy == 0.0:
                            md = dx
                        else:
                            md = hypot(dx, dy)
                        seq += 1
                        heappush(heap_list, (md, seq, CELL, i, jj))
                else:
                    # Fixed-column arm: dx constant, dy varies per row.
                    x0 = bx0 + ii * delta
                    if qx < x0:
                        dx = x0 - qx
                    else:
                        x1 = x0 + delta
                        if ii == cols_1 and x1 < bx1:
                            x1 = bx1
                        dx = qx - x1 if qx > x1 else 0.0
                    for j in range(lo, hi + 1):
                        y0 = by0 + j * delta
                        if qy < y0:
                            dy = y0 - qy
                        else:
                            y1 = y0 + delta
                            if j == rows_1 and y1 < by1:
                                y1 = by1
                            dy = qy - y1 if qy > y1 else 0.0
                        if dx == 0.0:
                            md = dy
                        elif dy == 0.0:
                            md = dx
                        else:
                            md = hypot(dx, dy)
                        seq += 1
                        heappush(heap_list, (md, seq, CELL, ii, j))
                if nxt:
                    # Inlined SearchHeap.push_rect.
                    seq += 1
                    heappush(
                        heap_list,
                        (gap if gap > 0.0 else 0.0, seq, RECT, direction, level + 1),
                    )
                heap._seq = seq
            else:
                direction, level = a, b
                for i, j in partition.strip_cells(direction, level):
                    if strategy.cell_allowed(grid, i, j):
                        heap.push_cell(strategy.cell_key(grid, i, j), i, j)
                if partition.exists(direction, level + 1):
                    # Keyed directly, not by ``key + level_step``: see
                    # QueryStrategy (the point path's ``gap`` above).
                    heap.push_rect(
                        strategy.strip_key(grid, partition, direction, level + 1),
                        direction,
                        level + 1,
                    )
        if n_scans:
            stats.cell_scans += n_scans
            stats.objects_scanned += n_objs
        if n_marks:
            stats.mark_ops += n_marks
            grid._mark_count += n_marks
        # Every de-heaped cell was marked and appended above, so the
        # marked prefix always extends exactly to the visit-list end.
        if state.marked_upto < len(visit_cids):
            state.marked_upto = len(visit_cids)

    def _recompute(self, state: QueryState) -> None:
        """NN re-computation (Figure 3.6): rescan the visit list first, then
        resume the residual heap."""
        grid = self._grid
        nn = state.nn
        nn.clear()
        visit_cids = state.visit_cids
        visit_keys = state.visit_keys
        cells_store = grid._cells
        stats = grid.stats
        qid = state.qid
        is_point = state.is_point
        qx = state.qx
        qy = state.qy
        strategy = state.strategy
        pos = 0
        total = len(visit_cids)
        entries = nn._entries
        dists = nn._dists
        k = nn.k
        n_cur = 0
        n_scans = 0
        n_objs = 0
        kd = _INF  # the list was just cleared; under-full never stops a scan
        while pos < total:
            if visit_keys[pos] >= kd:
                break
            cid = visit_cids[pos]
            # Inlined Grid.scan_within / scan_all_flat over the cell
            # columns + inline best-NN insertion (same semantics as
            # NeighborList.add, see _run_search); counters flush once
            # after the loop, as in _run_search.
            cell = cells_store[cid]
            n_scans += 1
            if cell is not None and (coids := cell.oids):
                n_objs += len(coids)
                if is_point:
                    for oid, x, y in zip(coids, cell.xs, cell.ys):
                        d = hypot(x - qx, y - qy)
                        if d <= kd:
                            if n_cur < k:
                                insort(entries, (d, oid))
                                dists[oid] = d
                                n_cur += 1
                                if n_cur == k:
                                    kd = entries[-1][0]
                            else:
                                entry = (d, oid)
                                last = entries[-1]
                                if entry < last:
                                    entries.pop()
                                    del dists[last[1]]
                                    insort(entries, entry)
                                    dists[oid] = d
                                    kd = entries[-1][0]
                else:
                    for oid, x, y in zip(coids, cell.xs, cell.ys):
                        if strategy.accepts(x, y, oid):
                            nn.add(strategy.dist(x, y), oid)
                    kd = nn.kth_dist
            if pos >= state.marked_upto:
                grid.add_mark_id(cid, qid)
                state.marked_upto = pos + 1
            pos += 1
        if n_scans:
            stats.cell_scans += n_scans
            stats.objects_scanned += n_objs
        if pos == total:
            # The whole visit list was consumed; the residual heap holds the
            # frontier (its minimum key is >= every visit-list key).
            self._run_search(state)
            pos = state.visit_length
        state.best_dist = nn.kth_dist
        state.reconcile_marks(grid, processed_upto=pos)

    def _recompute_from_scratch(self, state: QueryState) -> None:
        """Low-memory / ablation path: forget the book-keeping and run the
        full NN computation again (Section 3.3, last paragraph)."""
        state.unmark_all(self._grid)
        state.drop_bookkeeping()
        state.nn.clear()
        state.best_dist = float("inf")
        self._seed_heap(state)
        self._run_search(state)
        state.best_dist = state.nn.kth_dist
        state.reconcile_marks(self._grid, processed_upto=state.visit_length)

    def drop_bookkeeping(self, qid: int) -> None:
        """Manually shed a query's visit list and heap to free memory; the
        query keeps being monitored, falling back to computation from
        scratch on its next re-computation."""
        state = self._queries[qid]
        marked = state.influence_cells()
        state.unmark_all(self._grid)
        state.drop_bookkeeping()
        # The influence marks must survive — update filtering depends on
        # them — so re-mark the same cells through a synthetic visit list
        # (sorted by key, preserving the ascending-key invariant).
        keyed = sorted(
            (state.strategy.cell_key(self._grid, i, j), (i, j)) for i, j in marked
        )
        for key, coord in keyed:
            state.append_visit(key, coord)
            self._grid.add_mark(coord, qid)
        state.marked_upto = state.visit_length

    # ------------------------------------------------------------------
    # Update handling (Figures 3.8 and 3.9)
    # ------------------------------------------------------------------

    def _acquire_scratch(self, state: QueryState) -> CycleScratch:
        """Pooled CycleScratch (recycled across cycles, see Figure 3.8).

        Scratch acquisition is the first touch of a query within a cycle
        and always precedes the first mutation of its NN list, so this is
        where the pre-cycle result is taken: ``CycleScratch.before`` holds
        the list itself, not a copy (finalize rebinds ``nn._entries``, it
        never edits it), and :meth:`_finish_cycle` returns it as the
        ``before`` of the query's change.
        """
        pool = self._scratch_pool
        if pool:
            sc = pool.pop()
            sc.reset()
        else:
            sc = CycleScratch()
        sc.before = state.nn._entries
        return sc

    def _cycle(
        self,
        batch: FlatUpdateBatch,
        query_updates: Sequence[QueryUpdate],
        keep_before: bool,
    ) -> CycleChanges:
        """One CPM cycle: update handling (Figure 3.8) over the batch's
        columns, then the query-update phase (Figure 3.9).

        The row loop infers appearances from the object->cell map (see
        :meth:`_apply_flat_rows`); this public boundary then holds the
        inference against the batch's ``appear`` flags, so a movement of
        an unknown object or an appearance of an on-line one raises
        ``KeyError`` (as a disappearance of an unknown object does inside
        the loop).  The comparison runs once per batch, off the per-row
        path, and is by oid sequence: a flag parked on a later row of the
        same object's on-line run is not told apart (same end state).
        """
        # "Queries that receive updates are ignored when handling object
        # updates in order to avoid waste of computations" (Section 3.3).
        updated_qids = {qu.qid for qu in query_updates}
        scratch: dict[int, CycleScratch] = {}
        appeared = self._apply_flat_rows(batch, scratch, updated_qids)
        flagged = list(compress(batch.oids, batch.appear))
        if appeared != flagged:
            raise KeyError(
                "object rows disagree with the object table: unknown objects "
                f"moved {sorted(set(appeared) - set(flagged))}, on-line "
                f"objects appeared {sorted(set(flagged) - set(appeared))}"
            )
        return self._finish_cycle(scratch, query_updates, keep_before)

    def _apply_flat_rows(
        self,
        batch: FlatUpdateBatch,
        scratch: dict[int, CycleScratch],
        updated_qids: set[int],
    ) -> list[int]:
        """Apply a flat batch's object maintenance + influence probes.

        The per-row loop of the cycle (Figure 3.8), kept apart from cycle
        assembly (scratch, query updates, :meth:`_finish_cycle`) so the
        partitioned shard engine (:mod:`repro.service.partition`) can
        apply one cycle's rows across several commands.

        One rule goes beyond the figure's "p remains in the NN set if
        ``dist(p', q) <= best_dist``": an NN whose cross-cell move lands
        in a cell not carrying q's mark is *outgoing*.  Every cell with
        ``mindist < best_dist`` is marked, so this only decides the exact
        tie ``d == mindist == best_dist`` (a cell touching the circle
        from outside) — where keeping p would leave an NN in a cell whose
        later updates never probe q.  Re-computation re-finds p and marks
        its cell, which keeps the invariant *every NN of q lies in a cell
        marked for q*; it is also why a partitioned shard that does not
        track the destination cell is told p disappeared and nothing more.

        Every per-row value comes off the parallel columns by one ``zip``
        unpack, kept five columns wide on purpose — each extra zip column
        costs measurably at this trip count.  The old coordinates are
        never read: the authoritative old cell comes from the
        object->cell map (one dict hit versus re-deriving it from the
        update's old position).  The appearance mask is not consulted
        either — an object the map does not know appears, a known one
        moves, which is what lets the partitioned coordinator route a
        plain move row to a shard that has never seen the object.
        Returns the oids that took the appearance path, in row order, for
        the public boundary (:meth:`_cycle`) to hold against the mask.
        """
        grid = self._grid
        scratch_get = scratch.get
        # Inlined cell addressing (same float ops as Grid.cell_id), the
        # live mark/cell stores and the counters: one multiply-add + one
        # index per influence probe, zero function frames per columnar
        # mutation (the storage-mirror contract of the grid module).
        marks_store = grid._marks
        cells_store = grid._cells
        stats = grid.stats
        object_cells = self._object_cells
        probes = self._query_probes
        cell_cls = CellColumns
        bounds = grid.bounds
        bx0 = bounds.x0
        by0 = bounds.y0
        delta = grid.delta
        rows = grid.rows
        cols_1 = grid.cols - 1
        rows_1 = rows - 1

        object_cells_get = object_cells.get
        # Batch addressing kernel (numpy): the new cell of every row
        # precomputed in one vectorized pass and zipped in as a fifth
        # column (full-row alignment — a disappear row's cid is simply
        # never read, which is cheaper than compressing rows out and
        # pulling from an iterator).  Without numpy, or below the batch
        # crossover, the loop zips a stream of ``None`` instead and keeps
        # the inlined per-row arithmetic.
        vec_cells = grid._vec_cell_ids
        if vec_cells is not None and len(batch.oids) >= _VEC_MIN_BATCH:
            new_cids: Iterable[int | None] = vec_cells(
                batch.new_xs,
                batch.new_ys,
                bx0,
                by0,
                delta,
                cols_1,
                rows_1,
                rows,
                None,
            )
        else:
            new_cids = repeat(None)
        appeared: list[int] = []
        n_del = 0
        n_ins = 0
        for oid, nx, ny, dis, new_cid in zip(
            batch.oids, batch.new_xs, batch.new_ys, batch.disappear, new_cids
        ):
            if not dis:
                # Movement or appearance: the new cell is needed either
                # way (inlined Grid.cell_id, or the precomputed batch
                # column); one map probe then decides which — a known
                # object moves, an unknown one appears.
                if new_cid is None:
                    i = int((nx - bx0) / delta)
                    if i < 0:
                        i = 0
                    elif i > cols_1:
                        i = cols_1
                    j = int((ny - by0) / delta)
                    if j < 0:
                        j = 0
                    elif j > rows_1:
                        j = rows_1
                    new_cid = i * rows + j
                old_cid = object_cells_get(oid)
                if old_cid is None:
                    # Appearance (inlined Grid.insert_at).
                    cell = cells_store[new_cid]
                    if cell is None:
                        cell = cell_cls()
                        cells_store[new_cid] = cell
                    slot = cell.slot
                    if oid in slot:
                        raise KeyError(
                            f"object {oid} already present in cell "
                            f"{grid.unpack(new_cid)}"
                        )
                    coids = cell.oids
                    if not coids:
                        grid._occupied += 1
                    slot[oid] = len(coids)
                    coids.append(oid)
                    cell.xs.append(nx)
                    cell.ys.append(ny)
                    grid._n_objects += 1
                    n_ins += 1
                    object_cells[oid] = new_cid
                    appeared.append(oid)
                    ms = marks_store[new_cid]
                    if ms:
                        for qid in ms:
                            if qid in updated_qids:
                                continue
                            state, nn, pqx, pqy, ispt = probes[qid]
                            if oid in nn._dists:
                                continue
                            if ispt:
                                d = hypot(nx - pqx, ny - pqy)
                            else:
                                if not state.strategy.accepts(nx, ny, oid):
                                    continue
                                d = state.strategy.dist(nx, ny)
                            if d <= state.best_dist:
                                sc = scratch_get(qid)
                                if sc is None:
                                    sc = scratch[qid] = self._acquire_scratch(
                                        state
                                    )
                                sc.incomers[oid] = d
                    continue
                if old_cid == new_cid:
                    # Same-cell move (the common case at coarse grids): two
                    # in-place column stores and one influence probe
                    # instead of a delete/insert pair touching the mark set
                    # twice.  The combined loop below is exactly the
                    # delete-phase followed by the insert-phase of Figure
                    # 3.8 for a cell whose mark set is probed once.
                    # (Inlined Grid.relocate_at.)
                    cell = cells_store[old_cid]
                    idx = None if cell is None else cell.slot.get(oid)
                    if idx is None:
                        raise KeyError(
                            f"object {oid} not found in cell "
                            f"{grid.unpack(old_cid)}"
                        )
                    cell.xs[idx] = nx
                    cell.ys[idx] = ny
                    n_del += 1
                    n_ins += 1
                    ms = marks_store[old_cid]
                    if ms:
                        for qid in ms:
                            if qid in updated_qids:
                                continue
                            state, nn, pqx, pqy, ispt = probes[qid]
                            sc = scratch_get(qid)
                            if ispt:
                                d = hypot(nx - pqx, ny - pqy)
                                ok = True
                            else:
                                ok = state.strategy.accepts(nx, ny, oid)
                                d = state.strategy.dist(nx, ny) if ok else 0.0
                            dists = nn._dists
                            if oid in dists:
                                if sc is None:
                                    sc = scratch[qid] = self._acquire_scratch(
                                        state
                                    )
                                if ok and d <= state.best_dist:
                                    # p remains in the NN set; re-key it
                                    # (finalize orders).
                                    dists[oid] = d
                                else:
                                    del dists[oid]
                                    sc.out_count += 1
                            elif ok and d <= state.best_dist:
                                if sc is None:
                                    sc = scratch[qid] = self._acquire_scratch(
                                        state
                                    )
                                sc.incomers[oid] = d
                            elif sc is not None:
                                # A pending incomer moved out again.
                                sc.incomers.pop(oid, None)
                    continue
                # Cross-cell move: delete phase on the old cell...
                # (Inlined Grid.delete_at: delete-by-swap on the columns.)
                cell = cells_store[old_cid]
                idx = None if cell is None else cell.slot.pop(oid, None)
                if idx is None:
                    raise KeyError(
                        f"object {oid} not found in cell {grid.unpack(old_cid)}"
                    )
                coids = cell.oids
                last_oid = coids.pop()
                lx = cell.xs.pop()
                ly = cell.ys.pop()
                if last_oid != oid:
                    coids[idx] = last_oid
                    cell.xs[idx] = lx
                    cell.ys[idx] = ly
                    cell.slot[last_oid] = idx
                elif not coids:
                    grid._occupied -= 1
                grid._n_objects -= 1
                n_del += 1
                ms = marks_store[old_cid]
                if ms:
                    for qid in ms:
                        if qid in updated_qids:
                            continue
                        state, nn, pqx, pqy, ispt = probes[qid]
                        sc = scratch_get(qid)
                        dists = nn._dists
                        if oid in dists:
                            if sc is None:
                                sc = scratch[qid] = self._acquire_scratch(state)
                            if ispt:
                                d = hypot(nx - pqx, ny - pqy)
                                ok = True
                            else:
                                ok = state.strategy.accepts(nx, ny, oid)
                                d = state.strategy.dist(nx, ny) if ok else 0.0
                            if (
                                ok
                                and d <= state.best_dist
                                and (nms := marks_store[new_cid])
                                and qid in nms
                            ):
                                # p remains in the NN set (within
                                # best_dist *and* in a cell marked for q
                                # — the tie rule of the docstring);
                                # re-key it (finalize orders).
                                dists[oid] = d
                            else:
                                # p is an outgoing NN.
                                del dists[oid]
                                sc.out_count += 1
                        elif sc is not None:
                            # A pending incomer left its cell; the insert
                            # phase re-records it if it is still one.
                            sc.incomers.pop(oid, None)
                # ... then insert phase on the new cell.
                # (Inlined Grid.insert_at: append a row to the columns.)
                cell = cells_store[new_cid]
                if cell is None:
                    cell = cell_cls()
                    cells_store[new_cid] = cell
                slot = cell.slot
                if oid in slot:
                    raise KeyError(
                        f"object {oid} already present in cell "
                        f"{grid.unpack(new_cid)}"
                    )
                coids = cell.oids
                if not coids:
                    grid._occupied += 1
                slot[oid] = len(coids)
                coids.append(oid)
                cell.xs.append(nx)
                cell.ys.append(ny)
                grid._n_objects += 1
                n_ins += 1
                object_cells[oid] = new_cid
                ms = marks_store[new_cid]
                if ms:
                    for qid in ms:
                        if qid in updated_qids:
                            continue
                        state, nn, pqx, pqy, ispt = probes[qid]
                        if oid in nn._dists:
                            continue
                        if ispt:
                            d = hypot(nx - pqx, ny - pqy)
                        else:
                            if not state.strategy.accepts(nx, ny, oid):
                                continue
                            d = state.strategy.dist(nx, ny)
                        if d <= state.best_dist:
                            sc = scratch_get(qid)
                            if sc is None:
                                sc = scratch[qid] = self._acquire_scratch(state)
                            sc.incomers[oid] = d
                continue
            # Disappearance: off-line NNs are outgoing ones (Section
            # 4.2).  (Inlined Grid.delete_at, as in the move path.)
            old_cid = object_cells.pop(oid)
            cell = cells_store[old_cid]
            idx = None if cell is None else cell.slot.pop(oid, None)
            if idx is None:
                raise KeyError(
                    f"object {oid} not found in cell {grid.unpack(old_cid)}"
                )
            coids = cell.oids
            last_oid = coids.pop()
            lx = cell.xs.pop()
            ly = cell.ys.pop()
            if last_oid != oid:
                coids[idx] = last_oid
                cell.xs[idx] = lx
                cell.ys[idx] = ly
                cell.slot[last_oid] = idx
            elif not coids:
                grid._occupied -= 1
            grid._n_objects -= 1
            n_del += 1
            ms = marks_store[old_cid]
            if ms:
                for qid in ms:
                    if qid in updated_qids:
                        continue
                    state, nn, _pqx, _pqy, _ispt = probes[qid]
                    sc = scratch_get(qid)
                    if oid in nn._dists:
                        if sc is None:
                            sc = scratch[qid] = self._acquire_scratch(state)
                        del nn._dists[oid]
                        sc.out_count += 1
                    elif sc is not None:
                        sc.incomers.pop(oid, None)

        if n_del or n_ins:
            stats.deletes += n_del
            stats.inserts += n_ins
        return appeared

    def _finish_cycle(
        self,
        scratch: dict[int, CycleScratch],
        query_updates: Sequence[QueryUpdate],
        keep_before: bool,
    ) -> CycleChanges:
        """The cycle tail: finalize the touched queries (Figure 3.8 lines
        17-24), then run the query-update phase of Figure 3.9; returns
        the cycle's changes (:meth:`ContinuousMonitor._cycle`)."""
        queries = self._queries
        changes: CycleChanges = ({}, {})
        before, after = changes
        for qid, sc in scratch.items():
            state = queries[qid]
            self._finalize_query(state, sc)
            # Exact change detection against the pre-cycle result: a
            # NN that leaves and returns (or re-keys back) to the same
            # distance within one cycle is correctly a no-op.
            entries = state.nn._entries
            if entries != sc.before:
                before[qid] = sc.before
                after[qid] = entries
        self._scratch_pool.extend(scratch.values())

        self._apply_query_updates(query_updates, changes, keep_before)
        return changes

    def _finalize_query(self, state: QueryState, sc: CycleScratch) -> None:
        """Lines 17-24 of Figure 3.8: merge when the incomers can replace
        the outgoing NNs, otherwise re-compute.  Either arm ends the
        query's stale window — the merge sorts its NN list, the one
        ordering operation of update handling; re-computation rebuilds
        the list from the grid."""
        if self.merge_optimization:
            can_merge = len(sc.incomers) >= sc.out_count
        else:
            # Ablation: Section 3.2 single-update semantics — any outgoing
            # NN forces a re-computation.
            can_merge = sc.out_count == 0
        if can_merge:
            state.nn.merge(sc.incomers)
            new_best = state.nn.kth_dist
            assert new_best <= state.best_dist or state.best_dist == float("inf")
            state.best_dist = new_best
            # The influence region can only shrink here (Section 3.3).
            state.reconcile_marks(self._grid, processed_upto=state.marked_upto)
        elif self.reuse_bookkeeping:
            self._recompute(state)
        else:
            self._recompute_from_scratch(state)
