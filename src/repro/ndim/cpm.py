"""d-dimensional CPM monitor (correctness-focused port of Section 3).

Implements the full pipeline — NN computation, book-keeping, NN
re-computation and batched update handling with the incomers/out_count
merge — for point k-NN queries in any dimensionality, over
:class:`repro.ndim.grid.NdGrid` and
:class:`repro.ndim.partition.NdConceptualPartition`.

Per-axis cell sides may differ (non-cubic workspaces); each direction's
key then steps by its own axis ``δ_a`` per level, which preserves the
Lemma 3.1 recurrence direction by direction.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections.abc import Iterable, Sequence

from repro.core.bookkeeping import CycleScratch
from repro.core.neighbors import NeighborList
from repro.grid.stats import GridStats
from repro.ndim.grid import NdCell, NdGrid, NdPoint
from repro.ndim.partition import NdConceptualPartition
from repro.updates import ObjectUpdate

_CELL = 0
_SLAB = 1

ResultEntry = tuple[float, int]


class _NdQueryState:
    __slots__ = (
        "best_dist",
        "heap",
        "k",
        "marked_upto",
        "nn",
        "partition",
        "point",
        "qid",
        "visit_cells",
        "visit_keys",
        "_seq",
    )

    def __init__(
        self, qid: int, point: NdPoint, k: int, partition: NdConceptualPartition
    ) -> None:
        self.qid = qid
        self.point = point
        self.k = k
        self.partition = partition
        self.heap: list = []
        self.visit_cells: list[NdCell] = []
        self.visit_keys: list[float] = []
        self.nn = NeighborList(k)
        self.best_dist = math.inf
        self.marked_upto = 0
        self._seq = 0

    def push_cell(self, key: float, cell: NdCell) -> None:
        self._seq += 1
        heapq.heappush(self.heap, (key, self._seq, _CELL, cell))

    def push_slab(self, key: float, direction: int, level: int) -> None:
        self._seq += 1
        heapq.heappush(self.heap, (key, self._seq, _SLAB, (direction, level)))


class NdCPMMonitor:
    """CPM continuous point-NN monitoring in d dimensions."""

    name = "CPM-nd"

    def __init__(
        self,
        cells_per_axis: int = 16,
        *,
        bounds: Sequence[tuple[float, float]] | None = None,
        dimensions: int = 3,
    ) -> None:
        self._grid = NdGrid(cells_per_axis, bounds=bounds, dimensions=dimensions)
        self._positions: dict[int, NdPoint] = {}
        self._queries: dict[int, _NdQueryState] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def grid(self) -> NdGrid:
        return self._grid

    @property
    def dimensions(self) -> int:
        return self._grid.dimensions

    @property
    def stats(self) -> GridStats:
        return self._grid.stats

    def reset_stats(self) -> None:
        self._grid.stats.reset()

    @property
    def object_count(self) -> int:
        return len(self._positions)

    def object_position(self, oid: int) -> NdPoint | None:
        return self._positions.get(oid)

    def query_ids(self) -> list[int]:
        return list(self._queries)

    def best_dist(self, qid: int) -> float:
        return self._queries[qid].best_dist

    def influence_cells(self, qid: int) -> list[NdCell]:
        state = self._queries[qid]
        return state.visit_cells[: state.marked_upto]

    # ------------------------------------------------------------------
    # Objects
    # ------------------------------------------------------------------

    def load_objects(self, objects: Iterable[tuple[int, NdPoint]]) -> None:
        if self._queries:
            raise RuntimeError(
                "bulk loading after query installation would corrupt results; "
                "send appearance updates instead"
            )
        for oid, point in objects:
            point = tuple(point)
            self._grid.insert(oid, point)
            self._positions[oid] = point

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def install_query(self, qid: int, point: NdPoint, k: int = 1) -> list[ResultEntry]:
        if qid in self._queries:
            raise KeyError(f"query {qid} is already installed")
        point = tuple(point)
        if len(point) != self.dimensions:
            raise ValueError(
                f"query has {len(point)} coordinates, grid has "
                f"{self.dimensions} dimensions"
            )
        cell = self._grid.cell_of(point)
        partition = NdConceptualPartition.around_cell(cell, self._grid.cells_per_axis)
        state = _NdQueryState(qid, point, k, partition)
        state.push_cell(self._grid.mindist(cell, point), cell)
        for direction in range(partition.direction_count):
            if partition.exists(direction, 0):
                state.push_slab(self._gap0(state, direction), direction, 0)
        self._run_search(state)
        state.best_dist = state.nn.kth_dist
        self._reconcile_marks(state, processed_upto=len(state.visit_cells))
        self._queries[qid] = state
        return state.nn.entries()

    def remove_query(self, qid: int) -> None:
        state = self._queries.pop(qid)
        for idx in range(state.marked_upto):
            self._grid.remove_mark(state.visit_cells[idx], qid)

    def result(self, qid: int) -> list[ResultEntry]:
        return self._queries[qid].nn.entries()

    # ------------------------------------------------------------------
    # Search internals
    # ------------------------------------------------------------------

    def _gap0(self, state: _NdQueryState, direction: int) -> float:
        """Perpendicular gap from the query to the level-0 slab."""
        partition = state.partition
        axis, sign = partition.direction_axis_sign(direction)
        lo_w = self._grid.bounds[axis][0]
        delta = self._grid.deltas[axis]
        if sign > 0:
            edge = lo_w + (partition.core_hi[axis] + 1) * delta
            return max(0.0, edge - state.point[axis])
        edge = lo_w + partition.core_lo[axis] * delta
        return max(0.0, state.point[axis] - edge)

    def _run_search(self, state: _NdQueryState) -> None:
        grid = self._grid
        q = state.point
        nn = state.nn
        heap = state.heap
        partition = state.partition
        while heap:
            if nn.is_full and heap[0][0] >= nn.kth_dist:
                break
            key, _seq, kind, payload = heapq.heappop(heap)
            if kind == _CELL:
                self._process_cell(state, key, payload)
            else:
                direction, level = payload
                for cell in partition.slab_cells(direction, level):
                    state.push_cell(grid.mindist(cell, q), cell)
                if partition.exists(direction, level + 1):
                    axis, _sign = partition.direction_axis_sign(direction)
                    state.push_slab(key + grid.deltas[axis], direction, level + 1)

    def _process_cell(self, state: _NdQueryState, key: float, cell: NdCell) -> None:
        q = state.point
        nn = state.nn
        # Fused scan bounded by the k-th distance as of cell entry: the
        # kernel returns a superset of what the running bound would keep,
        # and nn.add makes the final (dist, oid)-ordered accept decision,
        # so results are identical to the unbounded dict scan.
        for d, oid in self._grid.scan_within(cell, q, nn.kth_dist):
            nn.add(d, oid)
        self._grid.add_mark(cell, state.qid)
        state.visit_cells.append(cell)
        state.visit_keys.append(key)
        state.marked_upto = len(state.visit_cells)

    def _recompute(self, state: _NdQueryState) -> None:
        grid = self._grid
        q = state.point
        nn = state.nn
        nn.clear()
        pos = 0
        total = len(state.visit_cells)
        while pos < total:
            if nn.is_full and state.visit_keys[pos] >= nn.kth_dist:
                break
            cell = state.visit_cells[pos]
            for d, oid in grid.scan_within(cell, q, nn.kth_dist):
                nn.add(d, oid)
            if pos >= state.marked_upto:
                grid.add_mark(cell, state.qid)
                state.marked_upto = pos + 1
            pos += 1
        if pos == total:
            self._run_search(state)
            pos = len(state.visit_cells)
        state.best_dist = nn.kth_dist
        self._reconcile_marks(state, processed_upto=pos)

    def _reconcile_marks(self, state: _NdQueryState, processed_upto: int) -> None:
        target = bisect_right(
            state.visit_keys, state.best_dist + self._grid.boundary_epsilon
        )
        if target > processed_upto:
            target = processed_upto
        current = max(state.marked_upto, processed_upto)
        if target < current:
            for idx in range(target, current):
                self._grid.remove_mark(state.visit_cells[idx], state.qid)
        state.marked_upto = target

    # ------------------------------------------------------------------
    # Update handling (Figure 3.8, d-dimensional)
    # ------------------------------------------------------------------

    def process(self, object_updates: Sequence[ObjectUpdate]) -> set[int]:
        """One cycle, under the 2-D engine's touched-until-finalize
        protocol (:mod:`repro.core.cpm`): the loop edits each touched
        query's oid -> distance map and collects incomers unordered; the
        finalize below orders each touched list once."""
        grid = self._grid
        queries = self._queries
        scratch: dict[int, CycleScratch] = {}

        for upd in object_updates:
            oid = upd.oid
            old = upd.old
            new = upd.new
            if old is not None:
                old_cell = grid.delete(oid, old)
                for qid in grid.marks(old_cell):
                    state = queries[qid]
                    sc = scratch.get(qid)
                    dists = state.nn._dists
                    if oid in dists:
                        if sc is None:
                            sc = scratch[qid] = CycleScratch()
                            sc.before = state.nn.entries()
                        if new is not None:
                            d = math.dist(new, state.point)
                            if d <= state.best_dist:
                                dists[oid] = d
                                continue
                        del dists[oid]
                        sc.out_count += 1
                    elif sc is not None:
                        sc.incomers.pop(oid, None)
            if new is not None:
                new = tuple(new)
                new_cell = grid.insert(oid, new)
                self._positions[oid] = new
                for qid in grid.marks(new_cell):
                    state = queries[qid]
                    if oid in state.nn:
                        continue
                    d = math.dist(new, state.point)
                    if d <= state.best_dist:
                        sc = scratch.get(qid)
                        if sc is None:
                            sc = scratch[qid] = CycleScratch()
                            sc.before = state.nn.entries()
                        sc.incomers[oid] = d
            else:
                self._positions.pop(oid, None)

        changed: set[int] = set()
        for qid, sc in scratch.items():
            state = queries[qid]
            if len(sc.incomers) >= sc.out_count:
                state.nn.merge(sc.incomers)
                state.best_dist = state.nn.kth_dist
                self._reconcile_marks(state, processed_upto=state.marked_upto)
            else:
                self._recompute(state)
            # Exact change detection against the pre-cycle result captured
            # at scratch creation (same semantics as the 2-D engine).
            if state.nn.entries() != sc.before:
                changed.add(qid)
        return changed
