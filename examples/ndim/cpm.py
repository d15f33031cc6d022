"""d-dimensional CPM monitor (correctness-focused port of Section 3).

Implements the full pipeline — NN computation, book-keeping, NN
re-computation and batched update handling with the incomers/out_count
merge — for point k-NN queries in any dimensionality, over
:class:`ndim.grid.NdGrid` and :class:`ndim.partition.NdConceptualPartition`.

Per-axis cell sides may differ (non-cubic workspaces); each direction's
key then steps by its own axis ``δ_a`` per level, which preserves the
Lemma 3.1 recurrence direction by direction.  Slab keys are computed per
level (:meth:`NdCPMMonitor._slab_key`), not accumulated, so the visit
list stays sorted.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right, insort
from collections.abc import Iterable, Sequence

from ndim.grid import NdCell, NdGrid, NdGridStats, NdPoint
from ndim.partition import NdConceptualPartition

_CELL = 0
_SLAB = 1

ResultEntry = tuple[float, int]


class _KBest:
    """The k best ``(dist, oid)`` pairs: a sorted ``entries`` list plus
    the ``dists`` map (oid -> dist) of the same members.

    Both containers are rebound, never edited in place, once a cycle has
    handed ``entries`` out as a query's pre-cycle result.
    """

    __slots__ = ("dists", "entries", "k")

    def __init__(self, k: int) -> None:
        self.k = k
        self.entries: list[ResultEntry] = []
        self.dists: dict[int, float] = {}

    @property
    def kth_dist(self) -> float:
        """``best_dist``: the k-th distance, ``inf`` while under-full."""
        entries = self.entries
        return entries[self.k - 1][0] if len(entries) >= self.k else math.inf

    def add(self, d: float, oid: int) -> None:
        """Keep ``(d, oid)`` if it is among the k best (``oid`` not a member)."""
        entries = self.entries
        entry = (d, oid)
        if len(entries) >= self.k:
            if entry >= entries[-1]:
                return
            del self.dists[entries.pop()[1]]
        insort(entries, entry)
        self.dists[oid] = d

    def merge(self, incomers: dict[int, float]) -> None:
        """Re-rank the (edited) members together with ``incomers``."""
        dists = self.dists
        ordered = sorted(
            [*zip(dists.values(), dists), *zip(incomers.values(), incomers)]
        )[: self.k]
        self.entries = ordered
        self.dists = {oid: d for d, oid in ordered}


class _Scratch:
    """One touched query's record for the current cycle (Figure 3.8)."""

    __slots__ = ("before", "incomers", "out_count")

    def __init__(self, before: list[ResultEntry]) -> None:
        self.before = before
        self.incomers: dict[int, float] = {}
        self.out_count = 0


class _NdQueryState:
    __slots__ = (
        "best_dist",
        "heap",
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
        self.partition = partition
        self.heap: list = []
        self.visit_cells: list[NdCell] = []
        self.visit_keys: list[float] = []
        self.nn = _KBest(k)
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
    def stats(self) -> NdGridStats:
        return self._grid.stats

    def reset_stats(self) -> None:
        self._grid.stats.reset()

    def best_dist(self, qid: int) -> float:
        return self._queries[qid].best_dist

    # ------------------------------------------------------------------
    # Objects and queries
    # ------------------------------------------------------------------

    def load_objects(self, objects: Iterable[tuple[int, NdPoint]]) -> None:
        if self._queries:
            raise RuntimeError(
                "bulk loading after query installation would corrupt results; "
                "send appearance updates instead"
            )
        for oid, point in objects:
            self._grid.insert(oid, point)

    def install_query(self, qid: int, point: NdPoint, k: int = 1) -> list[ResultEntry]:
        if qid in self._queries:
            raise KeyError(f"query {qid} is already installed")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
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
                state.push_slab(self._slab_key(state, direction, 0), direction, 0)
        self._run_search(state)
        state.best_dist = state.nn.kth_dist
        self._reconcile_marks(state, processed_upto=len(state.visit_cells))
        self._queries[qid] = state
        return list(state.nn.entries)

    def remove_query(self, qid: int) -> None:
        state = self._queries.pop(qid)
        for idx in range(state.marked_upto):
            self._grid.remove_mark(state.visit_cells[idx], qid)

    def result(self, qid: int) -> list[ResultEntry]:
        return list(self._queries[qid].nn.entries)

    # ------------------------------------------------------------------
    # Search internals
    # ------------------------------------------------------------------

    def _slab_key(self, state: _NdQueryState, direction: int, level: int) -> float:
        """Perpendicular gap from the query to a slab, spelled as
        :meth:`NdGrid.mindist` spells its cells' near face, so no cell
        keys below the slab that en-heaps it (an accumulated ``key + δ``
        can, by an ulp, and the visit list would come out unsorted)."""
        partition = state.partition
        axis, sign = partition.direction_axis_sign(direction)
        lo_w = self._grid.bounds[axis][0]
        delta = self._grid.deltas[axis]
        value = state.point[axis]
        if sign > 0:
            gap = lo_w + (partition.core_hi[axis] + level + 1) * delta - value
        else:
            gap = value - (lo_w + (partition.core_lo[axis] - level - 1) * delta + delta)
        return math.sqrt(gap * gap) if gap > 0.0 else 0.0

    def _run_search(self, state: _NdQueryState) -> None:
        grid = self._grid
        q = state.point
        nn = state.nn
        heap = state.heap
        partition = state.partition
        # kth_dist is inf while under-full, so an unfinished search never stops.
        while heap and heap[0][0] < nn.kth_dist:
            key, _seq, kind, payload = heapq.heappop(heap)
            if kind == _CELL:
                # The scan is bounded by the k-th distance at cell entry:
                # a superset of what the running bound keeps, and add()
                # makes the final (dist, oid)-ordered decision.
                for d, oid in grid.scan_within(payload, q, nn.kth_dist):
                    nn.add(d, oid)
                grid.add_mark(payload, state.qid)
                state.visit_cells.append(payload)
                state.visit_keys.append(key)
                state.marked_upto = len(state.visit_cells)
            else:
                direction, level = payload
                for cell in partition.slab_cells(direction, level):
                    state.push_cell(grid.mindist(cell, q), cell)
                if partition.exists(direction, level + 1):
                    state.push_slab(
                        self._slab_key(state, direction, level + 1), direction, level + 1
                    )

    def _recompute(self, state: _NdQueryState) -> None:
        grid = self._grid
        q = state.point
        nn = state.nn = _KBest(state.nn.k)
        pos = 0
        total = len(state.visit_cells)
        while pos < total and state.visit_keys[pos] < nn.kth_dist:
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

    def process(self, object_updates: Sequence) -> set[int]:
        """One cycle over update rows carrying ``oid`` / ``old`` / ``new``
        (``old`` ``None`` for an appearance, ``new`` ``None`` for a
        disappearance); returns the ids of queries whose result changed.

        The loop edits each touched query's ``dists`` map and collects
        incomers unordered; the finalize below orders each touched list
        once, by merge or by re-computation."""
        grid = self._grid
        queries = self._queries
        scratch: dict[int, _Scratch] = {}

        for upd in object_updates:
            oid = upd.oid
            new = None if upd.new is None else tuple(upd.new)
            if upd.old is not None:
                for qid in grid.marks(grid.delete(oid, upd.old)):
                    state = queries[qid]
                    sc = scratch.get(qid)
                    dists = state.nn.dists
                    if oid in dists:
                        if sc is None:
                            sc = scratch[qid] = _Scratch(state.nn.entries)
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
                for qid in grid.marks(grid.insert(oid, new)):
                    state = queries[qid]
                    if oid in state.nn.dists:
                        continue
                    d = math.dist(new, state.point)
                    if d <= state.best_dist:
                        sc = scratch.get(qid)
                        if sc is None:
                            sc = scratch[qid] = _Scratch(state.nn.entries)
                        sc.incomers[oid] = d

        changed: set[int] = set()
        for qid, sc in scratch.items():
            state = queries[qid]
            if len(sc.incomers) >= sc.out_count:
                state.nn.merge(sc.incomers)
                state.best_dist = state.nn.kth_dist
                self._reconcile_marks(state, processed_upto=state.marked_upto)
            else:
                self._recompute(state)
            if state.nn.entries != sc.before:
                changed.add(qid)
        return changed
