"""Per-query book-keeping: the query-table entry of Figure 3.3a.

For every installed query CPM stores (Section 3.1):

* the current result ``best_NN`` and its ``best_dist``,
* the **visit list** — every cell processed during NN search, in ascending
  ``mindist`` order ("each cell entry de-heaped from H is inserted at the
  end of the list"),
* the **search heap** ``H`` — entries en-heaped but not de-heaped,
* the influence-region information.

The influence region is the set of cells that intersect the circle (for
aggregate queries: the iso-distance contour) with radius ``best_dist``; the
cells of the grid carrying this query's mark are always a *prefix* of the
visit list, tracked by ``marked_upto``.  Shrinking ``best_dist`` therefore
unmarks a suffix slice of the prefix; re-computation extends it.  This is
the "scan the cells c in the visit list with ``mindist(c,q)`` between the
new and the old value of ``best_dist``" of Section 3.3, made explicit.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.core.heap import SearchHeap
from repro.core.neighbors import NeighborList, ResultEntry
from repro.core.partition import ConceptualPartition
from repro.core.strategies import PointNNStrategy, QueryStrategy
from repro.grid.cell import CellCoord
from repro.grid.grid import Grid


class QueryState:
    """Book-keeping for one installed query (a row of the query table QT).

    ``is_point`` / ``qx`` / ``qy`` cache the plain point-NN geometry so the
    engine's inner loops (cell scans, update filtering) can compute the
    Euclidean distance inline instead of dispatching through the strategy —
    the overwhelmingly common query type pays no virtual-call tax.
    """

    __slots__ = (
        "best_dist",
        "heap",
        "is_point",
        "k",
        "marked_upto",
        "nn",
        "partition",
        "qid",
        "qx",
        "qy",
        "rows",
        "strategy",
        "visit_cids",
        "visit_keys",
    )

    def __init__(
        self, qid: int, strategy: QueryStrategy, k: int, partition: ConceptualPartition
    ) -> None:
        self.qid = qid
        self.k = k
        self.strategy = strategy
        self.partition = partition
        #: grid row count — the packing factor of the visit-list cids.
        self.rows = partition.rows
        self.heap = SearchHeap()
        # The visit list stores *packed* cell ids (cid = i * rows + j):
        # the hot consumers (re-computation rescans, influence-mark
        # reconciliation) index the grid's flat stores directly, and no
        # coordinate tuple is allocated per processed cell.  The
        # coordinate view is exposed by :attr:`visit_cells`.
        self.visit_cids: list[int] = []
        self.visit_keys: list[float] = []
        self.nn = NeighborList(k)
        self.best_dist = float("inf")
        self.marked_upto = 0
        if type(strategy) is PointNNStrategy:
            self.is_point = True
            self.qx = strategy.x
            self.qy = strategy.y
        else:
            self.is_point = False
            self.qx = 0.0
            self.qy = 0.0

    # ------------------------------------------------------------------
    # Visit list
    # ------------------------------------------------------------------

    def append_visit(self, key: float, cell: CellCoord) -> None:
        """Record a processed cell at the end of the visit list.

        De-heap order is ascending, so the parallel key list stays sorted —
        the precondition for the bisect-based influence reconciliation.
        """
        self.visit_cids.append(cell[0] * self.rows + cell[1])
        self.visit_keys.append(key)

    @property
    def visit_cells(self) -> list[CellCoord]:
        """The visit list as coordinate pairs (diagnostics/tests view)."""
        rows = self.rows
        return [divmod(cid, rows) for cid in self.visit_cids]

    @property
    def visit_length(self) -> int:
        return len(self.visit_cids)

    def influence_cells(self) -> list[CellCoord]:
        """Cells currently carrying this query's influence mark."""
        rows = self.rows
        return [divmod(cid, rows) for cid in self.visit_cids[: self.marked_upto]]

    def csh(self) -> int:
        """``C_SH``: cells stored in the visit list or the search heap
        (the space quantity analyzed in Section 4.1)."""
        return len(self.visit_cids) + self.heap.cell_entry_count()

    # ------------------------------------------------------------------
    # Influence-list reconciliation
    # ------------------------------------------------------------------

    def reconcile_marks(self, grid: Grid, processed_upto: int) -> None:
        """Restore the marked-prefix invariant after ``best_dist`` changed.

        Args:
            processed_upto: number of leading visit entries whose cells were
                scanned for the *current* result (cells beyond it may only
                stay marked if they still fall within ``best_dist`` — they
                cannot, since scanning stopped at the first key >=
                ``best_dist``).

        The target prefix covers every visit cell with key <= ``best_dist``
        (closed-circle intersection, so the cell housing the k-th NN always
        stays marked) but never cells that were not scanned for the current
        result.  A few ulps of slack guard the closed-circle rule against
        floating-point jitter in the cell keys: the k-th NN's own cell may
        compute a key a hair *above* the NN's distance (e.g. boundary cells
        after clamping), and unmarking it would make that NN's departure
        invisible.
        """
        target = bisect_right(
            self.visit_keys, self.best_dist + grid.boundary_epsilon
        )
        if target > processed_upto:
            target = processed_upto
        current = self.marked_upto if self.marked_upto > processed_upto else processed_upto
        if target < current:
            qid = self.qid
            cids = self.visit_cids
            # Inlined Grid.remove_mark over the live mark store (visit
            # cells are always in bounds; same counter semantics).
            marks_store = grid._marks
            removed = 0
            for idx in range(target, current):
                ms = marks_store[cids[idx]]
                if ms and qid in ms:
                    ms.remove(qid)
                    removed += 1
            if removed:
                grid._mark_count -= removed
                grid.stats.mark_ops += removed
        self.marked_upto = target

    def unmark_all(self, grid: Grid) -> None:
        """Remove every influence mark (query termination, Figure 3.9)."""
        qid = self.qid
        cids = self.visit_cids
        # Inlined Grid.remove_mark (see reconcile_marks).
        marks_store = grid._marks
        removed = 0
        for idx in range(self.marked_upto):
            ms = marks_store[cids[idx]]
            if ms and qid in ms:
                ms.remove(qid)
                removed += 1
        if removed:
            grid._mark_count -= removed
            grid.stats.mark_ops += removed
        self.marked_upto = 0

    # ------------------------------------------------------------------
    # Carriage between engines (live migration, partition checkpoints)
    # ------------------------------------------------------------------

    def export(self) -> dict:
        """This row of QT as plain data; :meth:`adopt` is the inverse.

        The lists are copies, so the record shares no mutable state with
        the live query (the strategy object travels as is).
        """
        return {
            "qid": self.qid,
            "k": self.k,
            "strategy": self.strategy,
            "entries": self.nn.entries(),
            "best_dist": self.best_dist,
            "visit_cids": list(self.visit_cids),
            "visit_keys": list(self.visit_keys),
            "marked_upto": self.marked_upto,
            "heap": self.heap.export(),
        }

    @classmethod
    def adopt(cls, record: dict, grid: Grid) -> "QueryState":
        """Rebuild an exported query over ``grid`` with its book-keeping
        verbatim — no search — and put its influence marks on the grid.

        The marks go on *uncounted* (no ``mark_ops``): they arrive with
        the query, a storage motion the single engine never performs.
        """
        strategy = record["strategy"]
        state = cls(
            record["qid"], strategy, record["k"], strategy.partition(grid)
        )
        state.nn.replace(record["entries"])
        state.best_dist = record["best_dist"]
        state.visit_cids = list(record["visit_cids"])
        state.visit_keys = list(record["visit_keys"])
        state.marked_upto = record["marked_upto"]
        state.heap.adopt(record["heap"])
        qid = state.qid
        marks_store = grid._marks
        for cid in state.visit_cids[: state.marked_upto]:
            ms = marks_store[cid]
            if ms is None:
                marks_store[cid] = {qid}
            else:
                ms.add(qid)
        grid._mark_count += state.marked_upto
        return state

    def detach_marks(self, grid: Grid) -> None:
        """Take the influence marks off ``grid`` uncounted, keeping
        ``marked_upto``: the marks leave with :meth:`export`'s record
        and :meth:`adopt` puts the same prefix on the adopting grid."""
        qid = self.qid
        marks_store = grid._marks
        for cid in self.visit_cids[: self.marked_upto]:
            marks_store[cid].remove(qid)
        grid._mark_count -= self.marked_upto

    # ------------------------------------------------------------------
    # Low-memory fallback
    # ------------------------------------------------------------------

    def drop_bookkeeping(self) -> None:
        """Discard the search heap and the visit list (Section 3.3): "in
        case that the physical memory of the system is exhausted, we can
        directly discard the search heap and the visit list of q to free
        space".  The influence marks must be re-derivable, so callers must
        have unmarked the grid first; monitoring continues with NN
        computation from scratch instead of re-computation."""
        if self.marked_upto:
            raise RuntimeError("unmark the grid before dropping book-keeping")
        self.heap.clear()
        self.visit_cids.clear()
        self.visit_keys.clear()

    def result_entries(self) -> list[tuple[float, int]]:
        """Current result as ascending ``(dist, oid)`` pairs."""
        return self.nn.entries()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryState(qid={self.qid}, k={self.k}, |NN|={len(self.nn)}, "
            f"best_dist={self.best_dist:.6g}, visit={len(self.visit_cids)}, "
            f"marked={self.marked_upto}, heap={len(self.heap)})"
        )


class CycleScratch:
    """Per-cycle record of the update-handling module (Figure 3.8).

    The paper resets ``out_count`` and the incomer list for every query at
    the start of each cycle; we allocate them lazily on first touch, which is
    observationally equivalent and O(touched queries) instead of O(n).
    Instances are pooled by the monitor and recycled across cycles via
    :meth:`reset`, so steady-state update handling allocates no scratch
    objects at all.

    Nothing here is ordered.  A scratch exists exactly while its query is
    *touched*: from then until the engine's finalize the query's
    ``nn._dists`` is live, ``nn._entries`` is the stale pre-cycle result
    (which :attr:`before` keeps once finalize has rebound it), and
    the incomers wait in a plain dict — finalize ranks NNs and incomers
    together, once (:meth:`NeighborList.merge`).
    """

    __slots__ = ("before", "incomers", "out_count")

    def __init__(self) -> None:
        #: NNs that left the result this cycle (moved out or went off-line).
        self.out_count = 0
        #: oid -> dist of every non-NN that moved within ``best_dist``, at
        #: its latest position.  Unbounded where the paper keeps "the k
        #: best incomers": ``out_count <= k``, so ``len(incomers) >=
        #: out_count`` decides the same, and the k best of NNs ∪ incomers
        #: are the k best of NNs ∪ k-best-incomers.
        self.incomers: dict[int, float] = {}
        #: the query's result list at the start of the cycle, taken at
        #: scratch acquisition (before the first NN-list mutation); the
        #: exact reference for change detection and the ``before`` of
        #: the query's change.
        self.before: list[ResultEntry] | None = None

    def reset(self) -> None:
        """Recycle this scratch for another query."""
        self.out_count = 0
        self.incomers.clear()
        self.before = None
