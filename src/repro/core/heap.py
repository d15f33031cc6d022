"""The search heap ``H`` of the CPM NN-computation module (Figure 3.4).

The heap holds two entry kinds sorted by their ``mindist`` key:

* *cell* entries ``<c, mindist(c, q)>``;
* *rectangle* entries ``<DIR_lvl, mindist(DIR_lvl, q)>``.

"At any point, the heap H contains exactly four rectangle entries, one for
each direction" (boundary boxes) — fewer once a direction's rectangles are
exhausted at the grid border.

The heap survives the initial search inside the query's book-keeping
(Section 3.1): entries that were en-heaped but never de-heaped seed the NN
*re-computation* module (Figure 3.6), which is what lets CPM resume a search
instead of restarting it.
"""

from __future__ import annotations

import heapq

CELL = 0
RECT = 1

# Entry layout: (key, seq, kind, a, b)
#   kind == CELL: a = column, b = row
#   kind == RECT: a = direction, b = level
Entry = tuple[float, int, int, int, int]


class SearchHeap:
    """Min-heap over mixed cell / rectangle entries keyed by mindist.

    A monotonically increasing sequence number breaks key ties so tuple
    comparison never reaches the payload (deterministic pop order, no
    accidental cross-kind comparisons).
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[Entry] = []
        self._seq = 0

    def push_cell(self, key: float, i: int, j: int) -> None:
        """En-heap cell ``c_{i,j}`` with key ``mindist(c, q)``."""
        self._seq += 1
        heapq.heappush(self._heap, (key, self._seq, CELL, i, j))

    def push_rect(self, key: float, direction: int, level: int) -> None:
        """En-heap rectangle ``DIR_level`` with key ``mindist(DIR, q)``."""
        self._seq += 1
        heapq.heappush(self._heap, (key, self._seq, RECT, direction, level))

    def peek_key(self) -> float:
        """Key of the next entry (``inf`` when the heap is empty)."""
        if not self._heap:
            return float("inf")
        return self._heap[0][0]

    def pop(self) -> Entry:
        """De-heap the entry with the minimum key."""
        return heapq.heappop(self._heap)

    def clear(self) -> None:
        """Drop all entries (the paper's low-memory fallback, Section 3.3)."""
        self._heap.clear()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def cell_entry_count(self) -> int:
        """Number of *cell* entries currently en-heaped.

        Together with the visit list this is the ``C_SH`` quantity of the
        Section 4.1 space analysis ("the total number of cells stored either
        in the visit list or in the search heap").
        """
        return sum(1 for entry in self._heap if entry[2] == CELL)

    def rect_entry_count(self) -> int:
        """Number of rectangle entries (the boundary boxes; at most four)."""
        return sum(1 for entry in self._heap if entry[2] == RECT)

    def entries(self) -> list[Entry]:
        """Snapshot of the raw entries (diagnostics/tests only)."""
        return list(self._heap)

    def export(self) -> tuple[list[Entry], int]:
        """The heap as plain data: raw entries in heap order plus the
        tie-break counter.  :meth:`adopt` on an empty heap rebuilds an
        identical one (same pop order, same future sequence numbers)."""
        return list(self._heap), self._seq

    def adopt(self, exported: tuple[list[Entry], int]) -> None:
        entries, self._seq = exported
        self._heap = list(entries)
