"""The ``best_NN`` list: the k best neighbors found so far.

The paper implements ``best_NN`` as a red-black tree so that probing an
object against the result costs ``log k`` (Section 4.1).  In Python a sorted
list with ``bisect`` gives the same asymptotics with far smaller constants
for the paper's k range (1..256).

Ordering is total on ``(distance, object id)`` so that distance ties resolve
deterministically — every monitor in this library uses the same order, which
lets the equivalence tests compare results exactly.

**Where ordering happens.**  A list is ordered in exactly two places: a
*search* (NN computation / re-computation) inserts candidates in order
through :meth:`NeighborList.add`, and update handling orders a touched
query **once per cycle**, in :meth:`NeighborList.merge` — the paper's
``k log k`` "re-ordering of ``best_NN``" term (Section 4.1).  In between,
the update loop of Figure 3.8 edits only the oid -> distance map
(``_dists``): a re-keyed NN is one dict store, an outgoing NN one ``del``.
Hence the *touched-until-finalize* invariant of :mod:`repro.core.cpm`:
from a query's first touch in a cycle until its finalize, ``_dists`` is
live and ``_entries`` is still the intact pre-cycle result, so nothing may
read ``entries()`` / ``kth_dist`` / ``len()`` of a touched query before
then (membership, ``in``, reads the live map and is fine).
"""

from __future__ import annotations

import math
from bisect import insort

ResultEntry = tuple[float, int]

_INF = math.inf


class NeighborList:
    """Capacity-bounded sorted list of ``(dist, oid)`` pairs.

    Holds at most ``k`` entries; :meth:`add` keeps the k best seen.  During
    CPM update handling the engine edits the distance map directly —
    outgoing NNs are deleted, NNs that moved within ``best_dist`` re-keyed —
    and :meth:`merge` then rebuilds the ordered entries once (see the
    module docstring for the window in which the two views disagree).
    """

    __slots__ = ("k", "_dists", "_entries")

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self._entries: list[ResultEntry] = []
        self._dists: dict[int, float] = {}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, oid: int) -> bool:
        return oid in self._dists

    def __iter__(self):
        return iter(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.k

    @property
    def kth_dist(self) -> float:
        """Distance of the k-th neighbor — the ``best_dist`` of Table 3.1.

        ``inf`` while fewer than k neighbors are known, so that search
        pruning (``mindist >= best_dist``) naturally keeps going.
        """
        if len(self._entries) < self.k:
            return _INF
        return self._entries[self.k - 1][0]

    def entries(self) -> list[ResultEntry]:
        """Copy of the entries in ascending ``(dist, oid)`` order."""
        return list(self._entries)

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    def add(self, dist: float, oid: int) -> bool:
        """Offer a candidate; keep it if it is among the k best so far.

        Returns ``True`` when the candidate entered the list.  The candidate
        must not already be a member.
        """
        if oid in self._dists:
            raise KeyError(f"object {oid} already in the neighbor list")
        entry = (dist, oid)
        if len(self._entries) < self.k:
            insort(self._entries, entry)
            self._dists[oid] = dist
            return True
        if entry < self._entries[-1]:
            evicted = self._entries.pop()
            del self._dists[evicted[1]]
            insort(self._entries, entry)
            self._dists[oid] = dist
            return True
        return False

    def merge(self, incomers: dict[int, float]) -> None:
        """Order the list for this cycle: the k best of the live distance
        map plus ``incomers`` (oid -> dist; no oid may be a member).

        The one place update handling sorts.  The keys being disjoint,
        no deduplication pass is needed (contrast :meth:`replace`).  Both
        containers are rebound, never edited in place, so the pre-cycle
        ``_entries`` list stays valid as the query's ``before``.
        """
        dists = self._dists
        ordered = sorted(
            [*zip(dists.values(), dists), *zip(incomers.values(), incomers)]
        )
        del ordered[self.k :]
        self._entries = ordered
        self._dists = {oid: dist for dist, oid in ordered}

    def replace(self, entries: list[ResultEntry]) -> None:
        """Reset the list to the k best of ``entries`` (deduplicated ids)."""
        best: dict[int, float] = {}
        for dist, oid in entries:
            cur = best.get(oid)
            if cur is None or dist < cur:
                best[oid] = dist
        ordered = sorted((dist, oid) for oid, dist in best.items())
        self._entries = ordered[: self.k]
        self._dists = {oid: dist for dist, oid in self._entries}

    def clear(self) -> None:
        """Empty the list by rebinding (re-computation starts here), so a
        result list already handed out is never edited."""
        self._entries = []
        self._dists = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shown = ", ".join(f"{oid}@{dist:.4g}" for dist, oid in self._entries[:4])
        extra = "..." if len(self._entries) > 4 else ""
        return f"NeighborList(k={self.k}, [{shown}{extra}])"
