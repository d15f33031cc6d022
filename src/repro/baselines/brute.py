"""Brute-force continuous monitor — the correctness oracle.

Recomputes every query by a full scan over all on-line objects at every
cycle.  O(N) per query per cycle, no grid, no book-keeping; used by the
test suite as ground truth for every other monitor (it supports arbitrary
query strategies, so it also validates the aggregate and constrained
extensions of Section 5).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.strategies import PointNNStrategy, QueryStrategy
from repro.geometry.points import Point
from repro.grid.stats import GridStats
from repro.monitor import ContinuousMonitor, CycleChanges, QueryRecord, ResultEntry
from repro.updates import FlatUpdateBatch, QueryUpdate


class _BruteQuery:
    __slots__ = ("entries", "k", "strategy")

    def __init__(self, strategy: QueryStrategy, k: int) -> None:
        self.strategy = strategy
        self.k = k
        self.entries: list[ResultEntry] = []


class BruteForceMonitor(ContinuousMonitor):
    """Full-scan reference monitor (exact, strategy-generic, slow)."""

    name = "BruteForce"

    def __init__(self) -> None:
        self._positions: dict[int, Point] = {}
        self._queries: dict[int, _BruteQuery] = {}
        self._stats = GridStats()

    # ------------------------------------------------------------------
    # Objects
    # ------------------------------------------------------------------

    def load_objects(self, objects: Iterable[tuple[int, Point]]) -> None:
        for oid, pos in objects:
            if oid in self._positions:
                raise KeyError(f"object {oid} already loaded")
            self._positions[oid] = pos

    def object_position(self, oid: int) -> Point | None:
        return self._positions.get(oid)

    @property
    def object_count(self) -> int:
        return len(self._positions)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def install_query(self, qid: int, point: Point, k: int = 1) -> list[ResultEntry]:
        return self.install_strategy_query(qid, PointNNStrategy(point[0], point[1]), k)

    def install_strategy_query(
        self, qid: int, strategy: QueryStrategy, k: int = 1
    ) -> list[ResultEntry]:
        """Register a query with an arbitrary geometry strategy."""
        if qid in self._queries:
            raise KeyError(f"query {qid} is already installed")
        from repro.core.strategies import FilteredStrategy

        if isinstance(strategy, FilteredStrategy):
            strategy.bind_tags(self.tag_table)
        query = _BruteQuery(strategy, k)
        self._queries[qid] = query
        query.entries = self._evaluate(query)
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
            QueryRecord(qid, q.k, strategy=q.strategy)
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
        for upd in batch.to_object_updates():
            if upd.old is not None and upd.oid not in self._positions:
                raise KeyError(f"object {upd.oid} is not on-line")
            if upd.new is not None:
                if upd.old is None and upd.oid in self._positions:
                    raise KeyError(f"object {upd.oid} appeared twice")
                self._positions[upd.oid] = upd.new
            else:
                self._positions.pop(upd.oid, None)
        changes: CycleChanges = ({}, {})
        self._apply_query_updates(query_updates, changes, keep_before)
        before, after = changes
        for qid, query in self._queries.items():
            if qid in after:
                continue
            entries = self._evaluate(query)
            if entries != query.entries:
                before[qid] = query.entries
                after[qid] = query.entries = entries
        return changes

    def _evaluate(self, query: _BruteQuery) -> list[ResultEntry]:
        strategy = query.strategy
        entries = [
            (strategy.dist(x, y), oid)
            for oid, (x, y) in self._positions.items()
            if strategy.accepts(x, y, oid)
        ]
        entries.sort()
        return entries[: query.k]

    @property
    def stats(self) -> GridStats:
        """Always-zero counters (the brute monitor never touches a grid)."""
        return self._stats
