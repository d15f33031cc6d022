"""Abstract interface shared by every continuous k-NN monitor.

CPM, YPK-CNN, SEA-CNN and the brute-force reference all implement
:class:`ContinuousMonitor`, so the replay loop
(:meth:`repro.api.session.Session.replay`), the experiment drivers and the
cross-algorithm equivalence tests can treat them interchangeably.

An engine implements exactly one cycle: the :meth:`ContinuousMonitor._cycle`
hook over a columnar :class:`repro.updates.FlatUpdateBatch`.  The public
cycle names — ``process``, ``process_batch``, ``process_flat``,
``process_deltas``, ``process_deltas_flat`` — are adapters defined once
here: the row names columnarize with ``FlatUpdateBatch.from_updates``.
The hook returns what the cycle changed as before/after result maps,
which the plain names reduce to a changed-id set and the delta names
diff — capture is the cycle's return value, not a side channel.

Results are lists of ``(distance, object_id)`` pairs sorted ascending by
``(distance, object_id)``; ties on distance are broken by object id in every
implementation so identical inputs produce identical outputs.
"""

from __future__ import annotations

import pickle
from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.geometry.points import Point
from repro.grid.stats import GridStats
from repro.service.deltas import ResultDelta, diff_results
from repro.updates import (
    FlatUpdateBatch,
    ObjectUpdate,
    QueryUpdate,
    QueryUpdateKind,
    UpdateBatch,
)

ResultEntry = tuple[float, int]

#: what one cycle changed, ``(before, after)`` (see
#: :meth:`ContinuousMonitor._cycle`): two ``qid -> result`` maps rather
#: than a pair per query, so the plain cycle keeps no object per change.
CycleChanges = tuple[
    dict[int, list[ResultEntry]], dict[int, list[ResultEntry] | None]
]


@dataclass(slots=True)
class QueryRecord:
    """One installed query, reduced to its installation parameters.

    Exactly one of ``point`` (plain point k-NN) or ``strategy`` (any
    strategy-backed query: constrained, range, aggregate, filtered) is
    set.  Strategies are engine-state-free by contract (the filtered tag
    table is rebound at install), so a record re-installs cleanly on a
    fresh engine.
    """

    qid: int
    k: int
    point: Point | None = None
    strategy: object | None = None


@dataclass(slots=True)
class MonitorState:
    """Picklable logical state of a monitor (see :meth:`capture_state`).

    Holds everything needed to rebuild an engine that *answers
    identically*: object positions, attribute tags, installed queries (in
    installation order) and the access-counter totals.  It deliberately
    excludes search bookkeeping (visit lists, heaps, influence marks) —
    that state is reconstructed by re-running the installation searches.
    """

    name: str
    objects: list[tuple[int, Point]] = field(default_factory=list)
    tags: dict[int, frozenset[str]] = field(default_factory=dict)
    queries: list[QueryRecord] = field(default_factory=list)
    stats: GridStats = field(default_factory=GridStats)


class ContinuousMonitor(ABC):
    """A continuous k-NN monitoring algorithm over moving 2D objects."""

    #: short algorithm name used in reports ("CPM", "YPK-CNN", ...).
    name: str = "abstract"

    #: lazily created ``oid -> frozenset(tags)`` table backing filtered
    #: queries (:class:`repro.core.strategies.FilteredStrategy`); shared
    #: by reference with every installed filter strategy.
    _object_tags: dict[int, frozenset[str]] | None = None

    # ------------------------------------------------------------------
    # Object attributes (filtered-subscription support)
    # ------------------------------------------------------------------

    @property
    def tag_table(self) -> dict[int, frozenset[str]]:
        """The live ``oid -> tags`` table (created on first touch)."""
        if self._object_tags is None:
            self._object_tags = {}
        return self._object_tags

    def set_object_tags(self, tags: dict[int, Iterable[str]]) -> None:
        """Merge attribute tags into the object tag table.

        An empty (or ``None``) tag set removes the object's entry.  Tag
        changes are visible to filtered queries from the next cycle that
        *touches* the object — a pure tag change does not itself
        re-evaluate results; pair it with a disappear+appear update when
        immediate re-evaluation is required.
        """
        table = self.tag_table
        for oid, tag_set in tags.items():
            if tag_set:
                table[int(oid)] = frozenset(str(t) for t in tag_set)
            else:
                table.pop(int(oid), None)

    # ------------------------------------------------------------------
    # Object population
    # ------------------------------------------------------------------

    @abstractmethod
    def load_objects(self, objects: Iterable[tuple[int, Point]]) -> None:
        """Bulk-load the initial object population (before any query)."""

    @abstractmethod
    def object_position(self, oid: int) -> Point | None:
        """Current position of an object, or ``None`` when off-line."""

    @property
    @abstractmethod
    def object_count(self) -> int:
        """Number of objects currently on-line."""

    # ------------------------------------------------------------------
    # Query management
    # ------------------------------------------------------------------

    @abstractmethod
    def install_query(self, qid: int, point: Point, k: int = 1) -> list[ResultEntry]:
        """Register a point k-NN query and return its initial result."""

    @abstractmethod
    def remove_query(self, qid: int) -> None:
        """Terminate a query and drop all its book-keeping."""

    @abstractmethod
    def result(self, qid: int) -> list[ResultEntry]:
        """Current result of a registered query (ascending ``(dist, oid)``)."""

    @abstractmethod
    def query_ids(self) -> list[int]:
        """Ids of all currently registered queries."""

    @abstractmethod
    def query_k(self, qid: int) -> int:
        """The ``k`` a registered query was installed with."""

    def result_table(self) -> dict[int, list[ResultEntry]]:
        """Full ``{qid: result}`` snapshot of every registered query."""
        return {qid: self.result(qid) for qid in self.query_ids()}

    def iter_objects(self) -> Iterable[tuple[int, Point]]:
        """Ascending-oid iteration of the live ``(oid, position)`` pairs.

        Feeds the wire cold-start (``sync`` with an object prologue).
        This base implementation reads the ``_positions`` side table every
        built-in baseline keeps; monitors with a different object store
        (CPM reads positions back through its cell columns) override it.
        """
        positions = getattr(self, "_positions", None)
        if positions is None:
            raise NotImplementedError(
                f"{type(self).__name__} does not enumerate its objects"
            )
        for oid in sorted(positions):
            yield oid, positions[oid]

    # ------------------------------------------------------------------
    # State capture (fault-tolerant rebuild support)
    # ------------------------------------------------------------------

    def _query_records(self) -> list[QueryRecord]:
        """Installed queries as :class:`QueryRecord`, in install order.

        Engines that support :meth:`capture_state` implement this hook;
        the base implementation refuses so capture never silently drops
        queries on an engine that keeps them elsewhere.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not enumerate its queries for capture"
        )

    def capture_state(self) -> MonitorState:
        """Snapshot the logical engine state into a :class:`MonitorState`.

        The snapshot is detached through a pickle round-trip so it shares
        no mutable structures (tag tables, strategies) with the live
        engine — it can outlive the engine, travel over a pipe, or seed a
        replacement while the original keeps running.
        """
        state = MonitorState(
            name=self.name,
            objects=list(self.iter_objects()),
            tags=dict(self._object_tags or {}),
            queries=self._query_records(),
            stats=self.stats.snapshot(),
        )
        return pickle.loads(pickle.dumps(state))

    def restore_state(self, state: MonitorState) -> None:
        """Rebuild a **fresh** engine from a captured snapshot.

        Loads the objects, replays the tag table, re-installs every query
        in its original order, then restores the access-counter totals so
        the rebuild's own search traffic is not accounted (the counters
        read as if the engine had never gone away).

        Guarantee: the restored engine returns byte-identical *results*
        to the captured one.  Future counter *deltas* may diverge for
        engines whose per-query bookkeeping evolves beyond a fresh
        install (CPM visit lists grow with history); where byte-exact
        counter accounting matters across a rebuild, replay the command
        history instead — that is what
        :class:`repro.service.supervisor.SupervisedShardExecutor` does
        between checkpoints.
        """
        if self.object_count or self.query_ids():
            raise RuntimeError("restore_state requires a freshly built engine")
        self.load_objects(state.objects)
        if state.tags:
            self.set_object_tags(state.tags)
        for record in state.queries:
            if record.strategy is not None:
                install = getattr(self, "install_strategy_query", None)
                if install is None:
                    raise NotImplementedError(
                        f"{type(self).__name__} cannot restore a "
                        f"strategy-backed query (qid {record.qid})"
                    )
                install(record.qid, record.strategy, record.k)
            else:
                assert record.point is not None
                self.install_query(record.qid, record.point, record.k)
        self.stats.restore(state.stats)

    # ------------------------------------------------------------------
    # Stream processing: one columnar cycle per engine, adapters here
    # ------------------------------------------------------------------

    @abstractmethod
    def _cycle(
        self,
        batch: FlatUpdateBatch,
        query_updates: Sequence[QueryUpdate],
        keep_before: bool,
    ) -> CycleChanges:
        """Process one cycle — the only engine-specific cycle code.

        Applies the batch's object rows (update handling, Figure 3.8),
        then ``query_updates`` (Figure 3.9, through
        :meth:`_apply_query_updates`); the batch's own ``query_updates``
        field is not read.  Returns the cycle's ``CycleChanges``:
        ``after`` maps every query whose result changed, was inserted or
        was moved to its post-cycle result and a terminated one to
        ``None``; ``before`` maps the changed queries to their pre-cycle
        result.  Capture is this return value: each engine fills both
        maps where it already compares a query's old result with its new
        one.  A query that receives query updates enters ``before`` only
        with ``keep_before`` (the delta adapters).  ``process`` /
        ``process_flat`` pass ``False`` because holding every moved
        query's old result until the cycle ends is measurably slower:
        with ``True`` on those paths, ``python3 -m bench --workload
        engine_search --seconds 12`` (every query moves every cycle; 5
        interleaved pairs, seeds 101-105, 2-vCPU host) read
        ``cycle_ms_p50`` 277.5 -> 397.2 ms (+43%, slower in 5 of 5
        pairs), ``updates_per_s`` 36.0k -> 25.4k and peak RSS 168.1 ->
        174.8 MB.  The cause is unverified; the likeliest is that the
        held pre-cycle lists stop offsetting the cycle's gen-0
        allocations, so the collector runs more often.  The lists may be
        the engine's own — an engine never edits a result list in place
        once it has handed it out.
        """

    def process(
        self,
        object_updates: Iterable[ObjectUpdate],
        query_updates: Sequence[QueryUpdate] = (),
    ) -> set[int]:
        """Process one cycle of updates; returns ids of queries whose result
        changed (including newly inserted and moved queries)."""
        return _changed_qids(
            self._cycle(
                FlatUpdateBatch.from_updates(object_updates), query_updates, False
            )
        )

    def process_batch(self, batch: UpdateBatch) -> set[int]:
        """Process a packaged :class:`repro.updates.UpdateBatch`."""
        return self.process(batch.object_updates, batch.query_updates)

    def process_flat(
        self,
        batch: FlatUpdateBatch,
        query_updates: Sequence[QueryUpdate] | None = None,
    ) -> set[int]:
        """Process one cycle from a columnar :class:`FlatUpdateBatch`.

        ``query_updates`` overrides the batch's own query updates when
        given (the sharded monitor routes them separately).
        """
        if query_updates is None:
            query_updates = batch.query_updates
        return _changed_qids(self._cycle(batch, query_updates, False))

    def process_deltas(
        self,
        object_updates: Iterable[ObjectUpdate],
        query_updates: Sequence[QueryUpdate] = (),
    ) -> dict[int, ResultDelta]:
        """Process one cycle and report structured per-query result deltas.

        The returned mapping holds one :class:`ResultDelta` for every query
        whose result changed (the keys match :meth:`process`'s return set)
        plus a ``terminated`` delta for every query removed this cycle.
        """
        return _diff_changes(
            self._cycle(
                FlatUpdateBatch.from_updates(object_updates), query_updates, True
            )
        )

    def process_deltas_flat(
        self,
        batch: FlatUpdateBatch,
        query_updates: Sequence[QueryUpdate] | None = None,
    ) -> dict[int, ResultDelta]:
        """Delta-reporting twin of :meth:`process_flat`."""
        if query_updates is None:
            query_updates = batch.query_updates
        return _diff_changes(self._cycle(batch, query_updates, True))

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    @property
    @abstractmethod
    def stats(self) -> GridStats:
        """Grid access counters (cell scans etc.) for the current run."""

    def reset_stats(self) -> None:
        """Zero the access counters (the engine calls this between cycles)."""
        self.stats.reset()

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    def apply_query_update(self, update: QueryUpdate) -> None:
        """Apply one query update (Figure 3.9).

        A moving query is a termination followed by an insertion at the
        new location; a ``MOVE`` that carries no ``k`` keeps the query's.
        """
        if update.kind is QueryUpdateKind.TERMINATE:
            self.remove_query(update.qid)
            return
        k = update.k
        if update.kind is QueryUpdateKind.MOVE:
            if k is None:
                k = self.query_k(update.qid)
            self.remove_query(update.qid)
        assert update.point is not None
        self.install_query(update.qid, update.point, k or 1)

    def _live_result(self, qid: int) -> list[ResultEntry] | None:
        """The engine's own result list of an installed query (not a
        copy: read it, never edit it), ``None`` when ``qid`` is not
        installed.  Reads the ``_queries`` table of the baselines, whose
        query records keep their result as ``entries``."""
        query = self._queries.get(qid)
        return None if query is None else query.entries

    def _apply_query_updates(
        self,
        query_updates: Sequence[QueryUpdate],
        changes: CycleChanges,
        keep_before: bool,
    ) -> None:
        """The query-update phase of a cycle (Figure 3.9 lines 5-9), in
        stream order.  Every updated query enters ``after`` with the
        outcome of its last update; with ``keep_before``, one that was
        installed at its first update of the cycle enters ``before`` with
        the result it held then (a query object handling changed is
        already there)."""
        before, after = changes
        live_result = self._live_result
        terminate = QueryUpdateKind.TERMINATE
        for qu in query_updates:
            qid = qu.qid
            if keep_before and qid not in after:
                held = live_result(qid)
                if held is not None:
                    before[qid] = held
            self.apply_query_update(qu)
            after[qid] = None if qu.kind is terminate else live_result(qid)


def _changed_qids(changes: CycleChanges) -> set[int]:
    """The ``process`` view of a cycle: every query with a result after it."""
    return {qid for qid, result in changes[1].items() if result is not None}


def _diff_changes(changes: CycleChanges) -> dict[int, ResultDelta]:
    """The ``process_deltas`` view of a cycle: one diff per change."""
    before, after = changes
    return {
        qid: diff_results(
            qid, before.get(qid, []), result or [], terminated=result is None
        )
        for qid, result in after.items()
    }
