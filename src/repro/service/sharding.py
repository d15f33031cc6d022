"""Space-partitioned sharding of the monitoring workload.

The cell space of the grid is split into ``S`` contiguous column blocks
(:class:`ShardPlan`); each shard owns one block and runs a full monitoring
engine (CPM by default).  A query is placed on the shard whose block
contains its point — per-query processing (influence probes, incremental
repair, re-computation: the dominant cost of the paper's workloads) is
thereby partitioned, and a pluggable executor
(:mod:`repro.service.executor`) can run the shards on separate cores.

**Replication contract.**  Per-shard results must stay *byte-identical* to
a single engine's.  CPM re-computation is pull-free: when a query loses
neighbors, the engine re-scans grid cells in ascending ``mindist`` order
and may expand past the query's previous influence region into any cell of
the workspace.  A shard therefore cannot answer exactly from a partial
object view — every shard keeps its full-workspace grid current, i.e.
object *maintenance* (two hash-table operations per update, the
``Time_ind`` of Section 4.1) is replicated to all shards, while the
per-query work an update triggers runs only on the shard holding the
affected queries (an update in a cell unmarked on a shard's grid is
discarded there after one influence probe).  Border-crossing updates thus
naturally "fan out" to exactly the shards whose installed influence
regions overlap them.  :mod:`repro.service.partition` is the
partitioned alternative: each shard materializes only its owned column
block plus a halo, the coordinator fans rows to exactly the tracking
shards, and a pull path covers re-computation expansion — same
byte-identity contract, without the replicated object maintenance.

:class:`ShardedMonitor` implements the full
:class:`repro.monitor.ContinuousMonitor` contract — including
``process_deltas`` — so the replay engine, the experiment drivers and the
equivalence tests can treat a sharded service exactly like a single
engine.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from math import ceil

from repro.geometry.points import Point
from repro.geometry.rects import Rect
from repro.grid.cell import cell_index
from repro.grid.stats import GridStats
from repro.monitor import ContinuousMonitor, CycleChanges, ResultEntry
from repro.service.executor import (
    SerialShardExecutor,
    ShardExecutor,
)
from repro.updates import FlatUpdateBatch, QueryUpdate, QueryUpdateKind


@dataclass(frozen=True, slots=True)
class ShardPlan:
    """Partition of a grid's column space into contiguous blocks.

    Column addressing mirrors :class:`repro.grid.grid.Grid` exactly (same
    ``delta`` derivation, same clamped ``cell_index`` decision), so the
    shard owning a point is the shard owning the point's grid cell.
    """

    n_shards: int
    cols: int
    x0: float
    delta: float
    #: first owned column of each shard, ascending; shard ``s`` owns
    #: columns ``[col_starts[s], col_starts[s+1])``.
    col_starts: tuple[int, ...]

    @classmethod
    def build(
        cls,
        n_shards: int,
        cells_per_axis: int,
        bounds: Rect | tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0),
    ) -> "ShardPlan":
        """Balanced plan over the column space of a ``cells_per_axis`` grid."""
        if not isinstance(bounds, Rect):
            bounds = Rect(*bounds)
        if cells_per_axis <= 0:
            raise ValueError("cells_per_axis must be positive")
        # Same derivation as Grid.__init__ (square cells over the extent).
        extent = max(bounds.width, bounds.height)
        delta = extent / cells_per_axis
        cols = max(1, ceil(bounds.width / delta - 1e-9))
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if n_shards > cols:
            raise ValueError(
                f"cannot split {cols} grid columns into {n_shards} shards"
            )
        base, extra = divmod(cols, n_shards)
        starts = []
        start = 0
        for s in range(n_shards):
            starts.append(start)
            start += base + (1 if s < extra else 0)
        return cls(
            n_shards=n_shards,
            cols=cols,
            x0=bounds.x0,
            delta=delta,
            col_starts=tuple(starts),
        )

    def shard_of_column(self, i: int) -> int:
        """Owning shard of grid column ``i`` (clamped to the grid)."""
        if i < 0:
            i = 0
        elif i >= self.cols:
            i = self.cols - 1
        return bisect_right(self.col_starts, i) - 1

    def shard_of_cell(self, i: int, j: int) -> int:
        """Owning shard of cell ``c_{i,j}`` (column-block partition)."""
        return self.shard_of_column(i)

    def shard_of_point(self, x: float, y: float) -> int:
        """Owning shard of the point ``(x, y)``."""
        return self.shard_of_column(cell_index(x, self.x0, self.delta, self.cols))

    def owned_columns(self, shard: int) -> range:
        """The contiguous column block owned by ``shard``."""
        lo = self.col_starts[shard]
        hi = (
            self.col_starts[shard + 1]
            if shard + 1 < self.n_shards
            else self.cols
        )
        return range(lo, hi)


@dataclass(frozen=True, slots=True)
class ShardEngineFactory:
    """Picklable factory building one shard's engine.

    Shard engines cover the *full* workspace (see the replication contract
    in the module docstring); the factory simply captures the construction
    parameters so worker processes can rebuild the engine after a spawn.
    """

    cells_per_axis: int
    bounds: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0)
    algorithm: str = "CPM"

    def __call__(self) -> ContinuousMonitor:
        if self.algorithm == "CPM":
            from repro.core.cpm import CPMMonitor

            return CPMMonitor(self.cells_per_axis, bounds=self.bounds)
        if self.algorithm == "YPK-CNN":
            from repro.baselines.ypk import YpkCnnMonitor

            return YpkCnnMonitor(self.cells_per_axis, bounds=self.bounds)
        if self.algorithm == "SEA-CNN":
            from repro.baselines.sea import SeaCnnMonitor

            return SeaCnnMonitor(self.cells_per_axis, bounds=self.bounds)
        raise ValueError(f"unknown algorithm {self.algorithm!r}")


def row_error(oid: int, appearing: int) -> KeyError:
    """The rejection of an object row that disagrees with the object table
    (raised at the tiers' public boundary, see ``ShardedMonitor._cycle``)."""
    return KeyError(
        f"object {oid} " + ("appeared twice" if appearing else "is not on-line")
    )


class ShardedMonitor(ContinuousMonitor):
    """A fleet of per-shard engines behind the single-monitor contract.

    Args:
        n_shards: number of shards ``S`` (1 measures pure service overhead).
        cells_per_axis: grid granularity of every shard engine.
        bounds: workspace rectangle.
        algorithm: engine algorithm per shard ("CPM", "YPK-CNN", "SEA-CNN").
        executor: a started-on-demand :class:`ShardExecutor`; defaults to
            :class:`SerialShardExecutor`.  Pass a
            :class:`repro.service.executor.ProcessShardExecutor` to run
            shards on separate cores.

    Every query type is routable.  Point k-NN queries go to the shard
    owning their point's cell; strategy-backed queries (constrained,
    range, aggregate, filtered) go to the shard owning their strategy's
    *reference point* — under the replication contract every shard holds
    the full object view, so any shard answers any query exactly and the
    anchor choice is purely a load-balancing decision.  Object attribute
    tags (filtered queries) are replicated to all shards like object
    maintenance is.
    """

    def __init__(
        self,
        n_shards: int,
        cells_per_axis: int = 128,
        *,
        bounds: Rect | tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0),
        algorithm: str = "CPM",
        executor: ShardExecutor | None = None,
    ) -> None:
        rect = bounds if isinstance(bounds, Rect) else Rect(*bounds)
        self.plan = ShardPlan.build(n_shards, cells_per_axis, rect)
        self.algorithm = algorithm
        self.name = f"{algorithm}-S{n_shards}"
        self._executor = executor if executor is not None else SerialShardExecutor()
        factory = ShardEngineFactory(
            cells_per_axis, (rect.x0, rect.y0, rect.x1, rect.y1), algorithm
        )
        self._executor.start([factory] * n_shards)
        self._query_shard: dict[int, int] = {}
        self._positions: dict[int, Point] = {}
        self._stats = GridStats()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def executor(self) -> ShardExecutor:
        return self._executor

    @property
    def n_shards(self) -> int:
        return self.plan.n_shards

    def close(self) -> None:
        """Shut the executor down (required for process-backed shards)."""
        self._executor.close()

    def __enter__(self) -> "ShardedMonitor":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Stats aggregation
    # ------------------------------------------------------------------

    @property
    def stats(self) -> GridStats:
        """Aggregate counters folded from every shard command."""
        return self._stats

    def _absorb(self, delta: GridStats) -> None:
        stats = self._stats
        stats.cell_scans += delta.cell_scans
        stats.objects_scanned += delta.objects_scanned
        stats.inserts += delta.inserts
        stats.deletes += delta.deletes
        stats.mark_ops += delta.mark_ops

    def _call(self, shard: int, method: str, *args):
        payload, stats = self._executor.call(shard, method, *args)
        self._absorb(stats)
        return payload

    def _call_all(self, method: str, args_per_shard: Sequence[tuple]) -> list:
        results = self._executor.call_all(method, args_per_shard)
        payloads = []
        for payload, stats in results:
            self._absorb(stats)
            payloads.append(payload)
        return payloads

    # ------------------------------------------------------------------
    # Object population
    # ------------------------------------------------------------------

    def load_objects(self, objects: Iterable[tuple[int, Point]]) -> None:
        batch = list(objects)
        for oid, point in batch:
            self._positions[oid] = point
        self._call_all("load_objects", [(batch,)] * self.n_shards)

    def object_position(self, oid: int) -> Point | None:
        return self._positions.get(oid)

    @property
    def object_count(self) -> int:
        return len(self._positions)

    def set_object_tags(self, tags) -> None:
        """Replicate attribute tags to every shard (and the local table).

        Tags are object state, so they follow the replication contract:
        each shard engine keeps its own synchronized copy backing the
        filtered queries it hosts.
        """
        mapping = {
            int(oid): frozenset(str(t) for t in tag_set) if tag_set else frozenset()
            for oid, tag_set in tags.items()
        }
        super().set_object_tags(mapping)
        self._call_all("set_object_tags", [(mapping,)] * self.n_shards)

    # ------------------------------------------------------------------
    # Query management
    # ------------------------------------------------------------------

    def install_query(self, qid: int, point: Point, k: int = 1) -> list[ResultEntry]:
        if qid in self._query_shard:
            raise KeyError(f"query {qid} is already installed")
        shard = self.plan.shard_of_point(point[0], point[1])
        result = self._call(shard, "install_query", qid, point, k)
        self._query_shard[qid] = shard
        return result

    def install_strategy_query(
        self, qid: int, strategy, k: int = 1
    ) -> list[ResultEntry]:
        """Install a strategy-backed query, routed by its reference point.

        Correct on any shard (full object view per the replication
        contract); the anchor cell's owner is chosen so co-located
        queries cluster where their updates land.  Strategy objects must
        pickle for process-backed executors — engine-bound state (the
        filtered tag table) is rebound by the shard engine at install.
        """
        if qid in self._query_shard:
            raise KeyError(f"query {qid} is already installed")
        x, y = strategy.reference_point()
        shard = self.plan.shard_of_point(x, y)
        result = self._call(shard, "install_strategy_query", qid, strategy, k)
        self._query_shard[qid] = shard
        return result

    def remove_query(self, qid: int) -> None:
        shard = self._query_shard.pop(qid)
        self._call(shard, "remove_query", qid)

    def result(self, qid: int) -> list[ResultEntry]:
        return self._call(self._query_shard[qid], "result", qid)

    def result_table(self) -> dict[int, list[ResultEntry]]:
        merged: dict[int, list[ResultEntry]] = {}
        for table in self._call_all("result_table", [()] * self.n_shards):
            merged.update(table)
        return merged

    def query_ids(self) -> list[int]:
        return list(self._query_shard)

    def query_k(self, qid: int) -> int:
        return self._call(self._query_shard[qid], "query_k", qid)

    def query_shard(self, qid: int) -> int:
        """Shard currently hosting a query (diagnostics)."""
        return self._query_shard[qid]

    def shard_query_counts(self) -> list[int]:
        """Number of queries per shard (load-balance diagnostics)."""
        counts = [0] * self.n_shards
        for shard in self._query_shard.values():
            counts[shard] += 1
        return counts

    # ------------------------------------------------------------------
    # Stream processing
    # ------------------------------------------------------------------

    def _split_query_updates(
        self, query_updates: Sequence[QueryUpdate]
    ) -> list[list[QueryUpdate]]:
        """Route query updates to shards, translating cross-shard moves.

        Figure 3.9 handles a moving query as termination + re-insertion;
        when old and new location fall on different shards the two halves
        are routed separately, preserving the single-engine semantics.

        Routing is validated against an overlay and committed only once
        the whole batch routes cleanly, so a bad update (unknown qid,
        duplicate insert) raises *before* the routing table or any shard
        engine has been touched.
        """
        per_shard: list[list[QueryUpdate]] = [[] for _ in range(self.n_shards)]
        _GONE = -1
        overlay: dict[int, int] = {}
        # k set by this batch's own updates: a k-less MOVE keeps the
        # query's k, which a cross-shard split must carry to the new shard.
        batch_k: dict[int, int] = {}

        def lookup(qid: int) -> int:
            shard = overlay.get(qid)
            if shard is None:
                shard = self._query_shard.get(qid, _GONE)
            if shard == _GONE:
                raise KeyError(f"query {qid} is not installed")
            return shard

        for qu in query_updates:
            if qu.kind is QueryUpdateKind.TERMINATE:
                per_shard[lookup(qu.qid)].append(qu)
                overlay[qu.qid] = _GONE
                continue
            assert qu.point is not None
            new_shard = self.plan.shard_of_point(qu.point[0], qu.point[1])
            if qu.kind is QueryUpdateKind.MOVE:
                old_shard = lookup(qu.qid)
                if qu.k is not None:
                    batch_k[qu.qid] = qu.k
                if old_shard == new_shard:
                    per_shard[new_shard].append(qu)
                else:
                    k = batch_k.get(qu.qid) or self.query_k(qu.qid)
                    per_shard[old_shard].append(
                        QueryUpdate(qu.qid, QueryUpdateKind.TERMINATE)
                    )
                    per_shard[new_shard].append(
                        QueryUpdate(qu.qid, QueryUpdateKind.INSERT, qu.point, k)
                    )
            else:
                gone = overlay.get(qu.qid) == _GONE
                if not gone and (
                    qu.qid in overlay or qu.qid in self._query_shard
                ):
                    # Match the single-engine failure mode (install_query
                    # raises KeyError on a duplicate insert).
                    raise KeyError(f"query {qu.qid} is already installed")
                per_shard[new_shard].append(qu)
                batch_k[qu.qid] = qu.k or 1
            overlay[qu.qid] = new_shard
        for qid, shard in overlay.items():
            if shard == _GONE:
                # pop, not del: a query inserted and terminated within the
                # same batch was never committed to the routing table.
                self._query_shard.pop(qid, None)
            else:
                self._query_shard[qid] = shard
        return per_shard

    def _cycle(
        self,
        batch: FlatUpdateBatch,
        query_updates: Sequence[QueryUpdate],
        keep_before: bool,
    ) -> CycleChanges:
        """One cycle across the fleet: object maintenance replicated to
        every shard (the replication contract above — one flat batch fans
        out as-is, no per-shard re-packing; a process-backed executor
        ships it as one shared-memory block), query updates split by
        owning shard.  Each shard engine runs its own ``_cycle`` and the
        per-shard changes merge into the single-engine view.

        This is the tier's public boundary for object rows: a row whose
        ``appear`` flag disagrees with whether the object is on-line
        raises ``KeyError`` before any shard sees the batch.
        """
        per_shard_qu = self._split_query_updates(query_updates)
        positions = self._positions
        for oid, nx, ny, ap, dis in zip(
            batch.oids, batch.new_xs, batch.new_ys, batch.appear, batch.disappear
        ):
            known = oid in positions
            if known if ap else not known:
                raise row_error(oid, ap)
            if dis:
                del positions[oid]
            else:
                positions[oid] = (nx, ny)
        return self._merge_changes(
            self._call_all(
                "_cycle",
                [(batch, tuple(qus), keep_before) for qus in per_shard_qu],
            )
        )

    @staticmethod
    def _merge_changes(shard_changes: Sequence[CycleChanges]) -> CycleChanges:
        """Merge per-shard changes into the single-engine view.

        A query reported by several shards crossed shards this cycle.
        Only the shard that held it at the start of the cycle reports a
        ``before`` (the others saw it appear out of nowhere), and only
        the shard it ended on an ``after`` other than ``None`` (the
        others terminated it).
        """
        before: dict[int, list[ResultEntry]] = {}
        after: dict[int, list[ResultEntry] | None] = {}
        for shard_before, shard_after in shard_changes:
            before.update(shard_before)
            for qid, result in shard_after.items():
                if result is not None or qid not in after:
                    after[qid] = result
        return before, after
