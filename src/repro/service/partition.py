"""The sharded monitor: owned column blocks, halo cells, cell-sync
fan-out, pulls and live query migration.

A :class:`ShardPlan` splits the grid's column space into ``S``
contiguous blocks; :class:`PartitionedMonitor` runs one CPM engine per
block behind the single-monitor contract, on a pluggable executor
(:mod:`repro.service.executor`) that can put the shards on separate
cores.  Queries are placed on the shard owning their anchor cell, so
per-query work (influence probes, incremental repair, re-computation:
the dominant cost of the paper's workloads) is partitioned; objects are
partitioned too:

* **Ownership + halo** — each :class:`PartitionShardEngine` runs over
  the *full* workspace grid (identical packed cell ids everywhere) but
  materializes object data only for its owned column block plus a
  configurable halo of border columns.  Every other slot holds a
  :class:`_HaloCell` sentinel.
* **Cell-sync protocol** — the coordinator (:class:`PartitionedMonitor`)
  keeps the one authoritative object store and translates each cycle's
  :class:`FlatUpdateBatch` into one row batch per shard: a row is fanned
  only to the shards *tracking* the touched cells (static column mask ∪
  dynamic interest acquired through pulls/prefetch).  A move whose old
  cell a shard tracks but whose new cell it does not reaches that shard
  as a plain **disappearance**: a cell the shard does not track carries
  none of its queries' marks, and an NN that moves into an unmarked
  cell is outgoing in the single engine too (the tie rule of
  ``CPMMonitor._apply_flat_rows``), so there is nothing else to probe.
  Each shard then gets exactly one command per cycle,
  ``partition_cycle``.
* **Pull path** — CPM re-computation scans cells in ascending
  ``mindist`` order and may expand past the query's previous influence
  region into any cell of the workspace.  When it expands past the
  halo, the first attribute access on a sentinel fetches the cell's
  rows from the coordinator store, synchronously over the shard's
  command pipe.  The protocol guarantees consistency without per-cell
  versions: the coordinator sends ``partition_cycle`` only after it has
  applied the *whole* batch to its store, so pulled data always equals
  the post-cycle truth the single engine would see.  Every pull
  registers dynamic interest so later cycles fan rows to the copy; the
  tail of ``partition_cycle`` evicts pulled cells no influence region
  marks anymore and releases the interest.
* **Live query migration** — a cross-boundary query MOVE carries the
  query's bookkeeping (result list, influence marks, Figure 3.6 visit
  list) to the new owner via ``migrate_out_query``/``migrate_in_query``;
  a query with several updates in one batch crosses as a termination
  on the old shard plus an insertion on the new one (Figure 3.9).  See
  the method docstrings for what is reused and why the counters still
  match the single engine exactly.

Byte-identity contract (property-pinned): results, changed sets,
deltas **and all five deterministic counters** equal the single
engine's — inserts/deletes come from the one coordinator store, and
search/probe/mark work happens exactly once, on the hosting shard.
"""

from __future__ import annotations

import pickle
from array import array
from bisect import bisect_right
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import partial
from itertools import count
from math import ceil

from repro.core.bookkeeping import CycleScratch, QueryState
from repro.core.cpm import CPMMonitor
from repro.core.strategies import FilteredStrategy
from repro.geometry.points import Point
from repro.geometry.rects import Rect
from repro.grid.cell import cell_index
from repro.grid.grid import Grid
from repro.grid.stats import GridStats
from repro.monitor import ContinuousMonitor, CycleChanges, ResultEntry
from repro.service.executor import SerialShardExecutor, ShardExecutor
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


#: routing-table entry of a query terminated by the batch being routed.
_GONE = -1


def _require_dense(grid: Grid) -> Grid:
    """Partitioning keeps a stand-in in *every* untracked cell slot, which
    only the dense list-backed store affords."""
    if not grid.dense:
        raise ValueError(
            f"partitioning requires a dense cell store (grid {grid.cols}x"
            f"{grid.rows})"
        )
    return grid


class _HaloCell:
    """Sentinel occupying every untracked cell slot of a shard's grid.

    Any attribute access (``oids``, ``xs``, ``slot``, ``columns``, a
    method — the search loops only ever read attributes) materializes
    the real cell by pulling its rows from the coordinator and forwards
    to it.  After the first touch the grid slot holds the real cell, so
    subsequent slot reads never see the sentinel again; a loop still
    holding the sentinel keeps reaching the same real cell through it.
    """

    __slots__ = ("_engine", "_cid", "_cell")

    def __init__(self, engine: "PartitionShardEngine", cid: int) -> None:
        self._engine = engine
        self._cid = cid
        self._cell = None

    def __getattr__(self, name: str):
        cell = self._cell
        if cell is None:
            cell = self._cell = self._engine._materialize(self._cid)
        return getattr(cell, name)


class PartitionShardEngine(CPMMonitor):
    """CPM engine owning a column block + halo of the workspace grid.

    The grid spans the *full* workspace (cell ids identical to the
    single engine and to every peer shard); columns outside
    ``[track_lo, track_hi)`` start as :class:`_HaloCell` sentinels.
    The coordinator drives each cycle with one command,
    :meth:`partition_cycle`, sent once it has applied the whole batch to
    its store, and never routes a row here unless this shard tracks the
    touched cell — so the row loop never pulls, and a search's pull is
    served while the parent process waits on this command's reply.
    ``partition_cycle`` hands back the cycle's before/after result maps,
    exactly what the single engine's ``_cycle`` returns: delta capture
    is that return value, so the protocol has no second finish path.

    Nothing of the engine's cycle is overridden: the row loop, the cycle
    tail and the searches are :class:`CPMMonitor`'s, run over a grid some
    of whose slots fill on first touch.  It is a subclass rather than a
    wrapper because what it adds (sentinels, eviction, migration, the
    full-fidelity checkpoint) works on the engine's own tables.
    """

    def __init__(
        self,
        cells_per_axis: int = 128,
        *,
        bounds: Rect | tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0),
        shard: int = 0,
        track_lo: int = 0,
        track_hi: int | None = None,
    ) -> None:
        super().__init__(cells_per_axis, bounds=bounds)
        grid = _require_dense(self._grid)
        self.shard = shard
        self.track_lo = track_lo
        self.track_hi = grid.cols if track_hi is None else track_hi
        self._dyn_tracked: set[int] = set()
        self._pull_fn = None
        rows = grid.rows
        for i in range(grid.cols):
            if not self.track_lo <= i < self.track_hi:
                for cid in range(i * rows, (i + 1) * rows):
                    grid.evict_cell(cid, _HaloCell(self, cid))

    # ------------------------------------------------------------------
    # Pull path
    # ------------------------------------------------------------------

    def bind_pull_transport(self, fn) -> None:
        """Install the executor-provided ``fn(cid) -> (oids, xs, ys)``."""
        self._pull_fn = fn

    def _materialize(self, cid: int):
        """Replace a sentinel with the real cell pulled from the store."""
        pull = self._pull_fn
        if pull is None:
            raise RuntimeError(
                f"shard {self.shard} touched untracked cell {cid} with no "
                "pull transport bound"
            )
        cell = self._install_cell(cid, *pull(cid))
        self._dyn_tracked.add(cid)
        return cell

    def _install_cell(self, cid: int, oids, xs, ys):
        """Install pulled/prefetched/restored rows as a real cell.

        Zero counters (:meth:`Grid.install_cell`): the single engine
        never performs this storage motion.  The object→cell map is
        fixed up so subsequent (counted) work is indistinguishable from
        running over a fully-populated grid.
        """
        self._object_cells.update(dict.fromkeys(oids, cid))
        return self._grid.install_cell(cid, oids, xs, ys)

    def _evict_unmarked(self) -> list[int]:
        """Drop pulled cells no influence region marks; return their ids.

        Runs at the tail of :meth:`partition_cycle`: a pulled cell that is
        still inside some query's influence region stays (its rows keep
        syncing), everything else reverts to a sentinel so the dynamic
        fan-out stays bounded by the live influence surface.
        """
        grid = self._grid
        object_cells = self._object_cells
        released = [
            cid for cid in sorted(self._dyn_tracked) if not grid.marks_id(cid)
        ]
        for cid in released:
            for oid in grid.evict_cell(cid, _HaloCell(self, cid)):
                del object_cells[oid]
        self._dyn_tracked.difference_update(released)
        return released

    # ------------------------------------------------------------------
    # Partitioned cycle protocol
    # ------------------------------------------------------------------

    def partition_cycle(
        self,
        rows: FlatUpdateBatch,
        query_updates: tuple[QueryUpdate, ...],
        keep_before: bool,
    ) -> tuple[CycleChanges, list[int]]:
        """One whole cycle on this shard: the translated rows, finalize
        and query updates, then eviction.

        The single engine's ``_cycle`` minus its ``appear``-flag check
        (the coordinator validated the batch against its store, and a
        shard meeting an object for the first time takes the appearance
        path on a plain move row).  Returns ``(changes, released)``:
        ``changes`` is the cycle's ``(before, after)`` maps from the same
        ``_finish_cycle``, and ``released`` lists the dynamically-tracked
        cell ids evicted — the coordinator drops their fan-out interest.
        """
        scratch: dict[int, CycleScratch] = {}
        self._apply_flat_rows(rows, scratch, {qu.qid for qu in query_updates})
        changes = self._finish_cycle(scratch, query_updates, keep_before)
        return changes, self._evict_unmarked()

    # ------------------------------------------------------------------
    # Live query migration
    # ------------------------------------------------------------------

    def migrate_out_query(self, qid: int) -> dict:
        """Extract a query's full bookkeeping for carriage to a peer.

        The influence marks are detached *silently* (no ``mark_ops``):
        they are moving with the query, a storage motion the single
        engine never performs.  The counted unmark happens on the
        destination, inside its ``_finish_cycle`` MOVE handling —
        exactly where the single engine charges it.
        """
        state = self._queries.pop(qid)
        del self._query_probes[qid]
        state.detach_marks(self._grid)
        return state.export()

    def migrate_in_query(self, carried: dict, prefetch: Sequence[tuple]) -> None:
        """Adopt a migrated query: prefetched cells + verbatim bookkeeping.

        ``prefetch`` carries the cells around the query's influence
        region so the MOVE's re-search (Figure 3.9 → fresh Figure 3.4
        search, same as the single engine) runs on local data instead of
        pulling cell by cell.  The carried visit list, result list and
        heap are installed verbatim and the influence marks re-applied
        silently (the counted removal happens in this cycle's
        ``_finish_cycle``, matching the single engine's ``remove_query``
        accounting for a moved query).
        """
        if carried["qid"] in self._queries:
            raise KeyError(f"query {carried['qid']} is already installed")
        for cid, oids, xs, ys in prefetch:
            if cid not in self._dyn_tracked:
                self._install_cell(cid, oids, xs, ys)
                self._dyn_tracked.add(cid)
        self._adopt_query(carried)

    def _adopt_query(self, record: dict) -> None:
        """Install an exported query (:meth:`QueryState.export`) as is —
        no search, no counter."""
        strategy = record["strategy"]
        if isinstance(strategy, FilteredStrategy):
            strategy.bind_tags(self.tag_table)
        self._register_query(QueryState.adopt(record, self._grid))

    def materialized_cells(self) -> dict[int, tuple[tuple, tuple, tuple]]:
        """``{cid: (oids, xs, ys)}`` of every real cell slot — the tracked
        block and the pulled or prefetched cells (invariant checks)."""
        grid = self._grid
        return {
            cid: grid.cell_rows(cid)
            for cid, cell in enumerate(grid._cells)
            if not isinstance(cell, _HaloCell)
        }

    # ------------------------------------------------------------------
    # Checkpoint contract (supervisor)
    # ------------------------------------------------------------------

    def capture_state(self) -> dict:
        """Full-fidelity snapshot: cells and queries *with* bookkeeping.

        Unlike the base :class:`~repro.monitor.MonitorState` capture
        (which re-installs queries through fresh searches — searches
        that would pull cells nobody logged), this snapshot records the
        exact storage and bookkeeping and its restore performs **zero**
        searches and zero pulls.  Consequence: a checkpointed rebuild is
        counter-exact, not just results-exact.  Influence marks are not
        recorded: they are each query's marked visit-list prefix.
        """
        grid = self._grid
        dyn = sorted(self._dyn_tracked)
        # Every slot holding a real cell: the tracked block (empty cells
        # need no record) and the pulls (an empty one is still a real
        # cell, not a sentinel).
        block = range(self.track_lo * grid.rows, self.track_hi * grid.rows)
        cells = {cid: grid.cell_rows(cid) for cid in dyn}
        cells.update(
            (cid, rows) for cid in block if (rows := grid.cell_rows(cid))[0]
        )
        payload = {
            "partition_capture": True,
            "cells": cells,
            "dyn": dyn,
            "tags": dict(self.tag_table),
            "queries": [state.export() for state in self._queries.values()],
            "stats": self.stats.snapshot(),
        }
        # Round-trip so the snapshot shares no mutable state with the
        # live engine (same detachment the base capture performs).
        return pickle.loads(pickle.dumps(payload))

    def restore_state(self, state: dict) -> None:
        if not isinstance(state, dict) or not state.get("partition_capture"):
            raise ValueError(
                "partitioned shards restore only partition captures"
            )
        if self._queries or self._object_cells:
            raise RuntimeError(
                "restore_state requires an empty engine"
            )
        for cid, (oids, xs, ys) in state["cells"].items():
            self._install_cell(cid, oids, xs, ys)
        self._dyn_tracked = set(state["dyn"])
        self.tag_table.update(state["tags"])
        for record in state["queries"]:
            self._adopt_query(record)
        self.stats.restore(state["stats"])


def _gather(
    batch: FlatUpdateBatch, picked: list[int], gone: list[int]
) -> FlatUpdateBatch:
    """The rows ``picked`` of ``batch`` as one batch, each column gathered
    in one pass; the rows at positions ``gone`` (of ``picked``) become
    disappearances."""
    disappear = bytearray([batch.disappear[i] for i in picked])
    for pos in gone:
        disappear[pos] = 1
    return FlatUpdateBatch(
        batch.timestamp,
        array("q", [batch.oids[i] for i in picked]),
        array("d", [batch.old_xs[i] for i in picked]),
        array("d", [batch.old_ys[i] for i in picked]),
        array("d", [batch.new_xs[i] for i in picked]),
        array("d", [batch.new_ys[i] for i in picked]),
        bytearray([batch.appear[i] for i in picked]),
        disappear,
    )


class PartitionedMonitor(ContinuousMonitor):
    """A fleet of partitioned CPM shards behind the single-monitor
    contract (see module docstring).

    Args:
        n_shards: number of shards ``S`` (1 measures pure service overhead).
        cells_per_axis: grid granularity of the store and every shard.
        bounds: workspace rectangle.
        halo: border columns each shard tracks beyond its owned block.
        executor: a started-on-demand :class:`ShardExecutor`; defaults to
            :class:`SerialShardExecutor`.  Pass a
            :class:`repro.service.executor.ProcessShardExecutor` to run
            shards on separate cores.
        metrics: optional :class:`repro.obs.metrics.MetricsRegistry` for
            the migration, pull and sync-row counters.

    The coordinator owns the authoritative object store (a plain dense
    :class:`Grid` — its insert/delete tallies *are* the canonical
    counters), per-cell shard-interest masks and the query routing table;
    shards receive only the rows they track.  Every query type is
    routable: point k-NN queries go to the shard owning their point's
    cell, strategy-backed queries (constrained, range, aggregate,
    filtered) to the shard owning their strategy's *reference point*.
    """

    def __init__(
        self,
        n_shards: int,
        cells_per_axis: int = 128,
        *,
        bounds: Rect | tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0),
        halo: int = 1,
        executor: ShardExecutor | None = None,
        metrics=None,
    ) -> None:
        if halo < 0:
            raise ValueError(f"halo must be >= 0, got {halo}")
        rect = bounds if isinstance(bounds, Rect) else Rect(*bounds)
        self.plan = ShardPlan.build(n_shards, cells_per_axis, rect)
        self.name = f"CPM-P{n_shards}"
        self.halo = halo
        cols = self.plan.cols
        self._static_track: list[tuple[int, int]] = []
        col_mask = [0] * cols
        for s in range(n_shards):
            owned = self.plan.owned_columns(s)
            lo = max(0, owned.start - halo)
            hi = min(cols, owned.stop + halo)
            self._static_track.append((lo, hi))
            bit = 1 << s
            for i in range(lo, hi):
                col_mask[i] |= bit
        self._col_mask = col_mask
        self._dyn_mask: dict[int, int] = {}
        self._store = _require_dense(Grid(cells_per_axis, bounds=rect))
        self._store_cell: dict[int, int] = {}
        self._executor = executor if executor is not None else SerialShardExecutor()
        bounds_t = (rect.x0, rect.y0, rect.x1, rect.y1)
        # Picklable factories: process-backed executors build the engines
        # in their workers.
        self._executor.start(
            [
                partial(
                    PartitionShardEngine,
                    cells_per_axis,
                    bounds=bounds_t,
                    shard=s,
                    track_lo=lo,
                    track_hi=hi,
                )
                for s, (lo, hi) in enumerate(self._static_track)
            ]
        )
        self._executor.bind_pull_server(self._serve_pull)
        self._query_shard: dict[int, int] = {}
        self._stats = GridStats()
        self.metrics = metrics
        self._n_cycles = 0
        self._n_fanout_rows = 0
        self._n_sync_rows = 0
        self._n_pulls = 0
        self._n_pull_objects = 0
        self._n_prefetch_cells = 0
        self._n_evictions = 0
        self._n_migrations = 0
        if metrics is not None:
            self._m_migrations = metrics.counter(
                "repro_query_migrations_total",
                "Cross-shard query moves served by live bookkeeping migration.",
            )
            self._m_pulls = metrics.counter(
                "repro_partition_pulls_total",
                "Remote cells fetched on demand by partitioned shards.",
            )
            self._m_sync = metrics.counter(
                "repro_partition_sync_rows_total",
                "Update-row copies fanned beyond the first tracking shard.",
            )
        else:
            self._m_migrations = self._m_pulls = self._m_sync = None

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

    def __enter__(self) -> "PartitionedMonitor":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Stats: canonical inserts/deletes come from the coordinator store
    # ------------------------------------------------------------------

    @property
    def stats(self) -> GridStats:
        """Aggregate counters folded from every shard command and the
        coordinator store."""
        return self._stats

    def _call(self, shard: int, method: str, *args):
        payload, stats = self._executor.call(shard, method, *args)
        self._absorb(stats)
        return payload

    def _call_all(self, method: str, args_per_shard: Sequence[tuple]) -> list:
        payloads = []
        for payload, stats in self._executor.call_all(method, args_per_shard):
            self._absorb(stats)
            payloads.append(payload)
        return payloads

    def _absorb(self, delta: GridStats) -> None:
        """Fold shard counters, *excluding* storage maintenance.

        Shard-side inserts/deletes are replication artifacts (fan-out
        copies, halo churn); the one coordinator store's tallies are
        canonical and folded by :meth:`_fold_store_stats`.  Search,
        probe and mark work happens exactly once — on the hosting
        shard — so those counters fold unscaled.
        """
        stats = self._stats
        stats.cell_scans += delta.cell_scans
        stats.objects_scanned += delta.objects_scanned
        stats.mark_ops += delta.mark_ops

    def _fold_store_stats(self) -> None:
        store_stats = self._store.stats
        self._stats.inserts += store_stats.inserts
        self._stats.deletes += store_stats.deletes
        store_stats.reset()

    # ------------------------------------------------------------------
    # Interest masks + pull service
    # ------------------------------------------------------------------

    def _serve_pull(self, shard: int, cid: int):
        """Serve one cell to a shard and register its fan-out interest.

        Only callable inside a shard command — ``partition_cycle`` or a
        direct query call — and the coordinator sends ``partition_cycle``
        after applying the whole batch to its store, so the pulled rows
        are exactly what the single engine's grid would hold.
        """
        self._dyn_mask[cid] = self._dyn_mask.get(cid, 0) | (1 << shard)
        self._n_pulls += 1
        if self._m_pulls is not None:
            self._m_pulls.inc()
        rows = self._store.cell_rows(cid)
        self._n_pull_objects += len(rows[0])
        return rows

    def _release_interest(self, shard: int, released: Sequence[int]) -> None:
        bit = 1 << shard
        dyn = self._dyn_mask
        for cid in released:
            mask = dyn.get(cid)
            if mask is None:
                continue
            mask &= ~bit
            if mask:
                dyn[cid] = mask
            else:
                del dyn[cid]
        self._n_evictions += len(released)

    # ------------------------------------------------------------------
    # Object population
    # ------------------------------------------------------------------

    def load_objects(self, objects: Iterable[tuple[int, Point]]) -> None:
        """Load the initial dataset — each shard gets only its tracked rows."""
        batch = list(objects)
        store = self._store
        rows = store.rows
        col_mask = self._col_mask
        per_shard: list[list[tuple[int, Point]]] = [
            [] for _ in range(self.n_shards)
        ]
        for oid, point in batch:
            x, y = point
            cid = store.cell_id(x, y)
            store.insert_at(cid, oid, point)
            self._store_cell[oid] = cid
            m = col_mask[cid // rows] | self._dyn_mask.get(cid, 0)
            while m:
                low = m & -m
                per_shard[low.bit_length() - 1].append((oid, point))
                m ^= low
        self._call_all(
            "load_objects", [(rows_,) for rows_ in per_shard]
        )
        self._fold_store_stats()

    # Positions are read back through the store's cell columns, as
    # CPMMonitor reads its grid: the coordinator keeps no second table.

    def object_position(self, oid: int) -> Point | None:
        cid = self._store_cell.get(oid)
        if cid is None:
            return None
        return self._store._cells[cid].position(oid)

    @property
    def object_count(self) -> int:
        return len(self._store_cell)

    def iter_objects(self) -> Iterable[tuple[int, Point]]:
        cells = self._store._cells
        store_cell = self._store_cell
        for oid in sorted(store_cell):
            yield oid, cells[store_cell[oid]].position(oid)

    def set_object_tags(self, tags) -> None:
        """Merge attribute tags into the local table and every shard's.

        Each shard engine keeps its own synchronized copy backing the
        filtered queries it hosts (a migrated query rebinds to its new
        shard's copy).
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

        Correct on any shard (a search past the shard's cells pulls
        them); the anchor cell's owner is chosen so co-located queries
        cluster where their updates land.  Strategy objects must pickle
        for process-backed executors — engine-bound state (the filtered
        tag table) is rebound by the shard engine at install.
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
    # Live query migration (coordinator side)
    # ------------------------------------------------------------------

    def _build_prefetch(self, carried: dict, dst: int) -> list[tuple]:
        """Cells around the carried influence region, for the destination.

        One bounding box of the influence cells, inflated by one cell —
        the MOVE's re-search at the new anchor lands inside it for any
        short move, so the search runs pull-free.  Every shipped cell
        (including empty ones — a stale empty copy would diverge)
        registers dynamic interest *before* this cycle's rows are
        translated, so the copies stay synchronized.
        """
        cids = carried["visit_cids"][: carried["marked_upto"]]
        if not cids:
            return []
        store = self._store
        rows = store.rows
        cols = self.plan.cols
        ilo = min(cid // rows for cid in cids) - 1
        ihi = max(cid // rows for cid in cids) + 1
        jlo = min(cid % rows for cid in cids) - 1
        jhi = max(cid % rows for cid in cids) + 1
        ilo = max(ilo, 0)
        jlo = max(jlo, 0)
        ihi = min(ihi, cols - 1)
        jhi = min(jhi, rows - 1)
        track_lo, track_hi = self._static_track[dst]
        bit = 1 << dst
        dyn = self._dyn_mask
        payload: list[tuple] = []
        for i in range(ilo, ihi + 1):
            if track_lo <= i < track_hi:
                continue  # statically tracked: already synchronized
            base = i * rows
            for j in range(jlo, jhi + 1):
                cid = base + j
                if dyn.get(cid, 0) & bit:
                    continue  # already materialized on dst via pull
                payload.append((cid, *store.cell_rows(cid)))
                dyn[cid] = dyn.get(cid, 0) | bit
                self._n_prefetch_cells += 1
        return payload

    def _migrate(self, migrations: dict[int, tuple[int, int]]) -> None:
        for qid, (src, dst) in migrations.items():
            carried = self._call(src, "migrate_out_query", qid)
            prefetch = self._build_prefetch(carried, dst)
            self._call(dst, "migrate_in_query", carried, prefetch)
            self._n_migrations += 1
            if self._m_migrations is not None:
                self._m_migrations.inc()

    # ------------------------------------------------------------------
    # The partitioned cycle
    # ------------------------------------------------------------------

    def _route_query_updates(
        self, query_updates: Sequence[QueryUpdate]
    ) -> tuple[list[list[QueryUpdate]], dict[int, tuple[int, int]], dict[int, int]]:
        """Validate and route a cycle's query updates, touching nothing.

        Returns ``(per_shard, migrations, routing)``: each shard's
        updates, the MOVEs served by live migration (``{qid: (src,
        dst)}``) and the routing-table entries to commit (``_GONE`` for a
        terminated query).  A bad update (unknown qid, duplicate insert)
        raises ``KeyError`` before any shard, the routing table or a
        fan-out mask has been touched.

        A query migrates when it is committed to a shard, this batch
        carries exactly one update for it, that update is a MOVE, and the
        new anchor cell belongs to a different shard; the MOVE then runs
        on the destination.  Any other cross-shard MOVE (install-then-move
        in one batch, stacked updates) is split as Figure 3.9 handles a
        moving query — a TERMINATE on the old shard and an INSERT on the
        new one — which is byte-identical too: migration is the fast
        path, not a special semantic.
        """
        per_shard: list[list[QueryUpdate]] = [[] for _ in range(self.n_shards)]
        migrations: dict[int, tuple[int, int]] = {}
        routing: dict[int, int] = {}
        committed = self._query_shard
        n_updates = Counter(qu.qid for qu in query_updates)
        # k set by this batch's own updates: a k-less MOVE keeps the
        # query's k, which a cross-shard split must carry to the new shard.
        batch_k: dict[int, int] = {}
        # (shard, position) of split INSERTs that take the committed
        # query's k, read from its shard once the whole batch is valid.
        need_k: list[tuple[int, int]] = []

        def lookup(qid: int) -> int:
            shard = routing.get(qid)
            if shard is None:
                shard = committed.get(qid, _GONE)
            if shard == _GONE:
                raise KeyError(f"query {qid} is not installed")
            return shard

        for qu in query_updates:
            qid = qu.qid
            if qu.kind is QueryUpdateKind.TERMINATE:
                per_shard[lookup(qid)].append(qu)
                routing[qid] = _GONE
                continue
            assert qu.point is not None
            new_shard = self.plan.shard_of_point(qu.point[0], qu.point[1])
            if qu.kind is QueryUpdateKind.MOVE:
                old_shard = lookup(qid)
                if qu.k is not None:
                    batch_k[qid] = qu.k
                if old_shard == new_shard:
                    per_shard[new_shard].append(qu)
                elif n_updates[qid] == 1:
                    migrations[qid] = (old_shard, new_shard)
                    per_shard[new_shard].append(qu)
                else:
                    per_shard[old_shard].append(
                        QueryUpdate(qid, QueryUpdateKind.TERMINATE)
                    )
                    k = batch_k.get(qid)
                    if not k:
                        need_k.append((new_shard, len(per_shard[new_shard])))
                    per_shard[new_shard].append(
                        QueryUpdate(qid, QueryUpdateKind.INSERT, qu.point, k)
                    )
            else:
                if routing.get(qid, committed.get(qid, _GONE)) != _GONE:
                    # Match the single-engine failure mode (install_query
                    # raises KeyError on a duplicate insert).
                    raise KeyError(f"query {qid} is already installed")
                per_shard[new_shard].append(qu)
                batch_k[qid] = qu.k or 1
            routing[qid] = new_shard
        for shard, pos in need_k:
            qu = per_shard[shard][pos]
            per_shard[shard][pos] = QueryUpdate(
                qu.qid, qu.kind, qu.point, self.query_k(qu.qid)
            )
        return per_shard, migrations, routing

    def _cycle(
        self,
        batch: FlatUpdateBatch,
        query_updates: Sequence[QueryUpdate],
        keep_before: bool,
    ) -> CycleChanges:
        """One partitioned cycle: row validation, query routing, live
        migrations, the translation into the store and per-shard rows,
        one ``partition_cycle`` per shard, then the merge.

        This is the tier's public boundary: it checks every object row
        (:meth:`_check_rows`) and every query update
        (:meth:`_route_query_updates`) before anything mutates, so a
        rejected batch leaves the store, the routing table, the fan-out
        masks and every shard as they were.  A migrated query reports
        only from its destination, whose MOVE finds the carried result —
        its true pre-cycle one.
        """
        self._check_rows(batch)
        per_shard_qu, migrations, routing = self._route_query_updates(query_updates)
        self._migrate(migrations)
        committed = self._query_shard
        for qid, shard in routing.items():
            if shard == _GONE:
                # pop, not del: a query inserted and terminated within the
                # same batch was never committed to the routing table.
                committed.pop(qid, None)
            else:
                committed[qid] = shard
        per_shard_rows = self._translate(batch)
        self._fold_store_stats()
        replies = self._call_all(
            "partition_cycle",
            [
                (rows, tuple(qus), keep_before)
                for rows, qus in zip(per_shard_rows, per_shard_qu)
            ],
        )
        self._n_cycles += 1
        shard_changes = []
        for shard, (changes, released) in enumerate(replies):
            if released:
                self._release_interest(shard, released)
            shard_changes.append(changes)
        return self._merge_changes(shard_changes)

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

    def _check_rows(self, batch: FlatUpdateBatch) -> None:
        """Raise ``KeyError`` for a row that disagrees with the store: an
        appearance of an on-line object, a move or a disappearance of an
        off-line one.  ``online`` overlays the rows already checked, for
        oids that repeat within the batch."""
        store_cell = self._store_cell
        online: dict[int, bool] = {}
        for oid, ap, dis in zip(batch.oids, batch.appear, batch.disappear):
            known = online[oid] if oid in online else oid in store_cell
            if ap == known or ap & dis:
                raise KeyError(
                    f"object {oid} "
                    + ("appeared twice" if known else "is not on-line")
                )
            online[oid] = not dis

    def _translate(self, batch: FlatUpdateBatch) -> list[FlatUpdateBatch]:
        """Apply the checked batch to the store; return each shard's rows.

        One pass over the rows mutates the coordinator store (the
        canonical inserts/deletes) and appends each row's index to the
        list of every shard tracking the touched cell.  A cross-boundary
        move goes as a move row to the new cell's trackers (a shard that
        does not know the object takes the appearance path off its
        object map) and as a disappearance to trackers of only the old
        cell, whose positions are noted in ``gone``.  Each shard's
        columns are then gathered once.
        """
        n_rows = len(batch.oids)
        store = self._store
        rows = store.rows
        insert_at = store.insert_at
        delete_at = store.delete_at
        relocate_at = store.relocate_at
        col_mask = self._col_mask
        dyn_get = self._dyn_mask.get
        store_cell = self._store_cell
        store_cell_get = store_cell.get
        picked: list[list[int]] = [[] for _ in range(self.n_shards)]
        gone: list[list[int]] = [[] for _ in range(self.n_shards)]
        next_cid = iter(
            store.batch_cell_ids(batch.new_xs, batch.new_ys, batch.disappear)
        ).__next__
        for r, oid, nx, ny, dis in zip(
            count(), batch.oids, batch.new_xs, batch.new_ys, batch.disappear
        ):
            old_cid = store_cell_get(oid)
            if dis:
                del store_cell[oid]
                delete_at(old_cid, oid)
                m = col_mask[old_cid // rows] | dyn_get(old_cid, 0)
            else:
                new_cid = next_cid()
                m = col_mask[new_cid // rows] | dyn_get(new_cid, 0)
                if old_cid == new_cid:
                    relocate_at(new_cid, oid, (nx, ny))
                elif old_cid is None:
                    insert_at(new_cid, oid, (nx, ny))
                    store_cell[oid] = new_cid
                else:
                    delete_at(old_cid, oid)
                    insert_at(new_cid, oid, (nx, ny))
                    store_cell[oid] = new_cid
                    m_gone = (col_mask[old_cid // rows] | dyn_get(old_cid, 0)) & ~m
                    while m_gone:
                        low = m_gone & -m_gone
                        s = low.bit_length() - 1
                        gone[s].append(len(picked[s]))
                        picked[s].append(r)
                        m_gone ^= low
            while m:
                low = m & -m
                picked[low.bit_length() - 1].append(r)
                m ^= low
        fanout = sum(map(len, picked))
        sync_extra = fanout - n_rows
        self._n_fanout_rows += fanout
        self._n_sync_rows += sync_extra
        if self._m_sync is not None and sync_extra:
            self._m_sync.inc(sync_extra)
        return [_gather(batch, p, g) for p, g in zip(picked, gone)]

    # ------------------------------------------------------------------
    # Invariants and traffic accounting
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Test hook: raise ``AssertionError`` unless every shard passes its
        own :meth:`CPMMonitor.check_invariants` and every shard's copy of
        the workspace agrees with the coordinator.  Valid between cycles.

        Per shard: the real (non-sentinel) cells are exactly the ones the
        coordinator fans rows to — its static column block plus the
        cells whose dynamic interest names the shard — and each holds the
        same ``(oid, x, y)`` rows as the store's cell.
        """
        no_args = [()] * self.n_shards
        self._call_all("check_invariants", no_args)
        store = self._store
        for shard, cells in enumerate(self._call_all("materialized_cells", no_args)):
            lo, hi = self._static_track[shard]
            tracked = set(range(lo * store.rows, hi * store.rows))
            tracked.update(cid for cid, m in self._dyn_mask.items() if m >> shard & 1)
            if tracked != cells.keys():
                raise AssertionError(
                    f"shard {shard} materializes {sorted(cells.keys() - tracked)} "
                    f"untracked and lacks tracked {sorted(tracked - cells.keys())}"
                )
            for cid, rows in cells.items():
                expect = store.cell_rows(cid)
                if set(zip(*rows)) != set(zip(*expect)):
                    raise AssertionError(
                        f"shard {shard} cell {store.unpack(cid)} holds "
                        f"{sorted(zip(*rows))}, the store {sorted(zip(*expect))}"
                    )

    def partition_stats(self) -> dict[str, int]:
        """Cross-partition traffic counters (all monotone, process-local)."""
        return {
            "cycles": self._n_cycles,
            "fanout_rows": self._n_fanout_rows,
            "sync_rows": self._n_sync_rows,
            "pulls": self._n_pulls,
            "pull_objects": self._n_pull_objects,
            "prefetch_cells": self._n_prefetch_cells,
            "evictions": self._n_evictions,
            "migrations": self._n_migrations,
        }
