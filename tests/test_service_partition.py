"""Unit tests for the partition subsystem: sentinels, pulls, sync rows,
eviction, live query migration, full-fidelity capture, and the
``ShardPlan`` edge cases surfaced by halo addressing."""

import pytest

from repro.core.cpm import CPMMonitor
from repro.obs.metrics import MetricsRegistry
from repro.service.executor import SerialShardExecutor
from repro.service.partition import (
    PartitionedMonitor,
    PartitionShardEngine,
    ShardPlan,
    _HaloCell,
)
from repro.updates import ObjectUpdate, QueryUpdate, QueryUpdateKind

CELLS = 8


def _move(oid, old, new):
    return ObjectUpdate(oid, old, new)


# ----------------------------------------------------------------------
# ShardPlan edge cases (halo addressing relies on all three)
# ----------------------------------------------------------------------


class TestShardPlanEdges:
    def test_single_column_blocks(self):
        plan = ShardPlan.build(CELLS, CELLS)
        for s in range(CELLS):
            assert plan.owned_columns(s) == range(s, s + 1)
            assert plan.shard_of_column(s) == s

    def test_more_shards_than_columns_refused(self):
        with pytest.raises(ValueError, match="cannot split"):
            ShardPlan.build(CELLS + 1, CELLS)

    def test_block_edge_columns(self):
        plan = ShardPlan.build(3, CELLS)  # blocks 3/3/2: starts 0, 3, 6
        assert plan.col_starts == (0, 3, 6)
        for s in range(1, plan.n_shards):
            edge = plan.col_starts[s]
            assert plan.shard_of_column(edge) == s
            assert plan.shard_of_column(edge - 1) == s - 1

    def test_boundary_points_on_block_edges(self):
        plan = ShardPlan.build(4, CELLS)
        for s in range(1, plan.n_shards):
            x = plan.x0 + plan.col_starts[s] * plan.delta
            # A point exactly on a block's left edge belongs to that block
            # (cell_index floors), and a nudge below belongs to the left
            # neighbor — the bisect must not be off by one either way.
            assert plan.shard_of_point(x, 0.5) == s
            assert plan.shard_of_point(x - 1e-9, 0.5) == s - 1

    def test_clamping_at_workspace_edges(self):
        plan = ShardPlan.build(4, CELLS)
        assert plan.shard_of_point(-10.0, 0.5) == 0
        assert plan.shard_of_point(10.0, 0.5) == plan.n_shards - 1
        assert plan.shard_of_column(-3) == 0
        assert plan.shard_of_column(plan.cols + 3) == plan.n_shards - 1


# ----------------------------------------------------------------------
# Shard engine: sentinels, pulls
# ----------------------------------------------------------------------


class TestPartitionShardEngine:
    def test_untracked_columns_hold_sentinels(self):
        engine = PartitionShardEngine(CELLS, shard=0, track_lo=0, track_hi=4)
        grid = engine._grid
        for i in range(grid.cols):
            for j in range(grid.rows):
                cell = grid._cells[i * grid.rows + j]
                if i < 4:
                    assert cell is None
                else:
                    assert type(cell) is _HaloCell

    def test_sentinel_access_pulls_and_registers(self):
        engine = PartitionShardEngine(CELLS, shard=0, track_lo=0, track_hi=4)
        pulled = []

        def fake_pull(cid):
            pulled.append(cid)
            return (7,), (0.9,), (0.5,)

        engine.bind_pull_transport(fake_pull)
        grid = engine._grid
        cid = grid.cell_id(0.9, 0.5)
        cell = grid._cells[cid]
        assert list(cell.oids) == [7]  # attribute access materializes
        assert pulled == [cid]
        assert cid in engine._dyn_tracked
        assert engine._object_cells[7] == cid
        assert type(grid._cells[cid]) is not _HaloCell
        # Install charges no counters: the single engine never performs
        # this storage motion.
        assert engine.stats.inserts == 0 and engine.stats.cell_scans == 0

    def test_unbound_pull_raises(self):
        engine = PartitionShardEngine(CELLS, shard=0, track_lo=0, track_hi=4)
        cid = engine._grid.cell_id(0.9, 0.5)
        with pytest.raises(RuntimeError, match="no pull transport"):
            _ = engine._grid._cells[cid].oids

    def test_dense_store_required(self):
        with pytest.raises(ValueError, match="dense"):
            PartitionShardEngine(2048, shard=0, track_lo=0, track_hi=1)


# ----------------------------------------------------------------------
# Coordinator: fan-out, sync rows, eviction, interest release
# ----------------------------------------------------------------------


class TestPartitionedMonitor:
    def test_rows_fan_only_to_tracking_shards(self):
        part = PartitionedMonitor(4, CELLS, halo=0)
        part.load_objects([(1, (0.05, 0.5)), (2, (0.95, 0.5))])
        engines = part.executor.monitors()
        assert engines[0].object_count == 1
        assert engines[3].object_count == 1
        assert engines[1].object_count == 0
        # A same-cell move touches one column: exactly one shard sees it.
        before = part.partition_stats()
        part.process([_move(1, (0.05, 0.5), (0.06, 0.5))])
        after = part.partition_stats()
        assert after["fanout_rows"] - before["fanout_rows"] == 1
        assert after["sync_rows"] == before["sync_rows"]

    def test_halo_columns_receive_border_updates(self):
        part = PartitionedMonitor(2, CELLS, halo=1)
        # Column 3 is owned by shard 0 but inside shard 1's halo.
        x_owned_0 = 3.5 / CELLS
        part.load_objects([(1, (x_owned_0, 0.5))])
        engines = part.executor.monitors()
        assert engines[0].object_count == 1
        assert engines[1].object_count == 1  # halo copy
        stats = part.partition_stats()
        assert stats["sync_rows"] == 0  # load is not a cycle
        part.process([_move(1, (x_owned_0, 0.5), (x_owned_0, 0.6))])
        assert part.partition_stats()["sync_rows"] == 1  # second copy synced

    def test_store_counters_are_canonical(self):
        single = CPMMonitor(CELLS)
        part = PartitionedMonitor(4, CELLS, halo=1)
        objs = [(i, (i / 10 % 1.0, 0.3)) for i in range(8)]
        for m in (single, part):
            m.load_objects(objs)
            m.install_query(1, (0.42, 0.33), 3)
        ups = [_move(0, (0.0, 0.3), (0.77, 0.4)), ObjectUpdate(9, None, (0.5, 0.5))]
        assert part.process(ups) == single.process(ups)
        assert part.stats.snapshot() == single.stats.snapshot()

    def test_nn_moving_to_an_untracked_cell_on_the_influence_circle(self):
        """The tie of ``test_nn_landing_on_the_influence_circle_...``,
        partitioned: the destination cell belongs to a shard that does
        not host the query, so the hosting shard is told the NN
        disappeared — and the single engine, which sees the real move,
        must decide the same (outgoing) down to the counters."""
        single = CPMMonitor(CELLS)
        part = PartitionedMonitor(4, CELLS, halo=0)
        for m in (single, part):
            m.load_objects([(1, (0.5625, 0.75))])
            m.install_query(0, (0.5625, 0.5625), 1)
        assert part.query_shard(0) != part.plan.shard_of_point(0.75, 0.5625)
        ups = [_move(1, (0.5625, 0.75), (0.75, 0.5625))]
        assert part.process(ups) == single.process(ups)
        assert part.result_table() == single.result_table()
        assert part.stats.snapshot() == single.stats.snapshot()

    def test_pulled_cells_evicted_when_unmarked(self):
        part = PartitionedMonitor(2, CELLS, halo=0)
        part.load_objects([(i, (i / 16 % 1.0, 0.5)) for i in range(16)])
        # A query on shard 0 whose k spans the whole workspace: the
        # search pulls far columns, then termination releases them.
        part.install_query(1, (0.1, 0.5), 12)
        stats = part.partition_stats()
        assert stats["pulls"] > 0
        assert part._dyn_mask  # interest registered
        engines = part.executor.monitors()
        assert engines[0]._dyn_tracked
        part.process([], [QueryUpdate(1, QueryUpdateKind.TERMINATE)])
        assert not engines[0]._dyn_tracked  # evicted at cycle finish
        assert not part._dyn_mask  # interest released
        assert part.partition_stats()["evictions"] > 0

    def test_query_updates_only_cycle(self):
        single = CPMMonitor(CELLS)
        part = PartitionedMonitor(2, CELLS)
        objs = [(i, (i / 8 % 1.0, 0.5)) for i in range(8)]
        for m in (single, part):
            m.load_objects(objs)
        qus = [QueryUpdate(1, QueryUpdateKind.INSERT, (0.3, 0.5), 2)]
        assert part.process_deltas([], qus) == single.process_deltas([], qus)
        assert part.stats.snapshot() == single.stats.snapshot()

    def test_close_context_manager(self):
        with PartitionedMonitor(2, CELLS) as part:
            part.load_objects([(1, (0.2, 0.2))])
            assert part.object_count == 1

    def test_positions_are_read_from_the_store(self):
        single = CPMMonitor(CELLS)
        part = PartitionedMonitor(2, CELLS)
        for m in (single, part):
            m.load_objects([(3, (0.1, 0.2)), (1, (0.9, 0.8)), (2, (0.5, 0.5))])
            m.process(
                [
                    _move(3, (0.1, 0.2), (0.7, 0.2)),
                    ObjectUpdate(2, (0.5, 0.5), None),
                    ObjectUpdate(4, None, (0.3, 0.3)),
                ]
            )
        assert list(part.iter_objects()) == list(single.iter_objects())
        assert list(part.iter_objects()) == [
            (1, (0.9, 0.8)),
            (3, (0.7, 0.2)),
            (4, (0.3, 0.3)),
        ]
        for oid in range(6):
            assert part.object_position(oid) == single.object_position(oid)
        assert part.object_count == single.object_count == 3

    def test_check_invariants_sees_a_shard_copy_diverge(self):
        part = PartitionedMonitor(2, CELLS, halo=1)
        # Column 3 is owned by shard 0 and in shard 1's halo.
        part.load_objects([(1, (3.5 / CELLS, 0.5)), (2, (0.9, 0.5))])
        part.install_query(1, (0.1, 0.5), 1)
        part.check_invariants()
        engines = part.executor.monitors()
        halo_cell = engines[1]._grid._cells[engines[1]._object_cells[1]]
        x = halo_cell.xs[0]
        halo_cell.xs[0] = x + 1e-9
        with pytest.raises(AssertionError, match="shard 1 cell"):
            part.check_invariants()
        halo_cell.xs[0] = x
        part.check_invariants()
        # A real cell the coordinator does not fan rows to.
        engines[0]._install_cell(7 * CELLS, (), (), ())
        with pytest.raises(AssertionError, match="shard 0 materializes"):
            part.check_invariants()


# ----------------------------------------------------------------------
# A rejected batch leaves no trace
# ----------------------------------------------------------------------


@pytest.mark.parametrize("halo", [0, 1])
class TestRejectedBatch:
    """The coordinator checks every row against its store before the
    first migration, routing change or store mutation, so a rejected
    batch is as if never sent — in particular no shard is left with a
    half-done cycle.  Without a halo the shards hold no copies of their
    neighbours' border columns, so the searches pull and register
    prefetch interest that a rejected batch must not leave behind."""

    OBJECTS = [
        (i, ((i % 16) / 16 + 1 / 32, (i // 16) / 4 + 0.1)) for i in range(48)
    ]
    # Valid rows that, were the batch committed, would move object 2
    # across the shard boundary, drop object 5 and add object 100.
    PREFIX = [
        _move(2, OBJECTS[2][1], (0.6, 0.12)),
        ObjectUpdate(5, OBJECTS[5][1], None),
        ObjectUpdate(100, None, (0.4, 0.4)),
    ]
    BAD = {
        "appears_while_online": [ObjectUpdate(1, None, (0.2, 0.2))],
        "moves_after_disappearing": [_move(5, OBJECTS[5][1], (0.3, 0.1))],
        "appears_twice_in_batch": [ObjectUpdate(100, None, (0.5, 0.4))],
        "moves_while_offline": [_move(200, (0.1, 0.1), (0.2, 0.2))],
    }

    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_next_cycle_matches_an_engine_that_never_saw_it(self, bad, halo):
        single = CPMMonitor(CELLS)
        part = PartitionedMonitor(2, CELLS, halo=halo)
        for m in (single, part):
            m.load_objects(self.OBJECTS)
            m.install_query(1, (0.45, 0.5), 3)
            m.install_query(2, (0.8, 0.3), 2)
        stats = part.stats.snapshot()
        traffic = part.partition_stats()
        # The query MOVE would migrate query 1 to shard 1.
        migrate = [QueryUpdate(1, QueryUpdateKind.MOVE, (0.55, 0.5), 3)]
        with pytest.raises(KeyError):
            part.process(self.PREFIX + self.BAD[bad], migrate)
        assert part.query_shard(1) == 0
        assert part.stats.snapshot() == stats
        assert part.partition_stats() == traffic
        assert list(part.iter_objects()) == list(single.iter_objects())

        ups = [
            _move(3, self.OBJECTS[3][1], (0.58, 0.11)),
            ObjectUpdate(1, self.OBJECTS[1][1], None),
        ]
        qus = [QueryUpdate(2, QueryUpdateKind.MOVE, (0.35, 0.3), 2)]
        assert part.process(ups, qus) == single.process(ups, qus)
        assert part.result_table() == single.result_table()
        assert part.stats.snapshot() == single.stats.snapshot()
        assert list(part.iter_objects()) == list(single.iter_objects())
        part.check_invariants()

    BAD_QUERIES = {
        "terminates_unknown": QueryUpdate(99, QueryUpdateKind.TERMINATE),
        "moves_unknown": QueryUpdate(99, QueryUpdateKind.MOVE, (0.3, 0.3), 1),
        "inserts_installed": QueryUpdate(2, QueryUpdateKind.INSERT, (0.3, 0.3), 1),
    }

    @pytest.mark.parametrize("bad", sorted(BAD_QUERIES))
    def test_bad_query_update_after_a_migrating_move(self, bad, halo):
        """The whole query batch routes, migrations planned in the same
        pass, before any shard sees a command: a valid cross-shard MOVE
        ahead of the bad update migrates nothing."""
        single = CPMMonitor(CELLS)
        part = PartitionedMonitor(2, CELLS, halo=halo)
        for m in (single, part):
            m.load_objects(self.OBJECTS)
            m.install_query(1, (0.45, 0.5), 3)
            m.install_query(2, (0.8, 0.3), 2)
        stats = part.stats.snapshot()
        traffic = part.partition_stats()
        results = part.result_table()
        engines = part.executor.monitors()
        held = [engine.query_ids() for engine in engines]
        migrate = QueryUpdate(1, QueryUpdateKind.MOVE, (0.55, 0.5), 3)
        with pytest.raises(KeyError):
            part.process([], [migrate, self.BAD_QUERIES[bad]])
        assert part.query_shard(1) == 0
        assert part.partition_stats() == traffic
        assert [engine.query_ids() for engine in engines] == held
        assert part.result_table() == results
        assert part.stats.snapshot() == stats
        part.check_invariants()

        assert part.process([], [migrate]) == single.process([], [migrate])
        assert part.query_shard(1) == 1
        assert part.result_table() == single.result_table()
        assert part.stats.snapshot() == single.stats.snapshot()
        part.check_invariants()


# ----------------------------------------------------------------------
# Live query migration
# ----------------------------------------------------------------------


class TestQueryMigration:
    def _setup(self, metrics=None, halo=1):
        part = PartitionedMonitor(2, CELLS, halo=halo, metrics=metrics)
        single = CPMMonitor(CELLS)
        objs = [(i, ((i % 16) / 16 + 1 / 32, (i // 16) / 4 + 0.1)) for i in range(48)]
        for m in (single, part):
            m.load_objects(objs)
            m.install_query(1, (0.45, 0.5), 3)
        return part, single

    def test_cross_boundary_move_migrates(self):
        registry = MetricsRegistry()
        part, single = self._setup(metrics=registry)
        assert part.query_shard(1) == 0
        qus = [QueryUpdate(1, QueryUpdateKind.MOVE, (0.55, 0.5), 3)]
        assert part.process_deltas([], qus) == single.process_deltas([], qus)
        assert part.query_shard(1) == 1
        assert part.partition_stats()["migrations"] == 1
        assert registry.snapshot()["repro_query_migrations_total"] == 1
        assert part.result_table() == single.result_table()
        assert part.stats.snapshot() == single.stats.snapshot()

    def test_short_move_runs_pull_free(self):
        """The carried visit list prefetches the neighborhood, so a short
        cross-boundary move re-searches without a single on-demand pull."""
        part, single = self._setup()
        pulls_before = part.partition_stats()["pulls"]
        qus = [QueryUpdate(1, QueryUpdateKind.MOVE, (0.52, 0.5), 3)]
        part.process([], qus)
        single.process([], qus)
        stats = part.partition_stats()
        assert stats["migrations"] == 1
        assert stats["prefetch_cells"] > 0
        assert stats["pulls"] == pulls_before
        assert part.result_table() == single.result_table()
        assert part.stats.snapshot() == single.stats.snapshot()

    def test_same_shard_move_does_not_migrate(self):
        part, single = self._setup()
        qus = [QueryUpdate(1, QueryUpdateKind.MOVE, (0.40, 0.5), 3)]
        assert part.process_deltas([], qus) == single.process_deltas([], qus)
        assert part.partition_stats()["migrations"] == 0
        assert part.query_shard(1) == 0

    def test_migrate_out_in_round_trip_carries_bookkeeping(self):
        part, _ = self._setup()
        executor = part.executor
        src = part.query_shard(1)
        engines = executor.monitors()
        state_before = engines[src]._queries[1]
        entries = state_before.nn.entries()
        visit = list(state_before.visit_cids)
        carried = part._call(src, "migrate_out_query", 1)
        assert carried["entries"] == entries
        assert carried["visit_cids"] == visit
        assert 1 not in engines[src]._queries
        dst = 1 - src
        prefetch = part._build_prefetch(carried, dst)
        part._call(dst, "migrate_in_query", carried, prefetch)
        state_after = engines[dst]._queries[1]
        assert state_after.nn.entries() == entries
        assert list(state_after.visit_cids) == visit
        assert state_after.marked_upto == state_before.marked_upto
        assert state_after.best_dist == state_before.best_dist
        part._query_shard[1] = dst
        assert part.result(1) == entries

    def test_stacked_updates_fall_back_to_split(self):
        """Two updates for one query in a batch use the inherited
        TERMINATE+INSERT routing — still byte-identical, not migrated."""
        part, single = self._setup()
        qus = [
            QueryUpdate(1, QueryUpdateKind.MOVE, (0.55, 0.5), 3),
            QueryUpdate(1, QueryUpdateKind.MOVE, (0.45, 0.5), 3),
        ]
        assert part.process_deltas([], qus) == single.process_deltas([], qus)
        assert part.partition_stats()["migrations"] == 0
        assert part.result_table() == single.result_table()


# ----------------------------------------------------------------------
# Full-fidelity capture/restore
# ----------------------------------------------------------------------


class TestCaptureRestore:
    def test_round_trip_is_counter_exact(self):
        part = PartitionedMonitor(2, CELLS, executor=SerialShardExecutor())
        part.load_objects([(i, (i / 12 % 1.0, 0.4)) for i in range(12)])
        part.install_query(1, (0.3, 0.4), 4)
        part.process([_move(2, (2 / 12, 0.4), (0.31, 0.41))])
        engines = part.executor.monitors()
        for shard, engine in enumerate(engines):
            snap = engine.capture_state()
            fresh = PartitionShardEngine(
                CELLS,
                shard=shard,
                track_lo=engine.track_lo,
                track_hi=engine.track_hi,
            )
            fresh.restore_state(snap)
            assert fresh.result_table() == engine.result_table()
            assert fresh.object_count == engine.object_count
            assert fresh._dyn_tracked == engine._dyn_tracked
            assert fresh._grid._mark_count == engine._grid._mark_count
            q_old = engine._queries.get(1)
            q_new = fresh._queries.get(1)
            assert (q_old is None) == (q_new is None)
            if q_old is not None:
                assert list(q_new.visit_cids) == list(q_old.visit_cids)
                assert q_new.marked_upto == q_old.marked_upto
                assert list(q_new.heap._heap) == list(q_old.heap._heap)

    def test_restore_refuses_populated_engine(self):
        engine = PartitionShardEngine(CELLS, shard=0, track_lo=0, track_hi=CELLS)
        engine.load_objects([(1, (0.2, 0.2))])
        snap = engine.capture_state()
        with pytest.raises(RuntimeError, match="empty engine"):
            engine.restore_state(snap)

    def test_restore_refuses_foreign_capture(self):
        engine = PartitionShardEngine(CELLS, shard=0, track_lo=0, track_hi=CELLS)
        with pytest.raises(ValueError, match="partition captures"):
            engine.restore_state({"cells": {}})
