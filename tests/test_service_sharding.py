"""Service layer: shard plan, sharded monitor, executors, subscriptions.

The headline equivalence (sharded service == single engine, byte for
byte) is covered here deterministically and in
``test_property_partitioned.py`` property-style.
"""

from functools import partial

import pytest

from repro.core.cpm import CPMMonitor
from repro.api.session import Session, replay_workload
from repro.mobility.brinkhoff import BrinkhoffGenerator
from repro.mobility.uniform import UniformGenerator
from repro.mobility.workload import WorkloadSpec
from repro.service.deltas import diff_results
from repro.service.executor import (
    ProcessShardExecutor,
    SerialShardExecutor,
    ShardWorkerError,
)
from repro.service.partition import PartitionedMonitor, ShardPlan
from repro.service.service import MonitoringService
from repro.service.subscriptions import SubscriptionHub
from repro.updates import QueryUpdate, QueryUpdateKind, move_update


class TestShardPlan:
    def test_balanced_partition_covers_all_columns(self):
        plan = ShardPlan.build(4, 16)
        blocks = [list(plan.owned_columns(s)) for s in range(4)]
        assert [c for block in blocks for c in block] == list(range(16))
        assert all(len(block) == 4 for block in blocks)

    def test_uneven_partition_spreads_remainder(self):
        plan = ShardPlan.build(3, 16)
        sizes = [len(plan.owned_columns(s)) for s in range(3)]
        assert sorted(sizes) == [5, 5, 6]
        assert sum(sizes) == 16

    def test_shard_of_point_matches_column_owner(self):
        plan = ShardPlan.build(4, 16)
        assert plan.shard_of_point(0.0, 0.5) == 0
        assert plan.shard_of_point(0.26, 0.5) == 1
        assert plan.shard_of_point(0.99, 0.1) == 3
        # Out-of-bounds points clamp like Grid.cell_of does.
        assert plan.shard_of_point(-5.0, 0.5) == 0
        assert plan.shard_of_point(5.0, 0.5) == 3

    def test_shard_of_cell_ignores_row(self):
        plan = ShardPlan.build(2, 8)
        assert plan.shard_of_cell(3, 0) == plan.shard_of_cell(3, 7) == 0
        assert plan.shard_of_cell(4, 2) == 1

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ShardPlan.build(0, 16)
        with pytest.raises(ValueError):
            ShardPlan.build(32, 16)  # more shards than columns
        with pytest.raises(ValueError):
            ShardPlan.build(1, 0)

    def test_non_unit_bounds(self):
        plan = ShardPlan.build(2, 8, bounds=(10.0, -5.0, 30.0, 5.0))
        assert plan.shard_of_point(10.0, 0.0) == 0
        assert plan.shard_of_point(29.9, 0.0) == 1


def small_workload(**overrides):
    params = dict(n_objects=120, n_queries=6, k=3, timestamps=8, seed=21)
    params.update(overrides)
    return BrinkhoffGenerator(WorkloadSpec(**params)).generate()


def replay(monitor, workload):
    log: list = []
    report = replay_workload(
        monitor, workload, collect_results=True, result_log=log
    )
    return report, log


class TestShardedEquivalence:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_byte_identical_results(self, n_shards):
        workload = small_workload(query_agility=0.6, object_speed="fast")
        ref_report, ref_log = replay(CPMMonitor(cells_per_axis=16), workload)
        sharded = PartitionedMonitor(n_shards, cells_per_axis=16)
        report, log = replay(sharded, workload)
        assert log == ref_log
        # Search work is partitioned, not duplicated: the deterministic
        # counters match the single engine exactly.
        assert report.total_cell_scans == ref_report.total_cell_scans
        assert report.total_results_changed == ref_report.total_results_changed

    def test_uniform_workload_equivalence(self):
        spec = WorkloadSpec(n_objects=100, n_queries=5, k=4, timestamps=6, seed=9)
        workload = UniformGenerator(spec).generate()
        _, ref_log = replay(CPMMonitor(cells_per_axis=16), workload)
        _, log = replay(PartitionedMonitor(4, cells_per_axis=16), workload)
        assert log == ref_log

    def test_delta_stream_equivalence_with_cross_shard_moves(self):
        workload = small_workload(query_agility=1.0)
        single = CPMMonitor(cells_per_axis=16)
        sharded = PartitionedMonitor(4, cells_per_axis=16)
        for monitor in (single, sharded):
            monitor.load_objects(workload.initial_objects.items())
            for qid, point in workload.initial_queries.items():
                monitor.install_query(qid, point, workload.spec.k)
        crossings = 0
        for batch in workload.batches:
            for qu in batch.query_updates:
                if qu.kind is QueryUpdateKind.MOVE:
                    old = sharded.query_shard(qu.qid)
                    new = sharded.plan.shard_of_point(qu.point[0], qu.point[1])
                    crossings += old != new
            expect = single.process_deltas(batch.object_updates, batch.query_updates)
            got = sharded.process_deltas(batch.object_updates, batch.query_updates)
            assert got == expect, batch.timestamp
        assert crossings > 0, "workload exercised no cross-shard moves"

    def test_queries_route_to_owning_shards(self):
        sharded = PartitionedMonitor(4, cells_per_axis=16)
        sharded.load_objects([(1, (0.1, 0.1)), (2, (0.9, 0.9))])
        sharded.install_query(1, (0.05, 0.5), 1)
        sharded.install_query(2, (0.95, 0.5), 1)
        assert sharded.query_shard(1) == 0
        assert sharded.query_shard(2) == 3
        assert sharded.shard_query_counts() == [1, 0, 0, 1]
        # Serial executor: only the owning shard holds the query state,
        # and each shard holds only the objects of its block plus halo.
        engines = sharded.executor.monitors()
        assert engines[0].query_ids() == [1]
        assert engines[3].query_ids() == [2]
        assert [e.object_count for e in engines] == [1, 0, 0, 1]
        assert sharded.object_count == 2

    def test_terminate_and_duplicate_install_match_single_engine(self):
        sharded = PartitionedMonitor(2, cells_per_axis=8)
        sharded.load_objects([(1, (0.3, 0.5))])
        sharded.install_query(7, (0.2, 0.5), 1)
        with pytest.raises(KeyError):
            sharded.install_query(7, (0.2, 0.5), 1)
        with pytest.raises(KeyError):
            sharded.remove_query(8)
        sharded.remove_query(7)
        assert sharded.query_ids() == []
        with pytest.raises(KeyError):
            sharded.process([], [QueryUpdate(7, QueryUpdateKind.TERMINATE)])

    def test_bad_query_batch_leaves_router_untouched(self):
        # A batch that fails validation must raise before any routing or
        # shard work happens: the router and the engines stay consistent.
        sharded = PartitionedMonitor(2, cells_per_axis=8)
        sharded.load_objects([(1, (0.3, 0.5))])
        sharded.install_query(7, (0.2, 0.5), 1)
        bad_batches = [
            # terminate known + duplicate-insert of an installed query
            [
                QueryUpdate(7, QueryUpdateKind.TERMINATE),
                QueryUpdate(9, QueryUpdateKind.INSERT, (0.8, 0.5), 1),
                QueryUpdate(9, QueryUpdateKind.INSERT, (0.8, 0.5), 1),
            ],
            # move of an unknown query after a valid terminate
            [
                QueryUpdate(7, QueryUpdateKind.TERMINATE),
                QueryUpdate(42, QueryUpdateKind.MOVE, (0.8, 0.5), 1),
            ],
        ]
        for batch in bad_batches:
            with pytest.raises(KeyError):
                sharded.process([], batch)
            assert sharded.query_ids() == [7]
            assert sharded.result_table().keys() == {7}
            assert sharded.executor.monitors()[0].query_ids() == [7]

    def test_double_cross_shard_move_same_cycle(self):
        # A query bouncing A -> B -> A within one batch: transit shard B
        # saw only a transient install; the merged delta must still diff
        # against the true pre-cycle result (single-engine view).
        single = CPMMonitor(cells_per_axis=8)
        sharded = PartitionedMonitor(2, cells_per_axis=8)
        objs = [(i, (i / 10.0, 0.5)) for i in range(1, 10)]
        for m in (single, sharded):
            m.load_objects(list(objs))
            m.install_query(7, (0.2, 0.5), 3)
        assert sharded.query_shard(7) == 0
        bounce = [
            QueryUpdate(7, QueryUpdateKind.MOVE, (0.9, 0.5), 3),   # -> shard 1
            QueryUpdate(7, QueryUpdateKind.MOVE, (0.25, 0.5), 3),  # -> shard 0
        ]
        expect = single.process_deltas([], bounce)
        got = sharded.process_deltas([], bounce)
        assert got == expect
        assert sharded.query_shard(7) == 0
        # And the A -> B -> C chain (needs 4 shards for three columns).
        single4 = CPMMonitor(cells_per_axis=8)
        sharded4 = PartitionedMonitor(4, cells_per_axis=8)
        for m in (single4, sharded4):
            m.load_objects(list(objs))
            m.install_query(7, (0.1, 0.5), 3)
        chain = [
            QueryUpdate(7, QueryUpdateKind.MOVE, (0.4, 0.5), 3),
            QueryUpdate(7, QueryUpdateKind.MOVE, (0.9, 0.5), 3),
        ]
        assert sharded4.process_deltas([], chain) == single4.process_deltas(
            [], chain
        )

    def test_insert_then_terminate_same_cycle(self):
        single = CPMMonitor(cells_per_axis=8)
        sharded = PartitionedMonitor(2, cells_per_axis=8)
        for m in (single, sharded):
            m.load_objects([(1, (0.3, 0.5))])
        batch = [
            QueryUpdate(9, QueryUpdateKind.INSERT, (0.5, 0.5), 1),
            QueryUpdate(9, QueryUpdateKind.TERMINATE),
        ]
        assert sharded.process([], list(batch)) == single.process([], list(batch))
        assert sharded.query_ids() == single.query_ids() == []
        # Delta view: the transient query drains to a terminated delta.
        d1 = single.process_deltas(
            [],
            [
                QueryUpdate(9, QueryUpdateKind.INSERT, (0.5, 0.5), 1),
                QueryUpdate(9, QueryUpdateKind.TERMINATE),
            ],
        )
        d2 = sharded.process_deltas(
            [],
            [
                QueryUpdate(9, QueryUpdateKind.INSERT, (0.5, 0.5), 1),
                QueryUpdate(9, QueryUpdateKind.TERMINATE),
            ],
        )
        assert d1 == d2

    def test_terminate_then_reinsert_same_cycle(self):
        single = CPMMonitor(cells_per_axis=8)
        sharded = PartitionedMonitor(2, cells_per_axis=8)
        for m in (single, sharded):
            m.load_objects([(1, (0.3, 0.5)), (2, (0.8, 0.5))])
            m.install_query(7, (0.2, 0.5), 1)
        batch = [
            QueryUpdate(7, QueryUpdateKind.TERMINATE),
            QueryUpdate(7, QueryUpdateKind.INSERT, (0.9, 0.5), 1),
        ]
        assert sharded.process([], batch) == single.process([], batch)
        assert sharded.result_table() == single.result_table()
        assert sharded.query_shard(7) == sharded.plan.shard_of_point(0.9, 0.5)

    def test_object_accounting(self):
        sharded = PartitionedMonitor(2, cells_per_axis=8)
        sharded.load_objects([(1, (0.3, 0.5)), (2, (0.8, 0.5))])
        assert sharded.object_count == 2
        assert sharded.object_position(1) == (0.3, 0.5)
        sharded.process([move_update(1, (0.3, 0.5), (0.6, 0.5))])
        assert sharded.object_position(1) == (0.6, 0.5)


class TestProcessExecutor:
    def test_equivalence_and_cleanup(self):
        workload = small_workload(timestamps=5)
        _, ref_log = replay(CPMMonitor(cells_per_axis=16), workload)
        with PartitionedMonitor(
            2, cells_per_axis=16, executor=ProcessShardExecutor()
        ) as sharded:
            _, log = replay(sharded, workload)
            assert log == ref_log
        assert sharded.executor.n_shards == 0  # workers reaped

    def test_worker_errors_propagate(self):
        executor = ProcessShardExecutor()
        try:
            executor.start([partial(CPMMonitor, 8)] * 2)
            with pytest.raises(ShardWorkerError, match="KeyError"):
                executor.call(0, "remove_query", 12345)
        finally:
            executor.close()

    def test_call_all_error_does_not_desync_protocol(self):
        executor = ProcessShardExecutor()
        try:
            executor.start([partial(CPMMonitor, 8)] * 2)
            # Shard 0 fails (k=0 is invalid), shard 1 succeeds; the healthy
            # reply must be drained so the next command still lines up.
            with pytest.raises(ShardWorkerError, match="shard 0"):
                executor.call_all(
                    "install_query", [(1, (0.5, 0.5), 0), (1, (0.5, 0.5), 1)]
                )
            (ids0, _), (ids1, _) = executor.call_all("query_ids", [(), ()])
            assert ids0 == []  # the failing install installed nothing
            assert ids1 == [1]
        finally:
            executor.close()

    def test_serial_executor_guards(self):
        executor = SerialShardExecutor()
        executor.start([partial(CPMMonitor, 8)])
        with pytest.raises(RuntimeError):
            executor.start([partial(CPMMonitor, 8)])
        with pytest.raises(ValueError):
            executor.call_all("result_table", [(), ()])


class TestStatsAggregation:
    def test_sharded_counters_feed_run_report(self):
        workload = small_workload(timestamps=4)
        single_report = replay_workload(CPMMonitor(cells_per_axis=16), workload)
        sharded_report = replay_workload(
            PartitionedMonitor(2, cells_per_axis=16), workload
        )
        assert sharded_report.total_cell_scans == single_report.total_cell_scans
        # Maintenance is counted once, on the coordinator store: the
        # insert/delete counters match the single engine's too.
        single_ops = sum(c.stats.inserts + c.stats.deletes for c in single_report.cycles)
        sharded_ops = sum(
            c.stats.inserts + c.stats.deletes for c in sharded_report.cycles
        )
        assert sharded_ops == single_ops


class TestSubscriptionHub:
    def make_delta(self, qid, changed=True):
        if changed:
            return diff_results(qid, [], [(0.1, 1)])
        return diff_results(qid, [(0.1, 1)], [(0.1, 1)])

    def test_filtering_by_qid(self):
        hub = SubscriptionHub()
        seen = []
        hub.subscribe(lambda ts, d: seen.append((ts, d.qid)), qids=[1, 3])
        delivered = hub.publish(7, {q: self.make_delta(q) for q in (1, 2, 3)})
        assert delivered == 2
        assert seen == [(7, 1), (7, 3)]

    def test_unchanged_deltas_skipped_unless_requested(self):
        hub = SubscriptionHub()
        quiet, chatty = [], []
        hub.subscribe(lambda ts, d: quiet.append(d.qid))
        hub.subscribe(lambda ts, d: chatty.append(d.qid), include_unchanged=True)
        hub.publish(0, {1: self.make_delta(1, changed=False)})
        assert quiet == [] and chatty == [1]

    def test_unsubscribe_and_counters(self):
        hub = SubscriptionHub()
        sub = hub.subscribe(lambda ts, d: None)
        assert hub.has_subscribers and sub.active
        hub.publish(0, {1: self.make_delta(1)})
        assert sub.delivered == 1
        sub.close()
        sub.close()  # idempotent
        assert not hub.has_subscribers and not sub.active
        assert hub.publish(1, {1: self.make_delta(1)}) == 0

    def test_callback_may_unsubscribe_during_publish(self):
        hub = SubscriptionHub()
        first = hub.subscribe(lambda ts, d: first.close())
        rest = []
        hub.subscribe(lambda ts, d: rest.append(d.qid))
        hub.publish(0, {1: self.make_delta(1), 2: self.make_delta(2)})
        # The self-removing callback got the snapshot fan-out; the second
        # subscriber saw everything.
        assert rest == [1, 2]

    def test_publish_is_ordered_by_qid(self):
        hub = SubscriptionHub()
        order = []
        hub.subscribe(lambda ts, d: order.append(d.qid))
        hub.publish(0, {3: self.make_delta(3), 1: self.make_delta(1)})
        assert order == [1, 3]


class TestMonitoringService:
    def test_tick_matches_process_when_unsubscribed(self):
        workload = small_workload(timestamps=4)
        monitor = CPMMonitor(cells_per_axis=16)
        shadow = CPMMonitor(cells_per_axis=16)
        service = MonitoringService(monitor)
        for m in (monitor, shadow):
            m.load_objects(workload.initial_objects.items())
        for qid, point in workload.initial_queries.items():
            service.install_query(qid, point, workload.spec.k)
            shadow.install_query(qid, point, workload.spec.k)
        for batch in workload.batches:
            assert service.tick_batch(batch) == shadow.process(
                batch.object_updates, batch.query_updates
            )

    def test_tick_changed_set_identical_on_both_paths(self):
        workload = small_workload(timestamps=5)
        plain = MonitoringService(CPMMonitor(cells_per_axis=16))
        streaming = MonitoringService(CPMMonitor(cells_per_axis=16))
        streaming.subscribe(lambda ts, d: None)
        for service in (plain, streaming):
            service.load_objects(workload.initial_objects.items())
            for qid, point in workload.initial_queries.items():
                service.install_query(qid, point, workload.spec.k)
        for batch in workload.batches:
            assert plain.tick_batch(batch) == streaming.tick_batch(batch)

    def test_install_and_remove_stream_snapshots(self):
        service = MonitoringService(CPMMonitor(cells_per_axis=8))
        service.load_objects([(1, (0.4, 0.5)), (2, (0.6, 0.5))])
        events = []
        service.subscribe(lambda ts, d: events.append((ts, d.qid, d.terminated)))
        service.install_query(5, (0.5, 0.5), 2)
        service.remove_query(5)
        assert events == [(None, 5, False), (None, 5, True)]

    def test_server_streams_while_replaying(self):
        workload = small_workload(timestamps=4)
        monitor = PartitionedMonitor(2, cells_per_axis=16)
        service = MonitoringService(monitor)
        timestamps = set()
        service.subscribe(lambda ts, d: timestamps.add(ts))
        report = Session(service).replay(workload)
        assert report.timestamps == len(workload.batches)
        # Install snapshots (None) plus every cycle that changed something.
        assert None in timestamps
        assert {b.timestamp for b in workload.batches} <= timestamps

    def test_session_replay_reuses_service_hub(self):
        # Handing a pre-built service to Session keeps its hub (and
        # therefore its subscribers) wired through the replay.
        workload = small_workload(timestamps=2)
        service = MonitoringService(CPMMonitor(cells_per_axis=8))
        session = Session(service)
        assert session.service is service
        events = []
        service.subscribe(lambda ts, d: events.append(ts))
        session.replay(workload)
        assert events
