"""End-to-end tests of the ingest driver (feed -> buffer -> batcher ->
service), including the back-pressure acceptance property: a feed that
outruns the cycle budget coalesces/drops, and an offline replay of the
recorded (coalesced) stream reproduces the exact end state."""

import random
import socket
import threading
import time

import pytest

from repro.core.cpm import CPMMonitor
from repro.ingest import (
    BackPressurePolicy,
    CycleMark,
    GeneratorFeed,
    IngestBuffer,
    IngestDriver,
    SocketFeed,
    ThreadedFeedPump,
    UpdateFeed,
    WorkloadFeed,
    push_feed_to_socket,
)
from repro.mobility.brinkhoff import BrinkhoffGenerator
from repro.mobility.workload import Workload, WorkloadSpec
from repro.service.service import MonitoringService, TickReport
from repro.updates import ObjectUpdate, QueryUpdate, QueryUpdateKind, UpdateBatch

SPEC = WorkloadSpec(
    n_objects=120,
    n_queries=6,
    k=3,
    timestamps=8,
    seed=31,
    object_speed="fast",
    query_agility=0.4,
)


def _fresh_service(cells: int = 8) -> MonitoringService:
    return MonitoringService(CPMMonitor(cells_per_axis=cells))


def _reference_monitor(workload, cells: int = 8) -> CPMMonitor:
    monitor = CPMMonitor(cells_per_axis=cells)
    monitor.load_objects(sorted(workload.initial_objects.items()))
    for qid, point in sorted(workload.initial_queries.items()):
        monitor.install_query(qid, point, SPEC.k)
    for batch in workload.batches:
        monitor.process(batch.object_updates, batch.query_updates)
    return monitor


class TestMarkHonoringReplay:
    def test_driver_replay_is_byte_identical_to_direct_replay(self):
        """Mark-honoring flat-path ingestion == plain replay: same
        results, same changed counts, same deterministic counters."""
        workload = BrinkhoffGenerator(SPEC).generate()
        reference = _reference_monitor(workload)

        service = _fresh_service()
        driver = IngestDriver(WorkloadFeed(workload), service)
        driver.prime(k=SPEC.k)
        report = driver.run()

        assert report.n_cycles == len(workload.batches)
        assert [c.timestamp for c in report.cycles] == [
            b.timestamp for b in workload.batches
        ]
        assert all(c.trigger == "mark" for c in report.cycles)
        assert service.monitor.result_table() == reference.result_table()
        ref_stats = reference.stats
        got_stats = service.monitor.stats
        for field in ("cell_scans", "objects_scanned", "inserts", "deletes", "mark_ops"):
            assert getattr(got_stats, field) == getattr(ref_stats, field), field
        # An exact replay coalesces and drops nothing.
        assert report.total_coalesced == 0
        assert report.total_dropped == 0
        assert report.total_applied == workload.total_object_updates
        # A plain engine has no cross-partition traffic to report.
        assert report.partition is None

    def test_partitioned_service_reports_traffic_counters(self):
        """Driving a PartitionedMonitor fills IngestReport.partition
        with the cross-partition traffic counters at the identical end
        state."""
        from repro.service.partition import PartitionedMonitor

        workload = BrinkhoffGenerator(SPEC).generate()
        reference = _reference_monitor(workload)

        monitor = PartitionedMonitor(4, cells_per_axis=8)
        service = MonitoringService(monitor)
        driver = IngestDriver(WorkloadFeed(workload), service)
        driver.prime(k=SPEC.k)
        try:
            report = driver.run()
            table = service.monitor.result_table()
        finally:
            monitor.close()

        assert table == reference.result_table()
        assert report.partition is not None
        assert report.partition["cycles"] == len(workload.batches)
        assert report.partition["fanout_rows"] > 0
        for key in ("sync_rows", "pulls", "pull_objects", "migrations"):
            assert report.partition[key] >= 0

    def test_max_cycles_caps_the_run(self):
        workload = BrinkhoffGenerator(SPEC).generate()
        service = _fresh_service()
        driver = IngestDriver(WorkloadFeed(workload), service)
        driver.prime(k=SPEC.k)
        report = driver.run(max_cycles=3)
        assert report.n_cycles == 3


class TestRecutCycles:
    def test_size_trigger_recuts_but_preserves_end_state(self):
        """Ignoring marks and cutting every 40 objects re-shapes the
        cycles; the end-of-run state must still match the direct replay
        (the batcher re-bases every move off applied positions)."""
        workload = BrinkhoffGenerator(SPEC).generate()
        reference = _reference_monitor(workload)
        service = _fresh_service()
        driver = IngestDriver(
            WorkloadFeed(workload), service, honor_marks=False, max_batch=40
        )
        driver.prime(k=SPEC.k)
        report = driver.run()
        assert any(c.trigger == "size" for c in report.cycles)
        assert service.monitor.result_table() == reference.result_table()
        assert service.monitor.object_count == reference.object_count

    def test_deadline_trigger_with_fake_clock(self):
        """A virtual clock that advances one tick per reading makes the
        deadline trigger fire deterministically.  At 6ms per reading and
        a 10ms deadline, the post-trigger bookkeeping alone (several
        clock reads) exceeds a further full period, so the overrun
        accounting must flag deadline-triggered cycles too."""
        workload = BrinkhoffGenerator(SPEC).generate()
        ticks = iter(range(10_000_000))
        clock = lambda: next(ticks) * 0.006  # noqa: E731 - tiny test stub
        service = _fresh_service()
        driver = IngestDriver(
            WorkloadFeed(workload),
            service,
            honor_marks=False,
            cycle_deadline=0.01,
            clock=clock,
        )
        driver.prime(k=SPEC.k)
        report = driver.run()
        assert any(c.trigger == "deadline" for c in report.cycles)
        assert report.deadline_overruns >= 1
        reference = _reference_monitor(workload)
        assert service.monitor.result_table() == reference.result_table()

    def test_early_triggered_cycles_are_not_flagged_overrun_when_fast(self):
        """Mark-honoring cycles close long before a generous deadline:
        none may be flagged as overruns."""
        workload = BrinkhoffGenerator(SPEC).generate()
        service = _fresh_service()
        driver = IngestDriver(WorkloadFeed(workload), service, cycle_deadline=60.0)
        driver.prime(k=SPEC.k)
        report = driver.run()
        assert all(c.trigger == "mark" for c in report.cycles)
        assert report.deadline_overruns == 0


class TestBackPressure:
    def test_overrunning_feed_coalesces_and_replays_consistently(self):
        """The acceptance criterion: a producer thread outrunning the
        consumer's budget forces coalescing/drops, and replaying the
        recorded coalesced stream offline reproduces the end state."""
        spec = WorkloadSpec(
            n_objects=150,
            n_queries=4,
            k=3,
            timestamps=25,
            seed=5,
            object_speed="fast",
            object_agility=1.0,
            query_agility=0.0,
        )
        feed = GeneratorFeed(spec, timestamps=spec.timestamps)
        buffer = IngestBuffer(capacity=16, policy=BackPressurePolicy.DROP_OLDEST)
        service = _fresh_service()
        driver = IngestDriver(
            feed,
            service,
            buffer=buffer,
            max_batch=12,
            honor_marks=False,
            record=True,
        )
        driver.prime(k=spec.k)
        pump = ThreadedFeedPump(feed, buffer).start()
        report = driver.run(from_buffer=True)
        pump.stop()

        # The pump pushes far faster than one drain per 12 objects can
        # keep up with: back-pressure must have engaged.
        assert report.total_coalesced + report.total_dropped > 0

        # Offline replay of the recorded stream == the live end state.
        offline = CPMMonitor(cells_per_axis=8)
        offline.load_objects(sorted(feed.initial_objects().items()))
        for qid, point in sorted(feed.initial_queries().items()):
            offline.install_query(qid, point, spec.k)
        for batch in driver.recorded:
            offline.process_flat(batch)
        assert offline.result_table() == service.monitor.result_table()
        assert offline.object_count == service.monitor.object_count

    def test_block_policy_applies_real_back_pressure(self):
        spec = WorkloadSpec(
            n_objects=60, n_queries=2, k=2, timestamps=10, seed=3, query_agility=0.0
        )
        feed = GeneratorFeed(spec, timestamps=spec.timestamps)
        buffer = IngestBuffer(capacity=8, policy=BackPressurePolicy.BLOCK)
        service = _fresh_service()
        driver = IngestDriver(
            feed, service, buffer=buffer, max_batch=8, honor_marks=False, record=True
        )
        driver.prime(k=spec.k)
        pump = ThreadedFeedPump(feed, buffer, offer_timeout=0.005).start()
        report = driver.run(from_buffer=True)
        pump.stop()
        # BLOCK never drops; every offered update is applied or coalesced.
        assert report.total_dropped == 0
        offline = CPMMonitor(cells_per_axis=8)
        offline.load_objects(sorted(feed.initial_objects().items()))
        for qid, point in sorted(feed.initial_queries().items()):
            offline.install_query(qid, point, spec.k)
        for batch in driver.recorded:
            offline.process_flat(batch)
        assert offline.result_table() == service.monitor.result_table()


class TestPullModeBoundedBuffer:
    def test_small_block_buffer_never_deadlocks_the_pull_loop(self):
        """Regression: a caller-supplied bounded BLOCK buffer must not
        deadlock the single-threaded pull loop — a full buffer closes
        the cycle and the unplaceable event carries into the next one,
        with no update lost."""
        workload = BrinkhoffGenerator(SPEC).generate()
        reference = _reference_monitor(workload)
        service = _fresh_service()
        buffer = IngestBuffer(capacity=5, policy=BackPressurePolicy.BLOCK)
        driver = IngestDriver(
            WorkloadFeed(workload), service, buffer=buffer, honor_marks=False
        )
        driver.prime(k=SPEC.k)
        report = driver.run()
        # BLOCK sheds nothing; cycles are clamped at the buffer capacity.
        assert report.total_dropped == 0
        assert all(c.applied <= 5 for c in report.cycles)
        # Carried events count exactly once: no producer ever waited or
        # was rejected in single-threaded pull mode.
        assert report.total_offered == workload.total_object_updates
        assert all(c.blocked == 0 for c in report.cycles)
        assert service.monitor.result_table() == reference.result_table()
        assert service.monitor.object_count == reference.object_count


class TestBufferedDeadlineOnly:
    def test_deadline_without_max_batch_accumulates_until_deadline(self):
        """Regression: with only cycle_deadline configured, buffered mode
        must accumulate for the full deadline instead of closing a
        one-object cycle the moment anything is staged."""
        spec = WorkloadSpec(
            n_objects=100, n_queries=3, k=2, timestamps=6, seed=17, query_agility=0.0
        )
        feed = GeneratorFeed(spec, timestamps=spec.timestamps)
        buffer = IngestBuffer(capacity=1 << 16)
        service = _fresh_service()
        driver = IngestDriver(
            feed, service, buffer=buffer, cycle_deadline=0.05, honor_marks=False
        )
        driver.prime(k=spec.k)
        pump = ThreadedFeedPump(feed, buffer).start()
        report = driver.run(from_buffer=True)
        pump.stop()
        # The pump finishes the whole finite feed well inside a few
        # 50ms windows: the run must be a handful of fat cycles, not
        # hundreds of one-object cycles.
        assert report.n_cycles < 50
        assert any(c.applied > 1 for c in report.cycles)
        assert all(c.trigger in ("deadline", "drain", "end") for c in report.cycles)


class TestBackgroundDriver:
    def test_start_stop_round_trip(self):
        workload = BrinkhoffGenerator(SPEC).generate()
        reference = _reference_monitor(workload)
        service = _fresh_service()
        driver = IngestDriver(WorkloadFeed(workload), service)
        driver.prime(k=SPEC.k)
        driver.start()
        # The feed is finite; the background loop drains it completely.
        import time

        report = None
        for _ in range(2000):
            if len(driver.report.cycles) >= len(workload.batches):
                report = driver.stop()
                break
            time.sleep(0.005)
        assert report is not None
        assert report.n_cycles == len(workload.batches)
        assert service.monitor.result_table() == reference.result_table()


class TestTickReport:
    def test_tick_report_surfaces_label_and_counts(self):
        workload = BrinkhoffGenerator(SPEC).generate()
        service = _fresh_service()
        service.load_objects(sorted(workload.initial_objects.items()))
        for qid, point in sorted(workload.initial_queries.items()):
            service.install_query(qid, point, SPEC.k)
        batch = workload.batches[0]
        report = service.tick_report(batch)
        assert isinstance(report, TickReport)
        assert report.timestamp == batch.timestamp
        assert service.last_timestamp == batch.timestamp
        assert report.object_updates == len(batch.object_updates)
        assert report.query_updates == len(batch.query_updates)
        assert not report.streamed
        assert report.process_sec >= 0.0

    def test_tick_report_flat_matches_row_batch(self):
        from repro.updates import FlatUpdateBatch

        workload = BrinkhoffGenerator(SPEC).generate()
        row_service = _fresh_service()
        flat_service = _fresh_service()
        for service in (row_service, flat_service):
            service.load_objects(sorted(workload.initial_objects.items()))
            for qid, point in sorted(workload.initial_queries.items()):
                service.install_query(qid, point, SPEC.k)
        for batch in workload.batches:
            row_report = row_service.tick_report(batch)
            flat_report = flat_service.tick_report(FlatUpdateBatch.from_batch(batch))
            assert flat_report.changed == row_report.changed
            assert flat_report.timestamp == row_report.timestamp
        assert row_service.monitor.result_table() == flat_service.monitor.result_table()


# ----------------------------------------------------------------------
# Feed items: chunks, rows, query updates, marks — and nothing else
# ----------------------------------------------------------------------


class _ListFeed(UpdateFeed):
    def __init__(self, items, objects) -> None:
        self.items = items
        self.objects = objects

    def initial_objects(self):
        return dict(self.objects)

    def events(self):
        yield from self.items


def _finish(pump: ThreadedFeedPump, buffer: IngestBuffer) -> None:
    """Let the pump run to the end of its feed (it closes the buffer
    then), and re-raise what killed it, if anything did."""
    deadline = time.monotonic() + 10.0
    while not buffer.closed and time.monotonic() < deadline:
        time.sleep(0.001)
    assert buffer.closed
    pump.stop()


class TestFeedItemDispatch:
    def test_an_unknown_item_fails_the_cycle_and_is_staged_nowhere(self):
        """Anything but a chunk, row, query update or mark is a feed
        bug: the pull loop raises ``TypeError`` naming its type instead
        of staging it as a query update, so no cycle runs — the shadow
        table keeps the applied position — and the row before it stays
        staged for the next cycle."""
        feed = _ListFeed(
            [
                ObjectUpdate(1, (0.1, 0.1), (0.3, 0.3)),
                ("stray", 1),
                CycleMark(0),
            ],
            {1: (0.1, 0.1)},
        )
        service = _fresh_service()
        driver = IngestDriver(feed, service)
        driver.prime()
        with pytest.raises(TypeError, match="'tuple'"):
            driver.pump_cycle()
        assert driver.batcher.positions == {1: (0.1, 0.1)}
        assert service.monitor.object_position(1) == (0.1, 0.1)
        assert driver.buffer.pending_queries == 0
        assert driver.buffer.pending == 1
        stats = driver.pump_cycle()
        assert (stats.trigger, stats.applied) == ("mark", 1)
        assert service.monitor.object_position(1) == (0.3, 0.3)

    def test_the_pump_refuses_an_unknown_item_too(self):
        buffer = IngestBuffer()
        feed = _ListFeed([ObjectUpdate(1, None, (0.5, 0.5)), 7], {})
        pump = ThreadedFeedPump(feed, buffer).start()
        with pytest.raises(TypeError, match="'int'"):
            _finish(pump, buffer)
        assert buffer.pending == 1 and buffer.pending_queries == 0


def _repeating_workload(seed: int = 5) -> Workload:
    """Three cycles of ~700 rows over 150 objects, so an object moves
    several times inside one 256-row frame; a few appearances,
    disappearances and one query move ride along."""
    rng = random.Random(seed)
    objects = {oid: (rng.random(), rng.random()) for oid in range(120)}
    where = dict(objects)
    batches = []
    for t in range(3):
        rows = []
        for _ in range(700):
            oid = rng.randrange(150)
            old = where.get(oid)
            if old is not None and rng.random() < 0.03:
                rows.append(ObjectUpdate(oid, old, None))
                del where[oid]
                continue
            new = (rng.random(), rng.random())
            rows.append(ObjectUpdate(oid, old, new))
            where[oid] = new
        queries = (QueryUpdate(2, QueryUpdateKind.MOVE, (0.4, 0.6), 3),)
        batches.append(UpdateBatch(t, tuple(rows), queries))
    queries = {qid: (0.2 * qid + 0.1, 0.5) for qid in range(5)}
    return Workload(SPEC, objects, queries, batches)


class TestChunksIngestLikeRows:
    """One stream, read as chunks (``SocketFeed``: one per 256-row
    ``updates`` frame) and as rows (``WorkloadFeed``), must cut the same
    cycles: ``max_batch`` falls inside a frame, so the size trigger and a
    full BLOCK buffer split chunks mid-way.  Buffered runs let the pump
    finish before the driver starts, so the interleaving is fixed (a
    BLOCK buffer then needs room for every object)."""

    @pytest.mark.parametrize(
        "mode, policy, capacity",
        [
            ("pull", BackPressurePolicy.BLOCK, 1 << 20),
            ("pull", BackPressurePolicy.BLOCK, 80),
            ("pull", BackPressurePolicy.DROP_OLDEST, 80),
            ("buffered", BackPressurePolicy.BLOCK, 1 << 20),
            ("buffered", BackPressurePolicy.DROP_OLDEST, 80),
        ],
    )
    def test_same_batches_triggers_and_counts(self, mode, policy, capacity):
        workload = _repeating_workload()
        rows = self._run(WorkloadFeed(workload), workload, mode, policy, capacity)
        feed_end, producer_end = socket.socketpair()
        producer = threading.Thread(
            target=push_feed_to_socket,
            args=(WorkloadFeed(workload), producer_end),
            daemon=True,
        )
        producer.start()
        try:
            chunked = self._run(
                SocketFeed(
                    feed_end,
                    initial_objects=workload.initial_objects,
                    initial_queries=workload.initial_queries,
                ),
                workload,
                mode,
                policy,
                capacity,
            )
        finally:
            producer.join(10.0)
            producer_end.close()
            feed_end.close()
        assert not producer.is_alive()
        assert chunked == rows
        cycles = rows[0]
        assert sum(coalesced for _t, _o, coalesced, _d in cycles) > 0
        if policy is BackPressurePolicy.DROP_OLDEST:
            assert sum(dropped for _t, _o, _c, dropped in cycles) > 0
        else:
            assert "size" in [trigger for trigger, _o, _c, _d in cycles]

    @staticmethod
    def _run(feed, workload, mode, policy, capacity):
        service = _fresh_service()
        buffer = IngestBuffer(capacity=capacity, policy=policy)
        driver = IngestDriver(
            feed,
            service,
            buffer=buffer,
            max_batch=100,
            honor_marks=False,
            record=True,
        )
        driver.prime(k=3)
        if mode == "buffered":
            _finish(ThreadedFeedPump(feed, buffer).start(), buffer)
        report = driver.run(from_buffer=mode == "buffered")
        cycles = [
            (c.trigger, c.offered, c.coalesced, c.dropped) for c in report.cycles
        ]
        return cycles, driver.recorded, service.monitor.result_table()
