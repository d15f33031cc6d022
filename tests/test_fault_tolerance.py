"""Chaos suite: seeded fault injection across the service and wire tiers.

The headline acceptance checks:

* a seeded :class:`repro.testing.faults.FaultPlan` SIGKILLing a shard
  worker mid-replay completes (RESTART policy) with results **and**
  deterministic counters byte-identical to a fault-free serial run —
  the supervisor's command-log replay is exact, not approximate;
* a :class:`repro.api.client.Client` survives a forced mid-stream
  disconnect, reconnecting and re-syncing to a snapshot equal to the
  server's own result table.

Process-spawning and socket-level tests are marked ``chaos`` so CI can
run them as their own job (they also run in the plain suite — they are
fast at these workload sizes).
"""

import socket
import threading
import time
from functools import partial

import pytest

from repro.api import wire
from repro.api.client import Client, RemoteError
from repro.api.queries import KnnSpec
from repro.api.retry import ReconnectPolicy
from repro.api.server import MonitorSocketServer
from repro.api.session import Session, replay_workload
from repro.core.cpm import CPMMonitor
from repro.experiments.common import build_monitor
from repro.ingest.buffer import IngestBuffer
from repro.ingest.driver import IngestDriver, ThreadedFeedPump
from repro.ingest.feeds import CycleMark, SocketFeed, UpdateFeed
from repro.mobility.brinkhoff import BrinkhoffGenerator
from repro.mobility.workload import WorkloadSpec
from repro.service.executor import (
    ProcessShardExecutor,
    ShardCrashError,
    ShardTimeoutError,
)
from repro.service.partition import PartitionedMonitor
from repro.service.service import MonitoringService
from repro.service.supervisor import SupervisedShardExecutor, SupervisorPolicy
from repro.testing import FaultPlan, ScheduledFault
from repro.updates import FlatUpdateBatch, ObjectUpdate

CELLS = 16


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


def supervised_replay(workload, plan, **executor_kwargs):
    executor = SupervisedShardExecutor(
        fault_hook=None if plan is None else plan.executor_hook(),
        **executor_kwargs,
    )
    monitor = PartitionedMonitor(2, cells_per_axis=CELLS, executor=executor)
    try:
        report, log = replay(monitor, workload)
    finally:
        monitor.close()
    return report, log, executor


# ----------------------------------------------------------------------
# Supervised executor: crash recovery vs the fault-free reference
# ----------------------------------------------------------------------


@pytest.mark.chaos
class TestSupervisedRecovery:
    def test_restart_recovery_is_byte_identical(self):
        """SIGKILL a shard mid-replay; the RESTART rebuild (command-log
        replay) must converge to the fault-free serial run, counters
        included — the ISSUE's headline acceptance criterion."""
        workload = small_workload(query_agility=0.5)
        ref_report, ref_log = replay(CPMMonitor(cells_per_axis=CELLS), workload)
        plan = FaultPlan(seed=7).kill_worker(shard=1, at_command=6)
        report, log, executor = supervised_replay(workload, plan)
        assert [f.kind for f in plan.fired] == ["kill"]
        assert executor.restart_counts[1] == 1
        assert [e.action for e in executor.events] == ["restart"]
        assert log == ref_log
        assert report.total_cell_scans == ref_report.total_cell_scans
        assert report.total_objects_scanned == ref_report.total_objects_scanned
        assert report.total_results_changed == ref_report.total_results_changed

    def test_degrade_to_serial_is_byte_identical(self):
        workload = small_workload()
        _, ref_log = replay(CPMMonitor(cells_per_axis=CELLS), workload)
        plan = FaultPlan().kill_worker(shard=0, at_command=9)
        report, log, executor = supervised_replay(
            workload, plan, policy=SupervisorPolicy.DEGRADE_TO_SERIAL
        )
        assert [f.kind for f in plan.fired] == ["kill"]
        assert [(e.action, e.shard) for e in executor.events] == [("degrade", 0)]
        assert log == ref_log

    def test_fail_fast_raises(self):
        workload = small_workload(timestamps=4)
        plan = FaultPlan().kill_worker(shard=1, at_command=5)
        with pytest.raises(ShardCrashError):
            supervised_replay(
                workload, plan, policy=SupervisorPolicy.FAIL_FAST
            )

    def test_sigstop_detected_by_recv_timeout_and_recovered(self):
        """A wedged (SIGSTOPped) worker never closes its pipe — only the
        recv deadline can see it; the restart path must still converge."""
        workload = small_workload(timestamps=6)
        _, ref_log = replay(CPMMonitor(cells_per_axis=CELLS), workload)
        plan = FaultPlan().stop_worker(shard=0, at_command=7)
        report, log, executor = supervised_replay(
            workload, plan, recv_timeout=1.0
        )
        assert [f.kind for f in plan.fired] == ["stop"]
        assert any("ShardTimeoutError" in e.error for e in executor.events)
        assert log == ref_log

    def test_restart_budget_exhausted_raises(self):
        workload = small_workload(timestamps=6)
        plan = (
            FaultPlan()
            .kill_worker(shard=1, at_command=5)
            .kill_worker(shard=1, at_command=6)
        )
        with pytest.raises(ShardCrashError):
            supervised_replay(workload, plan, max_restarts=1)

    def test_checkpoint_compaction_then_crash(self):
        """A checkpoint truncates the replay log; recovery = restore the
        snapshot, then replay only the tail — results still converge."""
        workload = small_workload(query_agility=0.4)
        _, ref_log = replay(CPMMonitor(cells_per_axis=CELLS), workload)
        plan = FaultPlan().kill_worker(shard=1, at_command=14)
        executor = SupervisedShardExecutor(fault_hook=plan.executor_hook())
        monitor = PartitionedMonitor(2, cells_per_axis=CELLS, executor=executor)
        try:
            log: list = []
            cycles = 0

            def on_cycle(report):
                nonlocal cycles
                cycles += 1
                if cycles == 3:
                    executor.checkpoint()

            report = replay_workload(
                monitor,
                workload,
                collect_results=True,
                result_log=log,
                on_cycle=on_cycle,
            )
        finally:
            monitor.close()
        assert [f.kind for f in plan.fired] == ["kill"]
        assert executor.restart_counts[1] == 1
        assert log == ref_log

    def test_no_faults_means_no_recovery_overhead_in_counters(self):
        """Supervision must be invisible when nothing fails: counters and
        results byte-identical to the single engine (the wall-clock
        price was measured once, in PR 8 — see CHANGES.md — and is not
        asserted here: CI timing is noise)."""
        workload = small_workload(timestamps=5)
        ref_report, ref_log = replay(CPMMonitor(cells_per_axis=CELLS), workload)
        report, log, executor = supervised_replay(workload, None)
        assert not executor.events
        assert log == ref_log
        assert report.total_cell_scans == ref_report.total_cell_scans

    def test_invariant_probe_is_not_logged(self):
        """``check_invariants`` reads engine state only, so its shard
        commands stay out of the replay log a RESTART re-runs."""
        executor = SupervisedShardExecutor()
        monitor = PartitionedMonitor(2, cells_per_axis=CELLS, executor=executor)
        try:
            replay(monitor, small_workload(timestamps=3))
            lengths = [executor.log_length(s) for s in range(2)]
            monitor.check_invariants()
            assert [executor.log_length(s) for s in range(2)] == lengths
        finally:
            monitor.close()


# ----------------------------------------------------------------------
# Partitioned state: RESTART must replay halo/pull/migration commands
# ----------------------------------------------------------------------


@pytest.mark.chaos
class TestPartitionedRecovery:
    """The partition subsystem under the supervisor: a restarted worker
    rebuilds *partitioned* state (sentinel columns, pulled cells, carried
    query bookkeeping) from the command log + pull log, byte-identical —
    and since the partitioned tier is counter-exact, the reference here
    is the **single engine**."""

    def _run(self, workload, plan, n_shards=2, checkpoint_at=None):
        executor = SupervisedShardExecutor(
            fault_hook=None if plan is None else plan.executor_hook()
        )
        monitor = PartitionedMonitor(
            n_shards, cells_per_axis=CELLS, executor=executor
        )
        try:
            log: list = []
            cycles = 0

            def on_cycle(report):
                nonlocal cycles
                cycles += 1
                if cycles == checkpoint_at:
                    executor.checkpoint()

            report = replay_workload(
                monitor,
                workload,
                collect_results=True,
                result_log=log,
                on_cycle=on_cycle,
            )
        finally:
            monitor.close()
        return report, log, executor

    def test_partitioned_restart_mid_replay_is_byte_identical(self):
        workload = small_workload(query_agility=0.5)
        ref_report, ref_log = replay(CPMMonitor(cells_per_axis=CELLS), workload)
        # Shard 1's commands: load_objects, five install_query, a
        # result_table, then one partition_cycle + result_table per
        # cycle — ordinal 9 is cycle 2's partition_cycle.
        plan = FaultPlan(seed=7).kill_worker(shard=1, at_command=9)
        report, log, executor = self._run(workload, plan)
        assert [f.kind for f in plan.fired] == ["kill"]
        assert [e.method for e in executor.events] == ["partition_cycle"]
        assert executor.restart_counts[1] == 1
        assert log == ref_log
        assert report.total_cell_scans == ref_report.total_cell_scans
        assert report.total_objects_scanned == ref_report.total_objects_scanned
        assert report.total_results_changed == ref_report.total_results_changed

    def test_partitioned_checkpoint_compaction_then_crash(self):
        """The full-fidelity partition capture restores cells, marks and
        query bookkeeping without a single search or pull — the tail
        replay after the snapshot must still be byte-identical."""
        workload = small_workload(query_agility=0.4)
        ref_report, ref_log = replay(CPMMonitor(cells_per_axis=CELLS), workload)
        # Ordinal 13 is the checkpoint's capture_state after cycle 3;
        # 16 is cycle 5's partition_cycle, so the rebuild restores the
        # snapshot and replays cycle 4 before re-issuing cycle 5.
        plan = FaultPlan().kill_worker(shard=1, at_command=16)
        report, log, executor = self._run(workload, plan, checkpoint_at=3)
        assert [f.kind for f in plan.fired] == ["kill"]
        assert [(e.method, e.replayed) for e in executor.events] == [
            ("partition_cycle", 1)
        ]
        assert executor.restart_counts[1] == 1
        assert log == ref_log
        assert report.total_cell_scans == ref_report.total_cell_scans

    def test_partitioned_four_shards_kill_each(self):
        workload = small_workload(timestamps=5, query_agility=0.5)
        _, ref_log = replay(CPMMonitor(cells_per_axis=CELLS), workload)
        # Each shard's cycle-3 partition_cycle: the ordinals differ by
        # the number of queries installed on the shard before cycle 1.
        for shard, ordinal in enumerate([6, 7, 9, 8]):
            plan = FaultPlan(seed=shard).kill_worker(
                shard=shard, at_command=ordinal
            )
            _, log, executor = self._run(workload, plan, n_shards=4)
            assert [f.kind for f in plan.fired] == ["kill"]
            assert [e.method for e in executor.events] == ["partition_cycle"]
            assert executor.restart_counts[shard] == 1
            assert log == ref_log


# ----------------------------------------------------------------------
# Raw process executor: dead pipes fail typed, shards stay independent
# ----------------------------------------------------------------------


@pytest.mark.chaos
class TestProcessExecutorFaults:
    def test_killed_worker_raises_typed_error_and_peers_survive(self):
        executor = ProcessShardExecutor()
        factory = partial(CPMMonitor, CELLS)
        executor.start([factory, factory])
        try:
            executor.call_all(
                "load_objects", [([(1, (0.1, 0.1))],), ([(2, (0.9, 0.9))],)]
            )
            import os
            import signal

            os.kill(executor.worker_pid(1), signal.SIGKILL)
            with pytest.raises(ShardCrashError) as excinfo:
                executor.call_all("result_table", [(), ()])
            assert excinfo.value.shard == 1
            # The healthy shard still answers.
            assert executor.call(0, "result_table")[0] == {}
            # And the dead slot can be rebuilt explicitly.
            executor.restart_shard(1)
            assert executor.call(1, "result_table")[0] == {}
        finally:
            executor.close()

    def test_recv_timeout_raises_shard_timeout(self):
        import os
        import signal

        executor = ProcessShardExecutor(recv_timeout=0.5)
        factory = partial(CPMMonitor, CELLS)
        executor.start([factory])
        try:
            os.kill(executor.worker_pid(0), signal.SIGSTOP)
            with pytest.raises(ShardTimeoutError):
                executor.call(0, "result_table")
        finally:
            executor.close()


# ----------------------------------------------------------------------
# capture_state / restore_state: the deterministic rebuild contract
# ----------------------------------------------------------------------


class TestCaptureRestore:
    @staticmethod
    def _build(algorithm):
        if algorithm == "BRUTE":
            from repro.baselines.brute import BruteForceMonitor

            return BruteForceMonitor()
        return build_monitor(algorithm, CELLS)

    @pytest.mark.parametrize("algorithm", ["CPM", "YPK-CNN", "SEA-CNN", "BRUTE"])
    def test_round_trip_preserves_results(self, algorithm):
        workload = small_workload(timestamps=6)
        original = self._build(algorithm)
        session = Session(original)
        session.load_objects(sorted(workload.initial_objects.items()))
        for qid, point in sorted(workload.initial_queries.items()):
            original.install_query(qid, point, workload.spec.k)
        for batch in workload.batches[:3]:
            session.tick(batch.object_updates, batch.query_updates)
        state = original.capture_state()
        clone = self._build(algorithm)
        clone.restore_state(state)
        assert clone.result_table() == original.result_table()
        assert clone.object_count == original.object_count
        assert clone.stats.snapshot().cell_scans == original.stats.cell_scans
        # Both replicas process the remaining cycles identically.
        s_orig, s_clone = Session(original), Session(clone)
        for batch in workload.batches[3:]:
            s_orig.tick(batch.object_updates, batch.query_updates)
            s_clone.tick(batch.object_updates, batch.query_updates)
            assert clone.result_table() == original.result_table()

    def test_restore_refuses_populated_monitor(self):
        monitor = CPMMonitor(cells_per_axis=CELLS)
        monitor.load_objects([(1, (0.5, 0.5))])
        state = monitor.capture_state()
        with pytest.raises(RuntimeError):
            monitor.restore_state(state)


# ----------------------------------------------------------------------
# FaultPlan: seeded schedules are replayable
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_random_schedule_is_seed_deterministic(self):
        a = FaultPlan(seed=42).random_worker_kills(3, shards=4, max_command=50)
        b = FaultPlan(seed=42).random_worker_kills(3, shards=4, max_command=50)
        assert a.faults == b.faults
        c = FaultPlan(seed=43).random_worker_kills(3, shards=4, max_command=50)
        assert a.faults != c.faults

    def test_each_fault_fires_once(self):
        plan = FaultPlan().drop_feed(after_frames=2)
        hook = plan.feed_hook()
        assert [hook(i) for i in range(5)] == [False, False, True, False, False]
        assert plan.fired == [ScheduledFault("drop_feed", 0, 2)]

    def test_delay_fault_sleeps(self):
        plan = FaultPlan().delay_command(shard=0, at_command=0, seconds=0.05)
        hook = plan.executor_hook()
        t0 = time.perf_counter()
        hook(0, 0, None)
        assert time.perf_counter() - t0 >= 0.05
        assert [f.kind for f in plan.fired] == ["delay"]


# ----------------------------------------------------------------------
# Client: forced mid-stream disconnect, transparent re-sync
# ----------------------------------------------------------------------


def retrying(fn, attempts=4):
    """Drive one request across a possible injected disconnect."""
    for _ in range(attempts):
        try:
            return fn()
        except RemoteError:
            time.sleep(0.1)
    raise AssertionError("request never succeeded across the reconnect")


@pytest.mark.chaos
class TestClientReconnect:
    def test_client_survives_forced_disconnect_and_resyncs(self):
        """Acceptance: the server cuts the client's transport mid-stream;
        the client reconnects, re-syncs, and its snapshot equals the
        server's result table."""
        plan = FaultPlan().drop_connection(after_frames=12, conn=0)
        session = Session(CPMMonitor(cells_per_axis=CELLS))
        server = MonitorSocketServer(session, fault_hook=plan.connection_hook())
        host, port = server.start()
        observed = []
        try:
            client = Client.connect(
                host,
                port,
                client_name="chaos",
                reconnect=ReconnectPolicy(
                    max_retries=6, base_delay=0.02, max_delay=0.2, seed=3
                ),
                on_reconnect=observed.append,
            )
            pos = {
                i: ((5 * i % 90) / 100.0, (7 * i % 90) / 100.0)
                for i in range(40)
            }
            client.send_updates(
                [ObjectUpdate(i, None, p) for i, p in pos.items()]
            )
            client.tick(timestamp=0)
            h1 = client.register(KnnSpec(point=(0.1, 0.1), k=3))
            h2 = client.register(KnnSpec(point=(0.7, 0.4), k=4))
            deltas = []
            h1.subscribe(lambda ts, d: deltas.append((ts, d.qid)))

            for t in range(1, 12):
                updates = []
                for i in list(pos):
                    new = (
                        ((5 * i + 3 * t) % 90) / 100.0,
                        ((7 * i + 2 * t) % 90) / 100.0,
                    )
                    updates.append(ObjectUpdate(i, pos[i], new))

                def cycle():
                    client.send_updates(updates)
                    client.tick(timestamp=t)
                    for u in updates:
                        pos[u.oid] = u.new

                retrying(cycle)

            assert [f.kind for f in plan.fired] == ["drop_connection"]
            assert len(client.reconnect_events) == 1
            assert observed == client.reconnect_events
            event = client.reconnect_events[0]
            assert event.attempts >= 1
            assert sorted(event.results) == [h1.qid, h2.qid]
            # The acceptance criterion: snapshots equal the server's table.
            for handle in (h1, h2):
                remote = handle.snapshot()
                with server.lock:
                    local = list(session.snapshot(handle.qid))
                assert remote == local
            # The re-sync re-subscribed the delta topic.
            n_before = len(deltas)

            def after():
                updates = [
                    ObjectUpdate(i, pos[i], (0.09 + i / 100.0, 0.09))
                    for i in range(6)
                ]
                client.send_updates(updates)
                client.tick(timestamp=99)
                for u in updates:
                    pos[u.oid] = u.new

            retrying(after)
            assert len(deltas) > n_before
            client.close()
            # A local close is final: no further redial.
            time.sleep(0.25)
            assert len(client.reconnect_events) == 1
        finally:
            server.stop()

    def test_no_policy_fails_hard_on_transport_loss(self):
        plan = FaultPlan().drop_connection(after_frames=4, conn=0)
        session = Session(CPMMonitor(cells_per_axis=CELLS))
        server = MonitorSocketServer(session, fault_hook=plan.connection_hook())
        host, port = server.start()
        try:
            client = Client.connect(host, port)
            client.register(KnnSpec(point=(0.5, 0.5), k=2))
            with pytest.raises(RemoteError):
                for _ in range(10):
                    client.snapshot(0)
                    time.sleep(0.02)
            assert not client.reconnect_events
        finally:
            server.stop()


# ----------------------------------------------------------------------
# SocketFeed: transparent redial of the ingest transport
# ----------------------------------------------------------------------


@pytest.mark.chaos
class TestSocketFeedReconnect:
    def test_feed_resumes_across_injected_cut(self):
        """The feed cuts its own transport after a scripted frame; the
        producer serves the remaining frames on the next accept — the
        merged stream is complete and in order."""
        frames = []
        for t in range(3):
            ups = tuple(
                ObjectUpdate(
                    i,
                    None if t == 0 else (0.1 * i, 0.2 + 0.01 * (t - 1)),
                    (0.1 * i, 0.2 + 0.01 * t),
                )
                for i in range(4)
            )
            frames.append(wire.frame_bytes(wire.Updates(FlatUpdateBatch.from_updates(ups))))
            frames.append(wire.frame_bytes(wire.Tick(timestamp=t)))
        cut_after = 3  # cycle 1's tick: a frame boundary

        plan = FaultPlan().drop_feed(after_frames=cut_after)
        listener = socket.socket()
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        host, port = listener.getsockname()

        def producer():
            conn, _ = listener.accept()
            conn.sendall(b"".join(frames[: cut_after + 1]))
            conn2, _ = listener.accept()
            conn2.sendall(
                b"".join(frames[cut_after + 1 :]) + wire.frame_bytes(wire.Bye())
            )
            conn.close()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        try:
            feed = SocketFeed.connect(
                host,
                port,
                reconnect=ReconnectPolicy(
                    max_retries=5, base_delay=0.02, max_delay=0.2, seed=1
                ),
                fault_hook=plan.feed_hook(),
            )
            events = list(feed.events())
        finally:
            thread.join(timeout=5.0)
            listener.close()
        marks = [e.timestamp for e in events if type(e) is CycleMark]
        assert marks == [0, 1, 2]
        assert sum(1 for e in events if type(e) is ObjectUpdate) == 12
        assert feed.reconnects == 1
        assert [f.kind for f in plan.fired] == ["drop_feed"]

    def test_without_policy_eof_ends_feed(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()

        def producer():
            conn, _ = listener.accept()
            conn.sendall(wire.frame_bytes(wire.Tick(timestamp=0)))
            conn.close()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        try:
            feed = SocketFeed.connect(host, port)
            events = list(feed.events())
        finally:
            thread.join(timeout=5.0)
            listener.close()
        assert [type(e) for e in events] == [CycleMark]
        assert feed.reconnects == 0

    def test_exhausted_retries_raise_connection_error(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()

        def producer():
            conn, _ = listener.accept()
            conn.sendall(wire.frame_bytes(wire.Tick(timestamp=0)))
            conn.close()
            listener.close()  # nobody to redial to

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        feed = SocketFeed.connect(
            host,
            port,
            reconnect=ReconnectPolicy(
                max_retries=2, base_delay=0.01, max_delay=0.05, seed=2
            ),
        )
        with pytest.raises(ConnectionError):
            list(feed.events())
        thread.join(timeout=5.0)


# ----------------------------------------------------------------------
# Silent thread death is dead: pump/driver surface their failures
# ----------------------------------------------------------------------


class _ExplodingFeed(UpdateFeed):
    def __init__(self, after: int) -> None:
        self.after = after

    def events(self):
        for i in range(self.after):
            yield ObjectUpdate(i, None, (0.1, 0.1))
        raise OSError("feed transport exploded")


class TestErrorSurfacing:
    def test_pump_records_and_reraises_feed_crash(self):
        buffer = IngestBuffer(capacity=64)
        pump = ThreadedFeedPump(_ExplodingFeed(3), buffer).start()
        deadline = time.monotonic() + 5.0
        while not buffer.closed and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pump.failed
        with pytest.raises(OSError, match="exploded"):
            pump.stop()
        # stop() re-raises once; afterwards it is a clean no-op.
        pump.stop()

    def test_background_driver_reports_failure(self):
        service = MonitoringService(CPMMonitor(cells_per_axis=CELLS))
        driver = IngestDriver(_ExplodingFeed(2), service)
        driver.start()
        deadline = time.monotonic() + 5.0
        while driver.failure is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert driver.report.failed
        assert "exploded" in (driver.report.error or "")
        with pytest.raises(OSError, match="exploded"):
            driver.stop()

    def test_clean_runs_stay_unflagged(self):
        service = MonitoringService(CPMMonitor(cells_per_axis=CELLS))
        workload = small_workload(timestamps=3)
        from repro.ingest.feeds import WorkloadFeed

        driver = IngestDriver(WorkloadFeed(workload), service)
        driver.prime(k=workload.spec.k)
        report = driver.run()
        assert not report.failed
        assert report.error is None
