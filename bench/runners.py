"""The four systems under test, each driven one closed-loop cycle at a time.

A runner owns a seeded :class:`~bench.workloads.Population`, builds the
program's objects through their public constructors (``build`` is what
``setup_s`` times), turns one generated cycle into the form the program
accepts (``prepare``, untimed) and hands it in (``cycle``, timed from
batch handed in to results out).  Nothing under ``src/`` is changed: a
traced run wraps the *instances* it built (``hub.publish``,
``service.tick_report``) and passes a timing executor through the public
``executor=`` parameter.
"""

from __future__ import annotations

import socket
import threading
import time
from time import perf_counter

from repro.api import wire
from repro.api.client import Client
from repro.api.queries import KnnSpec
from repro.api.server import MonitorSocketServer
from repro.api.session import Session
from repro.core.cpm import CPMMonitor
from repro.ingest.driver import IngestDriver
from repro.ingest.feeds import SocketFeed
from repro.service.executor import SerialShardExecutor
from repro.service.partition import PartitionedMonitor
from repro.service.service import MonitoringService

from bench.trace import Tracer
from bench.workloads import (
    Population,
    WorkloadSpec,
    flat_batch,
    frame_blob,
    frame_lines,
    row_batch,
)

#: a cycle whose sentinel has not arrived by then counts as failed.
SENTINEL_TIMEOUT = 30.0


class Runner:
    """Common shape of a workload's system under test."""

    #: the engine holding the results (``result``, ``stats``).
    monitor = None
    #: seconds ``build`` spent installing queries (a layer metric).
    install_seconds = 0.0

    def __init__(
        self, spec: WorkloadSpec, seed: int, tracer: Tracer | None = None
    ) -> None:
        self.spec = spec
        self.pop = Population(spec, seed)
        self.tracer = tracer
        self._initial()

    def _initial(self) -> None:
        """Freeze the initial populations every ``build`` loads."""
        self.objects = self.pop.objects()
        self.queries = self.pop.queries()

    def _install(self, install) -> None:
        k = self.spec.k
        t0 = perf_counter()
        for qid, point in self.queries:
            install(qid, point, k)
        self.install_seconds = perf_counter() - t0

    def build(self) -> None:
        raise NotImplementedError

    def prepare(self, timestamp: int):
        """Generate cycle ``timestamp``; returns ``(payload, rows, moves)``."""
        raise NotImplementedError

    def cycle(self, timestamp: int, payload) -> tuple[float, int] | None:
        """Apply one cycle; ``(seconds, results_changed)`` or ``None`` when
        the cycle was not applied."""
        raise NotImplementedError

    def extra_mismatches(self) -> int:
        """Workload-specific end-state checks (failed-op count)."""
        return 0

    def close(self) -> None:
        self.monitor = None


class EngineMaintain(Runner):
    """``CPMMonitor.process_flat`` over static queries."""

    def build(self) -> None:
        self.monitor = CPMMonitor(self.spec.grid)
        self.monitor.load_objects(self.objects)
        self._install(self.monitor.install_query)

    def prepare(self, timestamp: int):
        inp = self.pop.step(timestamp)
        return flat_batch(inp, self.spec.k), len(inp.oids), len(inp.moves)

    def cycle(self, timestamp: int, batch):
        t0 = perf_counter()
        changed = self.monitor.process_flat(batch)
        t1 = perf_counter()
        if self.tracer is not None:
            self.tracer.add("core.cpm.process_flat", t0, t1, "cycle", timestamp)
        return t1 - t0, len(changed)


class EngineSearch(EngineMaintain):
    """The same engine through the row path, every query moving."""

    def prepare(self, timestamp: int):
        inp = self.pop.step(timestamp)
        return row_batch(inp, self.spec.k), len(inp.oids), len(inp.moves)

    def cycle(self, timestamp: int, batch):
        t0 = perf_counter()
        changed = self.monitor.process_batch(batch)
        t1 = perf_counter()
        if self.tracer is not None:
            self.tracer.add("core.cpm.process_batch", t0, t1, "cycle", timestamp)
        return t1 - t0, len(changed)


class TimedSerialExecutor(SerialShardExecutor):
    """Serial executor that records one span per shard command, so a
    traced run can tell shard time from coordinator time."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer
        #: cycle label stamped on the spans (set by the runner).
        self.timestamp = 0

    def call(self, shard: int, method: str, *args):
        t0 = perf_counter()
        out = super().call(shard, method, *args)
        self.tracer.add(
            f"service.partition.shard{shard}.{method}",
            t0, perf_counter(), "service.service.tick_flat", self.timestamp,
        )
        return out

    def call_all(self, method: str, args_per_shard):
        return [
            self.call(shard, method, *args)
            for shard, args in enumerate(args_per_shard)
        ]


def trace_publish(hub, tracer: Tracer, parent: str, after=None) -> None:
    """Wrap this hub instance's ``publish`` in a span (traced runs only)."""
    publish = hub.publish

    def traced(timestamp, deltas):
        t0 = perf_counter()
        delivered = publish(timestamp, deltas)
        tracer.add(
            "service.subscriptions.publish", t0, perf_counter(), parent,
            timestamp, deliveries=delivered,
        )
        if after is not None:
            after()
        return delivered

    hub.publish = traced


class PartitionSkewed(Runner):
    """4-shard partitioned service with in-process topic subscriptions."""

    N_SHARDS = 4
    SUBSCRIPTIONS_PER_QUERY = 4

    @staticmethod
    def _on_delta(_timestamp, _delta) -> None:
        """An in-process subscriber: the hub's fan-out is what is priced."""

    def make_service(self, monitor, metrics=None) -> MonitoringService:
        """Load, install and subscribe ``monitor`` the way the workload
        does (the twins of a traced run reuse this)."""
        service = MonitoringService(monitor, metrics=metrics)
        service.load_objects(self.objects)
        self._install(service.install_query)
        for qid, _point in self.queries:
            for _ in range(self.SUBSCRIPTIONS_PER_QUERY):
                service.hub.subscribe_query(qid, self._on_delta)
        return service

    def build(self) -> None:
        self.executor = (
            None if self.tracer is None else TimedSerialExecutor(self.tracer)
        )
        self.monitor = PartitionedMonitor(
            self.N_SHARDS, self.spec.grid, halo=1, executor=self.executor
        )
        self.service = self.make_service(self.monitor)
        if self.tracer is not None:
            trace_publish(
                self.service.hub, self.tracer, "service.service.tick_flat"
            )

    def prepare(self, timestamp: int):
        inp = self.pop.step(timestamp)
        return flat_batch(inp, self.spec.k), len(inp.oids), len(inp.moves)

    def cycle(self, timestamp: int, batch):
        if self.executor is not None:
            self.executor.timestamp = timestamp
        t0 = perf_counter()
        changed = self.service.tick_flat(batch)
        t1 = perf_counter()
        if self.tracer is not None:
            self.tracer.add("service.service.tick_flat", t0, t1, "cycle", timestamp)
        return t1 - t0, len(changed)

    def close(self) -> None:
        if self.monitor is not None:
            self.monitor.close()
        self.monitor = self.service = None


class WireStream(Runner):
    """Update frames on a socket to deltas in a subscriber's callback.

    One process, closed loop: the producer connection's frames feed
    ``SocketFeed`` -> ``IngestDriver`` (its own thread, cycles cut by the
    ``tick`` marks) -> ``MonitoringService`` -> hub -> the server's
    per-connection outbox -> one ``Client`` subscribed to every query.

    **End of cycle.**  A reserved corner beyond ``LIMIT`` holds one k=1
    sentinel query with the highest qid and two sentinel objects that
    swap places every cycle, so the sentinel's nearest neighbor flips
    each cycle.  ``SubscriptionHub.publish`` delivers in ascending qid
    and the connection is FIFO, so the sentinel's delta is the last of
    its cycle: when the client's callback sees it, the cycle is done.
    """

    SENTINEL_AT = (0.995, 0.995)
    SENTINEL_NEAR = (0.996, 0.995)
    SENTINEL_FAR = (0.998, 0.995)

    def _initial(self) -> None:
        n = self.spec.n_objects
        self.sentinel_oids = (n, n + 1)
        self.sentinel_qid = self.spec.n_queries
        # The sentinel objects join the shadow table (a corner query may
        # well have one among its neighbors) but never the seeded sample.
        self.pop.xs += [self.SENTINEL_NEAR[0], self.SENTINEL_FAR[0]]
        self.pop.ys += [self.SENTINEL_NEAR[1], self.SENTINEL_FAR[1]]
        super()._initial()
        self._done = threading.Event()
        self._done_at = 0.0
        self.mirror: dict[int, tuple] = {}

    # -- set-up --------------------------------------------------------

    def build(self) -> None:
        spec = self.spec
        self.monitor = CPMMonitor(spec.grid)
        self.service = MonitoringService(self.monitor)
        self.session = Session(self.service)
        self.session.load_objects(self.objects)
        self._install(
            lambda qid, point, k: self.session.register(KnnSpec(point, k), qid=qid)
        )
        self.session.register(KnnSpec(self.SENTINEL_AT, 1), qid=self.sentinel_qid)
        # The sync handshake queues one frame per query on the
        # connection's outbox at once; the default bound (1024 frames)
        # would disconnect this subscriber as a slow consumer.
        self.server = MonitorSocketServer(
            self.session, outbound_limit=8 * (spec.n_queries + 1)
        )
        host, port = self.server.start()
        self.client = Client.connect(host, port)
        state = self.client.sync(watch=True)
        self.mirror = {qid: tuple(result) for qid, result in state.results.items()}
        self.client.delta_frame_log = []
        self.client.handle(self.sentinel_qid).subscribe(self._on_sentinel)
        with socket.create_server(("127.0.0.1", 0)) as listener:
            self.producer = socket.create_connection(listener.getsockname()[:2])
            self.producer.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            feed_sock, _addr = listener.accept()
        self.feed = SocketFeed(feed_sock)
        self.driver = IngestDriver(self.feed, self.service)
        self.driver.batcher.prime(self.objects)
        self._cycles_driven = 0
        if self.tracer is not None:
            self._trace_service()
        self.driver.start()

    def _trace_service(self) -> None:
        tracer = self.tracer
        service = self.service
        tick_report = service.tick_report
        self.outbox_depth_max = 0

        def traced_tick(batch):
            t0 = perf_counter()
            report = tick_report(batch)
            tracer.add(
                "service.service.tick_report", t0, perf_counter(), "cycle",
                batch.timestamp,
            )
            return report

        def sample_outbox() -> None:
            depth = self.server.stats().depth
            if depth > self.outbox_depth_max:
                self.outbox_depth_max = depth

        service.tick_report = traced_tick
        trace_publish(
            service.hub, tracer, "service.service.tick_report", sample_outbox
        )

    # -- cycles --------------------------------------------------------

    def step(self, timestamp: int):
        """One generated cycle plus the two sentinel rows, which swap the
        sentinel objects' places."""
        inp = self.pop.step(timestamp)
        xs, ys = self.pop.xs, self.pop.ys
        for oid in self.sentinel_oids:
            here = (xs[oid], ys[oid])
            there = (
                self.SENTINEL_FAR if here == self.SENTINEL_NEAR else self.SENTINEL_NEAR
            )
            inp.oids.append(oid)
            inp.old_xs.append(here[0])
            inp.old_ys.append(here[1])
            inp.new_xs.append(there[0])
            inp.new_ys.append(there[1])
            xs[oid], ys[oid] = there
        return inp

    def prepare(self, timestamp: int):
        inp = self.step(timestamp)
        return frame_blob(frame_lines(inp, self.spec.k)), len(inp.oids), len(inp.moves)

    def _on_sentinel(self, _timestamp, _delta) -> None:
        """Client reader thread: the cycle's last delta has arrived."""
        self._done_at = perf_counter()
        log = self.client.delta_frame_log
        mirror = self.mirror
        for frame in log:
            mirror[frame.delta.qid] = frame.delta.result
        log.clear()
        self._done.set()

    def cycle(self, timestamp: int, blob: bytes):
        self._done.clear()
        t0 = perf_counter()
        self.producer.sendall(blob)
        t_sent = perf_counter()
        if not self._done.wait(SENTINEL_TIMEOUT):
            return None
        done_at = self._done_at
        if self.tracer is not None:
            self.tracer.add("producer.sendall", t0, t_sent, "cycle", timestamp)
        # The driver files the cycle's stats right after publish returns,
        # which the callback can beat by a few instructions.
        cycles = self.driver.report.cycles
        deadline = time.monotonic() + SENTINEL_TIMEOUT
        while len(cycles) <= self._cycles_driven:
            if time.monotonic() > deadline:
                return None
            time.sleep(0.0002)
        self._cycles_driven += 1
        return done_at - t0, cycles[self._cycles_driven - 1].changed

    # -- end state -----------------------------------------------------

    def extra_mismatches(self) -> int:
        """The client's mirror (last ``delta.result`` per qid over the
        ``sync`` snapshot) must equal the server's final result table."""
        table = self.monitor.result_table()
        return sum(
            1
            for qid, result in table.items()
            if tuple(self.mirror.get(qid, ())) != tuple(result)
        ) + len(self.mirror.keys() - table.keys())

    def close(self) -> None:
        if self.monitor is None:
            return
        try:
            self.producer.sendall(frame_blob([wire.encode_frame(wire.Bye())]))
        except OSError:
            pass
        try:
            self.driver.stop()
        finally:
            self.producer.close()
            self.feed.close()
            self.client.close()
            self.server.stop()
            self.monitor = self.service = self.session = None


RUNNERS = {
    "engine_maintain": EngineMaintain,
    "engine_search": EngineSearch,
    "wire_stream": WireStream,
    "partition_skewed": PartitionSkewed,
}
