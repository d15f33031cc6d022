"""Socket transport: publish subscribed deltas, accept update frames.

A :class:`MonitorSocketServer` exposes one
:class:`repro.api.session.Session` over TCP speaking wire v5
(:mod:`repro.api.wire`): ndjson lines in, and out every frame as an
ndjson line except result deltas, which leave as binary records.  The
columns of every ``updates`` frame are appended to one staged
:class:`repro.updates.FlatUpdateBatch`, which the ``tick`` frame hands
to :meth:`repro.api.session.Session.tick_flat` with the staged query
updates attached — no row becomes a Python object on the way in.  Each
connection gets a reader thread; frames on one connection are
processed strictly in arrival order, and every engine-touching
operation takes the server-wide :attr:`lock` — the monitoring cycle
itself stays single-threaded, the transport only serializes *around*
it.  A host program that also drives the session
directly (e.g. a server-side feed) must hold the same lock, or use
:meth:`tick`.

Delta delivery rides the hub's per-query routing: a ``subscribe`` frame
registers a per-qid subscription whose callback *enqueues* the delta on
the connection's bounded outbox (:class:`repro.service.subscriptions.
FanoutQueue`); a per-connection writer thread encodes and sends one
**drain** at a time — every frame queued when it woke, encoded to its
wire bytes (:func:`repro.api.wire.encode_delta` for a queued delta,
:func:`repro.api.wire.frame_bytes` for anything else) and joined into
``sendall`` calls of at most :data:`FLUSH_BYTES` — so a cycle's deltas cost a
handful of syscalls, not one each.  The hub's publish loop
therefore never blocks on a socket — a stalled client costs O(1) per
delta until its outbox fills (frames queued plus frames of the drain in
flight), at which point the server's :class:`SlowConsumerPolicy` fires
(disconnect the laggard, or drop its queued deltas and send a ``lagged``
marker) instead of extending ``publish_sec`` for everyone else.

Every outbound frame of one connection flows through the same FIFO
outbox, so the v1 ordering contract survives the async tier: the deltas
produced by a ``tick`` frame are enqueued *before* the ``ticked`` reply
— and TCP preserves order — so a client has received every delta of a
cycle by the time it sees the cycle's ``ticked`` frame.  That ordering
is what makes remote delta streams byte-comparable with in-process
runs.
"""

from __future__ import annotations

import socket
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass

from repro.api import wire
from repro.api.session import Session
from repro.obs.health import AlertEvent
from repro.obs.metrics import MetricsRegistry
from repro.obs.scrape import ScrapeServer
from repro.service.subscriptions import (
    FanoutQueue,
    SlowConsumerPolicy,
    Subscription,
)
from repro.updates import FlatUpdateBatch, QueryUpdateKind

#: rows per ``sync_objects`` chunk of the cold-start stream.
SYNC_CHUNK = 512

#: most bytes of joined frames one ``sendall`` carries.  A drain
#: larger than this goes out in several writes: the bound caps the
#: transient join buffer (unbounded joining costs measurable peak RSS
#: on a cycle's worth of deltas for nothing the syscall count still
#: needs).  A single frame larger than the bound is written alone.
FLUSH_BYTES = 64 * 1024

#: metrics-pump wakeup resolution (seconds): the granularity at which
#: per-connection ``watch_metrics`` intervals are honored.
METRICS_PUMP_TICK = 0.05


@dataclass(frozen=True, slots=True)
class ConnectionStats:
    """One connection's outbound accounting (a :class:`FanoutQueue`
    snapshot plus transport-level counts)."""

    index: int
    depth: int
    delivered: int
    dropped: int
    overflows: int
    broken: bool
    frames_sent: int
    subscriptions: int


@dataclass(frozen=True, slots=True)
class ServerStats:
    """Aggregate server health: per-connection rows plus fleet totals.

    Totals include connections that have already closed (their final
    counters are folded in at teardown), so ``dropped`` is the lifetime
    count the slow-consumer policies shed — previously recorded on each
    :class:`FanoutQueue` but unreachable from the embedding process.
    """

    connections: tuple[ConnectionStats, ...]
    accepted: int
    depth: int
    delivered: int
    dropped: int
    overflows: int


class _Connection:
    """Server-side state of one client connection.

    Outbound traffic is written a **drain** at a time: the outbox's
    writer thread hands :meth:`_write_batch` every frame that was queued
    when it woke, and the batch is encoded and sent in ``sendall`` calls
    of at most :data:`FLUSH_BYTES` of joined frames.  Frames of the drain
    in flight count toward ``outbound_limit`` until the batch is on the
    socket, so the connection never buffers more than that many frames.
    """

    def __init__(
        self,
        server: "MonitorSocketServer",
        sock: socket.socket,
        index: int = 0,
    ) -> None:
        self.server = server
        self.sock = sock
        #: accept-order ordinal of this connection (fault-hook lane key).
        self.index = index
        #: outbound frames written so far (fault-hook ordinal).
        self.frames_sent = 0
        self.reader = sock.makefile("rb")
        #: qid -> hub subscription feeding this connection.
        self.subscriptions: dict[int, Subscription] = {}
        #: updates staged by ``updates`` / ``query`` frames until ``tick``:
        #: every ``updates`` frame's columns appended to one batch.
        self.staged_objects = FlatUpdateBatch(timestamp=None)
        self.staged_queries: list = []
        self.closed = False
        #: ``watch_metrics`` state: push interval in seconds (``None`` =
        #: not watching), alert routing flag, next scheduled push.
        self.metrics_interval: float | None = None
        self.wants_alerts = False
        self.next_metrics_at = 0.0
        #: bounded outbound queue; its writer thread owns the send side.
        #: Deltas ride as ``(timestamp, delta)`` pairs and are encoded on
        #: the writer thread, keeping the hub's enqueue O(1) regardless
        #: of result width.
        self.outbox = FanoutQueue(
            self._write_batch,
            limit=server.outbound_limit,
            policy=server.slow_consumer,
            lag_factory=lambda dropped: wire.Lagged(dropped=dropped),
            lag_followup=self._lag_followups,
            on_overflow=lambda: self.close(flush=False),
            name=f"conn-{sock.fileno()}",
        )

    # -- writing -------------------------------------------------------

    def _write_batch(self, items: list) -> None:
        """Writer-thread sink: encode one drain (late, for deltas) and
        send it, one ``sendall`` per :data:`FLUSH_BYTES` of frames —
        binary delta records and ``\\n``-terminated lines, joined.

        The fault hook is still asked once per frame, in order; when it
        fires at frame N — or frame N cannot be encoded — the frames of
        this drain before N are flushed, then the transport is cut."""
        hook = self.server.fault_hook
        encode_delta = wire.encode_delta
        frame_bytes = wire.frame_bytes
        chunks: list[bytes] = []
        size = 0
        for item in items:
            if hook is not None and hook(self.index, self.frames_sent):
                self._abort(chunks)
                # Marks the outbox broken; the reader thread's EOF tears
                # the connection down through the normal path.
                raise ConnectionAbortedError("injected connection fault")
            if type(item) is tuple:
                try:
                    data = encode_delta(item[0], item[1])
                except wire.WireError:
                    self._abort(chunks)
                    raise
            else:
                data = frame_bytes(item)
            self.frames_sent += 1
            size += len(data)
            if size > FLUSH_BYTES and chunks:
                self.sock.sendall(b"".join(chunks))
                chunks = []
                size = len(data)
            chunks.append(data)
        self.sock.sendall(b"".join(chunks))

    def _abort(self, chunks: list[bytes]) -> None:
        """Flush the frames already encoded, then cut the transport."""
        if chunks:
            self.sock.sendall(b"".join(chunks))
        self._cut()

    def _cut(self) -> None:
        """Drop the transport abruptly — no ``bye`` — so the peer sees
        exactly what a mid-stream network failure looks like."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass

    def _lag_followups(self):
        """Fresh ``sync_query`` snapshots pushed right after a resolved
        ``lagged`` marker, one per query this connection subscribes to.

        Runs on the writer thread (the fan-out queue calls it outside
        its own lock), so the snapshots reflect the state at delivery
        time — after every shed delta — and a stalled-then-drained
        consumer converges without issuing its own re-sync.
        """
        frames = []
        with self.server.lock:
            session = self.server.session
            for qid in sorted(self.subscriptions):
                try:
                    handle = session.handle(qid)
                except KeyError:
                    continue  # terminated while the marker was queued
                frames.append(
                    wire.SyncQuery(
                        qid=qid,
                        spec=handle.spec,
                        result=tuple(handle.snapshot()),
                    )
                )
        return frames

    def send(self, frame: wire.Frame) -> None:
        self.outbox.put(frame)

    def deliver(self, timestamp: int | None, delta) -> None:
        """Hub callback: enqueue one subscribed delta (droppable — the
        DROP_AND_SNAPSHOT policy may shed it under backpressure)."""
        self.outbox.put((timestamp, delta), droppable=True)

    # -- teardown ------------------------------------------------------

    def close(self, *, flush: bool = True) -> None:
        """Tear the connection down.  Orderly closes flush the outbox
        first so queued replies (``error``, ``bye``) still reach the
        peer; overflow disconnects skip the flush — the peer is stalled,
        waiting on it would be the very head-of-line blocking the policy
        exists to prevent."""
        if self.closed:
            return
        self.closed = True
        for subscription in self.subscriptions.values():
            subscription.close()
        self.subscriptions.clear()
        if flush:
            self.outbox.join(timeout=2.0)
        self._cut()
        # The shutdown above errors out a writer blocked in sendall.
        self.outbox.close(flush=False, timeout=1.0)
        self.server._retire(self)

    def stats(self) -> ConnectionStats:
        queue = self.outbox.stats()
        return ConnectionStats(
            index=self.index,
            depth=queue["depth"],
            delivered=queue["delivered"],
            dropped=queue["dropped"],
            overflows=queue["overflows"],
            broken=queue["broken"],
            frames_sent=self.frames_sent,
            subscriptions=len(self.subscriptions),
        )


class MonitorSocketServer:
    """Serves one session to remote wire-protocol clients.

    Args:
        session: the session (and therefore monitor + hub) to expose.
        host/port: bind address; port 0 picks a free port (see
            :attr:`address` after :meth:`start`).
        name: server string echoed in the ``welcome`` frame.
        outbound_limit: per-connection outbox bound (frames, queued plus
            those of the drain in flight) before the slow-consumer
            policy fires.
        slow_consumer: what happens to a connection that cannot drain
            its outbox (see :class:`SlowConsumerPolicy`).
        sndbuf: ``SO_SNDBUF`` applied to accepted sockets; small values
            make kernel buffering deterministic for backpressure tests.
        fault_hook: chaos-test seam — ``hook(conn_index, frame_seq) ->
            bool``, called on the writer thread before every outbound
            frame with the connection's accept ordinal and per-connection
            frame ordinal; returning ``True`` cuts that connection's
            transport abruptly (no ``bye``) after flushing the frames of
            the same drain that precede it, simulating a network drop
            (see :meth:`repro.testing.faults.FaultPlan.connection_hook`).
        registry: optional :class:`repro.obs.metrics.MetricsRegistry`.
            Enables the wire telemetry surface: ``watch_metrics`` frames
            are honored (a metrics-pump side thread pushes periodic
            ``metrics`` snapshots), :meth:`publish_alert` fans ``alert``
            frames out, and the server registers its own fan-out gauges
            (connections, outbound depth, delivered/dropped totals).
        scrape_port: with a ``registry``, additionally serve the
            Prometheus text scrape endpoint on this port from a side
            thread (``0`` picks a free port — see :attr:`scrape_address`;
            ``None`` disables the endpoint).
    """

    def __init__(
        self,
        session: Session,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        name: str = "repro-monitor",
        outbound_limit: int = 1024,
        slow_consumer: SlowConsumerPolicy = SlowConsumerPolicy.DISCONNECT,
        sndbuf: int | None = None,
        fault_hook: Callable[[int, int], bool] | None = None,
        registry: MetricsRegistry | None = None,
        scrape_port: int | None = None,
    ) -> None:
        self.session = session
        self.name = name
        self.outbound_limit = outbound_limit
        self.slow_consumer = slow_consumer
        self.sndbuf = sndbuf
        self.fault_hook = fault_hook
        #: accepted connections so far (assigns fault-hook lane keys).
        self._accepted = 0
        #: guards every engine-touching operation (register/tick/...).
        self.lock = threading.RLock()
        self._host = host
        self._port = port
        self._sock: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._connections: list[_Connection] = []
        self._stopping = threading.Event()
        self.registry = registry
        self._scrape: ScrapeServer | None = (
            None
            if registry is None or scrape_port is None
            else ScrapeServer(registry, host, scrape_port)
        )
        self._metrics_thread: threading.Thread | None = None
        #: final counters of closed connections, folded into stats().
        self._retired = {"delivered": 0, "dropped": 0, "overflows": 0}
        self._retired_lock = threading.Lock()
        if registry is not None:
            self._m_alerts = registry.counter(
                "repro_server_alerts_published_total",
                "Alert frames fanned out to watching connections.",
            )
            registry.gauge_fn(
                "repro_server_connections",
                lambda: len(self._connections),
                "Open client connections.",
            )
            registry.gauge_fn(
                "repro_server_outbound_depth",
                lambda: self.stats().depth,
                "Frames queued across every connection outbox.",
            )
            registry.gauge_fn(
                "repro_server_deltas_delivered",
                lambda: self.stats().delivered,
                "Outbound items delivered (cumulative, closed conns included).",
            )
            registry.gauge_fn(
                "repro_server_deliveries_dropped",
                lambda: self.stats().dropped,
                "Deliveries shed by slow-consumer policies (cumulative).",
            )
        else:
            self._m_alerts = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._sock is None:
            raise RuntimeError("server not started")
        return self._sock.getsockname()[:2]

    @property
    def scrape_address(self) -> tuple[str, int]:
        """The scrape endpoint's ``(host, port)`` (after :meth:`start`)."""
        if self._scrape is None or self._scrape.port is None:
            raise RuntimeError("scrape endpoint not running")
        return self._scrape.host, self._scrape.port

    def start(self) -> tuple[str, int]:
        """Bind, listen and start accepting; returns the bound address."""
        if self._sock is not None:
            raise RuntimeError("server already started")
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self._host, self._port))
        sock.listen(16)
        self._sock = sock
        self._stopping.clear()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="monitor-server-accept", daemon=True
        )
        self._accept_thread.start()
        if self._scrape is not None:
            self._scrape.start()
        if self.registry is not None:
            self._metrics_thread = threading.Thread(
                target=self._metrics_pump, name="monitor-server-metrics",
                daemon=True,
            )
            self._metrics_thread.start()
        return self.address

    def stop(self) -> None:
        """Close the listener, the telemetry side threads and every
        connection."""
        self._stopping.set()
        if self._scrape is not None:
            self._scrape.stop()
        thread = self._metrics_thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._metrics_thread = None
        if self._sock is not None:
            try:
                # Wakes a blocked accept() (close alone does not, on
                # Linux); ENOTCONN on platforms where it would have.
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._sock.close()
            except OSError:
                pass
        for conn in list(self._connections):
            conn.close()
        thread = self._accept_thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._accept_thread = None

    def __enter__(self) -> "MonitorSocketServer":
        if self._sock is None:
            self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Host-side driving
    # ------------------------------------------------------------------

    def tick(self, object_updates, query_updates=(), *, timestamp=None):
        """Advance the session one cycle under the server lock (for host
        programs feeding updates server-side while clients subscribe)."""
        with self.lock:
            return self.session.tick(
                object_updates, query_updates, timestamp=timestamp
            )

    # ------------------------------------------------------------------
    # Telemetry surface
    # ------------------------------------------------------------------

    def stats(self) -> ServerStats:
        """Fan-out accounting: per-connection rows plus lifetime totals."""
        rows = tuple(conn.stats() for conn in list(self._connections))
        with self._retired_lock:
            retired = dict(self._retired)
        return ServerStats(
            connections=rows,
            accepted=self._accepted,
            depth=sum(row.depth for row in rows),
            delivered=retired["delivered"] + sum(r.delivered for r in rows),
            dropped=retired["dropped"] + sum(r.dropped for r in rows),
            overflows=retired["overflows"] + sum(r.overflows for r in rows),
        )

    def _retire(self, conn: _Connection) -> None:
        """Fold a closing connection's final counters into the totals."""
        queue = conn.outbox.stats()
        with self._retired_lock:
            self._retired["delivered"] += queue["delivered"]
            self._retired["dropped"] += queue["dropped"]
            self._retired["overflows"] += queue["overflows"]

    def publish_alert(self, event: AlertEvent) -> int:
        """Fan one health alert out to every ``watch_metrics(alerts=True)``
        connection; returns the number of connections it reached.  Shaped
        to plug straight into the ingest driver's ``on_alert``."""
        frame = wire.Alert(
            level=event.level,
            rule=event.rule,
            message=event.message,
            value=event.value,
            cycle=event.cycle,
            timestamp=event.timestamp,
        )
        reached = 0
        for conn in list(self._connections):
            if conn.wants_alerts and not conn.closed:
                conn.send(frame)
                reached += 1
        if self._m_alerts is not None and reached:
            self._m_alerts.inc(reached)
        return reached

    def _metrics_frame(self) -> wire.Metrics:
        assert self.registry is not None
        return wire.Metrics(
            timestamp=time.time(),
            rows=tuple(self.registry.snapshot().items()),
        )

    def _metrics_pump(self) -> None:
        """Side thread: honor each connection's ``watch_metrics`` cadence."""
        while not self._stopping.wait(METRICS_PUMP_TICK):
            now = time.monotonic()
            frame: wire.Metrics | None = None
            for conn in list(self._connections):
                interval = conn.metrics_interval
                if (
                    interval is None
                    or interval <= 0
                    or conn.closed
                    or now < conn.next_metrics_at
                ):
                    continue
                if frame is None:
                    # One snapshot per pump pass, shared by every
                    # connection due this tick.
                    frame = self._metrics_frame()
                conn.next_metrics_at = now + interval
                conn.send(frame)

    # ------------------------------------------------------------------
    # Accept / per-connection loops
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._sock is not None
        while not self._stopping.is_set():
            try:
                client_sock, _addr = self._sock.accept()
            except OSError:
                break
            client_sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self.sndbuf is not None:
                client_sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, self.sndbuf
                )
            conn = _Connection(self, client_sock, index=self._accepted)
            self._accepted += 1
            self._connections.append(conn)
            conn.send(
                wire.Welcome(server=self.name, versions=wire.SUPPORTED_VERSIONS)
            )
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="monitor-server-conn",
                daemon=True,
            ).start()

    def _serve_connection(self, conn: _Connection) -> None:
        reader = conn.reader
        try:
            while True:
                try:
                    frame = wire.read_frame(reader)
                except wire.WireError as exc:
                    conn.send(wire.Error(message=str(exc)))
                    break
                if frame is None:
                    break
                if type(frame) is wire.Bye:
                    conn.send(wire.Bye())
                    break
                try:
                    self._handle(conn, frame)
                except Exception as exc:  # app errors keep the connection
                    conn.send(wire.Error(message=f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
            try:
                self._connections.remove(conn)
            except ValueError:
                pass

    # ------------------------------------------------------------------
    # Frame dispatch
    # ------------------------------------------------------------------

    def _subscribe(
        self, conn: _Connection, qid: int, include_unchanged: bool
    ) -> None:
        existing = conn.subscriptions.get(qid)
        if existing is not None:
            if existing.include_unchanged == include_unchanged:
                return
            # Re-subscribing with a different filter replaces the old
            # registration (e.g. upgrading a register-time watch to an
            # include-unchanged stream).
            existing.close()
        conn.subscriptions[qid] = self.session.hub.subscribe_query(
            qid, conn.deliver, include_unchanged=include_unchanged
        )

    def _handle(self, conn: _Connection, frame: wire.Frame) -> None:
        session = self.session
        kind = type(frame)
        if kind is wire.Updates:
            conn.staged_objects.extend(frame.batch)
            return
        if kind is wire.QueryOp:
            conn.staged_queries.append(frame.update)
            return
        if kind is wire.Tick:
            batch = conn.staged_objects
            batch.timestamp = frame.timestamp
            batch.query_updates = tuple(conn.staged_queries)
            with self.lock:
                changed = session.tick_flat(batch)
            # Terminated-by-stream queries no longer route anywhere; reap
            # their connection subscriptions too.  Only a TERMINATE kind
            # qualifies (a raw MOVE/INSERT leaves the query alive), and
            # only if the query really ended the cycle uninstalled (a
            # terminate + re-insert within one batch keeps it).
            if conn.staged_queries:
                live = set(session.query_ids())
                for qu in conn.staged_queries:
                    if (
                        qu.kind is QueryUpdateKind.TERMINATE
                        and qu.qid in conn.subscriptions
                        and qu.qid not in live
                    ):
                        conn.subscriptions.pop(qu.qid).close()
            conn.staged_objects = FlatUpdateBatch(timestamp=None)
            conn.staged_queries = []
            conn.send(
                wire.Ticked(
                    timestamp=frame.timestamp, changed=tuple(sorted(changed))
                )
            )
            return
        if kind is wire.Register:
            with self.lock:
                handle = session.register(frame.spec, qid=frame.qid)
                result = tuple(handle.snapshot())
                if frame.watch:
                    self._subscribe(conn, handle.qid, include_unchanged=False)
            conn.send(wire.Registered(qid=handle.qid, result=result))
            return
        if kind is wire.Move:
            with self.lock:
                result = session.handle(frame.qid).move(frame.point)
            conn.send(wire.Snapshot(qid=frame.qid, result=tuple(result)))
            return
        if kind is wire.Terminate:
            with self.lock:
                # Terminate first so the draining delta still routes to
                # this connection, then drop the dead topic.
                session.handle(frame.qid).terminate()
                subscription = conn.subscriptions.pop(frame.qid, None)
                if subscription is not None:
                    subscription.close()
            conn.send(wire.Ok(op="terminate", qid=frame.qid))
            return
        if kind is wire.GetSnapshot:
            with self.lock:
                result = tuple(session.snapshot(frame.qid))
            conn.send(wire.Snapshot(qid=frame.qid, result=result))
            return
        if kind is wire.Subscribe:
            with self.lock:
                self._subscribe(conn, frame.qid, frame.include_unchanged)
            conn.send(wire.Ok(op="subscribe", qid=frame.qid))
            return
        if kind is wire.Unsubscribe:
            subscription = conn.subscriptions.pop(frame.qid, None)
            if subscription is not None:
                subscription.close()
            conn.send(wire.Ok(op="unsubscribe", qid=frame.qid))
            return
        if kind is wire.Tags:
            with self.lock:
                session.set_object_tags(
                    {oid: set(tags) for oid, tags in frame.rows}
                )
            conn.send(wire.Ok(op="tags"))
            return
        if kind is wire.Sync:
            self._sync(conn, frame)
            return
        if kind is wire.WatchMetrics:
            if self.registry is None:
                raise wire.WireError("server has no metrics registry attached")
            conn.wants_alerts = frame.alerts
            if frame.interval_ms > 0:
                conn.metrics_interval = frame.interval_ms / 1000.0
                conn.next_metrics_at = 0.0  # due at the next pump pass
            else:
                conn.metrics_interval = None
            conn.send(wire.Ok(op="watch_metrics"))
            # Always answer with one immediate snapshot; periodic pushes
            # (if requested) continue from the pump thread.
            conn.send(self._metrics_frame())
            return
        if kind is wire.Hello:
            return  # the welcome already went out on accept
        raise wire.WireError(
            f"frame {wire.encode_frame(frame)!r} is not valid client->server"
        )

    def _sync(self, conn: _Connection, frame: wire.Sync) -> None:
        """Cold-start stream: the state a fresh client needs to mirror
        this session — the object table (on request), every registered
        query with its spec and current result, then ``sync_done``.

        Everything is captured under the server lock, but the frames go
        out through the outbox like any other traffic, so a huge sync
        never stalls the monitoring cycle either.
        """
        session = self.session
        with self.lock:
            monitor = session.service.monitor
            n_objects = 0
            if frame.objects:
                tag_table = getattr(monitor, "_object_tags", None) or {}
                rows = []
                for oid, point in monitor.iter_objects():
                    tags = tag_table.get(oid)
                    rows.append(
                        (oid, point, None if tags is None else tuple(sorted(tags)))
                    )
                    n_objects += 1
                    if len(rows) >= SYNC_CHUNK:
                        conn.send(wire.SyncObjects(rows=tuple(rows)))
                        rows = []
                if rows:
                    conn.send(wire.SyncObjects(rows=tuple(rows)))
            handles = session.handles()
            for handle in handles:
                conn.send(
                    wire.SyncQuery(
                        qid=handle.qid,
                        spec=handle.spec,
                        result=tuple(handle.snapshot()),
                    )
                )
                if frame.watch:
                    self._subscribe(conn, handle.qid, include_unchanged=False)
        conn.send(wire.SyncDone(queries=len(handles), objects=n_objects))
