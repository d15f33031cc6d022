"""The remote client: the Session API mirrored over a socket.

A :class:`Client` connects to a :class:`repro.api.server.MonitorSocketServer`
and exposes the same vocabulary as the in-process
:class:`repro.api.session.Session` — ``register`` returning handles with
``move`` / ``terminate`` / ``snapshot`` / ``subscribe``, plus
``send_updates`` / ``tick`` for driving cycles — every call translated
to wire frames (:mod:`repro.api.wire`).

One background reader thread owns the socket's receive side, through
one binary buffered reader that :func:`repro.api.wire.read_frame` takes
a frame at a time — a binary ``delta`` record or an ndjson line, told
apart by the first byte — for the welcome, the pump and the re-sync
alike.  It dispatches ``delta`` frames to the subscribed handles' callbacks
(callbacks therefore run on the reader thread — keep them fast, hand
off to a queue for heavy work) and routes reply frames to the one
in-flight request (requests are serialized by an internal lock).
Because the server publishes a cycle's deltas before replying to the
``tick`` that produced them, every delta of a cycle has been dispatched
by the time :meth:`tick` returns — remote code can treat ``tick`` as a
synchronization point exactly like in-process code does.

**Reconnects.**  Pass a :class:`repro.api.retry.ReconnectPolicy` to make
the client survive transport loss: when the link drops abnormally (and
only then — a server ``bye`` or a local :meth:`Client.close` stays
final), the reader thread redials with capped exponential backoff and
re-syncs over the wire-v2 ``sync`` path — re-adopting every session
query, re-subscribing their delta topics and refreshing the handles'
results — then resumes streaming.  Each recovery is surfaced as a
:class:`ReconnectEvent` (``reconnect_events`` / ``on_reconnect``).
Semantics the application must own: a request in flight at the moment
of loss fails with :class:`RemoteError` (it may or may not have been
applied — reads are safe to retry, writes need idempotence), staged
updates not yet ticked are lost with the old connection, and deltas
published while the link was down are *not* replayed — treat a
reconnect like a ``lagged`` marker and re-snapshot what you watch
(the re-synced results in the event carry exactly that snapshot).

**Lag recovery.**  The in-band case needs no request at all: the server
follows every ``lagged`` frame (DROP_AND_SNAPSHOT slow-consumer policy)
with one fresh ``sync_query`` snapshot per subscribed query, which the
client records in ``lag_snapshots`` — a stalled-then-drained consumer
converges as soon as it reads its backlog.  ``auto_resync=True``
additionally re-runs the full wire-v2 ``sync`` handshake on a side
thread — the reader thread cannot issue requests itself — refreshing
*every* handle's result and re-subscribing its topic, which also covers
queries this connection never watched.  Each completed recovery lands
in ``resync_events``; overlapping lag markers coalesce into the one
in-flight re-sync.

**Telemetry.**  ``watch_metrics`` subscribes the connection to the
server's wire-v3 telemetry stream: ``metrics`` frames land in
``metrics_frames``, ``alert`` frames in ``alert_events`` (neither is
routed to the request/reply path).  Pass a
:class:`repro.obs.metrics.MetricsRegistry` as ``metrics=`` to have the
client's own transport health — reconnects, shed deltas, received
alerts — exported alongside everything else.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from repro.api import wire
from repro.api.queries import QuerySpec
from repro.api.retry import ReconnectPolicy
from repro.obs.metrics import MetricsRegistry
from repro.geometry.points import Point
from repro.service.deltas import ResultDelta
from repro.updates import FlatUpdateBatch, ObjectUpdate, QueryUpdate

ResultEntry = tuple[float, int]
DeltaCallback = Callable[[int | None, ResultDelta], None]

#: sentinel returned by the reader pump for EOF-without-bye (the server
#: vanished without an orderly goodbye — a reconnectable failure).
_EOF = object()


@dataclass(slots=True)
class SyncState:
    """What :meth:`Client.sync` brought over: the handles of every query
    registered on the session (with their synced results) and, when
    requested, the object table rows ``(oid, (x, y), tags-or-None)``."""

    handles: list["RemoteQueryHandle"] = field(default_factory=list)
    results: dict[int, list[ResultEntry]] = field(default_factory=dict)
    objects: list[tuple[int, Point, tuple[str, ...] | None]] = field(
        default_factory=list
    )


@dataclass(slots=True)
class ReconnectEvent:
    """One successful transparent reconnect (see ``Client.reconnect_events``).

    ``results`` holds the re-synced result table — the authoritative
    post-gap snapshot of every session query (deltas missed while the
    link was down are not replayed; this is the re-anchor point).
    """

    attempts: int  # dial attempts this recovery needed (>= 1)
    cause: str  # repr of the transport failure that triggered it
    results: dict[int, list[ResultEntry]] = field(default_factory=dict)


class RemoteError(RuntimeError):
    """The server answered a request with an ``error`` frame."""


class RemoteSubscription:
    """Client-side registration of one delta callback (see ``close``)."""

    __slots__ = ("callback", "delivered", "qid", "_client")

    def __init__(self, client: "Client", qid: int, callback: DeltaCallback) -> None:
        self._client = client
        self.qid = qid
        self.callback = callback
        self.delivered = 0

    def close(self) -> None:
        """Detach the callback (and unsubscribe the topic when it was the
        last one on this query)."""
        self._client._drop_subscription(self)


class RemoteQueryHandle:
    """A registered query on the remote monitor (mirror of QueryHandle)."""

    __slots__ = ("qid", "_client", "_spec", "_alive")

    def __init__(self, client: "Client", qid: int, spec: QuerySpec) -> None:
        self._client = client
        self.qid = qid
        self._spec = spec
        self._alive = True

    @property
    def spec(self) -> QuerySpec:
        return self._spec

    @property
    def alive(self) -> bool:
        return self._alive

    def _check_alive(self) -> None:
        if not self._alive:
            raise RuntimeError(f"query {self.qid} is terminated")

    def snapshot(self) -> list[ResultEntry]:
        self._check_alive()
        return self._client.snapshot(self.qid)

    def move(self, point: Point) -> list[ResultEntry]:
        self._check_alive()
        reply = self._client._request(
            wire.Move(qid=self.qid, point=(point[0], point[1])), wire.Snapshot
        )
        self._spec = self._spec.moved_to((point[0], point[1]))
        return list(reply.result)

    def terminate(self) -> None:
        self._check_alive()
        self._client._request(wire.Terminate(qid=self.qid), wire.Ok)
        self._alive = False
        self._client._forget_handle(self.qid)

    def subscribe(
        self, callback: DeltaCallback, *, include_unchanged: bool = False
    ) -> RemoteSubscription:
        """Route this query's deltas to ``callback(timestamp, delta)``.

        Callbacks run on the client's reader thread.
        """
        self._check_alive()
        return self._client._subscribe(self.qid, callback, include_unchanged)


class Client:
    """A wire-protocol monitoring client (see module docstring).

    Use :meth:`connect`, or hand an already-connected socket to the
    constructor (tests).  The client reads the server's ``welcome``
    eagerly and refuses servers that do not speak a supported version.
    """

    def __init__(
        self,
        sock: socket.socket,
        *,
        client_name: str = "",
        reconnect: ReconnectPolicy | None = None,
        on_reconnect: Callable[[ReconnectEvent], None] | None = None,
        auto_resync: bool = False,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self._sock = sock
        self._reader = sock.makefile("rb")
        self._write_lock = threading.Lock()
        self._request_lock = threading.Lock()
        self._replies: queue.Queue = queue.Queue()
        self._handles: dict[int, RemoteQueryHandle] = {}
        self._subscriptions: dict[int, list[RemoteSubscription]] = {}
        self._closed = threading.Event()
        self._client_name = client_name
        self._reconnect = reconnect
        self._on_reconnect = on_reconnect
        #: the dial address for redials; without one (a pre-connected
        #: socket whose peer cannot be named) reconnects are disabled.
        try:
            peer = sock.getpeername()
        except OSError:
            peer = None
        self._address: tuple | None = peer if peer else None
        #: distinguishes a local close() (final) from transport loss
        #: (reconnectable): the reader must never redial a user close.
        self._user_closed = threading.Event()
        #: cleared while a reconnect is in progress; requests wait on it.
        self._connected = threading.Event()
        self._connected.set()
        #: every successful transparent reconnect, in order.
        self.reconnect_events: list[ReconnectEvent] = []
        #: why the reader loop stopped, when it stopped abnormally (a
        #: transport error or an undecodable server frame); surfaced in
        #: the RemoteError of the next request.
        self._reader_error: BaseException | None = None
        #: exceptions raised by subscription callbacks (callbacks run on
        #: the reader thread; a raising callback does NOT kill the
        #: connection — the error is recorded here and delivery goes on).
        self.callback_errors: list[BaseException] = []
        #: set to a list to record **every** delta frame this connection
        #: receives, subscribed or not — the hook that lets tests and the
        #: remote-dashboard example prove the server routes only the
        #: topics this connection asked for.
        self.delta_frame_log: list[wire.Delta] | None = None
        #: dropped-delivery counts from ``lagged`` frames (the server's
        #: DROP_AND_SNAPSHOT slow-consumer policy shed deltas for this
        #: connection; re-snapshot what you watch).
        self.lag_events: list[int] = []
        #: qid -> the freshest result the server pushed after a
        #: ``lagged`` marker (unsolicited ``sync_query`` follow-ups).
        #: These arrive without any request from this side, so a
        #: stalled-then-drained consumer converges even with
        #: ``auto_resync`` off.
        self.lag_snapshots: dict[int, list[ResultEntry]] = {}
        #: True while :meth:`sync` owns the reply stream — handshake
        #: ``sync_query`` frames route to the request, any other
        #: ``sync_query`` is a server-pushed lag follow-up.
        self._sync_active = False
        #: re-run the sync handshake automatically on every ``lagged``
        #: marker (see module docstring); completed recoveries append
        #: their :class:`SyncState` to ``resync_events``.
        self._auto_resync = auto_resync
        #: single-inflight guard: lag markers arriving while a re-sync
        #: is already running coalesce into it.
        self._resyncing = threading.Event()
        #: every completed automatic lag re-sync, in order.
        self.resync_events: list[SyncState] = []
        #: server ``metrics`` frames received after :meth:`watch_metrics`.
        self.metrics_frames: list[wire.Metrics] = []
        #: server ``alert`` frames pushed to this connection.
        self.alert_events: list[wire.Alert] = []
        #: optional registry exporting this client's transport health.
        self.metrics = metrics
        #: the server's ``welcome`` frame (name + supported versions).
        self.welcome: wire.Welcome = self._read_welcome()
        self._reader_thread = threading.Thread(
            target=self._read_loop, name="monitor-client-reader", daemon=True
        )
        self._reader_thread.start()
        if client_name:
            self._send(wire.Hello(client=client_name))

    def _closed_reason(self) -> str:
        if self._reader_error is not None:
            return f"connection closed ({self._reader_error!r})"
        return "connection closed"

    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        *,
        timeout: float = 10.0,
        client_name: str = "",
        reconnect: ReconnectPolicy | None = None,
        on_reconnect: Callable[[ReconnectEvent], None] | None = None,
        auto_resync: bool = False,
        metrics: MetricsRegistry | None = None,
    ) -> "Client":
        sock = cls._dial((host, port), timeout)
        client = cls(
            sock,
            client_name=client_name,
            reconnect=reconnect,
            on_reconnect=on_reconnect,
            auto_resync=auto_resync,
            metrics=metrics,
        )
        client._address = (host, port)
        return client

    @staticmethod
    def _dial(address: tuple, timeout: float) -> socket.socket:
        sock = socket.create_connection(address, timeout=timeout)
        sock.settimeout(None)
        # Request/response frames are small; Nagle + delayed ACK would
        # add ~40ms to every round trip.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    # ------------------------------------------------------------------
    # Transport plumbing
    # ------------------------------------------------------------------

    def _send(self, frame: wire.Frame) -> None:
        data = wire.frame_bytes(frame)
        with self._write_lock:
            self._sock.sendall(data)

    def _read_welcome(self) -> wire.Welcome:
        try:
            frame = wire.read_frame(self._reader)
        except wire.WireError as exc:
            # An older server's welcome: refused here, not at its first
            # delta record.
            raise RemoteError(f"server welcome refused: {exc}") from exc
        if frame is None:
            raise RemoteError("connection closed before welcome")
        if type(frame) is not wire.Welcome:
            raise RemoteError(f"expected welcome, got {frame!r}")
        if wire.WIRE_VERSION not in frame.versions:
            raise RemoteError(
                f"server speaks versions {list(frame.versions)}, "
                f"client needs {wire.WIRE_VERSION}"
            )
        return frame

    def _read_loop(self) -> None:
        try:
            while True:
                outcome = self._pump()
                if outcome is None or self._user_closed.is_set():
                    # Orderly end (server bye, or our own close racing the
                    # read): final, never redialed.
                    break
                if self._reconnect is None or self._address is None:
                    if isinstance(outcome, BaseException):
                        # Transport failure or an undecodable server frame:
                        # remember why, so the next request's RemoteError
                        # can say.
                        self._reader_error = outcome
                    break
                # Abnormal loss with reconnects enabled: fail the in-flight
                # request (its reply is gone with the old connection), then
                # redial off-line while requesters wait on _connected.
                cause = (
                    outcome
                    if isinstance(outcome, BaseException)
                    else ConnectionResetError("server closed without bye")
                )
                self._connected.clear()
                self._replies.put(None)
                if not self._redial(cause):
                    self._reader_error = cause
                    break
        finally:
            self._closed.set()
            # Wake requesters blocked on the reconnect window or on a
            # reply that will never come (in that order: a requester
            # re-checks _closed after _connected fires).
            self._connected.set()
            self._replies.put(None)

    def _pump(self):
        """Read frames until the connection ends.

        Returns ``None`` for an orderly end (server ``bye``), ``_EOF``
        for a silent peer close, or the exception for a transport/decode
        failure.
        """
        read_frame = wire.read_frame
        reader = self._reader
        try:
            while (frame := read_frame(reader)) is not None:
                kind = type(frame)
                if kind is wire.Delta:
                    self._dispatch_delta(frame)
                elif kind is wire.Lagged:
                    self._on_lagged(frame)
                elif kind is wire.SyncQuery and not self._sync_active:
                    self._on_lag_snapshot(frame)
                elif kind is wire.Metrics:
                    self._on_metrics(frame)
                elif kind is wire.Alert:
                    self._on_alert(frame)
                elif kind is wire.Bye:
                    return None
                else:
                    # Replies (registered/snapshot/ticked/ok/error) go to
                    # the single in-flight request.
                    self._replies.put(frame)
        except (OSError, ValueError) as exc:
            return exc
        return _EOF

    def _redial(self, cause: BaseException) -> bool:
        """Dial-and-resync with backoff (reader thread).  True on success."""
        policy = self._reconnect
        attempts = 0
        for delay in policy.delays():
            if self._user_closed.is_set():
                return False
            time.sleep(delay)
            if self._user_closed.is_set():
                return False
            attempts += 1
            try:
                sock = self._dial(self._address, policy.connect_timeout)
            except OSError:
                continue
            reader = sock.makefile("rb")
            old_sock = self._sock
            with self._write_lock:
                # Writers (requests are still parked on _connected, but a
                # racing send_updates may hold the lock) must never see a
                # half-swapped transport.
                self._sock = sock
                self._reader = reader
            try:
                old_sock.close()
            except OSError:
                pass
            try:
                event = self._resync(attempts, cause)
            except (OSError, ValueError, RemoteError):
                # The fresh connection died during the handshake/re-sync;
                # treat it like a failed dial and keep backing off.
                continue
            # Leftover frames from the old connection (including the None
            # we queued at loss time, if no request consumed it) are
            # stale; the link is clean from here.
            self._drain_replies()
            self.reconnect_events.append(event)
            if self.metrics is not None:
                self.metrics.counter(
                    "repro_client_reconnects_total",
                    "Transparent transport recoveries completed.",
                ).inc()
            self._connected.set()
            if self._on_reconnect is not None:
                try:
                    self._on_reconnect(event)
                except Exception as exc:  # observer must not kill the link
                    self.callback_errors.append(exc)
            return True
        return False

    def _resync(self, attempts: int, cause: BaseException) -> ReconnectEvent:
        """Handshake + wire-v2 ``sync`` on a fresh transport.

        Runs inline on the reader thread (the pump is paused, so frames
        are read directly): validates the welcome, re-announces the
        client, then replays the session's queries through ``sync`` —
        re-creating missing handles, refreshing specs, re-subscribing
        every query's delta topic (``watch=True``) — and drops handles
        for queries that vanished while the link was down.  Deltas the
        server publishes concurrently are dispatched as usual.
        """
        self.welcome = self._read_welcome()
        if self._client_name:
            self._send(wire.Hello(client=self._client_name))
        self._send(
            wire.Sync(objects=False, watch=True)
        )
        results: dict[int, list[ResultEntry]] = {}
        synced_objects = 0
        while True:
            frame = wire.read_frame(self._reader)
            if frame is None:
                raise ConnectionResetError("connection lost during re-sync")
            kind = type(frame)
            if kind is wire.Delta:
                self._dispatch_delta(frame)
            elif kind is wire.Lagged:
                self.lag_events.append(frame.dropped)
            elif kind is wire.SyncObjects:
                synced_objects += len(frame.rows)
            elif kind is wire.SyncQuery:
                handle = self._handles.get(frame.qid)
                if handle is None:
                    handle = RemoteQueryHandle(self, frame.qid, frame.spec)
                    self._handles[frame.qid] = handle
                else:
                    handle._spec = frame.spec
                results[frame.qid] = list(frame.result)
            elif kind is wire.SyncDone:
                if len(results) != frame.queries:
                    raise RemoteError(
                        f"re-sync incomplete: got {len(results)}/"
                        f"{frame.queries} queries"
                    )
                break
            elif kind is wire.Bye:
                raise ConnectionResetError("server said bye during re-sync")
            elif kind is wire.Error:
                raise RemoteError(frame.message)
            # Anything else on a fresh connection is stale noise; skip it.
        for qid in list(self._handles):
            if qid not in results:
                # Terminated while we were away.
                self._handles[qid]._alive = False
                self._forget_handle(qid)
        return ReconnectEvent(
            attempts=attempts, cause=repr(cause), results=results
        )

    def _drain_replies(self) -> None:
        while True:
            try:
                self._replies.get_nowait()
            except queue.Empty:
                return

    def _await_link(self) -> None:
        """Park until any in-progress reconnect settles (or give up)."""
        if self._connected.is_set():
            return
        budget = (
            self._reconnect.total_budget() if self._reconnect is not None else 5.0
        )
        if not self._connected.wait(timeout=budget):
            raise RemoteError("reconnect did not complete in time")

    def _dispatch_delta(self, frame: wire.Delta) -> None:
        if self.delta_frame_log is not None:
            self.delta_frame_log.append(frame)
        for subscription in tuple(self._subscriptions.get(frame.delta.qid, ())):
            try:
                subscription.callback(frame.timestamp, frame.delta)
            except Exception as exc:  # a bad callback must not kill the link
                self.callback_errors.append(exc)
            else:
                subscription.delivered += 1

    def _on_lagged(self, frame: wire.Lagged) -> None:
        self.lag_events.append(frame.dropped)
        if self.metrics is not None:
            self.metrics.counter(
                "repro_client_lagged_deltas_total",
                "Deltas the server shed for this connection (lagged frames).",
            ).inc(frame.dropped)
        if self._auto_resync:
            self._spawn_resync()

    def _on_lag_snapshot(self, frame: wire.SyncQuery) -> None:
        """A server-pushed post-lag snapshot (no request from this side).

        The server follows every ``lagged`` marker with one fresh
        ``sync_query`` per subscribed query, so the gap the shed deltas
        left is closed here — the authoritative result lands in
        :attr:`lag_snapshots` without a re-sync round trip.
        """
        handle = self._handles.get(frame.qid)
        if handle is None:
            handle = RemoteQueryHandle(self, frame.qid, frame.spec)
            self._handles[frame.qid] = handle
        else:
            handle._spec = frame.spec
        self.lag_snapshots[frame.qid] = list(frame.result)
        if self.metrics is not None:
            self.metrics.counter(
                "repro_client_lag_snapshots_total",
                "Post-lag snapshots the server pushed to this connection.",
            ).inc()

    def _spawn_resync(self) -> None:
        """Kick off the lag-recovery ``sync`` on a side thread.

        Runs on the reader thread, which cannot issue requests itself
        (:meth:`sync` would deadlock waiting for replies only this
        thread can enqueue).  At most one re-sync is in flight; lag
        markers arriving meanwhile coalesce into it.
        """
        if self._resyncing.is_set() or self._closed.is_set():
            return
        self._resyncing.set()

        def run() -> None:
            try:
                state = self.sync(objects=False, watch=True)
            except RemoteError as exc:
                # A lost link mid-recovery is the reconnect machinery's
                # problem (or the application's, via the next request);
                # the recovery itself must not kill anything.
                self.callback_errors.append(exc)
            else:
                self.resync_events.append(state)
                if self.metrics is not None:
                    self.metrics.counter(
                        "repro_client_resyncs_total",
                        "Automatic lag re-syncs completed.",
                    ).inc()
            finally:
                self._resyncing.clear()

        threading.Thread(
            target=run, name="monitor-client-resync", daemon=True
        ).start()

    def _on_metrics(self, frame: wire.Metrics) -> None:
        self.metrics_frames.append(frame)

    def _on_alert(self, frame: wire.Alert) -> None:
        self.alert_events.append(frame)
        if self.metrics is not None:
            self.metrics.counter(
                "repro_client_alerts_received_total",
                "Server health alerts pushed to this connection, by level.",
                level=frame.level,
            ).inc()

    def _request(self, frame: wire.Frame, expected: type) -> wire.Frame:
        """Send one frame and wait for its reply (serialized)."""
        if threading.current_thread() is self._reader_thread:
            # The reply could only be enqueued by the reader thread —
            # which is the one blocked here.  Fail fast instead.
            raise RemoteError(
                "requests cannot be issued from inside a delta callback "
                "(it runs on the reader thread); hand off to another thread"
            )
        with self._request_lock:
            self._await_link()
            if self._closed.is_set():
                raise RemoteError(self._closed_reason())
            self._send(frame)
            reply = self._replies.get()
        if reply is None:
            raise RemoteError(
                f"{self._closed_reason()} while waiting for a reply"
            )
        if type(reply) is wire.Error:
            raise RemoteError(reply.message)
        if type(reply) is not expected:
            raise RemoteError(
                f"expected {expected.__name__}, got {reply!r}"
            )
        return reply

    # ------------------------------------------------------------------
    # The Session vocabulary
    # ------------------------------------------------------------------

    def register(
        self, spec: QuerySpec, *, qid: int | None = None, watch: bool = True
    ) -> RemoteQueryHandle:
        """Install a typed query on the remote monitor.

        ``watch=True`` (default) also subscribes the connection to the
        query's delta topic server-side, so callbacks attached with
        :meth:`RemoteQueryHandle.subscribe` start streaming immediately.
        """
        reply = self._request(
            wire.Register(spec=spec, qid=qid, watch=watch), wire.Registered
        )
        handle = RemoteQueryHandle(self, reply.qid, spec)
        self._handles[reply.qid] = handle
        return handle

    def handle(self, qid: int) -> RemoteQueryHandle:
        return self._handles[qid]

    def handles(self) -> list[RemoteQueryHandle]:
        return [self._handles[qid] for qid in sorted(self._handles)]

    def snapshot(self, qid: int) -> list[ResultEntry]:
        reply = self._request(wire.GetSnapshot(qid=qid), wire.Snapshot)
        return list(reply.result)

    def set_object_tags(self, tags: Mapping[int, Iterable[str]]) -> None:
        """Merge object attribute tags on the remote monitor (the
        predicate state of :class:`repro.api.queries.FilteredKnnSpec`
        subscriptions); an empty tag set removes an object's tags."""
        rows = tuple(
            (int(oid), tuple(sorted(str(t) for t in tag_set)))
            for oid, tag_set in tags.items()
        )
        self._request(wire.Tags(rows=rows), wire.Ok)

    def sync(self, *, objects: bool = False, watch: bool = True) -> SyncState:
        """Cold-start: mirror the server session's current state.

        Streams every registered query (spec + current result) — and the
        object table when ``objects`` is set — building a
        :class:`RemoteQueryHandle` for each query so a fresh client can
        adopt a long-running session entirely over the wire.
        ``watch=True`` also subscribes this connection to every synced
        query's delta topic.
        """
        if threading.current_thread() is self._reader_thread:
            raise RemoteError(
                "requests cannot be issued from inside a delta callback "
                "(it runs on the reader thread); hand off to another thread"
            )
        state = SyncState()
        with self._request_lock:
            self._await_link()
            if self._closed.is_set():
                raise RemoteError(self._closed_reason())
            self._sync_active = True
            try:
                return self._run_sync(state, objects=objects, watch=watch)
            finally:
                self._sync_active = False

    def _run_sync(self, state: SyncState, *, objects: bool, watch: bool):
        self._send(wire.Sync(objects=objects, watch=watch))
        # The sync stream is a multi-frame reply; requests are
        # serialized, so everything until sync_done belongs to us.
        while True:
            reply = self._replies.get()
            if reply is None:
                raise RemoteError(
                    f"{self._closed_reason()} while waiting for sync"
                )
            kind = type(reply)
            if kind is wire.Error:
                raise RemoteError(reply.message)
            if kind is wire.SyncObjects:
                state.objects.extend(reply.rows)
            elif kind is wire.SyncQuery:
                handle = self._handles.get(reply.qid)
                if handle is None:
                    handle = RemoteQueryHandle(self, reply.qid, reply.spec)
                    self._handles[reply.qid] = handle
                # A lag follow-up racing the handshake can repeat a qid
                # in this stream; the later (handshake) result wins and
                # the completeness check counts each query once.
                if reply.qid not in state.results:
                    state.handles.append(handle)
                state.results[reply.qid] = list(reply.result)
            elif kind is wire.SyncDone:
                if len(state.handles) != reply.queries or (
                    len(state.objects) != reply.objects
                ):
                    raise RemoteError(
                        f"sync stream incomplete: got "
                        f"{len(state.handles)}/{reply.queries} queries, "
                        f"{len(state.objects)}/{reply.objects} objects"
                    )
                return state
            else:
                raise RemoteError(f"unexpected frame during sync: {reply!r}")

    def send_updates(self, object_updates: Sequence[ObjectUpdate]) -> None:
        """Stage object updates for the next :meth:`tick` (no reply).

        A batch of more than :data:`repro.api.wire.MAX_UPDATE_ROWS` rows
        goes as several ``updates`` frames, in order."""
        self._await_link()
        batch = FlatUpdateBatch.from_updates(object_updates)
        step = wire.MAX_UPDATE_ROWS
        if len(batch) <= step:
            self._send(wire.Updates(batch))
            return
        for start in range(0, len(batch), step):
            self._send(wire.Updates(batch.rows(start, start + step)))

    def send_query_update(self, update: QueryUpdate) -> None:
        """Stage a raw query update for the next :meth:`tick`."""
        self._await_link()
        self._send(wire.QueryOp(update=update))

    def tick(self, *, timestamp: int | None = None) -> set[int]:
        """Close the staged cycle; returns the changed-query id set.

        Every delta of the cycle has been dispatched to subscription
        callbacks by the time this returns (see module docstring).
        """
        reply = self._request(wire.Tick(timestamp=timestamp), wire.Ticked)
        return set(reply.changed)

    def watch_metrics(
        self,
        *,
        interval_ms: int = 0,
        alerts: bool = True,
        timeout: float = 5.0,
    ) -> wire.Metrics:
        """Subscribe to the server's telemetry stream (wire v3).

        The server replies with an immediate ``metrics`` frame (the
        current registry snapshot) and, when ``interval_ms`` is
        positive, keeps pushing one every interval; ``alerts=True`` also
        opts this connection into pushed ``alert`` frames.  Frames land
        in :attr:`metrics_frames` / :attr:`alert_events` on the reader
        thread.  Returns the immediate snapshot frame (waited for up to
        ``timeout`` seconds, since it arrives out-of-band after the
        ``ok`` reply).
        """
        seen = len(self.metrics_frames)
        self._request(
            wire.WatchMetrics(interval_ms=interval_ms, alerts=alerts), wire.Ok
        )
        deadline = time.monotonic() + timeout
        while len(self.metrics_frames) <= seen:
            if self._closed.is_set():
                raise RemoteError(self._closed_reason())
            if time.monotonic() >= deadline:
                raise RemoteError(
                    "no metrics frame arrived after watch_metrics"
                )
            time.sleep(0.005)
        return self.metrics_frames[seen]

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------

    def _subscribe(
        self, qid: int, callback: DeltaCallback, include_unchanged: bool
    ) -> RemoteSubscription:
        bucket = self._subscriptions.setdefault(qid, [])
        if not bucket:
            self._request(
                wire.Subscribe(qid=qid, include_unchanged=include_unchanged),
                wire.Ok,
            )
        subscription = RemoteSubscription(self, qid, callback)
        bucket.append(subscription)
        return subscription

    def _drop_subscription(self, subscription: RemoteSubscription) -> None:
        bucket = self._subscriptions.get(subscription.qid)
        if not bucket or subscription not in bucket:
            return
        bucket.remove(subscription)
        if not bucket:
            del self._subscriptions[subscription.qid]
            if not self._closed.is_set():
                try:
                    self._request(wire.Unsubscribe(qid=subscription.qid), wire.Ok)
                except RemoteError:
                    pass

    def _forget_handle(self, qid: int) -> None:
        self._handles.pop(qid, None)
        self._subscriptions.pop(qid, None)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Orderly shutdown (idempotent).  Always final — a local close
        never triggers a reconnect."""
        self._user_closed.set()
        if not self._closed.is_set():
            try:
                self._send(wire.Bye())
            except OSError:
                pass
        self._closed.set()
        try:
            self._sock.close()
        except OSError:
            pass
        self._reader_thread.join(timeout=5.0)

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
