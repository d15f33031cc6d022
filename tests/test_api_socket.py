"""End-to-end socket tests: server + client in-process over localhost.

The headline check pins the acceptance criterion of the wire protocol:
a remote client registering queries and streaming a workload receives a
delta stream **byte-equivalent** (as encoded binary delta records) to
an in-process Session subscribing on the same workload.  Raw-socket
peers read the server through ``wire.read_frame`` on a binary reader,
the framing rule a real client uses.
"""

import socket
import threading
import time

import pytest

from repro.api import wire
from repro.api.client import Client, RemoteError
from repro.api.queries import (
    ConstrainedKnnSpec,
    FilteredKnnSpec,
    KnnSpec,
    RangeSpec,
)
from repro.api.server import MonitorSocketServer
from repro.api.session import Session
from repro.core.cpm import CPMMonitor
from repro.ingest.driver import IngestDriver
from repro.ingest.feeds import SocketFeed, WorkloadFeed, push_feed_to_socket
from repro.mobility.uniform import UniformGenerator
from repro.mobility.workload import WorkloadSpec
from repro.service.deltas import ResultDelta
from repro.service.service import MonitoringService
from repro.service.subscriptions import SlowConsumerPolicy
from repro.updates import FlatUpdateBatch, ObjectUpdate

SPEC = WorkloadSpec(
    n_objects=120, n_queries=4, k=3, timestamps=5, seed=17, query_agility=0.0
)
CELLS = 16


@pytest.fixture(scope="module")
def workload():
    return UniformGenerator(SPEC).generate()


@pytest.fixture()
def endpoint(workload):
    """A served session preloaded with the workload's objects."""
    session = Session(CPMMonitor(cells_per_axis=CELLS))
    session.load_objects(workload.initial_objects.items())
    server = MonitorSocketServer(session, name="test-server")
    host, port = server.start()
    try:
        yield session, server, host, port
    finally:
        server.stop()


class TestEndToEnd:
    def test_remote_stream_matches_direct_drive_byte_for_byte(
        self, workload, endpoint
    ):
        _session, _server, host, port = endpoint
        queries = sorted(workload.initial_queries.items())

        with Client.connect(host, port) as client:
            remote: dict[int, list[bytes]] = {}
            handles = []
            for qid, point in queries:
                handle = client.register(KnnSpec(point=point, k=SPEC.k), qid=qid)
                lines: list[bytes] = []
                handle.subscribe(
                    lambda ts, d, _lines=lines: _lines.append(
                        wire.encode_delta(ts, d)
                    )
                )
                remote[qid] = lines
                handles.append(handle)
            for batch in workload.batches:
                client.send_updates(batch.object_updates)
                client.tick(timestamp=batch.timestamp)

        # Direct drive: same workload, in-process Session.
        local_session = Session(CPMMonitor(cells_per_axis=CELLS))
        local_session.load_objects(workload.initial_objects.items())
        local: dict[int, list[bytes]] = {}
        for qid, point in queries:
            handle = local_session.register(KnnSpec(point=point, k=SPEC.k), qid=qid)
            lines = []
            handle.subscribe(
                lambda ts, d, _lines=lines: _lines.append(wire.encode_delta(ts, d))
            )
            local[qid] = lines
        for batch in workload.batches:
            local_session.tick_batch(batch)

        assert remote.keys() == local.keys()
        for qid in remote:
            assert remote[qid], f"query {qid} streamed nothing"
            assert remote[qid] == local[qid]

    def test_unwatched_query_deltas_never_cross_the_socket(
        self, workload, endpoint
    ):
        _session, _server, host, port = endpoint
        (qid_a, point_a), (qid_b, point_b) = sorted(
            workload.initial_queries.items()
        )[:2]
        with Client.connect(host, port) as client:
            frames: list[wire.Delta] = []
            client.delta_frame_log = frames
            a = client.register(KnnSpec(point=point_a, k=SPEC.k), qid=qid_a)
            client.register(KnnSpec(point=point_b, k=SPEC.k), qid=qid_b, watch=False)
            a.subscribe(lambda ts, d: None)
            for batch in workload.batches:
                client.send_updates(batch.object_updates)
                changed = client.tick(timestamp=batch.timestamp)
                assert isinstance(changed, set)
            assert frames, "watched query streamed nothing"
            assert {f.delta.qid for f in frames} == {qid_a}

    def test_remote_handle_operations(self, endpoint):
        _session, _server, host, port = endpoint
        with Client.connect(host, port) as client:
            handle = client.register(KnnSpec(point=(0.5, 0.5), k=2))
            assert len(handle.snapshot()) == 2
            drained = []
            handle.subscribe(lambda ts, d: drained.append(d))
            moved = handle.move((0.25, 0.25))
            assert moved == client.snapshot(handle.qid)
            assert handle.spec.point == (0.25, 0.25)
            handle.terminate()
            assert not handle.alive
            assert drained and drained[-1].terminated
            with pytest.raises(RuntimeError):
                handle.snapshot()

    def test_typed_specs_register_remotely(self, endpoint):
        session, _server, host, port = endpoint
        with Client.connect(host, port) as client:
            constrained = client.register(
                ConstrainedKnnSpec(
                    point=(0.5, 0.5), region=(0.0, 0.0, 0.5, 0.5), k=2
                )
            )
            ranged = client.register(RangeSpec(region=(0.4, 0.4, 0.7, 0.7)))
            assert constrained.snapshot() == session.snapshot(constrained.qid)
            assert ranged.snapshot() == session.snapshot(ranged.qid)
            constrained.terminate()
            ranged.terminate()

    def test_app_errors_come_back_as_remote_errors(self, endpoint):
        _session, _server, host, port = endpoint
        with Client.connect(host, port) as client:
            client.register(KnnSpec(point=(0.5, 0.5)), qid=123)
            with pytest.raises(RemoteError, match="already"):
                client.register(KnnSpec(point=(0.1, 0.1)), qid=123)
            # The connection survives application errors.
            assert client.snapshot(123) == client.handle(123).snapshot()

    def test_raw_query_move_keeps_subscription_alive(self, endpoint):
        """A raw MOVE query op must not reap the connection's topic
        (only TERMINATE kills it)."""
        from repro.updates import QueryUpdate, QueryUpdateKind

        _session, _server, host, port = endpoint
        with Client.connect(host, port) as client:
            seen = []
            handle = client.register(KnnSpec(point=(0.5, 0.5), k=2))
            handle.subscribe(lambda ts, d: seen.append((ts, d.qid)))
            client.send_query_update(
                QueryUpdate(
                    handle.qid, QueryUpdateKind.MOVE, (0.25, 0.25), 2
                )
            )
            client.tick(timestamp=1)
            moved_deltas = len(seen)
            assert moved_deltas >= 1  # the move itself streams
            # The topic must still be live on a later change.
            client.send_query_update(
                QueryUpdate(handle.qid, QueryUpdateKind.MOVE, (0.75, 0.75), 2)
            )
            client.tick(timestamp=2)
            assert len(seen) > moved_deltas

    def test_query_move_frame_without_k_keeps_k(self, endpoint):
        """A raw ``query`` move frame may omit ``"k"``; the query keeps
        the k it was registered with instead of shrinking to 1."""
        from repro.updates import QueryUpdate, QueryUpdateKind

        _session, _server, host, port = endpoint
        with Client.connect(host, port) as client:
            handle = client.register(KnnSpec(point=(0.5, 0.5), k=4))
            move = QueryUpdate(handle.qid, QueryUpdateKind.MOVE, (0.25, 0.25))
            assert '"k"' not in wire.encode_frame(wire.QueryOp(update=move))
            client.send_query_update(move)
            client.tick(timestamp=1)
            assert len(handle.snapshot()) == 4

    def test_resubscribe_upgrades_include_unchanged(self, endpoint):
        """Re-subscribing with include_unchanged=True replaces the
        register-time watch instead of being silently dropped."""
        session, _server, host, port = endpoint
        with Client.connect(host, port) as client:
            handle = client.register(KnnSpec(point=(0.5, 0.5), k=2))
            [server_sub] = session.hub._by_qid[handle.qid]
            assert server_sub.include_unchanged is False
            handle.subscribe(lambda ts, d: None, include_unchanged=True)
            [server_sub] = session.hub._by_qid[handle.qid]
            assert server_sub.include_unchanged is True
            handle.terminate()

    def test_callback_exception_does_not_kill_connection(self, endpoint):
        _session, _server, host, port = endpoint
        with Client.connect(host, port) as client:
            handle = client.register(KnnSpec(point=(0.5, 0.5), k=2))

            def boom(ts, d):
                raise ValueError("dashboard bug")

            handle.subscribe(boom)
            handle.move((0.2, 0.2))  # publishes a delta -> callback raises
            assert client.callback_errors
            # The connection is still serviceable.
            assert client.snapshot(handle.qid) == handle.snapshot()

    def test_request_from_delta_callback_raises_instead_of_deadlocking(
        self, endpoint
    ):
        _session, _server, host, port = endpoint
        with Client.connect(host, port) as client:
            handle = client.register(KnnSpec(point=(0.5, 0.5), k=2))
            outcome = []

            def reenter(ts, d):
                try:
                    client.snapshot(handle.qid)
                    outcome.append("no error")
                except RemoteError as exc:
                    outcome.append(str(exc))

            handle.subscribe(reenter)
            handle.move((0.2, 0.2))
            assert outcome and "reader thread" in outcome[0]

    def test_future_version_frames_rejected_with_error_frame(self, endpoint):
        _session, _server, host, port = endpoint
        raw = socket.create_connection((host, port), timeout=10.0)
        try:
            reader = raw.makefile("rb")
            welcome = wire.read_frame(reader)
            assert type(welcome) is wire.Welcome
            assert welcome.versions == (wire.WIRE_VERSION,)
            raw.sendall(b'{"v":99,"t":"tick","ts":0}\n')
            reply = wire.read_frame(reader)
            assert type(reply) is wire.Error
            assert "unsupported wire version" in reply.message
        finally:
            raw.close()

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_older_peers_are_refused_at_the_welcome(self, endpoint, version):
        """A v1–v4 client's first frame is refused, and a v5 client
        refuses a v1–v4 server's welcome, before any delta record or
        ``updates`` frame."""
        _session, _server, host, port = endpoint
        raw = socket.create_connection((host, port), timeout=10.0)
        try:
            reader = raw.makefile("rb")
            assert type(wire.read_frame(reader)) is wire.Welcome
            raw.sendall(b'{"v":%d,"t":"hello","client":"old"}\n' % version)
            reply = wire.read_frame(reader)
            assert type(reply) is wire.Error
            assert "unsupported wire version" in reply.message
            assert wire.read_frame(reader) is None
        finally:
            raw.close()
        with socket.create_server(("127.0.0.1", 0)) as listener:
            sock = socket.create_connection(listener.getsockname()[:2])
            peer, _addr = listener.accept()
            try:
                peer.sendall(
                    b'{"v":%d,"t":"welcome","server":"old","versions":[%d]}\n'
                    % (version, version)
                )
                with pytest.raises(RemoteError, match="welcome refused"):
                    Client(sock)
            finally:
                sock.close()
                peer.close()

    def test_server_refuses_ids_outside_signed_64_bit(self, endpoint):
        _session, _server, host, port = endpoint
        with Client.connect(host, port) as client:
            with pytest.raises(RemoteError, match="signed 64-bit"):
                client.snapshot(2**63)
            # The refusal cost the connection; a fresh one still works.
        with Client.connect(host, port) as client:
            handle = client.register(KnnSpec(point=(0.5, 0.5), k=2))
            assert len(handle.snapshot()) == 2

    def test_a_tick_ts_outside_signed_64_bit_costs_only_its_sender(
        self, endpoint
    ):
        """The tick ts stamps every delta of its cycle, so a ts no record
        can carry is refused at decode: the sender draws an ``error`` and
        loses its connection, its staged rows are never applied, and a
        subscriber on another connection keeps streaming."""
        session, server, host, port = endpoint
        with Client.connect(host, port) as watcher:
            seen = []
            handle = watcher.register(KnnSpec(point=(0.5, 0.5), k=2))
            handle.subscribe(lambda ts, d: seen.append((ts, d.result[0][1])))
            raw = socket.create_connection((host, port), timeout=10.0)
            try:
                reader = raw.makefile("rb")
                assert type(wire.read_frame(reader)) is wire.Welcome
                # The row would change the watcher's result, so a cycle
                # run with this ts would owe the watcher a delta.
                raw.sendall(
                    wire.frame_bytes(
                        wire.Updates(
                            FlatUpdateBatch.from_updates(
                                (ObjectUpdate(9001, None, (0.5, 0.5)),)
                            )
                        )
                    )
                    + b'{"v":5,"t":"tick","ts":%d}\n' % 2**63
                )
                reply = wire.read_frame(reader)
                assert type(reply) is wire.Error
                assert "signed 64-bit" in reply.message
                assert wire.read_frame(reader) is None
            finally:
                raw.close()
            with server.lock:
                assert 9001 not in dict(session.service.monitor.iter_objects())
            watcher.send_updates([ObjectUpdate(9002, None, (0.5, 0.5))])
            watcher.tick(timestamp=1)
            assert seen == [(1, 9002)]
            assert handle.snapshot() == session.snapshot(handle.qid)

    def test_whitespace_only_lines_are_skipped(self, endpoint):
        """A CRLF keep-alive or a line of spaces between frames is not a
        frame: the server skips it and answers the next one."""
        _session, _server, host, port = endpoint
        with Client.connect(host, port) as client:
            handle = client.register(KnnSpec(point=(0.5, 0.5), k=2))
            raw = socket.create_connection((host, port), timeout=10.0)
            try:
                reader = raw.makefile("rb")
                assert type(wire.read_frame(reader)) is wire.Welcome
                raw.sendall(
                    b"\r\n \n\t\r\n"
                    + wire.frame_bytes(wire.GetSnapshot(qid=handle.qid))[:-1]
                    + b"\r\n"
                )
                reply = wire.read_frame(reader)
                assert reply == wire.Snapshot(
                    qid=handle.qid, result=tuple(handle.snapshot())
                )
            finally:
                raw.close()

    def test_a_non_finite_coordinate_costs_only_its_sender(self, endpoint):
        """A packed ``updates`` frame whose second row carries ``inf``
        bits is refused whole at decode, so the sender draws an
        ``error`` and loses its connection, none of the frame's rows is
        staged for the tick that follows, and another connection keeps
        streaming."""
        session, server, host, port = endpoint
        with Client.connect(host, port) as watcher:
            seen = []
            handle = watcher.register(KnnSpec(point=(0.5, 0.5), k=2))
            handle.subscribe(lambda ts, d: seen.append((ts, d.result[0][1])))
            raw = socket.create_connection((host, port), timeout=10.0)
            try:
                reader = raw.makefile("rb")
                assert type(wire.read_frame(reader)) is wire.Welcome
                poisoned = FlatUpdateBatch(0)
                poisoned.append_appear(9001, 0.5, 0.5)
                poisoned.append_appear(9003, float("inf"), 0.5)
                raw.sendall(
                    wire.frame_bytes(wire.Updates(poisoned))
                    + b'{"v":5,"t":"tick","ts":1}\n'
                )
                reply = wire.read_frame(reader)
                assert type(reply) is wire.Error
                assert "non-finite" in reply.message
                assert wire.read_frame(reader) is None
            finally:
                raw.close()
            with server.lock:
                objects = dict(session.service.monitor.iter_objects())
            assert 9001 not in objects and 9003 not in objects
            watcher.send_updates([ObjectUpdate(9002, None, (0.5, 0.5))])
            watcher.tick(timestamp=2)
            assert seen == [(2, 9002)]
            assert handle.snapshot() == session.snapshot(handle.qid)

    @pytest.mark.parametrize(
        "spec",
        [
            b'{"type":"knn","point":[1e999,0.5],"k":1}',
            b'{"type":"knn","point":[0.5,0.5],"k":2.9}',
            b'{"type":"range","region":[0,0,1e999,1]}',
        ],
        ids=["inf-point", "float-k", "inf-bound"],
    )
    def test_a_bad_register_spec_costs_only_its_sender(self, endpoint, spec):
        """A spec no engine may install (an infinite point or bound, a
        ``k`` that is not a positive integer) is refused at decode: the
        sender draws an ``error`` and loses its connection, nothing is
        installed, and another connection keeps streaming."""
        session, server, host, port = endpoint
        with Client.connect(host, port) as watcher:
            seen = []
            handle = watcher.register(KnnSpec(point=(0.5, 0.5), k=2))
            handle.subscribe(lambda ts, d: seen.append((ts, d.result[0][1])))
            with server.lock:
                installed = set(session.query_ids())
            raw = socket.create_connection((host, port), timeout=10.0)
            try:
                reader = raw.makefile("rb")
                assert type(wire.read_frame(reader)) is wire.Welcome
                raw.sendall(
                    b'{"v":5,"t":"register","spec":%s,"qid":null,"watch":true}\n'
                    % spec
                )
                reply = wire.read_frame(reader)
                assert type(reply) is wire.Error
                assert "bad 'register' frame" in reply.message
                assert wire.read_frame(reader) is None
            finally:
                raw.close()
            with server.lock:
                assert set(session.query_ids()) == installed
            watcher.send_updates([ObjectUpdate(9002, None, (0.5, 0.5))])
            watcher.tick(timestamp=2)
            assert seen == [(2, 9002)]
            assert handle.snapshot() == session.snapshot(handle.qid)

    def test_send_updates_splits_a_batch_over_the_row_limit(
        self, endpoint, monkeypatch
    ):
        """More rows than one ``updates`` frame may carry go as several
        frames, and the tick applies all of them."""
        session, server, host, port = endpoint
        monkeypatch.setattr(wire, "MAX_UPDATE_ROWS", 3)
        sent = []
        with Client.connect(host, port) as client:
            send = client._send
            client._send = lambda frame: (sent.append(frame), send(frame))
            rows = [ObjectUpdate(9100 + i, None, (0.1 * i, 0.5)) for i in range(7)]
            client.send_updates(rows)
            client.tick(timestamp=1)
        assert [len(f.batch) for f in sent if type(f) is wire.Updates] == [3, 3, 1]
        with server.lock:
            objects = dict(session.service.monitor.iter_objects())
        assert all(objects[u.oid] == u.new for u in rows)

    def test_a_delta_id_that_does_not_fit_cuts_after_the_frames_before_it(self):
        """``encode_delta`` refuses a qid or oid outside ``i64`` with a
        ``WireError`` naming it; the writer flushes what preceded the
        delta and cuts the transport (the peer sees EOF, never a
        half-record).  Such a query can only be installed host-side."""
        huge = 2**63
        session = Session(CPMMonitor(cells_per_axis=CELLS))
        session.load_objects([(1, (0.4, 0.5)), (2, (0.9, 0.9))])
        session.register(KnnSpec(point=(0.5, 0.5), k=1), qid=huge)
        with MonitorSocketServer(session) as server:
            raw = socket.create_connection(server.address, timeout=10.0)
            try:
                reader = raw.makefile("rb")
                assert type(wire.read_frame(reader)) is wire.Welcome
                # sync(watch=True) subscribes to every query, this one too.
                raw.sendall(wire.frame_bytes(wire.Sync()))
                assert type(wire.read_frame(reader)) is wire.SyncQuery
                assert type(wire.read_frame(reader)) is wire.SyncDone
                with server.lock:
                    session.handle(huge).move((0.85, 0.85))
                assert wire.read_frame(reader) is None
            finally:
                raw.close()
        with pytest.raises(wire.WireError, match=f"qid {huge}"):
            wire.encode_delta(0, ResultDelta(huge, (), (), False, ()))
        with pytest.raises(wire.WireError, match=f"oid {-huge - 1}"):
            wire.encode_delta(
                0, ResultDelta(1, ((0.0, 3), (0.5, -huge - 1)), (), False, ())
            )
        with pytest.raises(wire.WireError, match=f"ts {huge}"):
            wire.encode_delta(huge, ResultDelta(1, (), (), False, ()))


class TestFilteredAndSync:
    def test_tags_and_filtered_subscription_over_the_wire(self, endpoint):
        session, _server, host, port = endpoint
        with Client.connect(host, port) as client:
            client.send_updates(
                [
                    ObjectUpdate(9001, None, (0.45, 0.5)),
                    ObjectUpdate(9002, None, (0.55, 0.5)),
                    ObjectUpdate(9003, None, (0.5, 0.6)),
                ]
            )
            client.tick(timestamp=0)
            client.set_object_tags({9001: {"taxi"}, 9003: {"bus"}})
            handle = client.register(
                FilteredKnnSpec(point=(0.5, 0.5), k=3, tags=("taxi",))
            )
            assert [oid for _, oid in handle.snapshot()] == [9001]
            assert handle.snapshot() == session.snapshot(handle.qid)

            # The filter tracks remote tag changes: 9002 gains the tag
            # and moves -> it enters the streamed result.
            seen = []
            handle.subscribe(lambda ts, d: seen.append(d.result))
            client.set_object_tags({9002: {"taxi"}})
            client.send_updates([ObjectUpdate(9002, (0.55, 0.5), (0.54, 0.5))])
            client.tick(timestamp=1)
            assert seen
            assert [oid for _, oid in seen[-1]] == [9002, 9001]

    def test_cold_start_sync_adopts_session_state(self, workload, endpoint):
        session, _server, host, port = endpoint
        queries = sorted(workload.initial_queries.items())[:2]
        with Client.connect(host, port) as seeder:
            seeder.set_object_tags({1: {"taxi"}, 2: {"taxi", "xl"}})
            for qid, point in queries:
                seeder.register(KnnSpec(point=point, k=SPEC.k), qid=qid)

            with Client.connect(host, port) as late:
                state = late.sync(objects=True, watch=True)
                assert sorted(h.qid for h in state.handles) == [
                    qid for qid, _ in queries
                ]
                for handle in state.handles:
                    assert state.results[handle.qid] == session.snapshot(
                        handle.qid
                    )
                # Object prologue: full table, tags attached where set.
                assert len(state.objects) == len(workload.initial_objects)
                by_oid = {oid: (pos, tags) for oid, pos, tags in state.objects}
                assert by_oid[1][1] == ("taxi",)
                assert by_oid[2][1] == ("taxi", "xl")
                untagged = [t for _, t in by_oid.values() if t is None]
                assert len(untagged) == len(workload.initial_objects) - 2

                # watch=True upgraded the synced queries to live
                # subscriptions on this connection.
                frames: list[wire.Delta] = []
                late.delta_frame_log = frames
                batch = workload.batches[0]
                seeder.send_updates(batch.object_updates)
                seeder.tick(timestamp=batch.timestamp)
                deadline = time.monotonic() + 5.0
                while not frames and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert frames, "synced client received no deltas"
                assert {f.delta.qid for f in frames} <= {q for q, _ in queries}

    def test_sync_without_objects_skips_prologue(self, endpoint):
        _session, _server, host, port = endpoint
        with Client.connect(host, port) as client:
            client.register(KnnSpec(point=(0.5, 0.5), k=2))
            state = client.sync(objects=False, watch=False)
            assert state.objects == []
            assert len(state.handles) == 1


def _stalled_peer(host, port, qid, point, k, rcvbuf=2048):
    """A raw connection that registers a watched query, then stops
    reading — the slow consumer under test."""
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    sock.connect((host, port))
    reader = sock.makefile("rb")
    welcome = wire.read_frame(reader)
    assert type(welcome) is wire.Welcome
    register = wire.Register(
        spec=KnnSpec(point=point, k=k), qid=qid, watch=True
    )
    sock.sendall(wire.frame_bytes(register))
    reply = wire.read_frame(reader)
    assert type(reply) is wire.Registered
    return sock, reader


def _drive_and_collect(host, port, *, ticks, register_peer_query):
    """Connect a healthy client, register qid 1 (watched) and qid 2
    (per ``register_peer_query``), drive ``ticks`` cycles of a toggling
    object, and return the encoded delta lines qid 1 streamed."""
    lines: list[str] = []
    with Client.connect(host, port) as client:
        client.send_updates(
            [
                ObjectUpdate(1, None, (0.52, 0.5)),
                ObjectUpdate(2, None, (0.9, 0.9)),
            ]
        )
        client.tick(timestamp=0)
        handle = client.register(KnnSpec(point=(0.5, 0.5), k=2), qid=1)
        handle.subscribe(
            lambda ts, d: lines.append(wire.encode_delta(ts, d))
        )
        if register_peer_query:
            client.register(
                KnnSpec(point=(0.45, 0.5), k=2), qid=2, watch=False
            )
        positions = [(0.55, 0.5), (0.6, 0.5)]
        old = (0.52, 0.5)
        start = time.monotonic()
        for i in range(ticks):
            new = positions[i % 2]
            client.send_updates([ObjectUpdate(1, old, new)])
            client.tick(timestamp=i + 1)
            old = new
        elapsed = time.monotonic() - start
        assert not client.lag_events, "healthy client must never lag"
    return lines, elapsed


class TestSlowConsumer:
    """A stalled reader must not stall the monitoring loop or disturb
    other connections' delta streams."""

    TICKS = 200

    def make_server(self, policy):
        session = Session(CPMMonitor(cells_per_axis=CELLS))
        server = MonitorSocketServer(
            session,
            name="stall-server",
            outbound_limit=8,
            slow_consumer=policy,
            sndbuf=4096,
        )
        host, port = server.start()
        return session, server, host, port

    def baseline_stream(self):
        """The healthy delta stream with no stalled peer attached."""
        _session, server, host, port = self.make_server(
            SlowConsumerPolicy.DISCONNECT
        )
        try:
            lines, _ = _drive_and_collect(
                host, port, ticks=self.TICKS, register_peer_query=True
            )
        finally:
            server.stop()
        return lines

    def test_disconnect_policy_isolates_stalled_reader(self):
        baseline = self.baseline_stream()
        _session, server, host, port = self.make_server(
            SlowConsumerPolicy.DISCONNECT
        )
        try:
            # The peer registers its own watched query first; the healthy
            # client then re-registers it as qid 2 is already taken --
            # so it only registers qid 1.
            stalled, reader = _stalled_peer(
                host, port, qid=2, point=(0.45, 0.5), k=2
            )
            lines, elapsed = _drive_and_collect(
                host, port, ticks=self.TICKS, register_peer_query=False
            )
            # The stalled reader never extends the healthy client's
            # cycle: 200 tick round-trips complete promptly.
            assert elapsed < 10.0
            # Healthy stream is byte-identical to a run with no stalled
            # peer attached at all.
            assert lines == baseline
            # The policy disconnected the stalled peer: draining what the
            # kernel buffered ends in EOF, not a live stream.
            stalled.settimeout(5.0)
            try:
                while stalled.recv(65536):
                    pass
                eof = True
            except (ConnectionError, OSError):
                eof = True
            assert eof
        finally:
            server.stop()

    def test_drop_and_snapshot_policy_sends_lagged_frames(self):
        baseline = self.baseline_stream()
        _session, server, host, port = self.make_server(
            SlowConsumerPolicy.DROP_AND_SNAPSHOT
        )
        try:
            stalled, reader = _stalled_peer(
                host, port, qid=2, point=(0.45, 0.5), k=2
            )
            lines, elapsed = _drive_and_collect(
                host, port, ticks=self.TICKS, register_peer_query=False
            )
            assert elapsed < 10.0
            assert lines == baseline
            # The stalled peer stays connected; when it finally reads, the
            # stream carries explicit lag markers for the shed deltas.
            stalled.settimeout(2.0)
            frames = []
            try:
                while (frame := wire.read_frame(reader)) is not None:
                    frames.append(frame)
            except (TimeoutError, socket.timeout, ConnectionError, OSError):
                pass
            lagged = [f for f in frames if type(f) is wire.Lagged]
            assert lagged, "no lagged frame reached the slow consumer"
            assert all(f.dropped >= 1 for f in lagged)
        finally:
            stalled.close()
            server.stop()

    def test_lag_followup_snapshots_converge_a_drained_consumer(self):
        """Every ``lagged`` marker is followed by a fresh ``sync_query``
        snapshot per subscribed query, so replaying the stream — shed
        gaps and all — lands exactly on the authoritative result with no
        re-sync request from the consumer."""
        session, server, host, port = self.make_server(
            SlowConsumerPolicy.DROP_AND_SNAPSHOT
        )
        try:
            stalled, reader = _stalled_peer(
                host, port, qid=2, point=(0.45, 0.5), k=2
            )
            _drive_and_collect(
                host, port, ticks=self.TICKS, register_peer_query=False
            )
            # The run is over; drain the stalled peer's entire backlog.
            stalled.settimeout(2.0)
            frames = []
            try:
                while (frame := wire.read_frame(reader)) is not None:
                    frames.append(frame)
            except (TimeoutError, socket.timeout, ConnectionError, OSError):
                pass
            lagged_at = [
                i for i, f in enumerate(frames) if type(f) is wire.Lagged
            ]
            assert lagged_at, "no lagged frame reached the slow consumer"
            # The follow-up snapshot rides directly behind its marker.
            for index in lagged_at:
                assert index + 1 < len(frames), "lagged marker had no follow-up"
                followup = frames[index + 1]
                assert type(followup) is wire.SyncQuery
                assert followup.qid == 2
            # Replay the stream the consumer saw: deltas apply their full
            # result, a shed gap is bridged by the pushed snapshot.
            mirror = None
            gap_open = False
            for frame in frames:
                kind = type(frame)
                if kind is wire.Lagged:
                    gap_open = True
                elif kind is wire.SyncQuery:
                    mirror = list(frame.result)
                    gap_open = False
                elif kind is wire.Delta and frame.delta.qid == 2:
                    mirror = list(frame.delta.result)
            assert not gap_open
            assert mirror == session.snapshot(2)
        finally:
            stalled.close()
            server.stop()


class TestSocketFeed:
    def test_socket_fed_ingest_matches_direct_replay(self, workload):
        """The ingest driver behind a SocketFeed reproduces a direct
        replay exactly (end state and per-cycle structure)."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def produce():
            conn, _ = listener.accept()
            try:
                push_feed_to_socket(WorkloadFeed(workload), conn, updates_per_frame=7)
            finally:
                conn.close()
                listener.close()

        producer = threading.Thread(target=produce, daemon=True)
        producer.start()
        feed = SocketFeed.connect(
            "127.0.0.1",
            port,
            initial_objects=workload.initial_objects,
            initial_queries=workload.initial_queries,
        )
        monitor = CPMMonitor(cells_per_axis=CELLS)
        driver = IngestDriver(WorkloadFeed(workload), MonitoringService(monitor))
        socket_monitor = CPMMonitor(cells_per_axis=CELLS)
        socket_driver = IngestDriver(feed, MonitoringService(socket_monitor))
        driver.prime(k=SPEC.k)
        socket_driver.prime(k=SPEC.k)
        report = driver.run()
        socket_report = socket_driver.run()
        producer.join(timeout=10)
        feed.close()

        assert socket_report.n_cycles == report.n_cycles
        assert socket_report.total_applied == report.total_applied
        assert socket_monitor.result_table() == monitor.result_table()
        assert socket_monitor.stats.snapshot() == monitor.stats.snapshot()

    def test_socket_feed_rejects_foreign_frames(self):
        a, b = socket.socketpair()
        try:
            a.sendall(wire.frame_bytes(wire.GetSnapshot(qid=1)))
            feed = SocketFeed(b)
            with pytest.raises(ValueError, match="not part of the"):
                next(iter(feed.events()))
        finally:
            a.close()
            b.close()

    def test_socket_feed_refuses_an_over_long_line(self, monkeypatch):
        """A peer that never ends its line costs the feed at most
        ``MAX_LINE_BYTES`` of reading, then a ``WireError``."""
        monkeypatch.setattr(wire, "MAX_LINE_BYTES", 4096)
        a, b = socket.socketpair()
        try:
            a.sendall(wire.frame_bytes(wire.Tick(timestamp=3)) + b"x" * 10_000)
            a.shutdown(socket.SHUT_WR)  # an unbounded read ends, not hangs
            events = SocketFeed(b).events()
            assert next(events).timestamp == 3
            with pytest.raises(wire.WireError, match="exceeds 4096"):
                next(events)
        finally:
            a.close()
            b.close()

    def test_server_refuses_an_over_long_line(self, endpoint, monkeypatch):
        _session, _server, host, port = endpoint
        monkeypatch.setattr(wire, "MAX_LINE_BYTES", 4096)
        raw = socket.create_connection((host, port), timeout=10.0)
        try:
            reader = raw.makefile("rb")
            assert type(wire.read_frame(reader)) is wire.Welcome
            raw.sendall(b"{" * 10_000)
            reply = wire.read_frame(reader)
            assert type(reply) is wire.Error
            assert "exceeds 4096" in reply.message
            assert wire.read_frame(reader) is None
        finally:
            raw.close()
        with Client.connect(host, port) as client:
            handle = client.register(KnnSpec(point=(0.5, 0.5), k=2))
            assert len(handle.snapshot()) == 2

    def test_socket_feed_carries_initial_populations(self):
        feed = SocketFeed(
            None,
            initial_objects={1: (0.1, 0.2)},
            initial_queries={9: (0.5, 0.5)},
            install_ks={9: 4},
        )
        assert feed.initial_objects() == {1: (0.1, 0.2)}
        assert feed.initial_queries() == {9: (0.5, 0.5)}
        assert feed.install_k(9) == 4
        assert feed.install_k(8, default=2) == 2
