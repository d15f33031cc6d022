"""Socket tests for the coalesced delivery path and the poisoned-frame
boundary.

**Byte identity.**  The server writes one *drain* at a time — every
frame queued when the connection's writer woke, joined into a few
``sendall`` calls.  A raw-socket subscriber must still receive exactly
the concatenation of the per-frame encodings of the reference, in
order — ``wire.frame_bytes(f)``: the line plus ``\\n`` for a JSON
frame, the binary record for a delta: through plain cycles, through a
``DROP_AND_SNAPSHOT`` episode, and up to (not including) the frame a
``FaultPlan`` cuts at in the middle of a drain.

The episodes are made deterministic with the server's fault hook, which
runs on the writer thread before every frame: a hook that *blocks* is a
consumer stalled at an exact frame boundary, whatever the kernel's
buffers hold.

**Poisoned frames.**  ``NaN`` / ``Infinity`` are not JSON, nor a
distance a binary delta may carry.  Each endpoint turns a frame
carrying one — or a record whose framing does not add up — into the
loss of that connection, and applies nothing of it.
"""

import io
import socket
import threading

import pytest

from repro.api import wire
from repro.api.client import Client, RemoteError, RemoteSubscription
from repro.api.queries import KnnSpec
from repro.api.server import FLUSH_BYTES, MonitorSocketServer
from repro.api.session import Session
from repro.core.cpm import CPMMonitor
from repro.ingest.feeds import SocketFeed
from repro.service.deltas import ResultDelta
from repro.service.subscriptions import SlowConsumerPolicy
from repro.testing.faults import FaultPlan
from repro.updates import FlatUpdateBatch, ObjectUpdate
from tests.test_service_fanout import wait_for

QID = 7
SPEC = KnnSpec(point=(0.5, 0.5), k=2)
#: the mover's two places; each flip re-keys the query's second neighbor,
#: so every cycle yields exactly one changed delta for ``QID``.
PLACES = [(0.55, 0.5), (0.6, 0.5)]


class Recorder(io.RawIOBase):
    """The subscriber's socket as a raw stream that keeps every byte it
    hands on: ``wire.read_frame`` parses the frames, and the bytes are
    still there to compare whole."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.received = bytearray()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        try:
            n = self.sock.recv_into(buffer)
        except ConnectionError:
            return 0
        self.received += memoryview(buffer)[:n]
        return n


class StallHook:
    """Fault hook that parks the writer thread at frame ``stall_at``
    until released, then defers to ``inner`` (a ``FaultPlan`` hook)."""

    def __init__(self, inner=None):
        self.inner = inner
        self.stall_at = None
        self.parked = threading.Event()
        self.release = threading.Event()

    def __call__(self, conn: int, seq: int) -> bool:
        if seq == self.stall_at:
            self.parked.set()
            assert self.release.wait(timeout=10.0)
        return self.inner is not None and self.inner(conn, seq)


class Script:
    """One served session, one raw-socket subscriber, and the reference
    frame list the subscriber's byte stream is held to."""

    def __init__(self, hook, **server_kwargs):
        self.session = Session(CPMMonitor(cells_per_axis=16))
        self.session.load_objects([(1, (0.45, 0.5)), (2, PLACES[1])])
        self.flips = 0
        self.server = MonitorSocketServer(
            self.session, name="drain", fault_hook=hook, **server_kwargs
        )
        host, port = self.server.start()
        self.sock = socket.create_connection((host, port), timeout=5.0)
        self.recorder = Recorder(self.sock)
        self.reader = io.BufferedReader(self.recorder)
        #: every frame read so far, decoded.
        self.frames: list = []
        #: every frame the server is expected to have written, in order.
        self.reference: list = [
            wire.Welcome(server="drain", versions=wire.SUPPORTED_VERSIONS)
        ]
        #: the reference deltas: what the hub published, in order.
        self.published: list[wire.Delta] = []
        self.session.hub.subscribe_query(
            QID, lambda ts, d: self.published.append(wire.Delta(ts, d))
        )

    def close(self):
        self.sock.close()
        self.server.stop()

    # -- the subscriber ------------------------------------------------

    @property
    def received(self) -> bytes:
        return bytes(self.recorder.received)

    def send(self, frame):
        self.sock.sendall(wire.frame_bytes(frame))

    def read_until_frames(self, n: int) -> None:
        while len(self.frames) < n:
            frame = wire.read_frame(self.reader)
            assert frame is not None, "server closed early"
            self.frames.append(frame)

    def read_to_eof(self) -> None:
        self.reader.read()

    def expected_bytes(self) -> bytes:
        return b"".join(map(wire.frame_bytes, self.reference))

    # -- the script's moves --------------------------------------------

    def conn_stats(self):
        return self.server.stats().connections[0]

    def quiesce(self) -> int:
        """Read everything the reference expects; returns the ordinal
        the connection's next outbound frame will carry."""
        self.read_until_frames(len(self.reference))
        assert wait_for(lambda: self.conn_stats().depth == 0)
        assert self.conn_stats().frames_sent == len(self.reference)
        return len(self.reference)

    def register(self):
        self.send(wire.Register(spec=SPEC, qid=QID, watch=True))
        self.read_until_frames(len(self.reference) + 1)
        with self.server.lock:
            result = tuple(self.session.snapshot(QID))
        self.reference.append(wire.Registered(qid=QID, result=result))

    def flip(self) -> ObjectUpdate:
        old = PLACES[(self.flips + 1) % 2]
        new = PLACES[self.flips % 2]
        self.flips += 1
        return ObjectUpdate(2, old, new)

    def wire_cycle(self, timestamp: int):
        """A cycle driven over the socket: its delta, then ``ticked``."""
        self.sock.sendall(
            wire.frame_bytes(wire.Updates(FlatUpdateBatch.from_updates((self.flip(),))))
            + wire.frame_bytes(wire.Tick(timestamp=timestamp))
        )
        self.read_until_frames(len(self.reference) + 2)
        self.reference.append(self.published[-1])
        self.reference.append(wire.Ticked(timestamp=timestamp, changed=(QID,)))

    def host_cycle(self, timestamp: int) -> wire.Delta:
        """A cycle driven server-side: one delta enters the outbox."""
        self.server.tick([self.flip()], timestamp=timestamp)
        return self.published[-1]

    def snapshot_request(self, depth_after: int) -> wire.Snapshot:
        """A control frame queued behind whatever the outbox holds."""
        self.send(wire.GetSnapshot(qid=QID))
        assert wait_for(lambda: self.conn_stats().depth == depth_after)
        with self.server.lock:
            return wire.Snapshot(
                qid=QID, result=tuple(self.session.snapshot(QID))
            )


class TestByteIdentity:
    def test_plain_cycles(self):
        script = Script(hook=None)
        try:
            script.register()
            for t in range(6):
                script.wire_cycle(t)
            script.quiesce()
            assert script.received == script.expected_bytes()
            assert script.conn_stats().delivered == len(script.reference)
        finally:
            script.close()

    def test_drop_and_snapshot_episode(self):
        """A stall at an exact frame: the outbox (limit 6, the frame in
        flight included) overflows once, sheds its five droppable
        deltas around a control frame, and on release the consumer reads
        control frame, one coalesced ``lagged``, the pushed
        ``sync_query``, then the traffic queued after the overflow."""
        hook = StallHook()
        script = Script(
            hook,
            outbound_limit=6,
            slow_consumer=SlowConsumerPolicy.DROP_AND_SNAPSHOT,
        )
        try:
            script.register()
            script.wire_cycle(0)
            hook.stall_at = script.quiesce()

            def counters():
                stats = script.conn_stats()
                return stats.overflows, stats.dropped, stats.depth

            in_flight = script.host_cycle(10)      # parks the writer
            assert hook.parked.wait(timeout=5.0)
            assert counters() == (0, 0, 1)
            script.host_cycle(11)                  # queued, will be shed
            assert counters() == (0, 0, 2)
            kept = script.snapshot_request(depth_after=3)
            for t in (12, 13, 14):
                script.host_cycle(t)               # queued, will be shed
            assert counters() == (0, 0, 6)
            script.host_cycle(15)                  # overflow: sheds itself too
            assert counters() == (1, 5, 3)
            after = script.host_cycle(16)
            assert counters() == (1, 5, 4)
            late = script.snapshot_request(depth_after=5)
            assert counters() == (1, 5, 5)
            hook.release.set()

            script.reference += [
                in_flight,
                kept,
                wire.Lagged(dropped=5),
                wire.SyncQuery(qid=QID, spec=SPEC, result=late.result),
                after,
                late,
            ]
            script.quiesce()
            assert script.frames == script.reference
            assert script.received == script.expected_bytes()
            stats = script.conn_stats()
            assert not stats.broken
            assert (stats.overflows, stats.dropped, stats.depth) == (1, 5, 0)
        finally:
            hook.release.set()
            script.close()

    def test_a_drain_larger_than_the_flush_bound_arrives_whole(self):
        """More joined bytes than one ``sendall`` may carry: the drain
        goes out in several writes, nothing lost or reordered."""
        hook = StallHook()
        script = Script(hook, outbound_limit=4096)
        try:
            script.register()
            hook.stall_at = script.quiesce()
            backlog = [script.host_cycle(100)]
            assert hook.parked.wait(timeout=5.0)
            queued_bytes = 0
            while queued_bytes < 3 * FLUSH_BYTES:
                backlog.append(script.host_cycle(100 + len(backlog)))
                queued_bytes += len(wire.frame_bytes(backlog[-1]))
            hook.release.set()
            script.reference += backlog
            script.quiesce()
            assert script.received == script.expected_bytes()
        finally:
            hook.release.set()
            script.close()

    @pytest.mark.chaos
    def test_fault_cut_mid_drain_delivers_exactly_the_frames_before_it(self):
        """``FaultPlan`` cuts at frame N in the middle of a multi-frame
        drain: frames < N of that drain were flushed first, no byte of a
        frame >= N follows."""
        backlog_size, cut_offset = 9, 4
        plan = FaultPlan()
        hook = StallHook(inner=plan.connection_hook())
        script = Script(hook)
        try:
            script.register()
            script.wire_cycle(0)
            stall_at = script.quiesce()
            # Frame stall_at is a drain of its own (it parks the writer);
            # the next drain holds the rest of the backlog, and the cut
            # lands cut_offset frames into it.
            cut_at = stall_at + 1 + cut_offset
            plan.drop_connection(after_frames=cut_at, conn=0)
            hook.stall_at = stall_at
            backlog = [script.host_cycle(20)]
            assert hook.parked.wait(timeout=5.0)
            backlog += [script.host_cycle(21 + i) for i in range(backlog_size)]
            assert script.conn_stats().depth == 1 + backlog_size
            hook.release.set()

            script.read_to_eof()
            script.reference += backlog[: 1 + cut_offset]
            assert len(script.reference) == cut_at
            assert script.received == script.expected_bytes()
            assert [f.kind for f in plan.fired] == ["drop_connection"]
            assert wait_for(lambda: script.server.stats().connections == ())
        finally:
            hook.release.set()
            script.close()


# ----------------------------------------------------------------------
# Poisoned frames: one connection lost, nothing applied
# ----------------------------------------------------------------------

def poisoned_delta_record() -> bytes:
    """A well-framed delta record whose one distance is ``NaN`` (the
    encoder packs whatever float it is handed; decoders refuse it)."""
    nan = float("nan")
    return wire.encode_delta(
        1, ResultDelta(QID, ((nan, 4),), (), False, ((nan, 4),))
    )


def misframed_delta_record() -> bytes:
    """A delta record whose length field claims one entry more than the
    counts it carries."""
    record = bytearray(
        wire.encode_delta(1, ResultDelta(QID, ((0.5, 4),), (), False, ((0.5, 4),)))
    )
    record[1:5] = (int.from_bytes(record[1:5], "little") + 16).to_bytes(4, "little")
    return bytes(record) + bytes(16)


class TestPoisonedFrames:
    def test_server_replies_error_closes_and_applies_no_row(self):
        session = Session(CPMMonitor(cells_per_axis=16))
        session.load_objects([(1, (0.45, 0.5)), (2, (0.6, 0.5))])
        session.register(SPEC, qid=QID)
        before = list(session.snapshot(QID))
        with MonitorSocketServer(session) as server:
            sock = socket.create_connection(server.address, timeout=5.0)
            reader = sock.makefile("rb")
            assert type(wire.read_frame(reader)) is wire.Welcome
            # Two good rows around a poisoned one, then the tick that
            # would apply them.
            poisoned = FlatUpdateBatch(0)
            poisoned.append_move(1, 0.45, 0.5, 0.5, 0.5)
            poisoned.append_move(2, 0.6, 0.5, float("inf"), 0.5)
            poisoned.append_appear(3, 0.5, 0.51)
            sock.sendall(
                wire.frame_bytes(wire.Updates(poisoned))
                + wire.frame_bytes(wire.Tick(timestamp=1))
            )
            reply = wire.read_frame(reader)
            assert type(reply) is wire.Error
            assert "non-finite" in reply.message
            assert wire.read_frame(reader) is None  # closed: no tick read
            sock.close()
            assert wait_for(lambda: server.stats().connections == ())
            with server.lock:
                assert list(session.snapshot(QID)) == before
                objects = dict(session.service.monitor.iter_objects())
            assert objects == {1: (0.45, 0.5), 2: (0.6, 0.5)}

    @pytest.mark.parametrize(
        "poison, reason",
        [
            (poisoned_delta_record(), "non-finite distance"),
            (misframed_delta_record(), "does not hold its"),
            (
                b'{"v":5,"t":"delta","ts":1,"qid":7,"in":[],"out":[],'
                b'"reordered":false,"result":[],"terminated":false}\n',
                "unknown frame type 'delta'",
            ),
        ],
        ids=["binary-nan", "binary-length", "json-delta"],
    )
    def test_client_pump_ends_the_connection(self, poison, reason):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            seen = []
            client_sock = socket.create_connection(listener.getsockname()[:2])
            peer, _addr = listener.accept()
            peer.sendall(
                wire.frame_bytes(
                    wire.Welcome(server="evil", versions=wire.SUPPORTED_VERSIONS)
                )
            )
            client = Client(client_sock)
            try:
                dispatched = []
                client._subscriptions[QID] = [
                    RemoteSubscription(
                        client, QID, lambda ts, d: dispatched.append(d)
                    )
                ]
                client.delta_frame_log = seen
                peer.sendall(poison)
                assert client._closed.wait(timeout=5.0)
                assert seen == [] and dispatched == []
                with pytest.raises(RemoteError, match=reason):
                    client.snapshot(QID)
            finally:
                client.close()
                peer.close()

    def test_socket_feed_events_raises_after_the_good_prefix(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            producer = socket.create_connection(listener.getsockname()[:2])
            feed_sock, _addr = listener.accept()
        feed = SocketFeed(feed_sock)
        good = ObjectUpdate(1, None, (0.5, 0.5))
        poisoned = FlatUpdateBatch(0)
        poisoned.append_appear(2, 0.1, 0.2)
        poisoned.append_appear(3, float("-inf"), 0.2)
        producer.sendall(
            wire.frame_bytes(wire.Updates(FlatUpdateBatch.from_updates((good,))))
            + wire.frame_bytes(wire.Updates(poisoned))
            + wire.frame_bytes(wire.Tick(timestamp=0))
        )
        events = feed.events()
        try:
            assert next(events) == good
            with pytest.raises(wire.WireError, match="non-finite"):
                next(events)
        finally:
            events.close()
            feed.close()
            producer.close()
