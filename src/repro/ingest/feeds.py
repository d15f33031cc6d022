"""Update feed sources: where the ingestion tier's events come from.

The paper models the input as a continuous stream of ``<p.id, x_old,
y_old, x_new, y_new>`` location updates (Section 3).  A feed is the
library's abstraction of that stream: an iterator of
:class:`repro.updates.ObjectUpdate` / :class:`repro.updates.QueryUpdate`
events, optionally punctuated by :class:`CycleMark` sentinels that flag
the source's own cycle boundaries (a materialized workload knows its
timestamps; a live generator emits one mark per simulation step).  The
driver (:mod:`repro.ingest.driver`) may honor the marks — deterministic
replay — or re-cut cycles by batch size and deadline, which is what a
real-time deployment does.

A feed has two views of one stream.  :meth:`UpdateFeed.events` yields
one event per row.  :meth:`UpdateFeed.chunks`, which the driver reads,
may instead deliver a run of object rows as one columnar
:class:`repro.updates.FlatUpdateBatch`: :class:`SocketFeed` yields each
``updates`` frame that way, so no per-row object exists between the
frame's bytes and the cycle's batch.  Every other feed inherits the
base ``chunks``, which is ``events`` itself.

Four adapters cover the sources the repo has:

* :class:`WorkloadFeed` — a materialized
  :class:`repro.mobility.workload.Workload`, replayed event by event;
* :class:`GeneratorFeed` — a *live* Brinkhoff-style source stepping
  :class:`repro.mobility.brinkhoff.BrinkhoffStream` agents on demand,
  unbounded unless capped;
* :class:`JsonlTraceFeed` — a replayable JSONL trace on disk (one event
  per line); :func:`write_jsonl_trace` records one;
* :class:`SocketFeed` — a live network source speaking the versioned
  ndjson wire protocol of :mod:`repro.api.wire` (``updates`` / ``query``
  / ``tick`` frames), so the ingest driver can sit behind the same
  protocol the delta publisher serves.
"""

from __future__ import annotations

import json
import socket as _socket
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from repro.api.retry import ReconnectPolicy
from repro.geometry.points import Point
from repro.mobility.brinkhoff import BrinkhoffStream
from repro.mobility.network import RoadNetwork
from repro.mobility.workload import Workload, WorkloadSpec
from repro.updates import FlatUpdateBatch, ObjectUpdate, QueryUpdate, QueryUpdateKind


@dataclass(frozen=True, slots=True)
class CycleMark:
    """End-of-cycle sentinel carrying the source's timestamp label."""

    timestamp: int


FeedEvent = Union[ObjectUpdate, QueryUpdate, CycleMark]

#: what :meth:`UpdateFeed.chunks` yields: a feed event, or a run of
#: object rows as one columnar chunk.
FeedItem = Union[FeedEvent, FlatUpdateBatch]


class UpdateFeed:
    """Source protocol of the ingestion tier.

    Subclasses yield :data:`FeedEvent` items from :meth:`events`; the
    initial populations (loaded/installed before the stream starts) are
    exposed separately because monitors bulk-load them outside the update
    path (``load_objects`` rejects late bulk loads).
    """

    def initial_objects(self) -> dict[int, Point]:
        """Object id -> position at stream start (may be empty)."""
        return {}

    def initial_queries(self) -> dict[int, Point]:
        """Query id -> position at stream start (may be empty)."""
        return {}

    def install_k(self, qid: int, default: int = 1) -> int:
        """Neighbor count to install an initial query with.

        Feeds that carry per-query ``k`` (recorded traces) override this;
        the base returns the caller's ``default`` unchanged.
        """
        return default

    def events(self) -> Iterator[FeedEvent]:
        """The update stream itself, one event per row."""
        raise NotImplementedError

    def chunks(self) -> Iterator[FeedItem]:
        """The same stream as :meth:`events`, except that a run of
        object rows may arrive as one :class:`FlatUpdateBatch` chunk
        (rows in order; its ``timestamp`` and ``query_updates`` carry
        nothing).  This is what the ingest driver and
        :class:`repro.ingest.driver.ThreadedFeedPump` read; a feed whose
        source already holds rows as columns overrides it, any other
        feed inherits this one, which is :meth:`events` itself."""
        return self.events()

    def __iter__(self) -> Iterator[FeedEvent]:
        return self.events()


class WorkloadFeed(UpdateFeed):
    """A materialized workload replayed as a feed.

    Every batch's object updates stream first, then its query updates,
    then one :class:`CycleMark` with the batch's timestamp — so a driver
    honoring marks reproduces the workload's exact cycle structure (and
    therefore the exact deterministic counters of a plain replay).
    """

    def __init__(self, workload: Workload) -> None:
        self.workload = workload

    def initial_objects(self) -> dict[int, Point]:
        return dict(self.workload.initial_objects)

    def initial_queries(self) -> dict[int, Point]:
        return dict(self.workload.initial_queries)

    def events(self) -> Iterator[FeedEvent]:
        for batch in self.workload.batches:
            yield from batch.object_updates
            yield from batch.query_updates
            yield CycleMark(batch.timestamp)


class GeneratorFeed(UpdateFeed):
    """A live Brinkhoff-style feed stepping moving agents on demand.

    Wraps :class:`repro.mobility.brinkhoff.BrinkhoffStream`: each
    simulation step yields that cycle's object updates, query moves and a
    :class:`CycleMark`.  With ``timestamps=None`` the feed never ends —
    the shape of real traffic; cap it for bounded runs.  The first
    ``spec.timestamps`` steps are byte-identical to
    ``BrinkhoffGenerator(spec).generate()``'s batches (the materialized
    generator consumes the same stream class), which is what makes
    live-vs-materialized equivalence testable.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        *,
        network: RoadNetwork | None = None,
        timestamps: int | None = None,
    ) -> None:
        self.stream = BrinkhoffStream(spec, network)
        self.timestamps = timestamps

    def initial_objects(self) -> dict[int, Point]:
        return dict(self.stream.initial_objects)

    def initial_queries(self) -> dict[int, Point]:
        return dict(self.stream.initial_queries)

    def events(self) -> Iterator[FeedEvent]:
        # Mark timestamps come from the stream's own step counter, so a
        # second events() iterator continues the labels where the first
        # stopped instead of restarting at 0 over advanced agent state
        # (``timestamps`` caps the stream's total steps, not each
        # iterator's).
        while self.timestamps is None or self.stream.steps < self.timestamps:
            t = self.stream.steps
            object_updates, query_updates = self.stream.step()
            yield from object_updates
            yield from query_updates
            yield CycleMark(t)


# ----------------------------------------------------------------------
# JSONL traces
# ----------------------------------------------------------------------
#
# One JSON object per line.  ``kind`` selects the record type:
#
#   {"kind": "load",    "oid": 3, "pos": [x, y]}          initial object
#   {"kind": "install", "qid": 9, "point": [x, y], "k": 4} initial query
#   {"kind": "obj",     "oid": 3, "old": [x, y] | null, "new": [x, y] | null}
#   {"kind": "qry",     "qid": 9, "op": "move", "point": [x, y], "k": 4}
#   {"kind": "cycle",   "t": 17}                           cycle mark
#
# ``load``/``install`` records must precede every stream record.


class JsonlTraceFeed(UpdateFeed):
    """A replayable update trace stored as JSONL on disk."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._initial_objects: dict[int, Point] = {}
        self._initial_queries: dict[int, Point] = {}
        self._install_ks: dict[int, int] = {}
        # The prologue (load/install records) is parsed eagerly so the
        # initial populations are available before iteration; the stream
        # body stays lazy.
        self._body_offset = 0
        with self.path.open("r", encoding="utf-8") as fh:
            while True:
                line = fh.readline()
                if not line:
                    break
                record = json.loads(line)
                kind = record["kind"]
                if kind == "load":
                    self._initial_objects[int(record["oid"])] = (
                        float(record["pos"][0]),
                        float(record["pos"][1]),
                    )
                elif kind == "install":
                    qid = int(record["qid"])
                    self._initial_queries[qid] = (
                        float(record["point"][0]),
                        float(record["point"][1]),
                    )
                    self._install_ks[qid] = int(record.get("k", 1))
                else:
                    break
                self._body_offset = fh.tell()

    def initial_objects(self) -> dict[int, Point]:
        return dict(self._initial_objects)

    def initial_queries(self) -> dict[int, Point]:
        return dict(self._initial_queries)

    def install_k(self, qid: int, default: int = 1) -> int:
        """``k`` recorded with an initial query installation."""
        return self._install_ks.get(qid, default)

    @staticmethod
    def _point(raw) -> Point | None:
        return None if raw is None else (float(raw[0]), float(raw[1]))

    def events(self) -> Iterator[FeedEvent]:
        with self.path.open("r", encoding="utf-8") as fh:
            fh.seek(self._body_offset)
            for line in fh:
                record = json.loads(line)
                kind = record["kind"]
                if kind == "obj":
                    yield ObjectUpdate(
                        int(record["oid"]),
                        self._point(record["old"]),
                        self._point(record["new"]),
                    )
                elif kind == "qry":
                    k_raw = record.get("k")
                    yield QueryUpdate(
                        int(record["qid"]),
                        QueryUpdateKind(record["op"]),
                        self._point(record.get("point")),
                        None if k_raw is None else int(k_raw),
                    )
                elif kind == "cycle":
                    yield CycleMark(int(record["t"]))
                elif kind in ("load", "install"):
                    raise ValueError(
                        f"{self.path}: {kind!r} record after the stream started"
                    )
                else:
                    raise ValueError(f"{self.path}: unknown record kind {kind!r}")


def write_jsonl_trace(
    path: str | Path, workload: Workload, *, default_k: int | None = None
) -> Path:
    """Record a materialized workload as a replayable JSONL trace.

    ``JsonlTraceFeed(path)`` then yields the byte-identical event stream
    of ``WorkloadFeed(workload)``.  ``default_k`` (defaulting to the
    workload spec's ``k``) is stamped onto the install records.
    """
    path = Path(path)
    k = workload.spec.k if default_k is None else default_k
    with path.open("w", encoding="utf-8") as fh:
        for oid, pos in workload.initial_objects.items():
            fh.write(
                json.dumps({"kind": "load", "oid": oid, "pos": list(pos)}) + "\n"
            )
        for qid, point in workload.initial_queries.items():
            fh.write(
                json.dumps(
                    {"kind": "install", "qid": qid, "point": list(point), "k": k}
                )
                + "\n"
            )
        for batch in workload.batches:
            for upd in batch.object_updates:
                fh.write(
                    json.dumps(
                        {
                            "kind": "obj",
                            "oid": upd.oid,
                            "old": None if upd.old is None else list(upd.old),
                            "new": None if upd.new is None else list(upd.new),
                        }
                    )
                    + "\n"
                )
            for qu in batch.query_updates:
                record = {"kind": "qry", "qid": qu.qid, "op": qu.kind.value}
                if qu.point is not None:
                    record["point"] = list(qu.point)
                if qu.k is not None:
                    record["k"] = qu.k
                fh.write(json.dumps(record) + "\n")
            fh.write(json.dumps({"kind": "cycle", "t": batch.timestamp}) + "\n")
    return path


# ----------------------------------------------------------------------
# Socket sources (the wire-format ingestion path)
# ----------------------------------------------------------------------


class SocketFeed(UpdateFeed):
    """A live update source speaking the ndjson wire protocol.

    Reads frames (:mod:`repro.api.wire`) off a connected socket, one
    line of at most :data:`repro.api.wire.MAX_LINE_BYTES` at a time, and
    yields the feed vocabulary: :meth:`chunks` yields each ``updates``
    frame as the one :class:`repro.updates.FlatUpdateBatch` it decodes
    to (:meth:`events`, the per-row view, streams its rows as
    :class:`repro.updates.ObjectUpdate`), ``query`` frames as
    :class:`repro.updates.QueryUpdate`, ``tick`` frames as
    :class:`CycleMark` (an unlabelled tick gets the running frame
    ordinal).  ``bye`` ends the feed.  ``hello``/``welcome`` frames are
    tolerated anywhere (so the feed can sit directly behind a
    :class:`repro.api.client.Client`-style producer); any other frame
    type raises.

    **Transport loss.**  Without a ``reconnect`` policy the old contract
    holds: the peer closing the connection ends the feed, a socket error
    propagates.  With a :class:`repro.api.retry.ReconnectPolicy` (and a
    dialable address — :meth:`connect` records one), EOF-without-``bye``
    and socket errors instead trigger a backoff redial: the iterator
    pauses, reconnects and resumes yielding off the fresh transport
    (``reconnects`` counts recoveries).  A ``bye`` stays final either
    way.  The producer owns resume semantics — frames in flight at the
    moment of loss are gone; a producer that must not lose events
    re-sends from its last cycle boundary.

    ``fault_hook(frame_seq) -> bool`` is the chaos-test seam: called
    after each decoded frame with its running ordinal (monotonic across
    reconnects); returning ``True`` cuts the feed's transport abruptly,
    simulating a network drop at that exact frame boundary (see
    :meth:`repro.testing.faults.FaultPlan.feed_hook`).

    Initial populations do not travel over the stream (monitors
    bulk-load them before updates start): pass them to the constructor
    when the driver should prime from this feed.
    """

    def __init__(
        self,
        sock,
        *,
        initial_objects: dict[int, Point] | None = None,
        initial_queries: dict[int, Point] | None = None,
        install_ks: dict[int, int] | None = None,
        reconnect: ReconnectPolicy | None = None,
        fault_hook: Callable[[int], bool] | None = None,
    ) -> None:
        self.sock = sock
        self._initial_objects = dict(initial_objects or {})
        self._initial_queries = dict(initial_queries or {})
        self._install_ks = dict(install_ks or {})
        self.reconnect = reconnect
        self.fault_hook = fault_hook
        #: successful transparent reconnects so far.
        self.reconnects = 0
        try:
            peer = sock.getpeername()
        except (OSError, AttributeError):
            # AttributeError: metadata-only feeds built without a socket.
            peer = None
        self._address = peer if peer else None

    @classmethod
    def connect(cls, host: str, port: int, *, timeout: float = 10.0, **kwargs):
        """Connect to a producer and wrap the socket."""
        sock = _socket.create_connection((host, port), timeout=timeout)
        sock.settimeout(None)
        feed = cls(sock, **kwargs)
        feed._address = (host, port)
        return feed

    def initial_objects(self) -> dict[int, Point]:
        return dict(self._initial_objects)

    def initial_queries(self) -> dict[int, Point]:
        return dict(self._initial_queries)

    def install_k(self, qid: int, default: int = 1) -> int:
        return self._install_ks.get(qid, default)

    def close(self) -> None:
        # shutdown first: close() alone only drops a reference while an
        # events() reader holds the fd open via makefile — shutdown makes
        # the blocked read return EOF immediately.
        try:
            self.sock.shutdown(_socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass

    def _redial(self) -> bool:
        """Backoff redial of the recorded address; True on success."""
        import time

        for delay in self.reconnect.delays():
            time.sleep(delay)
            try:
                sock = _socket.create_connection(
                    self._address, timeout=self.reconnect.connect_timeout
                )
            except OSError:
                continue
            sock.settimeout(None)
            old = self.sock
            self.sock = sock
            try:
                old.close()
            except OSError:
                pass
            self.reconnects += 1
            return True
        return False

    def events(self) -> Iterator[FeedEvent]:
        for item in self.chunks():
            if type(item) is FlatUpdateBatch:
                yield from item.to_object_updates()
            else:
                yield item

    def chunks(self) -> Iterator[FeedItem]:
        # Local import: the api package depends on repro.updates, not on
        # the ingest tier, so this direction stays cycle-free; importing
        # lazily keeps plain workload feeds free of the wire module.
        from repro.api import wire

        marks = 0
        frame_seq = 0
        while True:
            reader = self.sock.makefile("rb")
            failure: BaseException | None = None
            try:
                while True:
                    try:
                        line = wire.read_line(reader)
                    except wire.WireError:
                        raise  # an over-long line is bad data, not loss
                    except (OSError, ValueError) as exc:
                        # ValueError: reading a file object whose socket
                        # an injected fault closed under it.
                        failure = exc
                        break
                    if not line:
                        break  # EOF without bye
                    line = line.strip()
                    if not line:
                        continue
                    frame = wire.decode_frame(line)
                    kind = type(frame)
                    if kind is wire.Updates:
                        yield frame.batch
                    elif kind is wire.QueryOp:
                        yield frame.update
                    elif kind is wire.Tick:
                        t = (
                            frame.timestamp
                            if frame.timestamp is not None
                            else marks
                        )
                        marks += 1
                        yield CycleMark(t)
                    elif kind is wire.Bye:
                        return
                    elif kind in (wire.Hello, wire.Welcome):
                        pass
                    else:
                        raise ValueError(
                            f"frame type {kind.__name__!r} is not part of "
                            "the ingestion stream vocabulary"
                        )
                    if self.fault_hook is not None and self.fault_hook(
                        frame_seq
                    ):
                        # Injected transport loss at this frame boundary.
                        self.close()
                    frame_seq += 1
            finally:
                try:
                    reader.close()
                except (OSError, ValueError):
                    pass
            # The connection was lost (EOF without bye, or a socket
            # error): redial when a policy allows it.
            if self.reconnect is None or self._address is None:
                if failure is not None:
                    raise failure
                return  # silent peer close ends an un-policied feed
            if not self._redial():
                raise ConnectionError(
                    "feed transport lost and reconnect attempts exhausted"
                ) from failure


def push_feed_to_socket(feed: UpdateFeed, sock, *, updates_per_frame: int = 256) -> None:
    """Stream a feed's events to a socket as wire frames (the producer
    half of :class:`SocketFeed`; used by tests and demos).

    Object updates are packed ``updates_per_frame`` (at most
    :data:`repro.api.wire.MAX_UPDATE_ROWS`) to an ``updates`` frame
    (flushed at every cycle boundary), query updates and cycle marks are
    sent as they come, and the stream ends with ``bye``.

    Pending updates accumulate in the buffer-backed columns of a
    :class:`repro.updates.FlatUpdateBatch` and each frame is encoded
    straight from those columns (``wire.encode_updates_flat``).
    """
    from repro.api import wire

    updates_per_frame = min(updates_per_frame, wire.MAX_UPDATE_ROWS)
    pending = FlatUpdateBatch(timestamp=0)

    def send_line(line: str) -> None:
        sock.sendall((line + "\n").encode("utf-8"))

    def send(frame) -> None:
        send_line(wire.encode_frame(frame))

    def flush() -> None:
        nonlocal pending
        if len(pending):
            send_line(wire.encode_updates_flat(pending))
            pending = FlatUpdateBatch(timestamp=0)

    for event in feed.events():
        if type(event) is CycleMark:
            flush()
            send(wire.Tick(timestamp=event.timestamp))
        elif type(event) is QueryUpdate:
            flush()
            send(wire.QueryOp(update=event))
        else:
            old = event.old
            new = event.new
            if old is None:
                pending.append_appear(event.oid, new[0], new[1])
            elif new is None:
                pending.append_disappear(event.oid, old[0], old[1])
            else:
                pending.append_move(event.oid, old[0], old[1], new[0], new[1])
            if len(pending) >= updates_per_frame:
                flush()
    flush()
    send(wire.Bye())
