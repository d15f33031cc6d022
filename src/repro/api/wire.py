"""The versioned ndjson wire protocol: updates in, deltas out.

One frame = one JSON object = one ``\\n``-terminated line.  Every frame
carries the protocol version under ``"v"`` and its type under ``"t"``;
decoding rejects unknown versions and unknown types up front, so a
future version can change any frame shape without silently corrupting
older peers (the versioning policy is documented in the README's
client-API section).

**v2** added the pub/sub vocabulary — attribute tags, filtered
subscriptions, the cold-start sync handshake and the slow-consumer lag
marker — and **v3** adds the telemetry vocabulary — the
``watch_metrics`` request plus server-pushed ``metrics`` snapshots and
``alert`` events.  Both bumps are additive (new frame types only, no
reshapes), so v1 and v2 lines still decode
(:data:`SUPPORTED_VERSIONS`); everything this module *encodes* is
stamped v3, which a strict older peer rejects loudly at the first
frame.

The frame vocabulary mirrors the in-process client surface
(:mod:`repro.api.session`) plus the ingestion vocabulary
(:mod:`repro.updates`):

====================  =========  ==========================================
frame                 direction  meaning
====================  =========  ==========================================
:class:`Hello`        c -> s     optional client introduction
:class:`Welcome`      s -> c     greeting; lists the server's versions
:class:`Updates`      c -> s     stage object location updates
:class:`QueryOp`      c -> s     stage a raw query update (insert/move/term)
:class:`Tick`         c -> s     close the staged cycle (timestamp label)
:class:`Ticked`       s -> c     cycle outcome: changed query ids
:class:`Register`     c -> s     install a typed query spec
:class:`Registered`   s -> c     its qid + initial result snapshot
:class:`Move`         c -> s     re-anchor a registered query
:class:`Terminate`    c -> s     terminate a registered query
:class:`GetSnapshot`  c -> s     request a query's current result
:class:`Snapshot`     s -> c     the ordered result table of one query
:class:`Subscribe`    c -> s     route this query's deltas to me
:class:`Unsubscribe`  c -> s     stop routing them
:class:`Delta`        s -> c     one per-query result delta
:class:`Tags`         c -> s     merge object attribute tags (v2)
:class:`Sync`         c -> s     cold-start: stream current state (v2)
:class:`SyncObjects`  s -> c     one chunk of the object table (v2)
:class:`SyncQuery`    s -> c     one registered query + its result (v2)
:class:`SyncDone`     s -> c     cold-start stream complete (v2)
:class:`Lagged`       s -> c     deltas dropped by slow-consumer policy (v2)
:class:`WatchMetrics` c -> s     push telemetry snapshots to me (v3)
:class:`Metrics`      s -> c     one flat registry snapshot (v3)
:class:`Alert`        s -> c     one health alert event (v3)
:class:`Ok`           s -> c     generic acknowledgement (op echoed)
:class:`Error`        s -> c     request failed (message echoed)
:class:`Bye`          both       orderly shutdown
====================  =========  ==========================================

Encoding is canonical: explicit key order, compact separators, floats
serialized by ``repr`` (via ``json``) — so ``encode(decode(line)) ==
line`` for every frame this module produced, which is what lets the
tests (and paranoid clients) compare delta streams byte for byte.  One
module-level encoder and one module-level decoder do all of it; the
decoder refuses ``NaN`` / ``Infinity`` / ``-Infinity`` (not JSON, and
poison as distances or coordinates), and :func:`decode_frame` raises
:class:`WireError` — only ever that — for any line it cannot accept.

Points are ``[x, y]``; result entries are ``[dist, oid]``; object
update rows are ``[oid, old, new]`` with ``null`` for the
appearance/disappearance side, exactly the Section 3 tuple.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Union

from repro.api.queries import QuerySpec, spec_from_wire, spec_to_wire
from repro.geometry.points import Point
from repro.service.deltas import ResultDelta
from repro.updates import FlatUpdateBatch, ObjectUpdate, QueryUpdate, QueryUpdateKind

#: the protocol version this module speaks (stamps every encoded frame).
WIRE_VERSION = 3

#: versions :func:`decode_frame` accepts.  v2 (pub/sub) and v3
#: (telemetry) are additive over v1 (new frame types only, no
#: reshapes), so older lines still parse.
SUPPORTED_VERSIONS = (1, 2, 3)

ResultEntry = tuple[float, int]


class WireError(ValueError):
    """A frame could not be decoded (bad json, version, type or shape)."""


# ----------------------------------------------------------------------
# Frame types
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Hello:
    client: str = ""


@dataclass(frozen=True, slots=True)
class Welcome:
    server: str = ""
    versions: tuple[int, ...] = (WIRE_VERSION,)


@dataclass(frozen=True, slots=True)
class Updates:
    """Object location updates staged for the next :class:`Tick`."""

    updates: tuple[ObjectUpdate, ...]


@dataclass(frozen=True, slots=True)
class QueryOp:
    """A raw :class:`repro.updates.QueryUpdate` staged for the next tick
    (the ingestion vocabulary; typed registration uses :class:`Register`)."""

    update: QueryUpdate


@dataclass(frozen=True, slots=True)
class Tick:
    timestamp: int | None = None


@dataclass(frozen=True, slots=True)
class Ticked:
    timestamp: int | None
    changed: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class Register:
    spec: QuerySpec
    qid: int | None = None
    watch: bool = True


@dataclass(frozen=True, slots=True)
class Registered:
    qid: int
    result: tuple[ResultEntry, ...]


@dataclass(frozen=True, slots=True)
class Move:
    qid: int
    point: Point


@dataclass(frozen=True, slots=True)
class Terminate:
    qid: int


@dataclass(frozen=True, slots=True)
class GetSnapshot:
    qid: int


@dataclass(frozen=True, slots=True)
class Snapshot:
    qid: int
    result: tuple[ResultEntry, ...]


@dataclass(frozen=True, slots=True)
class Subscribe:
    qid: int
    include_unchanged: bool = False


@dataclass(frozen=True, slots=True)
class Unsubscribe:
    qid: int


@dataclass(frozen=True, slots=True)
class Delta:
    """One :class:`repro.service.deltas.ResultDelta`, stamped with its
    cycle timestamp (``None`` = outside the replay loop: installs,
    immediate moves/terminations)."""

    timestamp: int | None
    delta: ResultDelta


@dataclass(frozen=True, slots=True)
class Tags:
    """Merge object attribute tags (the filtered-subscription predicate
    state).  Rows are ``[oid, [tag, ...]]``; an empty tag list removes
    the object's tags."""

    rows: tuple[tuple[int, tuple[str, ...]], ...]


@dataclass(frozen=True, slots=True)
class Sync:
    """Cold-start request: stream the server's current state.

    The server answers with zero or more :class:`SyncObjects` chunks
    (iff ``objects`` is set), one :class:`SyncQuery` per query this
    connection registered, then :class:`SyncDone`.  ``watch`` upgrades
    every synced query to a subscribed one in the same breath."""

    objects: bool = False
    watch: bool = True


@dataclass(frozen=True, slots=True)
class SyncObjects:
    """One chunk of the object table.  Rows are
    ``[oid, [x, y], tags-or-null]``."""

    rows: tuple[tuple[int, Point, tuple[str, ...] | None], ...]


@dataclass(frozen=True, slots=True)
class SyncQuery:
    """One registered query: its id, spec and current ordered result."""

    qid: int
    spec: QuerySpec
    result: tuple[ResultEntry, ...]


@dataclass(frozen=True, slots=True)
class SyncDone:
    """Cold-start stream complete (counts echoed for sanity checks)."""

    queries: int
    objects: int


@dataclass(frozen=True, slots=True)
class Lagged:
    """The slow-consumer policy dropped ``dropped`` delta deliveries for
    this connection; the client should re-snapshot what it watches."""

    dropped: int


@dataclass(frozen=True, slots=True)
class WatchMetrics:
    """Start (or refresh) telemetry streaming on this connection.

    ``interval_ms == 0`` requests a single immediate :class:`Metrics`
    snapshot; a positive interval subscribes to periodic snapshots.
    ``alerts`` additionally routes :class:`Alert` frames here."""

    interval_ms: int = 0
    alerts: bool = True


@dataclass(frozen=True, slots=True)
class Metrics:
    """One flat registry snapshot.  Rows are ``[series, value]`` in
    sorted series order; values keep their JSON number type (int stays
    int) so a round-trip re-encodes byte-identically."""

    timestamp: float
    rows: tuple[tuple[str, int | float], ...]


@dataclass(frozen=True, slots=True)
class Alert:
    """One health alert event (tier, rule, message, trigger value)."""

    level: str
    rule: str
    message: str
    value: float = 0.0
    cycle: int = 0
    timestamp: float = 0.0


@dataclass(frozen=True, slots=True)
class Ok:
    op: str
    qid: int | None = None


@dataclass(frozen=True, slots=True)
class Error:
    message: str


@dataclass(frozen=True, slots=True)
class Bye:
    pass


Frame = Union[
    Hello, Welcome, Updates, QueryOp, Tick, Ticked, Register, Registered,
    Move, Terminate, GetSnapshot, Snapshot, Subscribe, Unsubscribe, Delta,
    Tags, Sync, SyncObjects, SyncQuery, SyncDone, Lagged,
    WatchMetrics, Metrics, Alert,
    Ok, Error, Bye,
]


# ----------------------------------------------------------------------
# Scalar helpers
# ----------------------------------------------------------------------


def _point(raw) -> Point:
    x, y = raw
    return (float(x), float(y))


def _opt_point(raw) -> Point | None:
    return None if raw is None else _point(raw)


def _number(raw) -> int | float:
    """A JSON number, *without* coercing int to float — telemetry
    counters stay ints so canonical re-encode is byte-identical."""
    if type(raw) is int or type(raw) is float:
        return raw
    raise TypeError(f"not a number: {raw!r}")


def _entries(raw) -> tuple[ResultEntry, ...]:
    return tuple([(float(d), int(oid)) for d, oid in raw])


def _update_row(upd: ObjectUpdate) -> list:
    return [
        upd.oid,
        None if upd.old is None else [upd.old[0], upd.old[1]],
        None if upd.new is None else [upd.new[0], upd.new[1]],
    ]


def _query_op_out(qu: QueryUpdate) -> dict:
    obj: dict = {"qid": qu.qid, "op": qu.kind.value}
    if qu.point is not None:
        obj["point"] = [qu.point[0], qu.point[1]]
    if qu.k is not None:
        obj["k"] = qu.k
    return obj


def _query_op_in(obj: dict) -> QueryUpdate:
    k = obj.get("k")
    return QueryUpdate(
        int(obj["qid"]),
        QueryUpdateKind(obj["op"]),
        _opt_point(obj.get("point")),
        None if k is None else int(k),
    )


def _delta_in(obj: dict) -> ResultDelta:
    return ResultDelta(
        qid=int(obj["qid"]),
        incoming=_entries(obj["in"]),
        outgoing=_entries(obj["out"]),
        reordered=bool(obj["reordered"]),
        result=_entries(obj["result"]),
        terminated=bool(obj["terminated"]),
    )


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


def _body(frame: Frame) -> tuple[str, dict]:
    if type(frame) is Updates:
        return "updates", {"rows": [_update_row(u) for u in frame.updates]}
    if type(frame) is Tick:
        return "tick", {"ts": frame.timestamp}
    if type(frame) is Ticked:
        return "ticked", {"ts": frame.timestamp, "changed": list(frame.changed)}
    if type(frame) is QueryOp:
        return "query", _query_op_out(frame.update)
    if type(frame) is Register:
        return "register", {
            "spec": spec_to_wire(frame.spec),
            "qid": frame.qid,
            "watch": frame.watch,
        }
    if type(frame) is Registered:
        return "registered", {"qid": frame.qid, "result": frame.result}
    if type(frame) is Move:
        return "move", {"qid": frame.qid, "point": [frame.point[0], frame.point[1]]}
    if type(frame) is Terminate:
        return "terminate", {"qid": frame.qid}
    if type(frame) is GetSnapshot:
        return "get_snapshot", {"qid": frame.qid}
    if type(frame) is Snapshot:
        return "snapshot", {"qid": frame.qid, "result": frame.result}
    if type(frame) is Subscribe:
        return "subscribe", {
            "qid": frame.qid,
            "include_unchanged": frame.include_unchanged,
        }
    if type(frame) is Unsubscribe:
        return "unsubscribe", {"qid": frame.qid}
    if type(frame) is Tags:
        return "tags", {
            "rows": [[oid, list(tags)] for oid, tags in frame.rows]
        }
    if type(frame) is Sync:
        return "sync", {"objects": frame.objects, "watch": frame.watch}
    if type(frame) is SyncObjects:
        return "sync_objects", {
            "rows": [
                [oid, [pt[0], pt[1]], None if tags is None else list(tags)]
                for oid, pt, tags in frame.rows
            ]
        }
    if type(frame) is SyncQuery:
        return "sync_query", {
            "qid": frame.qid,
            "spec": spec_to_wire(frame.spec),
            "result": frame.result,
        }
    if type(frame) is SyncDone:
        return "sync_done", {"queries": frame.queries, "objects": frame.objects}
    if type(frame) is Lagged:
        return "lagged", {"dropped": frame.dropped}
    if type(frame) is WatchMetrics:
        return "watch_metrics", {
            "interval_ms": frame.interval_ms,
            "alerts": frame.alerts,
        }
    if type(frame) is Metrics:
        return "metrics", {
            "ts": frame.timestamp,
            "rows": [[name, value] for name, value in frame.rows],
        }
    if type(frame) is Alert:
        return "alert", {
            "level": frame.level,
            "rule": frame.rule,
            "message": frame.message,
            "value": frame.value,
            "cycle": frame.cycle,
            "ts": frame.timestamp,
        }
    if type(frame) is Hello:
        return "hello", {"client": frame.client}
    if type(frame) is Welcome:
        return "welcome", {"server": frame.server, "versions": list(frame.versions)}
    if type(frame) is Ok:
        return "ok", {"op": frame.op, "qid": frame.qid}
    if type(frame) is Error:
        return "error", {"message": frame.message}
    if type(frame) is Bye:
        return "bye", {}
    raise TypeError(f"not a wire frame: {frame!r}")


#: the one compact encoder every encoded line goes through, built once
#: per process rather than once per line.  Tuples serialize as arrays,
#: so result entries need no per-entry list copies.  Every object it is
#: handed is built from frozen frames a few lines above the call, so the
#: per-container cycle check has nothing to find.
_encode = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


def encode_frame(frame: Frame) -> str:
    """One canonical ndjson line (no trailing newline)."""
    if type(frame) is Delta:
        return encode_delta(frame.timestamp, frame.delta)
    kind, body = _body(frame)
    obj = {"v": WIRE_VERSION, "t": kind}
    obj.update(body)
    return _encode(obj)


def encode_delta(timestamp: int | None, delta: ResultDelta) -> str:
    """The :class:`Delta` frame line, serialized straight from the
    :class:`ResultDelta` (the publishers' hot path: no frame object, no
    copies of the entry tuples)."""
    return _encode(
        {
            "v": WIRE_VERSION,
            "t": "delta",
            "ts": timestamp,
            "qid": delta.qid,
            "in": delta.incoming,
            "out": delta.outgoing,
            "reordered": delta.reordered,
            "result": delta.result,
            "terminated": delta.terminated,
        }
    )


def encode_updates_flat(batch: FlatUpdateBatch) -> str:
    """The :class:`Updates` frame line read straight from a columnar
    :class:`repro.updates.FlatUpdateBatch` — no per-row
    :class:`ObjectUpdate` objects are built.

    Byte-identical to
    ``encode_frame(Updates(updates=batch.to_object_updates()))``: the
    coordinate columns hold the same floats the row objects would carry
    (``json`` serializes them by ``repr`` either way) and the key order
    is the canonical ``v``/``t``/``rows``.
    """
    rows: list[list] = []
    append = rows.append
    for oid, ox, oy, nx, ny, ap, dis in zip(
        batch.oids,
        batch.old_xs,
        batch.old_ys,
        batch.new_xs,
        batch.new_ys,
        batch.appear,
        batch.disappear,
    ):
        append([oid, None if ap else [ox, oy], None if dis else [nx, ny]])
    return _encode({"v": WIRE_VERSION, "t": "updates", "rows": rows})


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


#: the one decoder every inbound line goes through.  ``NaN`` /
#: ``Infinity`` / ``-Infinity`` are not JSON; left to the stdlib default
#: they would decode into ``float('nan')`` distances and coordinates.
_decode = json.JSONDecoder(parse_constant=_reject_constant).decode


def decode_frame(line: str | bytes) -> Frame:
    """Parse one frame line; raises :class:`WireError` on anything off
    (never another exception type, whatever the line holds).

    Unknown versions are rejected *before* the type is inspected — a v2
    peer talking to a v1 endpoint fails loudly at the first frame.
    """
    try:
        if not isinstance(line, str):
            line = str(line, "utf-8")
        obj = _decode(line)
    except (ValueError, RecursionError) as exc:
        # ValueError: bad json, bad utf-8, a non-finite constant, an
        # integer literal past the interpreter's digit limit;
        # RecursionError: nesting deeper than the parser's stack.
        raise WireError(f"malformed frame: {exc}") from exc
    if not isinstance(obj, dict):
        raise WireError(f"frame is not an object: {obj!r}")
    version = obj.get("v")
    if version not in SUPPORTED_VERSIONS:
        raise WireError(
            f"unsupported wire version {version!r} "
            f"(this endpoint speaks {list(SUPPORTED_VERSIONS)})"
        )
    kind = obj.get("t")
    try:
        if kind == "delta":
            return Delta(timestamp=obj["ts"], delta=_delta_in(obj))
        if kind == "updates":
            rows = []
            for oid, old, new in obj["rows"]:
                rows.append(
                    ObjectUpdate(int(oid), _opt_point(old), _opt_point(new))
                )
            return Updates(updates=tuple(rows))
        if kind == "tick":
            ts = obj["ts"]
            return Tick(timestamp=None if ts is None else int(ts))
        if kind == "ticked":
            ts = obj["ts"]
            return Ticked(
                timestamp=None if ts is None else int(ts),
                changed=tuple([int(q) for q in obj["changed"]]),
            )
        if kind == "query":
            return QueryOp(update=_query_op_in(obj))
        if kind == "register":
            qid = obj.get("qid")
            return Register(
                spec=spec_from_wire(obj["spec"]),
                qid=None if qid is None else int(qid),
                watch=bool(obj.get("watch", True)),
            )
        if kind == "registered":
            return Registered(qid=int(obj["qid"]), result=_entries(obj["result"]))
        if kind == "move":
            return Move(qid=int(obj["qid"]), point=_point(obj["point"]))
        if kind == "terminate":
            return Terminate(qid=int(obj["qid"]))
        if kind == "get_snapshot":
            return GetSnapshot(qid=int(obj["qid"]))
        if kind == "snapshot":
            return Snapshot(qid=int(obj["qid"]), result=_entries(obj["result"]))
        if kind == "subscribe":
            return Subscribe(
                qid=int(obj["qid"]),
                include_unchanged=bool(obj.get("include_unchanged", False)),
            )
        if kind == "unsubscribe":
            return Unsubscribe(qid=int(obj["qid"]))
        if kind == "tags":
            return Tags(
                rows=tuple(
                    [
                        (int(oid), tuple([str(t) for t in tags]))
                        for oid, tags in obj["rows"]
                    ]
                )
            )
        if kind == "sync":
            return Sync(
                objects=bool(obj.get("objects", False)),
                watch=bool(obj.get("watch", True)),
            )
        if kind == "sync_objects":
            return SyncObjects(
                rows=tuple(
                    [
                        (
                            int(oid),
                            _point(pt),
                            None if tags is None else tuple([str(t) for t in tags]),
                        )
                        for oid, pt, tags in obj["rows"]
                    ]
                )
            )
        if kind == "sync_query":
            return SyncQuery(
                qid=int(obj["qid"]),
                spec=spec_from_wire(obj["spec"]),
                result=_entries(obj["result"]),
            )
        if kind == "sync_done":
            return SyncDone(
                queries=int(obj["queries"]), objects=int(obj["objects"])
            )
        if kind == "lagged":
            return Lagged(dropped=int(obj["dropped"]))
        if kind == "watch_metrics":
            return WatchMetrics(
                interval_ms=int(obj.get("interval_ms", 0)),
                alerts=bool(obj.get("alerts", True)),
            )
        if kind == "metrics":
            return Metrics(
                timestamp=_number(obj["ts"]),
                rows=tuple(
                    [(str(name), _number(value)) for name, value in obj["rows"]]
                ),
            )
        if kind == "alert":
            return Alert(
                level=str(obj["level"]),
                rule=str(obj["rule"]),
                message=str(obj["message"]),
                value=_number(obj.get("value", 0.0)),
                cycle=int(obj.get("cycle", 0)),
                timestamp=_number(obj.get("ts", 0.0)),
            )
        if kind == "hello":
            return Hello(client=str(obj.get("client", "")))
        if kind == "welcome":
            return Welcome(
                server=str(obj.get("server", "")),
                versions=tuple([int(v) for v in obj.get("versions", ())]),
            )
        if kind == "ok":
            qid = obj.get("qid")
            return Ok(op=str(obj["op"]), qid=None if qid is None else int(qid))
        if kind == "error":
            return Error(message=str(obj["message"]))
        if kind == "bye":
            return Bye()
    except WireError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        # AttributeError: a nested object (a spec) that is not one;
        # OverflowError: int() of a literal like 1e999.
        raise WireError(f"bad {kind!r} frame: {exc}") from exc
    raise WireError(f"unknown frame type {kind!r}")
