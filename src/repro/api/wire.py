"""The versioned wire protocol: updates in, deltas out.

**Framing.**  A frame's first byte says how it is framed.  Every frame
but one is an ndjson line: one JSON object, ``\\n``-terminated, that
carries the protocol version under ``"v"`` and its type under ``"t"``.
The one exception is :class:`Delta`, by far the most frequent frame: it
is a length-prefixed binary record whose first byte is
:data:`BINARY_MARK` (``0xFF``, which never occurs in UTF-8, so no line
can start with it)::

    offset  size  field
    0       1     0xFF marker
    1       4     u32 length of everything after this field
    5       1     u8  version (5)
    6       1     u8  tag (1 = delta)
    7       1     u8  flags: 1 ts present, 2 reordered, 4 terminated
    8       8     i64 ts (0 when the flag is clear)
    16      8     i64 qid
    24      4     u32 |in|
    28      4     u32 |out|
    32      4     u32 |result|
    36      8n    f64 distances of in, out, result (n = the three counts)
    36+8n   8n    i64 oids, same order

All integers and floats are little-endian on every host.  A record
therefore costs ``36 + 16n`` bytes and no text formatting; ``length``
must equal ``31 + 16n`` and the bytes that follow it, exactly.
:func:`frame_bytes` is the one place that applies this rule on the
way out, :func:`read_frame` on the way in.

**Updates travel as one packed column block.**  An ``updates`` frame is
a JSON line, ``{"v":5,"t":"updates","n":N,"cols":"..."}``, whose
``cols`` is the standard base64 of the ``42 * N``-byte block
:meth:`repro.updates.FlatUpdateBatch.column_bytes` packs (exactly
``56 * N`` characters, never padded), little-endian on every host::

    offset  size  column
    0       8N    i64 oids
    8N      8N    f64 old x
    16N     8N    f64 old y
    24N     8N    f64 new x
    32N     8N    f64 new y
    40N     N     u8  appear (0 or 1)
    41N     N     u8  disappear (0 or 1)

An appearance's old and a disappearance's new coordinates are
placeholders (``0.0`` from this package's encoders).  A 256-row frame
costs about 56.2 bytes per row, where v4's ``[oid, old, new]`` JSON rows
cost 88.9.  Decoding is one small JSON parse, one base64 decode and one
``frombytes`` per column — no Python value per row — and then the whole
frame is checked, one bad row rejecting it: ``n`` is a JSON integer in
``[0, MAX_UPDATE_ROWS]`` that matches ``len(cols)`` (checked before any
base64 is decoded), the masks hold only 0 and 1, no row both appears and
disappears, and every coordinate is finite.

**Limits.**  A line holds at most :data:`MAX_LINE_BYTES` bytes, its
newline included, and a binary record at most :data:`MAX_RECORD_BYTES`
after its prefix; :func:`read_frame` and :func:`read_line` refuse a
longer one after reading no more than the limit.  Every frame this
package encodes fits: an ``updates`` frame holds at most
:data:`MAX_UPDATE_ROWS` rows (``repro.api.client.Client.send_updates``
splits a larger batch), and a result-carrying line of as many entries
as a record can hold (a million) stays under the line limit.

Decoding rejects unknown versions, types and tags up front, and
:func:`decode_frame` raises :class:`WireError` — only ever that — for
anything it cannot accept.  **Versions.**  v2 added the pub/sub
vocabulary (tags, filtered subscriptions, cold-start sync, the lag
marker) and v3 the telemetry vocabulary (``watch_metrics``, ``metrics``,
``alert``), both additively.  v4 reshaped the delta frame into the
binary record above, and **v5** replaces the ``updates`` frame's JSON
rows with the packed column block; neither is readable by an older
peer, so a v5 endpoint speaks v5 only (:data:`SUPPORTED_VERSIONS`): an
older peer is refused at the ``welcome`` (or its first frame) instead of
at its first delta or ``updates`` frame.

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
:class:`Delta`        s -> c     one per-query result delta (binary)
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
serialized by ``repr`` (via ``json``), and one fixed layout for the
binary record — so ``encode_frame(decode_frame(b)) == b`` for every
frame this module produced, which is what lets the tests (and paranoid
clients) compare delta streams byte for byte.  One module-level encoder
and one module-level decoder do all the JSON; the decoders refuse
``NaN`` / ``Infinity`` / ``-Infinity`` (not JSON, and poison as
distances or coordinates) and any qid, oid or tick timestamp outside
signed 64-bit (it could not ride a binary delta).

Points are ``[x, y]`` and result entries ``[dist, oid]``.
:class:`Updates` carries its rows as a
:class:`repro.updates.FlatUpdateBatch`, the type the ingest tier stages
and the engines consume, so the Section 3 tuple never exists as a
Python object between the socket and the cycle.  Every coordinate a
frame carries in must be finite: ``1e999`` is valid JSON that parses to
``inf``, so the decoders check the parsed values (and the packed
columns' bits), not only the ``NaN`` / ``Infinity`` constants.  A query
spec's point and region bounds must be finite too, and its ``k`` a
positive JSON integer (:func:`repro.api.queries.spec_from_wire`).
"""

from __future__ import annotations

import json
import struct
from base64 import b64decode
from binascii import b2a_base64
from dataclasses import dataclass
from functools import lru_cache
from math import isfinite
from typing import Union

from repro.api.queries import QuerySpec, spec_from_wire, spec_to_wire
from repro.geometry.points import Point
from repro.service.deltas import ResultDelta
from repro.updates import FlatUpdateBatch, QueryUpdate, QueryUpdateKind

#: the protocol version this module speaks (stamps every encoded frame).
WIRE_VERSION = 5

#: versions :func:`decode_frame` accepts.  v5's packed ``updates`` frame
#: (like v4's binary delta record) is unreadable to an older peer, so
#: there is no older version to accept.
SUPPORTED_VERSIONS = (5,)

#: first byte of a binary record (never a byte of UTF-8 text).
BINARY_MARK = 0xFF
_MARK = bytes([BINARY_MARK])

#: the binary record's type tag for :class:`Delta` (its only type).
DELTA_TAG = 1

#: delta record flag bits.
_HAS_TS = 1
_REORDERED = 2
_TERMINATED = 4

#: marker, length, version, tag, flags, ts, qid, |in|, |out|, |result|.
_HEADER = struct.Struct("<BIBBBqqIII")
#: bytes of a record the length field does not count (marker + length).
_PREFIX = 5
#: the length field of a record with no entries; each adds 16.
_EMPTY_LENGTH = _HEADER.size - _PREFIX

#: the largest binary record :func:`read_frame` reads (bytes after the
#: prefix): a million result entries.  A length beyond it is refused
#: before anything is allocated for it.
MAX_RECORD_BYTES = 1 << 24

#: the longest ndjson line :func:`read_line` / :func:`read_frame` read,
#: newline included: 64 MiB, room for the largest ``updates`` frame
#: (~56 MiB) and for a million ``[dist, oid]`` result entries.
MAX_LINE_BYTES = 1 << 26

#: the most rows one ``updates`` frame may carry; a larger ``n`` is
#: refused before any base64 is decoded.
MAX_UPDATE_ROWS = 1 << 20

#: bytes of one row in the packed ``updates`` block, and its base64
#: characters (a whole number of 3-byte groups: never padded).
_ROW_BYTES = 42
_ROW_CHARS = 56

#: the two byte values an ``updates`` mask may hold.
_BITS = b"\x00\x01"


@lru_cache(maxsize=256)
def _record(n: int) -> struct.Struct:
    """The whole delta record's layout for ``n`` entries (compiled once
    per entry count; the header fields come first)."""
    return struct.Struct(f"{_HEADER.format}{n}d{n}q")


_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

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
    """Object location updates staged for the next :class:`Tick`, as
    columns (build one from rows with
    :meth:`repro.updates.FlatUpdateBatch.from_updates`; its
    ``timestamp`` and ``query_updates`` do not travel).  On the wire it
    is the packed column block in base64 (module docstring)."""

    batch: FlatUpdateBatch


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
    x = float(x)
    y = float(y)
    if isfinite(x) and isfinite(y):
        return (x, y)
    raise ValueError(f"non-finite coordinate in {raw!r}")


def _opt_point(raw) -> Point | None:
    return None if raw is None else _point(raw)


def _number(raw) -> int | float:
    """A JSON number, *without* coercing int to float — telemetry
    counters stay ints so canonical re-encode is byte-identical."""
    if type(raw) is int or type(raw) is float:
        return raw
    raise TypeError(f"not a number: {raw!r}")


def _id(raw) -> int:
    """A qid, oid or tick timestamp: an int that fits the binary
    delta's ``i64``."""
    value = int(raw)
    if _I64_MIN <= value <= _I64_MAX:
        return value
    raise ValueError(f"{value} does not fit a signed 64-bit field")


def _entries(raw) -> tuple[ResultEntry, ...]:
    return tuple([(float(d), int(oid)) for d, oid in raw])


def _updates_out(batch: FlatUpdateBatch) -> dict:
    """The body of an :class:`Updates` frame: the row count and the
    base64 of the packed column block."""
    block = b2a_base64(batch.column_bytes(), newline=False)
    return {"n": len(batch), "cols": block.decode("ascii")}


def _updates_in(obj: dict) -> Updates:
    """Decode an ``updates`` frame's packed column block (the inverse of
    :func:`_updates_out`), then check the whole frame; anything off
    raises (``decode_frame`` turns it into :class:`WireError`)."""
    n = obj["n"]
    cols = obj["cols"]
    if type(n) is not int or not 0 <= n <= MAX_UPDATE_ROWS:
        raise ValueError(
            f"updates row count {n!r} is not a JSON integer in "
            f"[0, {MAX_UPDATE_ROWS}]"
        )
    if type(cols) is not str or len(cols) != _ROW_CHARS * n:
        raise ValueError(
            f"updates cols must be {_ROW_CHARS * n} base64 characters "
            f"for {n} rows"
        )
    block = b64decode(cols, validate=True)
    if len(block) != _ROW_BYTES * n:
        # Any '=' in a string of the right length shortens the block.
        raise ValueError("updates cols carry base64 padding")
    batch = FlatUpdateBatch.from_column_bytes(n, block)
    appear = batch.appear
    disappear = batch.disappear
    if appear.translate(None, _BITS) or disappear.translate(None, _BITS):
        raise ValueError("an updates mask byte is neither 0 nor 1")
    if (
        1 in appear
        and 1 in disappear
        and int.from_bytes(appear, "little") & int.from_bytes(disappear, "little")
    ):
        raise ValueError("an updates row both appears and disappears")
    for col in (batch.old_xs, batch.old_ys, batch.new_xs, batch.new_ys):
        # A sum of floats is finite iff every term is, unless finite
        # terms overflow it: only then is the per-value check needed.
        if not isfinite(sum(col)) and not all(map(isfinite, col)):
            raise ValueError("non-finite coordinate in an updates row")
    return Updates(batch)


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
        _id(obj["qid"]),
        QueryUpdateKind(obj["op"]),
        _opt_point(obj.get("point")),
        None if k is None else int(k),
    )


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


def _body(frame: Frame) -> tuple[str, dict]:
    if type(frame) is Updates:
        return "updates", _updates_out(frame.batch)
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


def encode_frame(frame: Frame) -> str | bytes:
    """One canonical frame: the ndjson line (``str``, no trailing
    newline), or for :class:`Delta` the whole binary record (``bytes``,
    already framed)."""
    if type(frame) is Delta:
        return encode_delta(frame.timestamp, frame.delta)
    kind, body = _body(frame)
    obj = {"v": WIRE_VERSION, "t": kind}
    obj.update(body)
    return _encode(obj)


def frame_bytes(frame: Frame) -> bytes:
    """A frame exactly as it goes on the socket: the binary record for
    a :class:`Delta`, the ndjson line plus ``\\n`` for any other frame
    (lines are ASCII: the encoder escapes everything else)."""
    if type(frame) is Delta:
        return encode_delta(frame.timestamp, frame.delta)
    return (encode_frame(frame) + "\n").encode("ascii")


def encode_delta(timestamp: int | None, delta: ResultDelta) -> bytes:
    """The :class:`Delta` binary record, packed straight from the
    :class:`ResultDelta` (the publishers' hot path: no frame object).

    Raises :class:`WireError` naming the id when ``timestamp``, the qid
    or an oid does not fit a signed 64-bit field."""
    incoming = delta.incoming
    outgoing = delta.outgoing
    result = delta.result
    entries = incoming + outgoing + result
    n = len(entries)
    flags = (_REORDERED if delta.reordered else 0) | (
        _TERMINATED if delta.terminated else 0
    )
    if timestamp is None:
        ts = 0
    else:
        ts = timestamp
        flags |= _HAS_TS
    dists, oids = zip(*entries) if n else ((), ())
    try:
        return _record(n).pack(
            BINARY_MARK, _EMPTY_LENGTH + 16 * n, WIRE_VERSION, DELTA_TAG,
            flags, ts, delta.qid, len(incoming), len(outgoing), len(result),
            *dists, *oids,
        )
    except struct.error as exc:
        raise WireError(_unpackable(timestamp, delta, entries, exc)) from exc


def _unpackable(timestamp, delta, entries, exc) -> str:
    """Why a delta could not be packed: the first id that does not fit
    its ``i64`` field, else the packer's own complaint."""
    named = [("ts", timestamp), ("qid", delta.qid)]
    named += [("oid", oid) for _d, oid in entries]
    for name, value in named:
        if value is not None and not (
            type(value) is int and _I64_MIN <= value <= _I64_MAX
        ):
            return f"delta {name} {value!r} does not fit a signed 64-bit field"
    return f"delta does not fit the binary record: {exc}"


def encode_updates_flat(batch: FlatUpdateBatch) -> str:
    """The :class:`Updates` frame line of a columnar
    :class:`repro.updates.FlatUpdateBatch` (``encode_frame(Updates(batch))``):
    one text line carrying the packed column block in base64."""
    return encode_frame(Updates(batch))


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


#: the one decoder every inbound line goes through.  ``NaN`` /
#: ``Infinity`` / ``-Infinity`` are not JSON; left to the stdlib default
#: they would decode into ``float('nan')`` distances and coordinates.
_decode = json.JSONDecoder(parse_constant=_reject_constant).decode


def _decode_delta(data: bytes) -> Delta:
    """One whole binary record (marker included) back into its
    :class:`Delta`; every field is checked against the layout in the
    module docstring."""
    size = len(data)
    if size < _HEADER.size:
        raise WireError(
            f"truncated binary record: {size} bytes, the header alone "
            f"is {_HEADER.size}"
        )
    (_mark, length, version, tag, flags, ts, qid,
     n_in, n_out, n_result) = _HEADER.unpack_from(data)
    if length != size - _PREFIX:
        raise WireError(
            f"binary record length {length} != the {size - _PREFIX} "
            f"bytes that follow it"
        )
    if version != WIRE_VERSION:
        raise WireError(
            f"unsupported wire version {version!r} "
            f"(this endpoint speaks {list(SUPPORTED_VERSIONS)})"
        )
    if tag != DELTA_TAG:
        raise WireError(f"unknown binary frame tag {tag}")
    if flags & ~(_HAS_TS | _REORDERED | _TERMINATED):
        raise WireError(f"delta flags {flags:#04x} set an undefined bit")
    if not flags & _HAS_TS:
        if ts:
            raise WireError("delta carries a ts but its flag is clear")
        ts = None
    n = n_in + n_out + n_result
    if length != _EMPTY_LENGTH + 16 * n:
        raise WireError(
            f"delta length {length} does not hold its {n_in}+{n_out}"
            f"+{n_result} entries"
        )
    values = _record(n).unpack(data)
    dists = values[10 : 10 + n]
    # A sum of floats is finite iff every term is, unless finite terms
    # overflow it: only then is the per-entry check needed.
    if not isfinite(sum(dists)) and not all(map(isfinite, dists)):
        raise WireError("non-finite distance in delta")
    entries = tuple(zip(dists, values[10 + n :]))
    split = n_in + n_out
    return Delta(
        ts,
        ResultDelta(
            qid,
            entries[:n_in],
            entries[n_in:split],
            bool(flags & _REORDERED),
            entries[split:],
            bool(flags & _TERMINATED),
        ),
    )


def read_line(stream, head: bytes = b"") -> bytes:
    """The rest of one ndjson line from a binary buffered stream, after
    the ``head`` already read from it: ``head`` plus everything up to
    and including the next newline (or the end of the stream).

    Reads at most :data:`MAX_LINE_BYTES` bytes in all; a line that does
    not end within them raises :class:`WireError`."""
    limit = MAX_LINE_BYTES - len(head)
    line = stream.readline(limit)
    if len(line) == limit and line[-1:] != b"\n":
        raise WireError(f"line exceeds {MAX_LINE_BYTES} bytes")
    return head + line


def read_frame(stream) -> Frame | None:
    """The next frame on a binary buffered stream (``sock.makefile("rb")``),
    or ``None`` at a clean end of stream.

    The first byte picks the framing: :data:`BINARY_MARK` reads the
    length prefix and exactly that many bytes more, anything else reads
    one line (blank and whitespace-only lines, such as a CRLF
    keep-alive, are skipped).  A record cut short by the end
    of the stream, a record longer than :data:`MAX_RECORD_BYTES` or a
    line longer than :data:`MAX_LINE_BYTES` raises :class:`WireError`
    like any other undecodable frame.
    """
    while True:
        first = stream.read(1)
        if not first:
            return None
        if first == _MARK:
            record = first + stream.read(4)
            if len(record) == _PREFIX:
                length = int.from_bytes(record[1:], "little")
                if length > MAX_RECORD_BYTES:
                    raise WireError(
                        f"binary record of {length} bytes exceeds "
                        f"{MAX_RECORD_BYTES}"
                    )
                record += stream.read(length)
            return _decode_delta(record)
        if first != b"\n":
            line = read_line(stream, first)
            if not line.isspace():
                return decode_frame(line)


def decode_frame(line: str | bytes) -> Frame:
    """Parse one frame — an ndjson line, or a whole binary record as
    :func:`encode_delta` made it; raises :class:`WireError` on anything
    off (never another exception type, whatever the input holds).

    Bytes dispatch on their first byte (:data:`BINARY_MARK` = binary).
    Unknown versions are rejected *before* the type is inspected — an
    older peer talking to this endpoint fails loudly at the first frame.
    """
    if not isinstance(line, str) and line[:1] == _MARK:
        return _decode_delta(line)
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
        if kind == "updates":
            return _updates_in(obj)
        if kind == "tick":
            # The ts stamps every delta of the cycle, so it must fit too.
            ts = obj["ts"]
            return Tick(timestamp=None if ts is None else _id(ts))
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
                qid=None if qid is None else _id(qid),
                watch=bool(obj.get("watch", True)),
            )
        if kind == "registered":
            return Registered(qid=int(obj["qid"]), result=_entries(obj["result"]))
        if kind == "move":
            return Move(qid=_id(obj["qid"]), point=_point(obj["point"]))
        if kind == "terminate":
            return Terminate(qid=_id(obj["qid"]))
        if kind == "get_snapshot":
            return GetSnapshot(qid=_id(obj["qid"]))
        if kind == "snapshot":
            return Snapshot(qid=int(obj["qid"]), result=_entries(obj["result"]))
        if kind == "subscribe":
            return Subscribe(
                qid=_id(obj["qid"]),
                include_unchanged=bool(obj.get("include_unchanged", False)),
            )
        if kind == "unsubscribe":
            return Unsubscribe(qid=_id(obj["qid"]))
        if kind == "tags":
            return Tags(
                rows=tuple(
                    [
                        (_id(oid), tuple([str(t) for t in tags]))
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
