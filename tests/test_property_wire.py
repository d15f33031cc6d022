"""Property tests for the wire codec's two boundaries.

Inbound: :func:`repro.api.wire.decode_frame` is the one place outside
data enters every endpoint (server, ``Client``, ``SocketFeed``), and
each of them catches exactly :class:`WireError` (a ``ValueError``) — so
whatever the line holds, nothing else may escape.  Outbound: every line
the module produces re-encodes byte for byte after a decode, and the
delta fast path emits the bytes of the frame-object path and of an
independent ``json.dumps`` reference.
"""

import copy
import json
import typing

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import wire
from repro.updates import FlatUpdateBatch
from tests.test_api_wire import deltas, frames, object_updates, timestamps

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=8,
)

#: what a single-field mutation plants: any JSON value, plus the numbers
#: a float or int conversion chokes on (``json.dumps`` spells the
#: non-finite ones ``NaN`` / ``Infinity``, which the decoder refuses).
junk = st.one_of(
    json_values,
    st.sampled_from([10**400, float("nan"), float("inf"), float("-inf")]),
)

FRAME_TYPES = typing.get_args(wire.Frame)

FRAME_KINDS = [
    "hello", "welcome", "updates", "query", "tick", "ticked", "register",
    "registered", "move", "terminate", "get_snapshot", "snapshot",
    "subscribe", "unsubscribe", "delta", "tags", "sync", "sync_objects",
    "sync_query", "sync_done", "lagged", "watch_metrics", "metrics",
    "alert", "ok", "error", "bye",
]


def paths(value, prefix=()):
    """Every position in a JSON value, as key/index tuples."""
    found = []
    items = (
        value.items() if isinstance(value, dict)
        else enumerate(value) if isinstance(value, list)
        else ()
    )
    for key, child in items:
        found.append(prefix + (key,))
        found.extend(paths(child, prefix + (key,)))
    return found


def decodes_or_rejects(line) -> None:
    """The property: a frame comes back, or WireError — nothing else."""
    try:
        frame = wire.decode_frame(line)
    except wire.WireError:
        return
    assert isinstance(frame, FRAME_TYPES)


# ----------------------------------------------------------------------
# Inbound: nothing but WireError
# ----------------------------------------------------------------------


class TestDecodeRaisesOnlyWireError:
    @given(st.one_of(st.binary(max_size=200), st.text(max_size=200)))
    def test_arbitrary_bytes_and_text(self, line):
        decodes_or_rejects(line)

    @given(json_values)
    def test_arbitrary_json(self, value):
        decodes_or_rejects(json.dumps(value))

    @given(
        st.sampled_from(FRAME_KINDS),
        st.dictionaries(
            st.sampled_from(
                ["ts", "qid", "rows", "result", "in", "out", "spec", "point",
                 "op", "k", "changed", "versions", "message", "dropped",
                 "reordered", "terminated", "queries", "objects", "value"]
            ),
            json_values,
            max_size=8,
        ),
    )
    def test_arbitrary_body_under_every_type_tag(self, kind, body):
        decodes_or_rejects(
            json.dumps({**body, "v": wire.WIRE_VERSION, "t": kind})
        )

    @given(frames, st.data())
    def test_single_field_mutation_of_a_valid_frame(self, frame, data):
        obj = json.loads(wire.encode_frame(frame))
        path = data.draw(st.sampled_from(paths(obj)), label="path")
        mutated = copy.deepcopy(obj)
        parent = mutated
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans(), label="delete"):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(junk, label="junk")
        decodes_or_rejects(json.dumps(mutated))

    def test_the_kind_list_is_the_decoders_vocabulary(self):
        assert len(FRAME_KINDS) == len(set(FRAME_KINDS)) == len(FRAME_TYPES)
        for kind in FRAME_KINDS:
            try:
                wire.decode_frame(json.dumps({"v": wire.WIRE_VERSION, "t": kind}))
            except wire.WireError as exc:
                assert f"bad {kind!r} frame" in str(exc)

    @pytest.mark.parametrize(
        "line",
        [
            '{"v":3,"t":"tick","ts":1e999}',          # int(inf)
            '{"v":3,"t":"move","qid":1e999,"point":[0,0]}',
            '{"v":3,"t":"move","qid":1,"point":[' + "9" * 400 + ',0]}',
            '{"v":3,"t":"tick","ts":' + "9" * 5000 + "}",  # digit limit
            '{"v":3,"t":"register","spec":7,"qid":null,"watch":true}',
            "[" * 100_000,                                # parser stack
            b"\xff\xfe{}",                                # not utf-8
        ],
    )
    def test_known_escape_routes_are_closed(self, line):
        with pytest.raises(wire.WireError):
            wire.decode_frame(line)


# ----------------------------------------------------------------------
# Inbound: non-finite numbers are not JSON
# ----------------------------------------------------------------------


class TestNonFiniteRejected:
    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_constant_in_any_numeric_position(self, constant):
        for line in (
            '{"v":3,"t":"updates","rows":[[1,null,[%s,0.5]]]}',
            '{"v":3,"t":"move","qid":1,"point":[0.5,%s]}',
            '{"v":3,"t":"delta","ts":1,"qid":1,"in":[[%s,4]],"out":[],'
            '"reordered":false,"result":[[%s,4]],"terminated":false}',
            '{"v":3,"t":"metrics","ts":%s,"rows":[]}',
            '{"v":3,"t":"bye","extra":%s}',
        ):
            with pytest.raises(wire.WireError, match="non-finite"):
                wire.decode_frame(line.replace("%s", constant))


# ----------------------------------------------------------------------
# Outbound: canonical bytes
# ----------------------------------------------------------------------


def reference_delta_line(timestamp, delta) -> str:
    """The delta line spelled out independently of ``wire``'s encoder:
    explicit lists, ``json.dumps`` with compact separators."""
    return json.dumps(
        {
            "v": wire.WIRE_VERSION,
            "t": "delta",
            "ts": timestamp,
            "qid": delta.qid,
            "in": [[d, oid] for d, oid in delta.incoming],
            "out": [[d, oid] for d, oid in delta.outgoing],
            "reordered": delta.reordered,
            "result": [[d, oid] for d, oid in delta.result],
            "terminated": delta.terminated,
        },
        separators=(",", ":"),
    )


class TestCanonicalBytes:
    @given(frames)
    def test_reencode_identity_for_every_frame(self, frame):
        line = wire.encode_frame(frame)
        assert wire.encode_frame(wire.decode_frame(line)) == line
        assert wire.encode_frame(wire.decode_frame(line.encode())) == line

    @given(timestamps, deltas)
    def test_delta_fast_path_equals_frame_path_and_reference(self, ts, delta):
        line = wire.encode_delta(ts, delta)
        assert line == wire.encode_frame(wire.Delta(timestamp=ts, delta=delta))
        assert line == reference_delta_line(ts, delta)
        assert wire.encode_frame(wire.decode_frame(line)) == line

    @given(st.lists(object_updates, max_size=6))
    def test_flat_updates_line_reencodes(self, updates):
        batch = FlatUpdateBatch(timestamp=0)
        for u in updates:
            if u.old is None:
                batch.append_appear(u.oid, u.new[0], u.new[1])
            elif u.new is None:
                batch.append_disappear(u.oid, u.old[0], u.old[1])
            else:
                batch.append_move(u.oid, u.old[0], u.old[1], u.new[0], u.new[1])
        line = wire.encode_updates_flat(batch)
        assert line == wire.encode_frame(wire.Updates(updates=tuple(updates)))
        assert wire.encode_frame(wire.decode_frame(line)) == line
