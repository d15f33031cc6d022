"""Property tests for the wire codec's two boundaries.

Inbound: :func:`repro.api.wire.decode_frame` is the one place outside
data enters every endpoint (server, ``Client``, ``SocketFeed``), and
each of them catches exactly :class:`WireError` (a ``ValueError``) — so
whatever the line or record holds, nothing else may escape.  Outbound:
every frame the module produces re-encodes byte for byte after a
decode, and the binary delta record is pinned twice — by golden bytes
and by an independent little-endian reference packer.
"""

import copy
import json
import math
import struct
import typing

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import wire
from repro.service.deltas import ResultDelta
from repro.updates import FlatUpdateBatch, ObjectUpdate
from tests.test_api_wire import frames, json_frames, object_updates

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

#: the JSON vocabulary: every frame type but the binary ``Delta``.
FRAME_KINDS = [
    "hello", "welcome", "updates", "query", "tick", "ticked", "register",
    "registered", "move", "terminate", "get_snapshot", "snapshot",
    "subscribe", "unsubscribe", "tags", "sync", "sync_objects",
    "sync_query", "sync_done", "lagged", "watch_metrics", "metrics",
    "alert", "ok", "error", "bye",
]

i64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
#: every finite float64, signed zeros and subnormals included.
distances = st.floats(allow_nan=False, allow_infinity=False)
entry_lists = st.lists(st.tuples(distances, i64), max_size=5).map(tuple)
binary_deltas = st.builds(
    ResultDelta,
    qid=i64,
    incoming=entry_lists,
    outgoing=entry_lists,
    reordered=st.booleans(),
    result=entry_lists,
    terminated=st.booleans(),
)
binary_timestamps = st.one_of(st.none(), i64)


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

    @given(json_frames, st.data())
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
        assert len(FRAME_KINDS) == len(set(FRAME_KINDS)) == len(FRAME_TYPES) - 1
        for kind in FRAME_KINDS:
            try:
                wire.decode_frame(json.dumps({"v": wire.WIRE_VERSION, "t": kind}))
            except wire.WireError as exc:
                assert f"bad {kind!r} frame" in str(exc)

    @pytest.mark.parametrize(
        "line",
        [
            '{"v":4,"t":"tick","ts":1e999}',          # int(inf)
            '{"v":4,"t":"move","qid":1e999,"point":[0,0]}',
            '{"v":4,"t":"move","qid":1,"point":[' + "9" * 400 + ',0]}',
            '{"v":4,"t":"tick","ts":' + "9" * 5000 + "}",  # digit limit
            '{"v":4,"t":"register","spec":7,"qid":null,"watch":true}',
            "[" * 100_000,                                # parser stack
            b"\xff\xfe{}",                                # not utf-8
            # 1e999 is a JSON float literal that parses to inf.
            '{"v":4,"t":"updates","rows":[[7,[0.5,0.5],[1e999,0.5]]]}',
            '{"v":4,"t":"move","qid":1,"point":[1e999,0.5]}',
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
            '{"v":4,"t":"updates","rows":[[1,null,[%s,0.5]]]}',
            '{"v":4,"t":"move","qid":1,"point":[0.5,%s]}',
            '{"v":4,"t":"metrics","ts":%s,"rows":[]}',
            '{"v":4,"t":"bye","extra":%s}',
        ):
            with pytest.raises(wire.WireError, match="non-finite"):
                wire.decode_frame(line.replace("%s", constant))


# ----------------------------------------------------------------------
# Inbound: updates rows decode column by column
# ----------------------------------------------------------------------


def reference_number(raw) -> float:
    if not isinstance(raw, (int, float)):
        raise TypeError(f"not a JSON number: {raw!r}")
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("non-finite coordinate")
    return value


def reference_point(raw):
    if raw is None:
        return None
    x, y = raw
    return (reference_number(x), reference_number(y))


def reference_updates(rows) -> FlatUpdateBatch:
    """The per-row decode the columnar one replaced — one
    ``ObjectUpdate`` per row — with its ``int()`` / ``float()`` narrowed
    to JSON numbers and the finiteness check added."""
    updates = []
    for oid, old, new in rows:
        if not isinstance(oid, int):
            raise TypeError(f"not a JSON integer: {oid!r}")
        if not -(2**63) <= oid <= 2**63 - 1:
            raise ValueError("oid outside i64")
        updates.append(
            ObjectUpdate(oid, reference_point(old), reference_point(new))
        )
    return FlatUpdateBatch.from_updates(updates)


#: JSON spellings the stdlib encoder cannot produce, planted by marker.
RAW_NUMBERS = {"@big@": "1e999", "@-big@": "-1e999", "@huge@": "9" * 400}

row_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from(list(RAW_NUMBERS)),
    st.booleans(),
    st.sampled_from(["0.5", "nan", "x"]),
)
row_points = st.one_of(
    st.none(),
    st.lists(row_numbers, min_size=2, max_size=2),
    st.lists(row_numbers, min_size=0, max_size=3),
    st.dictionaries(st.text(max_size=2), row_numbers, max_size=2),
    row_numbers,
)
row_oids = st.one_of(
    st.integers(min_value=-(2**63) - 2, max_value=2**63 + 1),
    st.sampled_from([2**63, -(2**63) - 1, 2**63 - 1, -(2**63)]),
    row_numbers,
)
update_rows = st.one_of(
    st.tuples(row_oids, row_points, row_points).map(list),
    st.lists(st.one_of(row_oids, row_points), max_size=4),
)


def raw_line(rows) -> str:
    line = json.dumps({"v": 4, "t": "updates", "rows": rows})
    for marker, spelling in RAW_NUMBERS.items():
        line = line.replace(json.dumps(marker), spelling)
    return line


class TestUpdatesDecodeAgreesWithRows:
    @given(st.lists(update_rows, max_size=6))
    def test_columnar_decode_equals_the_row_reference(self, rows):
        line = raw_line(rows)
        try:
            expected = reference_updates(json.loads(line)["rows"])
        except (ValueError, TypeError, OverflowError):
            with pytest.raises(wire.WireError):
                wire.decode_frame(line)
            return
        assert wire.decode_frame(line).batch == expected

    @given(st.lists(object_updates, max_size=8))
    def test_decode_inverts_encode_updates_flat(self, updates):
        batch = FlatUpdateBatch.from_updates(updates)
        line = wire.encode_updates_flat(batch)
        assert line == wire.encode_frame(wire.Updates(batch))
        assert wire.decode_frame(line).batch == batch


# ----------------------------------------------------------------------
# Inbound: binary delta records
# ----------------------------------------------------------------------


def record(ts=3, delta=None) -> bytearray:
    """A valid record to damage (two entries, ts set, reordered)."""
    if delta is None:
        delta = ResultDelta(7, ((0.5, 3),), (), True, ((0.5, 3), (0.75, 4)))
    return bytearray(wire.encode_delta(ts, delta))


def raises_only_wire_error(data) -> None:
    with pytest.raises(wire.WireError):
        wire.decode_frame(bytes(data))


class TestBinaryRecordRejected:
    @given(st.integers(min_value=1, max_value=35))
    def test_truncated_header(self, size):
        raises_only_wire_error(record()[:size])

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_length_field_that_disagrees(self, length):
        data = record()
        if length == len(data) - 5:
            return
        data[1:5] = length.to_bytes(4, "little")
        raises_only_wire_error(data)

    @given(st.integers(min_value=-3, max_value=3).filter(bool))
    def test_length_that_disagrees_with_the_counts(self, entries):
        """The length field matches the bytes, not the counts."""
        data = record()
        if entries > 0:
            data += bytes(16 * entries)
        else:
            del data[16 * entries :]
        data[1:5] = (len(data) - 5).to_bytes(4, "little")
        raises_only_wire_error(data)

    @given(st.integers(min_value=0, max_value=255).filter(lambda t: t != 1))
    def test_unknown_tag(self, tag):
        data = record()
        data[6] = tag
        with pytest.raises(wire.WireError, match="tag"):
            wire.decode_frame(bytes(data))

    @given(st.integers(min_value=8, max_value=255))
    def test_flag_bits_out_of_range(self, flags):
        data = record()
        data[7] = flags
        with pytest.raises(wire.WireError, match="flags"):
            wire.decode_frame(bytes(data))

    def test_ts_without_its_flag(self):
        data = record()
        data[7] &= ~1
        with pytest.raises(wire.WireError, match="ts"):
            wire.decode_frame(bytes(data))

    @given(
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.integers(min_value=0, max_value=2),
    )
    def test_non_finite_distance(self, bad, slot):
        data = record()
        struct.pack_into("<d", data, 36 + 8 * slot, bad)
        with pytest.raises(wire.WireError, match="non-finite"):
            wire.decode_frame(bytes(data))

    def test_finite_distances_whose_sum_overflows_still_decode(self):
        big = ResultDelta(1, (), (), False, ((1e308, 1), (1e308, 2)))
        assert wire.decode_frame(wire.encode_delta(0, big)).delta == big

    @given(st.binary(min_size=1, max_size=40))
    def test_trailing_bytes(self, tail):
        raises_only_wire_error(record() + tail)

    @given(st.binary(max_size=300))
    def test_random_bytes_after_the_marker(self, tail):
        decodes_or_rejects(b"\xff" + tail)

    @given(st.binary(min_size=36, max_size=36), st.binary(max_size=120))
    def test_random_header_with_a_consistent_length(self, header, tail):
        data = bytearray(b"\xff" + header[1:] + tail)
        data[1:5] = (len(data) - 5).to_bytes(4, "little")
        decodes_or_rejects(bytes(data))


# ----------------------------------------------------------------------
# Outbound: canonical bytes
# ----------------------------------------------------------------------


def reference_record(timestamp, delta) -> bytes:
    """The delta record spelled out independently of ``wire``'s packer:
    field by field, every width and byte order explicit."""
    entries = delta.incoming + delta.outgoing + delta.result
    flags = (
        (timestamp is not None) | delta.reordered << 1 | delta.terminated << 2
    )
    body = b"".join(
        [
            bytes([4, 1, flags]),
            (timestamp or 0).to_bytes(8, "little", signed=True),
            delta.qid.to_bytes(8, "little", signed=True),
            *(
                len(part).to_bytes(4, "little")
                for part in (delta.incoming, delta.outgoing, delta.result)
            ),
            *(struct.pack("<d", d) for d, _oid in entries),
            *(oid.to_bytes(8, "little", signed=True) for _d, oid in entries),
        ]
    )
    return b"\xff" + len(body).to_bytes(4, "little") + body


#: a mixed stream, pinned byte for byte: two delta records (the first
#: with no ts, terminated, empty ``in`` and ``result``; the second
#: reordered with empty ``in``/``out`` and a negative oid), then a JSON
#: ``lagged`` line.
GOLDEN_FRAMES = [
    wire.Delta(None, ResultDelta(5, (), ((0.25, 9),), False, (), True)),
    wire.Delta(7, ResultDelta(2, (), (), True, ((0.5, 3), (1.5, -4)), False)),
    wire.Lagged(dropped=2),
]
GOLDEN_BYTES = bytes.fromhex(
    "ff" "2f000000" "04" "01" "04"          # marker, length 47, v4, delta, term
    "0000000000000000" "0500000000000000"   # ts (absent), qid 5
    "00000000" "01000000" "00000000"        # |in| 0, |out| 1, |result| 0
    "000000000000d03f" "0900000000000000"   # 0.25, oid 9
    "ff" "3f000000" "04" "01" "03"          # marker, length 63, ts + reordered
    "0700000000000000" "0200000000000000"   # ts 7, qid 2
    "00000000" "00000000" "02000000"        # |in| 0, |out| 0, |result| 2
    "000000000000e03f" "000000000000f83f"   # 0.5, 1.5
    "0300000000000000" "fcffffffffffffff"   # oids 3, -4
) + b'{"v":4,"t":"lagged","dropped":2}\n'


class TestCanonicalBytes:
    @given(frames)
    def test_reencode_identity_for_every_frame(self, frame):
        encoded = wire.encode_frame(frame)
        assert wire.encode_frame(wire.decode_frame(encoded)) == encoded
        if type(encoded) is str:
            assert wire.encode_frame(wire.decode_frame(encoded.encode())) == encoded

    def test_golden_mixed_stream(self):
        assert b"".join(map(wire.frame_bytes, GOLDEN_FRAMES)) == GOLDEN_BYTES
        import io

        stream = io.BufferedReader(io.BytesIO(GOLDEN_BYTES))
        assert [wire.read_frame(stream) for _ in range(4)] == GOLDEN_FRAMES + [None]

    @given(binary_timestamps, binary_deltas)
    def test_delta_record_equals_reference_and_round_trips(self, ts, delta):
        data = wire.encode_delta(ts, delta)
        assert data == wire.encode_frame(wire.Delta(timestamp=ts, delta=delta))
        assert data == reference_record(ts, delta)
        frame = wire.decode_frame(data)
        assert frame.timestamp == ts and frame.delta == delta
        assert wire.encode_frame(frame) == data

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
        assert line == wire.encode_frame(wire.Updates(FlatUpdateBatch.from_updates(updates)))
        assert wire.encode_frame(wire.decode_frame(line)) == line
