"""Property tests for the wire codec's two boundaries.

Inbound: :func:`repro.api.wire.decode_frame` is the one place outside
data enters every endpoint (server, ``Client``, ``SocketFeed``), and
each of them catches exactly :class:`WireError` (a ``ValueError``) — so
whatever the line or record holds, nothing else may escape.  Outbound:
every frame the module produces re-encodes byte for byte after a
decode, and the binary delta record is pinned twice — by golden bytes
and by an independent little-endian reference packer.
"""

import base64
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
from repro.updates import FlatUpdateBatch
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


def reference_block(rows) -> bytes:
    """The packed column block spelled out independently of ``wire`` and
    :meth:`FlatUpdateBatch.column_bytes`: rows ``(oid, ox, oy, nx, ny,
    appear, disappear)``, each column packed little-endian in turn."""
    n = len(rows)
    cols = list(zip(*rows)) if rows else [()] * 7
    return b"".join(
        [
            struct.pack(f"<{n}q", *cols[0]),
            *(struct.pack(f"<{n}d", *col) for col in cols[1:5]),
            bytes(cols[5]),
            bytes(cols[6]),
        ]
    )


def packed_line(block: bytes, **fields) -> str:
    """An ``updates`` line carrying ``block``; ``fields`` override ``n``
    or ``cols`` as they are."""
    obj = {
        "v": 5,
        "t": "updates",
        "n": len(block) // 42,
        "cols": base64.b64encode(block).decode(),
    }
    obj.update(fields)
    return json.dumps(obj)


def two_rows_with(column: int, value) -> bytes:
    """Two good rows, the second with ``column`` set to ``value``."""
    rows = [[5, 0.1, 0.2, 0.3, 0.4, 0, 0], [6, 0.5, 0.6, 0.7, 0.8, 0, 0]]
    rows[1][column] = value
    return reference_block(rows)


GOOD_BLOCK = two_rows_with(5, 1)
GOOD_COLS = base64.b64encode(GOOD_BLOCK).decode()

#: one packed ``updates`` line per way to damage the frame; each must
#: raise WireError and nothing else.
PACKED_ESCAPES = [
    packed_line(GOOD_BLOCK, cols="*" + GOOD_COLS[1:]),            # bad alphabet
    packed_line(GOOD_BLOCK, cols=GOOD_COLS[:-8] + "\u00e9" + GOOD_COLS[-7:]),
    packed_line(GOOD_BLOCK, cols=GOOD_COLS[:-2] + "=="),          # stray padding
    packed_line(GOOD_BLOCK, cols=GOOD_COLS[:50] + "=" + GOOD_COLS[51:]),
    packed_line(GOOD_BLOCK, cols=GOOD_COLS[:-4]),                 # length != 56n
    packed_line(GOOD_BLOCK, cols=GOOD_COLS + "AAAA"),
    packed_line(GOOD_BLOCK, n=3),
    packed_line(GOOD_BLOCK, n=-2),                                # n not a count
    packed_line(GOOD_BLOCK, n=2.0),
    packed_line(GOOD_BLOCK, n="2"),
    packed_line(GOOD_BLOCK, n=True),
    packed_line(GOOD_BLOCK, n=None),
    packed_line(GOOD_BLOCK, cols=7),
    '{"v":5,"t":"updates","n":2}',
    '{"v":5,"t":"updates","rows":[[1,null,[0.5,0.5]]]}',          # the v4 shape
    packed_line(two_rows_with(5, 2)),                              # mask byte 2
    packed_line(two_rows_with(6, 2)),
    packed_line(reference_block([[5, 0.1, 0.2, 0.3, 0.4, 1, 1]])),  # both masks
    *(
        packed_line(two_rows_with(column, value))                 # each coordinate
        for column in (1, 2, 3, 4)
        for value in (math.nan, math.inf, -math.inf)
    ),
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
                 "reordered", "terminated", "queries", "objects", "value",
                 "n", "cols"]
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
            '{"v":5,"t":"tick","ts":1e999}',          # int(inf)
            '{"v":5,"t":"move","qid":1e999,"point":[0,0]}',
            '{"v":5,"t":"move","qid":1,"point":[' + "9" * 400 + ',0]}',
            '{"v":5,"t":"tick","ts":' + "9" * 5000 + "}",  # digit limit
            '{"v":5,"t":"register","spec":7,"qid":null,"watch":true}',
            "[" * 100_000,                                # parser stack
            b"\xff\xfe{}",                                # not utf-8
            # 1e999 is a JSON float literal that parses to inf.
            '{"v":5,"t":"move","qid":1,"point":[1e999,0.5]}',
            '{"v":5,"t":"register","spec":{"type":"knn","point":[1e999,0.5],'
            '"k":1},"qid":null,"watch":true}',
            '{"v":5,"t":"register","spec":{"type":"knn","point":[0.5,0.5],'
            '"k":2.9},"qid":null,"watch":true}',
            *PACKED_ESCAPES,
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
            '{"v":5,"t":"updates","n":%s,"cols":""}',
            '{"v":5,"t":"move","qid":1,"point":[0.5,%s]}',
            '{"v":5,"t":"metrics","ts":%s,"rows":[]}',
            '{"v":5,"t":"bye","extra":%s}',
        ):
            with pytest.raises(wire.WireError, match="non-finite"):
                wire.decode_frame(line.replace("%s", constant))


# ----------------------------------------------------------------------
# Inbound: the packed updates frame
# ----------------------------------------------------------------------


def reference_updates(n, cols) -> FlatUpdateBatch:
    """The packed frame's decode and checks, restated with ``struct``
    and per-value loops: raises ``ValueError`` wherever the frame must
    be refused."""
    if type(n) is not int or not 0 <= n <= wire.MAX_UPDATE_ROWS:
        raise ValueError("row count")
    if type(cols) is not str or len(cols) != 56 * n:
        raise ValueError("length")
    if any(c not in B64_ALPHABET for c in cols):
        raise ValueError("alphabet or padding")
    block = base64.b64decode(cols)
    oids = struct.unpack_from(f"<{n}q", block)
    coords = [struct.unpack_from(f"<{n}d", block, 8 * n * (1 + i)) for i in range(4)]
    appear = block[40 * n : 41 * n]
    disappear = block[41 * n :]
    for a, d in zip(appear, disappear):
        if a > 1 or d > 1 or a and d:
            raise ValueError("mask")
    for col in coords:
        for value in col:
            if not math.isfinite(value):
                raise ValueError("non-finite")
    return FlatUpdateBatch(0, oids, *coords, appear, disappear)


B64_ALPHABET = set(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
)

#: every 64-bit pattern a coordinate cell can hold, NaN and ±inf included.
any_f64 = st.floats(allow_nan=True, allow_infinity=True)
packed_rows = st.tuples(
    i64, any_f64, any_f64, any_f64, any_f64,
    st.sampled_from([0, 0, 0, 1, 2, 255]), st.sampled_from([0, 0, 0, 1, 2]),
)
finite_rows = st.tuples(
    i64, distances, distances, distances, distances,
    st.integers(0, 1), st.integers(0, 1),
).filter(lambda row: not (row[5] and row[6]))


class TestPackedUpdatesDecode:
    @given(st.lists(packed_rows, max_size=6))
    def test_decode_equals_the_reference_on_any_block(self, rows):
        """Any 42n bytes: the frame decodes to exactly the reference
        columns, or both refuse it (masks other than 0/1, a row with
        both masks, a non-finite coordinate anywhere)."""
        line = packed_line(reference_block(rows))
        obj = json.loads(line)
        try:
            expected = reference_updates(obj["n"], obj["cols"])
        except ValueError:
            with pytest.raises(wire.WireError):
                wire.decode_frame(line)
            return
        assert wire.decode_frame(line).batch == expected

    @given(
        st.lists(finite_rows, max_size=4),
        st.one_of(
            st.integers(min_value=-3, max_value=10**13),
            st.floats(allow_nan=False),
            st.text(max_size=3),
            st.none(),
        ),
        st.one_of(st.none(), st.text(max_size=240)),
    )
    def test_count_and_cols_agree_with_the_reference(self, rows, n, cols):
        """A valid block under a wrong ``n``, or ``cols`` replaced by
        arbitrary text: the decoder refuses exactly what the reference
        refuses."""
        fields = {"n": n} if cols is None else {"n": n, "cols": cols}
        line = packed_line(reference_block(rows), **fields)
        obj = json.loads(line)
        try:
            expected = reference_updates(obj["n"], obj["cols"])
        except (ValueError, struct.error):
            with pytest.raises(wire.WireError):
                wire.decode_frame(line)
            return
        assert wire.decode_frame(line).batch == expected

    @given(st.lists(finite_rows, max_size=8))
    def test_round_trip_of_any_batch(self, rows):
        """``decode_frame(encode_updates_flat(b)).batch == b`` and the
        line re-encodes byte for byte; the encoder's block is the
        reference block."""
        batch = FlatUpdateBatch(0, *map(list, zip(*rows))) if rows else FlatUpdateBatch(0)
        line = wire.encode_updates_flat(batch)
        assert line == packed_line(reference_block(rows)).replace(" ", "")
        assert line == wire.encode_frame(wire.Updates(batch))
        assert wire.decode_frame(line).batch == batch
        assert wire.encode_frame(wire.decode_frame(line)) == line

    @given(st.lists(object_updates, max_size=8))
    def test_decode_inverts_encode_updates_flat(self, updates):
        batch = FlatUpdateBatch.from_updates(updates)
        line = wire.encode_updates_flat(batch)
        assert line == wire.encode_frame(wire.Updates(batch))
        assert wire.decode_frame(line).batch == batch
        assert wire.decode_frame(line).batch.to_object_updates() == tuple(updates)

    def test_finite_coordinates_whose_sum_overflows_still_decode(self):
        rows = [[1, 1e308, 0.0, 1e308, 0.0, 0, 0], [2, 1e308, 0.0, 1e308, 0.0, 0, 0]]
        line = packed_line(reference_block(rows))
        assert list(wire.decode_frame(line).batch.old_xs) == [1e308, 1e308]


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
            bytes([5, 1, flags]),
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
    "ff" "2f000000" "05" "01" "04"          # marker, length 47, v5, delta, term
    "0000000000000000" "0500000000000000"   # ts (absent), qid 5
    "00000000" "01000000" "00000000"        # |in| 0, |out| 1, |result| 0
    "000000000000d03f" "0900000000000000"   # 0.25, oid 9
    "ff" "3f000000" "05" "01" "03"          # marker, length 63, ts + reordered
    "0700000000000000" "0200000000000000"   # ts 7, qid 2
    "00000000" "00000000" "02000000"        # |in| 0, |out| 0, |result| 2
    "000000000000e03f" "000000000000f83f"   # 0.5, 1.5
    "0300000000000000" "fcffffffffffffff"   # oids 3, -4
) + b'{"v":5,"t":"lagged","dropped":2}\n'


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
