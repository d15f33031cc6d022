"""Wire-protocol tests: round-trip identity for every frame type,
canonical re-encoding, the binary delta record's layout, and
version/type/id rejection."""

import base64
import io
import json
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import wire
from repro.api.queries import (
    ConstrainedKnnSpec,
    FilteredKnnSpec,
    KnnSpec,
    RangeSpec,
)
from repro.service.deltas import ResultDelta
from repro.updates import FlatUpdateBatch, ObjectUpdate, QueryUpdate, QueryUpdateKind

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
points = st.tuples(finite, finite)
oids = st.integers(min_value=0, max_value=2**40)
entries = st.lists(
    st.tuples(st.floats(min_value=0, max_value=1e6, allow_nan=False), oids),
    max_size=6,
).map(tuple)

object_updates = st.one_of(
    st.builds(ObjectUpdate, oids, points, points),          # move
    st.builds(ObjectUpdate, oids, st.none(), points),       # appear
    st.builds(ObjectUpdate, oids, points, st.none()),       # disappear
)

query_updates = st.one_of(
    st.builds(
        QueryUpdate,
        oids,
        st.sampled_from([QueryUpdateKind.INSERT, QueryUpdateKind.MOVE]),
        points,
        st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
    ),
    st.builds(QueryUpdate, oids, st.just(QueryUpdateKind.TERMINATE)),
)

deltas = st.builds(
    ResultDelta,
    qid=oids,
    incoming=entries,
    outgoing=entries,
    reordered=st.booleans(),
    result=entries,
    terminated=st.booleans(),
)

tags = st.lists(
    st.text(min_size=1, max_size=8), min_size=0, max_size=3
).map(tuple)
nonempty_tags = st.lists(
    st.text(min_size=1, max_size=8), min_size=1, max_size=3
).map(tuple)

specs = st.one_of(
    st.builds(KnnSpec, point=points, k=st.integers(min_value=1, max_value=64)),
    st.builds(
        FilteredKnnSpec,
        point=points,
        k=st.integers(min_value=1, max_value=64),
        tags=nonempty_tags,
        region=st.one_of(
            st.none(),
            st.tuples(finite, finite, finite, finite).map(
                lambda t: (min(t[0], t[2]), min(t[1], t[3]),
                           max(t[0], t[2]), max(t[1], t[3]))
            ),
        ),
    ),
    st.builds(
        ConstrainedKnnSpec,
        point=points,
        region=st.tuples(finite, finite, finite, finite).map(
            lambda t: (min(t[0], t[2]), min(t[1], t[3]),
                       max(t[0], t[2]), max(t[1], t[3]))
        ),
        k=st.integers(min_value=1, max_value=64),
    ),
    st.builds(
        RangeSpec,
        region=st.tuples(finite, finite, finite, finite).map(
            lambda t: (min(t[0], t[2]), min(t[1], t[3]),
                       max(t[0], t[2]), max(t[1], t[3]))
        ),
    ),
)

timestamps = st.one_of(st.none(), st.integers(min_value=0, max_value=2**40))

# Telemetry values keep their JSON number type (a counter stays int);
# mixing both shapes here is what pins that through the round trip.
metric_values = st.one_of(
    st.integers(min_value=0, max_value=2**40),
    st.floats(min_value=0, max_value=1e9, allow_nan=False),
)
metric_rows = st.lists(
    st.tuples(st.text(min_size=1, max_size=30), metric_values), max_size=6
).map(tuple)
wall_clock = st.floats(min_value=0, max_value=2e9, allow_nan=False)

delta_frames = st.builds(wire.Delta, timestamp=timestamps, delta=deltas)

#: every frame type but :class:`wire.Delta` (the one binary frame).
json_frames = st.one_of(
    st.builds(wire.Hello, client=st.text(max_size=20)),
    st.builds(
        wire.Welcome,
        server=st.text(max_size=20),
        versions=st.lists(
            st.integers(min_value=1, max_value=9), min_size=1, max_size=3
        ).map(tuple),
    ),
    st.builds(
        wire.Updates,
        st.lists(object_updates, max_size=5).map(FlatUpdateBatch.from_updates),
    ),
    st.builds(wire.QueryOp, update=query_updates),
    st.builds(wire.Tick, timestamp=timestamps),
    st.builds(
        wire.Ticked,
        timestamp=timestamps,
        changed=st.lists(oids, max_size=5).map(tuple),
    ),
    st.builds(
        wire.Register,
        spec=specs,
        qid=st.one_of(st.none(), oids),
        watch=st.booleans(),
    ),
    st.builds(wire.Registered, qid=oids, result=entries),
    st.builds(wire.Move, qid=oids, point=points),
    st.builds(wire.Terminate, qid=oids),
    st.builds(wire.GetSnapshot, qid=oids),
    st.builds(wire.Snapshot, qid=oids, result=entries),
    st.builds(wire.Subscribe, qid=oids, include_unchanged=st.booleans()),
    st.builds(wire.Unsubscribe, qid=oids),
    st.builds(wire.Tags, rows=st.lists(st.tuples(oids, tags), max_size=4).map(tuple)),
    st.builds(wire.Sync, objects=st.booleans(), watch=st.booleans()),
    st.builds(
        wire.SyncObjects,
        rows=st.lists(
            st.tuples(oids, points, st.one_of(st.none(), tags)), max_size=4
        ).map(tuple),
    ),
    st.builds(wire.SyncQuery, qid=oids, spec=specs, result=entries),
    st.builds(
        wire.SyncDone,
        queries=st.integers(min_value=0, max_value=2**20),
        objects=st.integers(min_value=0, max_value=2**20),
    ),
    st.builds(wire.Lagged, dropped=st.integers(min_value=1, max_value=2**20)),
    st.builds(
        wire.WatchMetrics,
        interval_ms=st.integers(min_value=0, max_value=60_000),
        alerts=st.booleans(),
    ),
    st.builds(wire.Metrics, timestamp=wall_clock, rows=metric_rows),
    st.builds(
        wire.Alert,
        level=st.sampled_from(["soft", "hard"]),
        rule=st.text(min_size=1, max_size=20),
        message=st.text(max_size=60),
        value=st.floats(min_value=0, max_value=1e9, allow_nan=False),
        cycle=st.integers(min_value=0, max_value=2**40),
        timestamp=wall_clock,
    ),
    st.builds(wire.Ok, op=st.sampled_from(["subscribe", "terminate"]),
              qid=st.one_of(st.none(), oids)),
    st.builds(wire.Error, message=st.text(max_size=40)),
    st.builds(wire.Bye),
)

frames = st.one_of(json_frames, delta_frames)


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------


class TestRoundTrip:
    @given(frames)
    def test_decode_encode_identity(self, frame):
        """encode -> decode reproduces the frame object exactly."""
        line = wire.encode_frame(frame)
        assert wire.decode_frame(line) == frame

    @given(frames)
    def test_encoding_is_canonical(self, frame):
        """decode -> encode reproduces the line byte for byte (what makes
        delta streams comparable across process boundaries)."""
        line = wire.encode_frame(frame)
        assert wire.encode_frame(wire.decode_frame(line)) == line

    @given(json_frames)
    def test_one_line_ndjson(self, frame):
        line = wire.encode_frame(frame)
        assert "\n" not in line
        assert line[:1] != chr(wire.BINARY_MARK)
        obj = json.loads(line)
        assert obj["v"] == wire.WIRE_VERSION
        assert isinstance(obj["t"], str)

    @given(json_frames)
    def test_bytes_accepted(self, frame):
        line = wire.encode_frame(frame)
        assert wire.decode_frame(line.encode("utf-8")) == frame

    @given(frames)
    def test_frame_bytes_is_what_read_frame_reads(self, frame):
        """``frame_bytes`` applies the framing rule: a delta is its
        record as is, any other frame its line plus the newline."""
        import io

        data = wire.frame_bytes(frame)
        encoded = wire.encode_frame(frame)
        if type(frame) is wire.Delta:
            assert data == encoded
        else:
            assert data == encoded.encode() + b"\n"
        stream = io.BufferedReader(io.BytesIO(data))
        assert [wire.read_frame(stream), wire.read_frame(stream)] == [frame, None]

    @given(delta_frames)
    def test_delta_is_one_binary_record(self, frame):
        record = wire.encode_frame(frame)
        assert type(record) is bytes
        assert record[0] == wire.BINARY_MARK
        assert int.from_bytes(record[1:5], "little") == len(record) - 5

    def test_every_frame_type_covered(self):
        """One hand-built example per frame type round-trips, and the
        example list covers the full :data:`wire.Frame` union."""
        import typing

        examples = [
            wire.Hello(client="c"),
            wire.Welcome(server="s", versions=(1,)),
            wire.Updates(FlatUpdateBatch.from_updates((ObjectUpdate(1, None, (0.5, 0.5)),))),
            wire.QueryOp(update=QueryUpdate(2, QueryUpdateKind.TERMINATE)),
            wire.Tick(timestamp=None),
            wire.Ticked(timestamp=4, changed=(1, 2)),
            wire.Register(spec=KnnSpec(point=(0.1, 0.2), k=3), qid=None),
            wire.Registered(qid=9, result=((0.5, 1),)),
            wire.Move(qid=9, point=(0.3, 0.4)),
            wire.Terminate(qid=9),
            wire.GetSnapshot(qid=9),
            wire.Snapshot(qid=9, result=()),
            wire.Subscribe(qid=9, include_unchanged=True),
            wire.Unsubscribe(qid=9),
            wire.Delta(
                timestamp=None,
                delta=ResultDelta(9, (), (), False, (), terminated=True),
            ),
            wire.Tags(rows=((1, ("taxi",)), (2, ()))),
            wire.Sync(objects=True, watch=False),
            wire.SyncObjects(rows=((1, (0.5, 0.5), ("taxi",)), (2, (0.1, 0.2), None))),
            wire.SyncQuery(
                qid=9,
                spec=FilteredKnnSpec(point=(0.1, 0.2), k=2, tags=("taxi",)),
                result=((0.5, 1),),
            ),
            wire.SyncDone(queries=1, objects=2),
            wire.Lagged(dropped=7),
            wire.WatchMetrics(interval_ms=500, alerts=True),
            wire.Metrics(
                timestamp=12.5,
                rows=(("repro_ticks_total", 42), ("repro_depth", 0.5)),
            ),
            wire.Alert(
                level="soft",
                rule="drop_rate_spike",
                message="buffer dropped 25.0% of offered events",
                value=0.25,
                cycle=17,
                timestamp=12.5,
            ),
            wire.Ok(op="subscribe", qid=9),
            wire.Error(message="boom"),
            wire.Bye(),
        ]
        assert {type(f) for f in examples} == set(typing.get_args(wire.Frame))
        for frame in examples:
            assert wire.decode_frame(wire.encode_frame(frame)) == frame


class TestDeltaFrames:
    def test_delta_record_layout(self):
        delta = ResultDelta(
            qid=7,
            incoming=((0.5, 3),),
            outgoing=((0.25, 9),),
            reordered=True,
            result=((0.5, 3), (0.75, 4)),
            terminated=False,
        )
        record = wire.encode_delta(11, delta)
        assert len(record) == 36 + 16 * 4
        assert struct.unpack("<BIBBBqqIII4d4q", record) == (
            0xFF, 31 + 16 * 4, 5, 1, 0b011, 11, 7, 1, 1, 2,
            0.5, 0.25, 0.5, 0.75,
            3, 9, 3, 4,
        )

    def test_install_delta_has_no_timestamp(self):
        delta = ResultDelta(
            qid=1, incoming=(), outgoing=(), reordered=False, result=(),
            terminated=True,
        )
        record = wire.encode_delta(None, delta)
        assert struct.unpack("<BIBBBqqIII", record)[4:6] == (0b100, 0)
        assert wire.decode_frame(record).timestamp is None

    def test_read_frame_splits_a_mixed_stream(self):
        import io

        delta = wire.Delta(3, ResultDelta(1, ((0.5, 2),), (), False, ((0.5, 2),)))
        lagged = wire.Lagged(dropped=2)
        stream = io.BufferedReader(
            io.BytesIO(
                wire.frame_bytes(delta)
                + b"\n"  # a blank line between frames is skipped
                + wire.frame_bytes(lagged)
                + b"\r\n \t\n"  # and so are whitespace-only lines
                + wire.frame_bytes(delta)
                + b" " + wire.frame_bytes(lagged)[:-1] + b"\r\n"
            )
        )
        assert [wire.read_frame(stream) for _ in range(5)] == [
            delta, lagged, delta, lagged, None
        ]

    def test_read_frame_refuses_a_record_cut_short_or_oversized(self):
        import io

        record = wire.encode_delta(3, ResultDelta(1, (), (), False, ((0.5, 2),)))
        for data in (record[:-1], record[:3]):
            with pytest.raises(wire.WireError, match="length|truncated"):
                wire.read_frame(io.BufferedReader(io.BytesIO(data)))
        oversized = b"\xff" + (wire.MAX_RECORD_BYTES + 1).to_bytes(4, "little")
        with pytest.raises(wire.WireError, match="exceeds"):
            wire.read_frame(io.BufferedReader(io.BytesIO(oversized)))


class TestIdsFitSigned64Bit:
    """Every id a client hands the server, and the tick timestamp that
    stamps a cycle's deltas, must fit the binary delta's ``i64`` fields,
    or the frame is refused whole at decode."""

    FIT = [-(2**63), 2**63 - 1]
    UNFIT = [2**63, -(2**63) - 1, 2**64]

    @staticmethod
    def lines(i):
        return [
            '{"v":5,"t":"query","qid":%d,"op":"terminate"}' % i,
            '{"v":5,"t":"register","spec":{"type":"knn","point":[0.5,0.5],'
            '"k":1},"qid":%d,"watch":true}' % i,
            '{"v":5,"t":"move","qid":%d,"point":[0.5,0.5]}' % i,
            '{"v":5,"t":"terminate","qid":%d}' % i,
            '{"v":5,"t":"subscribe","qid":%d,"include_unchanged":false}' % i,
            '{"v":5,"t":"unsubscribe","qid":%d}' % i,
            '{"v":5,"t":"tags","rows":[[%d,["taxi"]]]}' % i,
            '{"v":5,"t":"get_snapshot","qid":%d}' % i,
            '{"v":5,"t":"tick","ts":%d}' % i,
        ]

    @staticmethod
    def updates_line(oid):
        """An ``updates`` frame whose second row carries ``oid``: its oid
        column is i64 by layout, so the oid travels as its 8 bytes."""
        block = b"".join(
            [
                (1).to_bytes(8, "little", signed=True),
                oid.to_bytes(8, "little", signed=True),
                bytes(16),                                   # old x
                bytes(16),                                   # old y
                struct.pack("<2d", 0.5, 0.1),                # new x
                struct.pack("<2d", 0.5, 0.2),                # new y
                b"\x01\x01",                                 # appear
                b"\x00\x00",                                 # disappear
            ]
        )
        cols = base64.b64encode(block).decode()
        return '{"v":5,"t":"updates","n":2,"cols":"%s"}' % cols

    @pytest.mark.parametrize("value", FIT)
    def test_ids_at_the_bounds_decode(self, value):
        for line in self.lines(value):
            wire.decode_frame(line)
        batch = wire.decode_frame(self.updates_line(value)).batch
        assert list(batch.oids) == [1, value]

    @pytest.mark.parametrize("value", UNFIT)
    def test_ids_past_the_bounds_are_refused(self, value):
        for line in self.lines(value):
            with pytest.raises(wire.WireError, match="signed 64-bit"):
                wire.decode_frame(line)
        # An updates frame has no way to spell such an oid: the column
        # refuses it before a byte is packed, and a client never sends it.
        with pytest.raises(OverflowError):
            self.updates_line(value)
        with pytest.raises(OverflowError):
            wire.encode_updates_flat(
                FlatUpdateBatch.from_updates([ObjectUpdate(value, None, (0.1, 0.2))])
            )

    @pytest.mark.parametrize("value", UNFIT)
    def test_encode_delta_names_the_id_that_does_not_fit(self, value):
        cases = [
            ("ts", value, ResultDelta(1, (), (), False, ())),
            ("qid", 0, ResultDelta(value, (), (), False, ())),
            ("oid", 0, ResultDelta(1, (), ((0.5, value),), False, ())),
        ]
        for name, ts, delta in cases:
            with pytest.raises(wire.WireError, match=f"{name} {value}"):
                wire.encode_delta(ts, delta)


# ----------------------------------------------------------------------
# Rejection
# ----------------------------------------------------------------------


class TestRejection:
    def test_unknown_version_rejected(self):
        line = wire.encode_frame(wire.Tick(timestamp=3)).replace(
            '"v":5', '"v":6', 1
        )
        with pytest.raises(wire.WireError, match="unsupported wire version"):
            wire.decode_frame(line)

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_v1_to_v4_frames_rejected(self, version):
        """v4 reshaped the delta frame and v5 the updates frame, so older
        lines no longer decode: an older peer is refused at its first
        frame."""
        for frame in (wire.Tick(timestamp=3), wire.Sync(objects=True)):
            line = wire.encode_frame(frame).replace(
                '"v":5', f'"v":{version}', 1
            )
            with pytest.raises(wire.WireError, match="unsupported wire version"):
                wire.decode_frame(line)

    def test_binary_record_obeys_the_version_gate(self):
        record = bytearray(
            wire.encode_delta(1, ResultDelta(1, (), (), False, ()))
        )
        for version in (3, 4):
            record[5] = version
            with pytest.raises(wire.WireError, match="unsupported wire version"):
                wire.decode_frame(bytes(record))

    def test_json_delta_is_no_longer_a_frame(self):
        with pytest.raises(wire.WireError, match="unknown frame type 'delta'"):
            wire.decode_frame(
                '{"v":5,"t":"delta","ts":1,"qid":1,"in":[],"out":[],'
                '"reordered":false,"result":[],"terminated":false}'
            )

    def test_metrics_values_keep_number_type(self):
        """Int counters stay int through decode → canonical re-encode."""
        line = '{"v":5,"t":"metrics","ts":1.5,"rows":[["a",7],["b",0.5]]}'
        frame = wire.decode_frame(line)
        assert frame.rows == (("a", 7), ("b", 0.5))
        assert type(frame.rows[0][1]) is int
        assert type(frame.rows[1][1]) is float
        assert wire.encode_frame(frame) == line

    def test_missing_version_rejected(self):
        with pytest.raises(wire.WireError, match="unsupported wire version"):
            wire.decode_frame('{"t":"tick","ts":0}')

    @given(json_frames)
    def test_future_version_rejected_for_every_frame(self, frame):
        obj = json.loads(wire.encode_frame(frame))
        obj["v"] = 99
        with pytest.raises(wire.WireError, match="unsupported wire version"):
            wire.decode_frame(json.dumps(obj))

    def test_unknown_type_rejected(self):
        with pytest.raises(wire.WireError, match="unknown frame type"):
            wire.decode_frame('{"v":5,"t":"frobnicate"}')

    def test_malformed_json_rejected(self):
        with pytest.raises(wire.WireError, match="malformed frame"):
            wire.decode_frame("{not json")

    def test_non_object_rejected(self):
        with pytest.raises(wire.WireError, match="not an object"):
            wire.decode_frame("[1,2,3]")

    def test_bad_shape_rejected(self):
        with pytest.raises(wire.WireError, match="bad 'move' frame"):
            wire.decode_frame('{"v":5,"t":"move","qid":1}')

    def test_unknown_spec_type_rejected(self):
        with pytest.raises(wire.WireError, match="bad 'register' frame"):
            wire.decode_frame(
                '{"v":5,"t":"register","spec":{"type":"voronoi"},"qid":null,'
                '"watch":true}'
            )


# ----------------------------------------------------------------------
# The packed updates frame
# ----------------------------------------------------------------------


def updates_frame(batch) -> dict:
    return json.loads(wire.encode_updates_flat(batch))


class TestPackedUpdates:
    BATCH = FlatUpdateBatch.from_updates(
        [
            ObjectUpdate(0x0102030405060708, (0.25, 0.5), (0.75, 1.0)),
            ObjectUpdate(-2, None, (0.125, 0.375)),
            ObjectUpdate(3, (0.5, 0.5), None),
        ]
    )

    def test_frame_shape(self):
        obj = updates_frame(self.BATCH)
        assert list(obj) == ["v", "t", "n", "cols"]
        assert (obj["v"], obj["t"], obj["n"]) == (wire.WIRE_VERSION, "updates", 3)
        assert len(obj["cols"]) == 56 * 3 and "=" not in obj["cols"]

    def test_block_is_little_endian_columns(self):
        """The block's first 8 bytes are the first oid, little-endian,
        on every host; then each column follows whole."""
        block = base64.b64decode(updates_frame(self.BATCH)["cols"])
        assert len(block) == 42 * 3
        assert block[:8] == bytes([8, 7, 6, 5, 4, 3, 2, 1])
        assert struct.unpack("<3q", block[:24]) == (0x0102030405060708, -2, 3)
        assert struct.unpack("<3d", block[24:48]) == (0.25, 0.0, 0.5)
        assert struct.unpack("<3d", block[72:96]) == (0.75, 0.125, 0.0)
        assert block[120:] == b"\x00\x01\x00" + b"\x00\x00\x01"

    def test_big_endian_host_swaps_the_wide_columns_and_round_trips(self, monkeypatch):
        """On a big-endian host the 8-byte columns are byte-swapped on
        the way out and back; simulated here by swapping a little-endian
        host's native columns."""
        import repro.updates as updates

        native = self.BATCH.column_bytes()
        monkeypatch.setattr(updates, "_SWAP", True)
        swapped = self.BATCH.column_bytes()
        assert swapped[:8] == native[:8][::-1]
        assert swapped[-6:] == native[-6:]  # masks are single bytes
        assert FlatUpdateBatch.from_column_bytes(3, swapped) == self.BATCH

    def test_empty_frame(self):
        line = wire.encode_updates_flat(FlatUpdateBatch(0))
        assert line == '{"v":5,"t":"updates","n":0,"cols":""}'
        assert wire.decode_frame(line).batch == FlatUpdateBatch(0)

    def test_row_count_over_the_limit_is_refused_before_decoding(self):
        """``n = 10**12`` would ask for 42 TB: it is refused on the
        count alone, before the (absent) columns are looked at."""
        for n in (10**12, wire.MAX_UPDATE_ROWS + 1):
            line = '{"v":5,"t":"updates","n":%d,"cols":""}' % n
            with pytest.raises(wire.WireError, match="row count"):
                wire.decode_frame(line)


class TestLineLimit:
    class Flood(io.RawIOBase):
        """A peer sending ``size`` bytes without a newline; counts what
        was read."""

        def __init__(self, size):
            self.left = size
            self.served = 0

        def readable(self):
            return True

        def readinto(self, buf):
            n = min(len(buf), self.left)
            buf[:n] = b"x" * n
            self.left -= n
            self.served += n
            return n

    def test_an_over_long_line_is_refused_without_reading_it_all(
        self, monkeypatch
    ):
        monkeypatch.setattr(wire, "MAX_LINE_BYTES", 1 << 16)
        raw = self.Flood(1 << 20)
        with pytest.raises(wire.WireError, match="exceeds"):
            wire.read_frame(io.BufferedReader(raw, buffer_size=4096))
        assert raw.served <= (1 << 16) + 4096

    def test_a_line_at_the_limit_is_read(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_LINE_BYTES", 64)
        line = wire.frame_bytes(wire.Error(message="m" * 30))
        padded = line[:-1] + b" " * (64 - len(line)) + b"\n"
        assert len(padded) == 64
        stream = io.BufferedReader(io.BytesIO(padded + padded))
        assert wire.read_frame(stream) == wire.Error(message="m" * 30)
        assert wire.read_frame(stream) == wire.Error(message="m" * 30)
        too_long = io.BufferedReader(io.BytesIO(b" " + padded))
        with pytest.raises(wire.WireError, match="exceeds"):
            wire.read_frame(too_long)

    def test_every_frame_the_package_encodes_fits(self):
        """The largest updates frame, and a million-entry result line."""
        largest = len('{"v":5,"t":"updates","n":%d,"cols":""}\n' % wire.MAX_UPDATE_ROWS)
        assert largest + 56 * wire.MAX_UPDATE_ROWS <= wire.MAX_LINE_BYTES
        entry = len(json.dumps([0.12345678901234568, 2**40])) + 1
        assert 10**6 * entry < wire.MAX_LINE_BYTES


# ----------------------------------------------------------------------
# register specs
# ----------------------------------------------------------------------


class TestRegisterSpecValidated:
    @staticmethod
    def register(spec: str) -> str:
        return '{"v":5,"t":"register","spec":%s,"qid":null,"watch":true}' % spec

    @pytest.mark.parametrize(
        "spec",
        [
            '{"type":"knn","point":[1e999,0.5],"k":1}',
            '{"type":"knn","point":[0.5,-1e999],"k":1}',
            '{"type":"constrained","point":[1e999,0.5],"region":[0,0,1,1],"k":1}',
            '{"type":"constrained","point":[0.5,0.5],"region":[0,0,1e999,1],"k":1}',
            '{"type":"range","region":[-1e999,0,1,1]}',
            '{"type":"filtered","point":[0.5,1e999],"k":1,"tags":["a"],"region":null}',
            '{"type":"filtered","point":[0.5,0.5],"k":1,"tags":["a"],'
            '"region":[0,0,1,1e999]}',
        ],
    )
    def test_non_finite_point_or_bound(self, spec):
        with pytest.raises(wire.WireError, match="non-finite"):
            wire.decode_frame(self.register(spec))

    @pytest.mark.parametrize("k", ["2.9", "2.0", "0", "-3", "true", '"2"', "null"])
    def test_k_must_be_a_positive_json_integer(self, k):
        for kind in ("knn", "constrained", "filtered"):
            spec = {
                "knn": '{"type":"knn","point":[0.5,0.5],"k":%s}',
                "constrained": '{"type":"constrained","point":[0.5,0.5],'
                '"region":[0,0,1,1],"k":%s}',
                "filtered": '{"type":"filtered","point":[0.5,0.5],"k":%s,'
                '"tags":["a"],"region":null}',
            }[kind] % k
            with pytest.raises(wire.WireError, match="bad 'register' frame"):
                wire.decode_frame(self.register(spec))

    def test_valid_specs_still_decode(self):
        frame = wire.decode_frame(
            self.register('{"type":"knn","point":[0.5,0],"k":3}')
        )
        assert frame.spec == KnnSpec(point=(0.5, 0.0), k=3)
        frame = wire.decode_frame(self.register('{"type":"knn","point":[0.5,0]}'))
        assert frame.spec == KnnSpec(point=(0.5, 0.0), k=1)
