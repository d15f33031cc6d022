"""Update-stream vocabulary shared by monitors, the engine and the workload
generators.

The paper models the input as a stream of location updates: "An update from
object p is a tuple ``<p.id, x_old, y_old, x_new, y_new>``, implying that p
moves from ``(x_old, y_old)`` to ``(x_new, y_new)``" (Section 3).  We extend
the tuple with two boundary cases the evaluation needs:

* *appearance* — ``old is None`` (a Brinkhoff-style object enters the
  network at a node);
* *disappearance* — ``new is None`` (the object completes its path and goes
  off-line; Section 4.2 notes CPM "trivially deals with this situation by
  treating off-line NNs as outgoing ones").

Query updates follow Figure 3.9: a query may be ``insert``-ed, ``move``-d
(handled as a termination plus a re-insertion) or ``terminate``-d.

One engine encoding, one convenience encoding: every monitor's cycle
iterates the columnar :class:`FlatUpdateBatch` (parallel
``oids``/``old_xs``/``old_ys``/``new_xs``/``new_ys`` arrays plus
appearance/disappearance masks — what the ingestion tier assembles and
the shard transport ships); the row-oriented :class:`UpdateBatch` (one
:class:`ObjectUpdate` dataclass per row) is the hand-written form, and
the row entry points (``process``, ``process_batch``) columnarize it
with :meth:`FlatUpdateBatch.from_updates` before the one cycle runs.
Conversion between the two is lossless in both directions.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from enum import Enum

from repro.geometry.points import Point

#: the packed column block (:meth:`FlatUpdateBatch.column_bytes`) is
#: little-endian; on a big-endian host its 8-byte columns are swapped.
_SWAP = sys.byteorder != "little"


@dataclass(frozen=True, slots=True)
class ObjectUpdate:
    """One object location update ``<oid, old, new>``.

    ``old is None`` means the object appears; ``new is None`` means it
    disappears.  Both being ``None`` is invalid.
    """

    oid: int
    old: Point | None
    new: Point | None

    def __post_init__(self) -> None:
        if self.old is None and self.new is None:
            raise ValueError(f"update for object {self.oid} carries no location")

    @property
    def is_appearance(self) -> bool:
        return self.old is None

    @property
    def is_disappearance(self) -> bool:
        return self.new is None


class QueryUpdateKind(Enum):
    """The three query-stream events of Figure 3.9."""

    INSERT = "insert"
    MOVE = "move"
    TERMINATE = "terminate"


@dataclass(frozen=True, slots=True)
class QueryUpdate:
    """One query update.

    ``point`` and ``k`` are required for ``INSERT`` and ``MOVE``; they are
    ignored for ``TERMINATE``.
    """

    qid: int
    kind: QueryUpdateKind
    point: Point | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        if self.kind is not QueryUpdateKind.TERMINATE and self.point is None:
            raise ValueError(
                f"query update {self.qid}/{self.kind.value} requires a location"
            )


@dataclass(frozen=True, slots=True)
class UpdateBatch:
    """All updates arriving within one processing cycle (timestamp)."""

    timestamp: int
    object_updates: tuple[ObjectUpdate, ...] = field(default_factory=tuple)
    query_updates: tuple[QueryUpdate, ...] = field(default_factory=tuple)

    @property
    def size(self) -> int:
        return len(self.object_updates) + len(self.query_updates)


@dataclass(slots=True)
class FlatUpdateBatch:
    """Columnar (structure-of-arrays) encoding of one cycle's object updates.

    The row ``i`` encodes the tuple ``<oids[i], old_xs[i], old_ys[i],
    new_xs[i], new_ys[i]>`` of Section 3, with the two boundary cases
    carried as masks instead of ``None`` sentinels:

    * ``appear[i]`` — the object appears; ``old_xs[i]``/``old_ys[i]`` are
      meaningless placeholders (``0.0``);
    * ``disappear[i]`` — the object disappears; ``new_xs[i]``/``new_ys[i]``
      are placeholders.

    The layout exists for the update-handling hot path: a monitor's
    cycle iterates the parallel columns with one ``zip`` — plain floats,
    no per-update dataclass attribute reads and no position-tuple
    indexing (see ``CPMMonitor._apply_flat_rows``).  Conversion to and
    from the :class:`ObjectUpdate` vocabulary is lossless
    (:meth:`from_updates` / :meth:`to_object_updates` round-trip
    byte-identically), so both representations describe the same stream.

    The columns are buffer-backed: ``oids`` is an ``array('q')``, the four
    coordinate columns are ``array('d')`` and the two masks are
    ``bytearray`` (one byte per row, 0/1).  Each column therefore exposes
    its raw bytes through the buffer protocol — :meth:`column_buffers` —
    and the seven columns pack into one little-endian block
    (:meth:`column_bytes` / :meth:`from_column_bytes`), which is what
    ``ProcessShardExecutor`` ships to a shard as one
    ``multiprocessing.shared_memory`` block and what an ``updates`` wire
    frame carries in base64.  The constructor
    coerces plain lists, so literal construction in tests keeps working.

    Query updates ride along untouched — they are orders of magnitude
    rarer than object updates and never hot.
    """

    timestamp: int
    oids: array = field(default_factory=lambda: array("q"))
    old_xs: array = field(default_factory=lambda: array("d"))
    old_ys: array = field(default_factory=lambda: array("d"))
    new_xs: array = field(default_factory=lambda: array("d"))
    new_ys: array = field(default_factory=lambda: array("d"))
    appear: bytearray = field(default_factory=bytearray)
    disappear: bytearray = field(default_factory=bytearray)
    query_updates: tuple[QueryUpdate, ...] = ()

    def __post_init__(self) -> None:
        if type(self.oids) is not array:
            self.oids = array("q", self.oids)
        for name in ("old_xs", "old_ys", "new_xs", "new_ys"):
            col = getattr(self, name)
            if type(col) is not array:
                setattr(self, name, array("d", col))
        for name in ("appear", "disappear"):
            col = getattr(self, name)
            if type(col) is not bytearray:
                setattr(self, name, bytearray(col))
        n = len(self.oids)
        for name in ("old_xs", "old_ys", "new_xs", "new_ys", "appear", "disappear"):
            if len(getattr(self, name)) != n:
                raise ValueError(
                    f"column {name!r} holds {len(getattr(self, name))} rows, "
                    f"expected {n}"
                )

    def column_buffers(self) -> tuple[memoryview, ...]:
        """Raw byte views of the seven columns, in field order (``oids``,
        the four coordinate columns, the two masks), in the host's
        *native* byte order.

        Zero-copy: the views alias the live column buffers, so they must
        not be held across appends (an append may realloc the backing
        buffer).  For bytes that leave the process use
        :meth:`column_bytes`, which is little-endian on every host.
        """
        return (
            memoryview(self.oids).cast("B"),
            memoryview(self.old_xs).cast("B"),
            memoryview(self.old_ys).cast("B"),
            memoryview(self.new_xs).cast("B"),
            memoryview(self.new_ys).cast("B"),
            memoryview(self.appear),
            memoryview(self.disappear),
        )

    def column_bytes(self) -> bytes:
        """The packed column block: the seven columns back to back in
        :meth:`column_buffers` order, ``42 * n`` bytes (``oids`` as i64,
        the four coordinate columns as f64, the two masks as one byte
        per row), little-endian on every host.  The inverse of
        :meth:`from_column_bytes`."""
        if not _SWAP:
            return b"".join(self.column_buffers())
        swapped = []
        for col in (self.oids, self.old_xs, self.old_ys, self.new_xs, self.new_ys):
            col = array(col.typecode, col)
            col.byteswap()
            swapped.append(col)
        return b"".join([*swapped, self.appear, self.disappear])

    @classmethod
    def from_column_bytes(
        cls,
        n: int,
        buffer,
        timestamp: int = 0,
        query_updates: tuple[QueryUpdate, ...] = (),
    ) -> "FlatUpdateBatch":
        """Rebuild a batch from the packed column block of ``n`` rows
        (:meth:`column_bytes`: ``42 * n`` little-endian bytes), one
        ``frombytes`` per column."""
        view = memoryview(buffer)
        w = 8 * n
        cols = []
        off = 0
        for typecode in ("q", "d", "d", "d", "d"):
            col = array(typecode)
            col.frombytes(view[off : off + w])
            if _SWAP:
                col.byteswap()
            cols.append(col)
            off += w
        appear = bytearray(view[off : off + n])
        disappear = bytearray(view[off + n : off + 2 * n])
        return cls(
            timestamp,
            cols[0],
            cols[1],
            cols[2],
            cols[3],
            cols[4],
            appear,
            disappear,
            query_updates,
        )

    def __len__(self) -> int:
        return len(self.oids)

    def rows(self, start: int, stop: int) -> "FlatUpdateBatch":
        """The rows ``[start:stop)`` as a new batch (same timestamp, no
        query updates)."""
        return FlatUpdateBatch(
            self.timestamp,
            self.oids[start:stop],
            self.old_xs[start:stop],
            self.old_ys[start:stop],
            self.new_xs[start:stop],
            self.new_ys[start:stop],
            self.appear[start:stop],
            self.disappear[start:stop],
        )

    def extend(self, other: "FlatUpdateBatch") -> None:
        """Append ``other``'s rows, column by column (its timestamp and
        query updates are not taken)."""
        self.oids.extend(other.oids)
        self.old_xs.extend(other.old_xs)
        self.old_ys.extend(other.old_ys)
        self.new_xs.extend(other.new_xs)
        self.new_ys.extend(other.new_ys)
        self.appear.extend(other.appear)
        self.disappear.extend(other.disappear)

    @property
    def size(self) -> int:
        """Total updates in the batch (mirrors :attr:`UpdateBatch.size`)."""
        return len(self.oids) + len(self.query_updates)

    def append_move(
        self, oid: int, old_x: float, old_y: float, new_x: float, new_y: float
    ) -> None:
        """Append a plain movement row."""
        self.oids.append(oid)
        self.old_xs.append(old_x)
        self.old_ys.append(old_y)
        self.new_xs.append(new_x)
        self.new_ys.append(new_y)
        self.appear.append(False)
        self.disappear.append(False)

    def append_appear(self, oid: int, x: float, y: float) -> None:
        """Append an appearance row (old columns hold placeholders)."""
        self.oids.append(oid)
        self.old_xs.append(0.0)
        self.old_ys.append(0.0)
        self.new_xs.append(x)
        self.new_ys.append(y)
        self.appear.append(True)
        self.disappear.append(False)

    def append_disappear(self, oid: int, x: float, y: float) -> None:
        """Append a disappearance row (new columns hold placeholders)."""
        self.oids.append(oid)
        self.old_xs.append(x)
        self.old_ys.append(y)
        self.new_xs.append(0.0)
        self.new_ys.append(0.0)
        self.appear.append(False)
        self.disappear.append(True)

    @classmethod
    def from_updates(
        cls,
        object_updates: Iterable[ObjectUpdate],
        query_updates: Sequence[QueryUpdate] = (),
        timestamp: int = 0,
    ) -> "FlatUpdateBatch":
        """Columnarize a sequence of :class:`ObjectUpdate` rows."""
        batch = cls(timestamp=timestamp, query_updates=tuple(query_updates))
        for upd in object_updates:
            old = upd.old
            new = upd.new
            if old is None:
                batch.append_appear(upd.oid, new[0], new[1])
            elif new is None:
                batch.append_disappear(upd.oid, old[0], old[1])
            else:
                batch.append_move(upd.oid, old[0], old[1], new[0], new[1])
        return batch

    @classmethod
    def from_batch(cls, batch: UpdateBatch) -> "FlatUpdateBatch":
        """Columnarize a packaged :class:`UpdateBatch`."""
        return cls.from_updates(
            batch.object_updates, batch.query_updates, timestamp=batch.timestamp
        )

    def to_object_updates(self) -> tuple[ObjectUpdate, ...]:
        """Reconstruct the :class:`ObjectUpdate` rows (lossless)."""
        out: list[ObjectUpdate] = []
        append = out.append
        for oid, ox, oy, nx, ny, ap, dis in zip(
            self.oids,
            self.old_xs,
            self.old_ys,
            self.new_xs,
            self.new_ys,
            self.appear,
            self.disappear,
        ):
            if ap:
                append(ObjectUpdate(oid, None, (nx, ny)))
            elif dis:
                append(ObjectUpdate(oid, (ox, oy), None))
            else:
                append(ObjectUpdate(oid, (ox, oy), (nx, ny)))
        return tuple(out)

    def to_batch(self) -> UpdateBatch:
        """Reconstruct the packaged :class:`UpdateBatch` (lossless)."""
        return UpdateBatch(
            timestamp=self.timestamp,
            object_updates=self.to_object_updates(),
            query_updates=self.query_updates,
        )


def move_update(oid: int, old: Point, new: Point) -> ObjectUpdate:
    """Convenience constructor for a plain movement update."""
    return ObjectUpdate(oid=oid, old=old, new=new)


def appear_update(oid: int, position: Point) -> ObjectUpdate:
    """Convenience constructor for an appearance update."""
    return ObjectUpdate(oid=oid, old=None, new=position)


def disappear_update(oid: int, position: Point) -> ObjectUpdate:
    """Convenience constructor for a disappearance update."""
    return ObjectUpdate(oid=oid, old=position, new=None)
