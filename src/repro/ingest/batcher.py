"""The cycle batcher: drained buffer state -> columnar update batch.

The buffer stages *target* positions (latest known per object); the
monitors consume *transitions* ``<oid, old, new>`` whose ``old`` must be
exactly the previously applied position (the grid deletes by position,
``Workload.validate`` documents the same contract).  The batcher closes
that gap: it keeps a shadow table of every position the monitor has been
shown and re-bases each drained target against it —

* unknown object with a target position → appearance;
* known object with ``target is None`` → disappearance;
* known object with a *different* target → movement from the applied
  position (NOT from whatever ``old`` the feed once carried: coalescing
  and drops may have skipped intermediate hops);
* known object with the *same* target (or unknown and off-line, the
  appear-then-disappear annihilation) → no-op, emitted nowhere.

Because ``old`` always comes from the shadow table, any re-cutting of
cycles — coalescing, drops, deadline flushes mid-timestamp — still yields
a stream every monitor accepts, and an offline replay of the assembled
batches reproduces the exact same end state.

:meth:`CycleBatcher.assemble` works column by column.  The shadow table
is itself columnar: one dict from oid to a row of two coordinate
columns.  Row 0 is never an object's: it holds the ``0.0`` placeholder
an unknown oid reads, so one ``map`` of ``dict.get`` over the drained
oids (unknown -> row 0) and one gather per coordinate give every
target's old position, the appearance placeholder included.  The
no-op, appearance, disappearance and annihilation masks are C-level
maps of ``operator`` functions over those columns, the batch's columns
are cut out of them with ``itertools.compress``, and the table is
written back by mapping ``array.__setitem__`` — no Python value per row
and no per-row loop.  The assembled batches are
buffer-backed (``FlatUpdateBatch`` columns are ``array``/``bytearray``),
so downstream consumers — ``process_flat``, the shared-memory shard
transport, ``wire.encode_updates_flat`` — read the rows without any
further conversion.
"""

from __future__ import annotations

from array import array
from collections import deque
from collections.abc import Iterable, Sequence
from itertools import compress, repeat
from operator import and_, gt, itemgetter, ne, not_, or_

from repro.geometry.points import Point
from repro.ingest.buffer import Targets
from repro.updates import FlatUpdateBatch, QueryUpdate

#: exhausts an iterator at C speed (for ``map`` calls run for effect).
_consume = deque(maxlen=0).extend


class CycleBatcher:
    """Stateful assembler of :class:`repro.updates.FlatUpdateBatch`."""

    def __init__(self) -> None:
        #: the shadow table: oid -> row of ``_xs`` / ``_ys`` holding the
        #: position last shown to the monitor.  Row 0 is the placeholder.
        self._rows: dict[int, int] = {}
        self._xs = array("d", [0.0])
        self._ys = array("d", [0.0])
        #: rows freed by disappearances, reused by appearances.
        self._free: list[int] = []

    @property
    def positions(self) -> dict[int, Point]:
        """oid -> position as last shown to the monitor (a snapshot of
        the shadow table, built on demand)."""
        xs = self._xs
        ys = self._ys
        return {oid: (xs[row], ys[row]) for oid, row in self._rows.items()}

    def prime(self, objects: Iterable[tuple[int, Point]]) -> None:
        """Seed the shadow table with the bulk-loaded initial population."""
        objects = list(objects)
        points = list(map(itemgetter(1), objects))
        base = len(self._xs)
        self._xs.extend(map(itemgetter(0), points))
        self._ys.extend(map(itemgetter(1), points))
        self._rows.update(
            zip(map(itemgetter(0), objects), range(base, base + len(objects)))
        )

    def assemble(
        self,
        object_targets: Targets | Iterable[tuple[int, Point | None]],
        query_updates: Sequence[QueryUpdate] = (),
        timestamp: int = 0,
    ) -> tuple[FlatUpdateBatch, int]:
        """Build one columnar batch; returns ``(batch, n_noops)``.

        ``object_targets`` is a drain's :class:`repro.ingest.buffer.Targets`
        or ``(oid, target)`` pairs naming each oid at most once.  Rows
        keep its order (first arrival).  Commits the shadow table —
        callers apply the batch to the monitor immediately (the driver
        does), keeping both in step.
        """
        if type(object_targets) is not Targets:
            object_targets = Targets.from_pairs(object_targets)
        oids = object_targets.oids
        new_xs = object_targets.xs
        new_ys = object_targets.ys
        gone = object_targets.gone
        table = self._rows
        xs = self._xs
        ys = self._ys
        rows = list(map(table.get, oids, repeat(0)))
        old_xs = array("d", map(xs.__getitem__, rows))
        old_ys = array("d", map(ys.__getitem__, rows))
        known = bytearray(map(bool, rows))
        appear = bytearray(map(not_, map(or_, known, gone)))
        disappear = bytearray(map(and_, known, gone))
        differ = map(or_, map(ne, old_xs, new_xs), map(ne, old_ys, new_ys))
        moved = bytearray(map(and_, map(gt, known, gone), differ))
        keep = bytearray(map(or_, map(or_, appear, disappear), moved))
        n = len(oids)
        kept = keep.count(1)
        if kept < n:
            oids = array("q", compress(oids, keep))
            old_xs = array("d", compress(old_xs, keep))
            old_ys = array("d", compress(old_ys, keep))
            out_xs = array("d", compress(new_xs, keep))
            out_ys = array("d", compress(new_ys, keep))
        else:
            out_xs = new_xs
            out_ys = new_ys
        batch = FlatUpdateBatch(
            timestamp,
            oids,
            old_xs,
            old_ys,
            out_xs,
            out_ys,
            bytearray(compress(appear, keep)),
            bytearray(compress(disappear, keep)),
            tuple(query_updates),
        )
        self._commit(object_targets, rows, moved, appear, disappear)
        return batch, n - kept

    def _commit(
        self,
        targets: Targets,
        rows: list[int],
        moved: bytearray,
        appear: bytearray,
        disappear: bytearray,
    ) -> None:
        """Write a cycle back into the shadow table: free the rows of the
        objects gone off-line, move the moved, then place the appeared
        (reusing freed rows first)."""
        table = self._rows
        xs = self._xs
        ys = self._ys
        free = self._free
        if 1 in disappear:
            _consume(map(table.pop, compress(targets.oids, disappear)))
            free.extend(compress(rows, disappear))
        _consume(map(xs.__setitem__, compress(rows, moved), compress(targets.xs, moved)))
        _consume(map(ys.__setitem__, compress(rows, moved), compress(targets.ys, moved)))
        n_new = appear.count(1)
        if n_new:
            reused = free[len(free) - min(n_new, len(free)) :]
            del free[len(free) - len(reused) :]
            grow = n_new - len(reused)
            base = len(xs)
            xs.frombytes(bytes(8 * grow))
            ys.frombytes(bytes(8 * grow))
            placed = reused + list(range(base, base + grow))
            _consume(map(xs.__setitem__, placed, compress(targets.xs, appear)))
            _consume(map(ys.__setitem__, placed, compress(targets.ys, appear)))
            table.update(zip(compress(targets.oids, appear), placed))
