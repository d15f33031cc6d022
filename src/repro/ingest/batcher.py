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

:meth:`CycleBatcher.assemble` makes one pass over the drained targets,
in first-arrival order, collecting the surviving rows in local lists;
each of the seven columns is then built in one go.  The assembled
batches are buffer-backed (``FlatUpdateBatch`` columns are
``array``/``bytearray``), so downstream consumers — ``process_flat``,
the shared-memory shard transport, ``wire.encode_updates_flat`` — read
the rows without any further conversion.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence
from itertools import repeat
from operator import is_

from repro.geometry.points import Point
from repro.updates import FlatUpdateBatch, QueryUpdate


class CycleBatcher:
    """Stateful assembler of :class:`repro.updates.FlatUpdateBatch`."""

    def __init__(self) -> None:
        #: oid -> position as last shown to the monitor (the shadow table).
        self.positions: dict[int, Point] = {}

    def prime(self, objects: Iterable[tuple[int, Point]]) -> None:
        """Seed the shadow table with the bulk-loaded initial population."""
        self.positions.update(objects)

    def assemble(
        self,
        object_targets: Sequence[tuple[int, Point | None]],
        query_updates: Sequence[QueryUpdate] = (),
        timestamp: int = 0,
    ) -> tuple[FlatUpdateBatch, int]:
        """Build one columnar batch; returns ``(batch, n_noops)``.

        Rows keep the order of ``object_targets`` (first arrival).
        Commits the shadow table as it goes — callers apply the batch to
        the monitor immediately (the driver does), keeping both in step.
        """
        positions = self.positions
        get = positions.get
        oids: list[int] = []
        olds: list[Point | None] = []
        news: list[Point | None] = []
        for oid, target in object_targets:
            old = get(oid)
            if target is None:
                if old is None:
                    # Appeared and disappeared entirely within the buffer.
                    continue
                del positions[oid]
            elif old == target:
                continue
            else:
                positions[oid] = target
            oids.append(oid)
            olds.append(old)
            news.append(target)
        appear = bytearray(map(is_, olds, repeat(None)))
        disappear = bytearray(map(is_, news, repeat(None)))
        old_xs, old_ys = _columns(olds, 1 in appear)
        new_xs, new_ys = _columns(news, 1 in disappear)
        batch = FlatUpdateBatch(
            timestamp,
            array("q", oids),
            old_xs,
            old_ys,
            new_xs,
            new_ys,
            appear,
            disappear,
            tuple(query_updates),
        )
        return batch, len(object_targets) - len(oids)


def _columns(points: list[Point | None], absent: bool) -> tuple[array, array]:
    """The x and y columns of ``points``, ``0.0`` where a point is
    ``None`` (the placeholder of an appearance's old or a
    disappearance's new side)."""
    if not points:
        return array("d"), array("d")
    if absent:
        points = [(0.0, 0.0) if p is None else p for p in points]
    xs, ys = zip(*points)
    return array("d", xs), array("d", ys)
