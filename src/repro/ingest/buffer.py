"""The bounded ingest buffer: where back-pressure lives.

Between a feed that produces updates at its own pace and a monitor that
consumes them in cycles sits one bounded structure.  Its key invariant is
*last-write-wins per object*: the buffer keys pending work by object id
and keeps only the latest target position — semantics-preserving for
per-cycle monitoring, because a cycle only ever applies an object's final
position anyway (intermediate positions within one cycle are unobservable
by construction; the coalescing-correctness tests pin this).

Capacity bounds the number of *distinct pending objects*.  When a new
object arrives at a full buffer, the :class:`BackPressurePolicy` decides:

* ``BLOCK`` — the producer waits until the consumer drains (classic
  back-pressure; needs the producer on its own thread);
* ``DROP_OLDEST`` — the stalest pending object's update is shed.  Safe
  under the target-state model: the dropped object simply keeps its
  last *applied* position until a newer update arrives, at which point the
  batcher (:mod:`repro.ingest.batcher`) re-bases the move off the applied
  position — the stream stays consistent, it just loses freshness.

Query updates ride in a side FIFO, uncoalesced and unbounded: they are
orders of magnitude rarer than object updates and each one changes
monitor state (terminate/move/insert are not idempotent).

**Staging is columnar.**  The buffer owns three columns (target x,
target y, off-line flag) plus one dict from oid to the column row of
its latest target, whose insertion order is first-arrival order.  Rows
arrive one at a time (:meth:`IngestBuffer.offer` /
:meth:`~IngestBuffer.try_offer` append one row) or as a *chunk*, the
columns of one wire frame (:meth:`~IngestBuffer.offer_rows` /
:meth:`~IngestBuffer.try_offer_rows`), staged under one lock
acquisition.  A chunk that cannot fill the buffer or reach the caller's
size limit extends the columns and updates the dict once, with no Python
value per row; any other chunk runs the per-row logic every offer
shares, row by row, and reports the first row it did not stage so the
caller can carry the rest.  Either way the counters and the staged state
equal those of offering the rows one by one.  A row a later offer
supersedes (a coalesced write, a DROP_OLDEST eviction) stays in the
columns until the next drain, or until the columns pass twice the
capacity and are compacted to the live rows: the columns never hold
more than ``2 * capacity`` rows.  :meth:`IngestBuffer.drain`
gathers the live rows into :class:`Targets` columns (no gather at all
when nothing coalesced or dropped), which the batcher assembles column
by column.

All operations are thread-safe; one lock guards both directions.
"""

from __future__ import annotations

import threading
from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice, repeat
from operator import is_

from repro.geometry.points import Point
from repro.updates import FlatUpdateBatch, ObjectUpdate, QueryUpdate


class BackPressurePolicy(Enum):
    """What :meth:`IngestBuffer.offer` does when the buffer is full."""

    BLOCK = "block"
    DROP_OLDEST = "drop-oldest"


@dataclass(slots=True)
class BufferCounters:
    """Monotonic ingest accounting (deltas reported per drained cycle)."""

    #: object updates offered (accepted, coalesced, dropped or rejected).
    offered: int = 0
    #: offers that collapsed into an already-pending object (last-write-wins).
    coalesced: int = 0
    #: pending objects evicted by the DROP_OLDEST policy.
    dropped: int = 0
    #: times a producer had to wait on a full buffer (BLOCK policy).
    blocked: int = 0
    #: offers that timed out waiting (BLOCK policy with a timeout).
    rejected: int = 0
    #: query updates offered.
    query_offered: int = 0

    def snapshot(self) -> "BufferCounters":
        return BufferCounters(
            offered=self.offered,
            coalesced=self.coalesced,
            dropped=self.dropped,
            blocked=self.blocked,
            rejected=self.rejected,
            query_offered=self.query_offered,
        )

    def delta(self, since: "BufferCounters") -> "BufferCounters":
        return BufferCounters(
            offered=self.offered - since.offered,
            coalesced=self.coalesced - since.coalesced,
            dropped=self.dropped - since.dropped,
            blocked=self.blocked - since.blocked,
            rejected=self.rejected - since.rejected,
            query_offered=self.query_offered - since.query_offered,
        )


class Targets:
    """Drained object targets as columns: row ``i`` is object
    ``oids[i]`` with target ``(xs[i], ys[i])``, or off-line (a
    disappearance) where ``gone[i]`` is 1, in which case ``xs[i]`` and
    ``ys[i]`` are ``0.0``.  Each oid occurs at most once.

    Iterated, it is the per-row view: ``(oid, target)`` pairs with
    ``target is None`` for an off-line object; it compares equal to a
    list or tuple of the same pairs.
    """

    __slots__ = ("oids", "xs", "ys", "gone")

    def __init__(
        self,
        oids: array | None = None,
        xs: array | None = None,
        ys: array | None = None,
        gone: bytearray | None = None,
    ) -> None:
        self.oids = array("q") if oids is None else oids
        self.xs = array("d") if xs is None else xs
        self.ys = array("d") if ys is None else ys
        self.gone = bytearray() if gone is None else gone

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, Point | None]]) -> "Targets":
        """Columnarize ``(oid, target)`` pairs (each oid at most once)."""
        pairs = list(pairs)
        if not pairs:
            return cls()
        oids, points = zip(*pairs)
        oids = array("q", oids)
        if len(set(oids)) != len(oids):
            raise ValueError("an oid occurs twice among the targets")
        gone = bytearray(map(is_, points, repeat(None)))
        if 1 in gone:
            points = [(0.0, 0.0) if p is None else p for p in points]
        xs, ys = zip(*points)
        return cls(oids, array("d", xs), array("d", ys), gone)

    def __len__(self) -> int:
        return len(self.oids)

    def __iter__(self) -> Iterator[tuple[int, Point | None]]:
        for oid, x, y, gone in zip(self.oids, self.xs, self.ys, self.gone):
            yield oid, None if gone else (x, y)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Targets, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)

    def __repr__(self) -> str:
        return f"Targets({list(self)!r})"


@dataclass(slots=True)
class DrainedCycle:
    """One drain's worth of buffered work plus the accounting delta."""

    #: the staged targets in first-arrival order, as columns (iterating
    #: yields ``(oid, target)`` pairs; ``target is None`` means the
    #: object's latest known state is *off-line*, a disappearance).
    object_targets: Targets = field(default_factory=Targets)
    query_updates: list[QueryUpdate] = field(default_factory=list)
    counters: BufferCounters = field(default_factory=BufferCounters)


class IngestBuffer:
    """Bounded, coalescing staging area between a feed and the batcher."""

    def __init__(
        self,
        capacity: int = 4096,
        policy: BackPressurePolicy = BackPressurePolicy.BLOCK,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.policy = policy
        #: oid -> row of its latest target in the staged columns;
        #: insertion order is first-arrival order, which DROP_OLDEST
        #: evicts from.  Rows a later write or an eviction superseded
        #: stay in the columns until the next drain, or until the
        #: columns pass twice the capacity and are compacted.
        self._slots: dict[int, int] = {}
        self._xs = array("d")
        self._ys = array("d")
        self._gone = bytearray()
        self._query_updates: list[QueryUpdate] = []
        self._cond = threading.Condition()
        self._counters = BufferCounters()
        self._drained = BufferCounters()  # counter values at the last drain
        self._closed = False

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------

    def offer(self, update: ObjectUpdate, timeout: float | None = None) -> int:
        """Stage one object update.

        Returns the number of distinct objects staged after the offer
        (always >= 1, so truthy), or ``0`` on a BLOCK timeout — callers
        get the size-trigger check for free instead of re-locking for
        :attr:`pending`.

        Only the update's *target* (``new``, or off-line when ``new is
        None``) is staged — the authoritative old position is re-based by
        the batcher against what the monitor actually saw, so coalescing
        and drops can never desynchronize the stream.
        """
        new = update.new
        with self._cond:
            if new is None:
                pending = self._place(update.oid, 0.0, 0.0, 1, True, timeout)
            else:
                pending = self._place(update.oid, new[0], new[1], 0, True, timeout)
            if pending:
                self._cond.notify_all()
            return pending

    def try_offer(self, update: ObjectUpdate) -> int:
        """Non-blocking :meth:`offer` for the single-threaded pull loop.

        A full BLOCK buffer means "close the cycle", not "a producer had
        to wait" — so a declined update is *not* counted as offered,
        blocked or rejected (the caller re-offers it next cycle, where it
        counts exactly once).  Returns the staged count, or ``0`` when
        the update could not be staged.
        """
        new = update.new
        with self._cond:
            if new is None:
                return self._place(update.oid, 0.0, 0.0, 1, False, None)
            return self._place(update.oid, new[0], new[1], 0, False, None)

    def offer_rows(
        self, batch: FlatUpdateBatch, start: int = 0, timeout: float | None = None
    ) -> int:
        """Stage the rows ``batch[start:]`` in order, as :meth:`offer`
        would one by one, under one lock acquisition.

        Returns the index of the first row not staged: ``len(batch)``,
        or the row whose BLOCK wait timed out or met a closed buffer
        (re-offer from there).
        """
        return self._offer_rows(batch, start, None, True, timeout)[0]

    def try_offer_rows(
        self, batch: FlatUpdateBatch, start: int = 0, limit: int | None = None
    ) -> tuple[int, int]:
        """Stage the rows ``batch[start:]`` as :meth:`try_offer` would one
        by one, stopping after the row that brings :attr:`pending` to
        ``limit`` (the driver's size trigger) or before a row a full
        BLOCK buffer declines.

        Returns ``(next_row, pending)``: the index of the first row not
        staged (``len(batch)`` when all were) and the staged count.
        """
        return self._offer_rows(batch, start, limit, False, None)

    def _offer_rows(
        self,
        batch: FlatUpdateBatch,
        start: int,
        limit: int | None,
        block: bool,
        timeout: float | None,
    ) -> tuple[int, int]:
        n = len(batch)
        if start:
            oids = batch.oids[start:]
            xs = batch.new_xs[start:]
            ys = batch.new_ys[start:]
            gone = batch.disappear[start:]
        else:
            oids = batch.oids
            xs = batch.new_xs
            ys = batch.new_ys
            gone = batch.disappear
        cond = self._cond
        with cond:
            slots = self._slots
            pending = len(slots)
            room = self.capacity if limit is None else min(self.capacity, limit)
            if pending + len(oids) <= room:
                # Even if every row is a new object, no row meets a full
                # buffer or a limit before the last: stage them at once.
                base = len(self._xs)
                self._xs.extend(xs)
                self._ys.extend(ys)
                self._gone.extend(gone)
                slots.update(zip(oids, range(base, base + len(oids))))
                counters = self._counters
                counters.offered += len(oids)
                counters.coalesced += len(oids) - (len(slots) - pending)
                if len(self._xs) > 2 * self.capacity:
                    self._compact()
                cond.notify_all()
                return n, len(slots)
            row = start
            place = self._place
            for oid, x, y, off in zip(oids, xs, ys, gone):
                staged_now = place(oid, x, y, off, block, timeout)
                if not staged_now:
                    break
                pending = staged_now
                row += 1
                if limit is not None and pending >= limit:
                    break
            if row > start:
                cond.notify_all()
            return row, pending

    def _place(
        self,
        oid: int,
        x: float,
        y: float,
        gone: int,
        block: bool,
        timeout: float | None,
    ) -> int:
        """Stage one target with the lock held: the per-row logic every
        offer shares.  Returns the staged count, or ``0`` when the row
        was not staged (a full BLOCK buffer: at once unless ``block``,
        else after a wait that timed out or met a closed buffer)."""
        slots = self._slots
        counters = self._counters
        if oid in slots:
            # Last write wins; the key (and its arrival rank) is kept.
            counters.offered += 1
            counters.coalesced += 1
        elif len(slots) >= self.capacity:
            if self.policy is BackPressurePolicy.DROP_OLDEST:
                del slots[next(iter(slots))]
                counters.dropped += 1
                counters.offered += 1
            elif not block:
                return 0
            else:
                # A blocking offer counts once, staged or rejected.
                counters.offered += 1
                while len(self._slots) >= self.capacity:
                    if self._closed:
                        # Nobody will drain a closed buffer: waiting
                        # would hang the producer forever.  Reject.
                        counters.rejected += 1
                        return 0
                    counters.blocked += 1
                    # Rows staged earlier in this call are not announced
                    # yet: wake the consumer this wait depends on.
                    self._cond.notify_all()
                    if not self._cond.wait(timeout):
                        counters.rejected += 1
                        return 0
                # The drain that made room replaced the dict and columns.
                slots = self._slots
        else:
            counters.offered += 1
        slots[oid] = len(self._xs)
        self._xs.append(x)
        self._ys.append(y)
        self._gone.append(gone)
        if len(self._xs) > 2 * self.capacity:
            self._compact()
        return len(slots)

    def _compact(self) -> None:
        """Drop the superseded rows from the staged columns, with the
        lock held: the live rows are re-gathered in arrival order."""
        rows = list(self._slots.values())
        self._xs, self._ys, self._gone = _gather(
            self._xs, self._ys, self._gone, rows
        )
        self._slots = dict(zip(self._slots, range(len(rows))))

    def offer_query(self, update: QueryUpdate) -> None:
        """Stage one query update (FIFO, never coalesced or dropped)."""
        with self._cond:
            self._counters.query_offered += 1
            self._query_updates.append(update)
            self._cond.notify_all()

    def close(self) -> None:
        """Mark the producer finished; wakes any waiting consumer."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Distinct objects currently staged."""
        with self._cond:
            return len(self._slots)

    @property
    def pending_queries(self) -> int:
        with self._cond:
            return len(self._query_updates)

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def counters(self) -> BufferCounters:
        """Snapshot of the monotonic counters."""
        with self._cond:
            return self._counters.snapshot()

    def wait_for_work(
        self, count: int = 1, deadline: float | None = None, *, clock=None
    ) -> bool:
        """Block until ``count`` objects are staged, any query update is,
        the producer closed, or ``deadline`` (absolute, on ``clock``'s
        axis) passes.  Returns True when work or closure is available."""
        import time as _time

        clk = clock if clock is not None else _time.monotonic
        with self._cond:
            while True:
                if (
                    len(self._slots) >= count
                    or self._query_updates
                    or self._closed
                ):
                    return True
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - clk()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        return bool(self._slots or self._query_updates)

    def wait(self, timeout: float) -> None:
        """Sleep on the buffer's condition for up to ``timeout`` seconds.

        Wakes early on any offer or on close — the building block of the
        driver's pure-deadline cadence (callers re-check their own clock
        after every wake; offers cause benign spurious wakeups).
        """
        with self._cond:
            if not self._closed:
                self._cond.wait(timeout)

    def drain(self, max_objects: int | None = None) -> DrainedCycle:
        """Remove staged work (first-arrival order) and report the
        accounting delta since the previous drain; wakes blocked
        producers."""
        with self._cond:
            slots = self._slots
            xs = self._xs
            ys = self._ys
            gone = self._gone
            if max_objects is None or max_objects >= len(slots):
                oids = array("q", slots)
                if len(xs) != len(slots):
                    # Rows were superseded (coalesced or dropped): keep
                    # each object's latest one.
                    rows = list(slots.values())
                    xs, ys, gone = _gather(xs, ys, gone, rows)
                self._slots = {}
                self._xs = array("d")
                self._ys = array("d")
                self._gone = bytearray()
            else:
                taken = list(islice(slots, max_objects))
                rows = list(map(slots.pop, taken))
                oids = array("q", taken)
                xs, ys, gone = _gather(xs, ys, gone, rows)
                # What stays staged restarts the columns.
                self._compact()
            row = gone.find(1)
            while row >= 0:
                # An off-line target's coordinates are placeholders.
                xs[row] = ys[row] = 0.0
                row = gone.find(1, row + 1)
            query_updates = self._query_updates
            self._query_updates = []
            counters = self._counters.delta(self._drained)
            self._drained = self._counters.snapshot()
            self._cond.notify_all()
            return DrainedCycle(
                object_targets=Targets(oids, xs, ys, gone),
                query_updates=query_updates,
                counters=counters,
            )


def _gather(
    xs: array, ys: array, gone: bytearray, rows: list[int]
) -> tuple[array, array, bytearray]:
    """The staged columns' ``rows``, in that order, as fresh columns."""
    return (
        array("d", map(xs.__getitem__, rows)),
        array("d", map(ys.__getitem__, rows)),
        bytearray(map(gone.__getitem__, rows)),
    )
