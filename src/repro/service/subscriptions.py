"""Delta streaming: per-query subscriptions over result changes.

A :class:`SubscriptionHub` routes each cycle's
:class:`repro.service.deltas.ResultDelta` objects to registered
callbacks.  Routing is *topic based*: the topic of a delta is its query
id, a subscription watching specific qids is registered under exactly
those topics, and a subscription with no qid filter sits on the
**firehose** topic that observes every query.  Publishing a cycle
therefore touches only the subscriptions that can possibly want each
delta — a handle watching one query out of a million never sees (or
pays for) the other 999 999 — instead of probing every subscriber
against every delta as a global broadcast would.

Subscribers receive ``callback(timestamp, delta)`` calls — only for
deltas that actually changed the result, unless they ask for unchanged
ones too.

The hub is synchronous and single-threaded by design (the monitoring
cycle is); the socket transport (:mod:`repro.api.server`) wraps this
same interface with per-connection locking on the outside.

The **fan-out tier** lives next to the hub: a :class:`FanoutQueue` is a
bounded per-consumer outbound queue drained by its own writer thread,
with an explicit :class:`SlowConsumerPolicy` deciding what happens when
a consumer cannot keep up.  The publish loop above only ever *enqueues*
(O(1) per delivery, never blocks on a socket), so one stalled consumer
cannot extend the cycle's ``publish_sec`` for everyone else.  The unit
of outbound work is a **drain** — everything queued when the writer
wakes, handed to the sink as one FIFO batch — not a single item.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Callable, Iterable
from enum import Enum

from repro.service.deltas import ResultDelta

DeltaCallback = Callable[[int | None, ResultDelta], None]


class SlowConsumerPolicy(Enum):
    """What a :class:`FanoutQueue` does when its bound is hit.

    * ``DISCONNECT`` — the consumer is marked broken and dropped (the
      transport's ``on_overflow`` hook closes the connection).  Strict:
      a lagging subscriber loses its stream rather than degrade it.
    * ``DROP_AND_SNAPSHOT`` — queued *droppable* items (deltas) are
      discarded and a single coalesced lag marker is enqueued in their
      place, telling the consumer how many deliveries it lost so it can
      request a fresh snapshot.  Lossy but connected.
    """

    DISCONNECT = "disconnect"
    DROP_AND_SNAPSHOT = "drop_and_snapshot"


class _LagMarker:
    """Placeholder for dropped items; resolved to a real item at write
    time via ``lag_factory`` so consecutive overflows coalesce."""

    __slots__ = ()


_LAG = _LagMarker()


class FanoutQueue:
    """A bounded outbound queue drained by a dedicated writer thread.

    ``put`` never blocks: the producer (the monitoring cycle's publish
    loop) enqueues and moves on, while the writer thread hands the sink
    one **drain** at a time — ``deliver(items)`` with everything that
    was queued when the writer woke, in FIFO order, taken under a single
    lock acquisition — at whatever pace the consumer sustains.  The sink
    (typically encode-and-send on a socket) thereby pays its per-call
    costs once per drain instead of once per item.  When the queue is
    full the ``policy`` is applied *at the producer*, so backpressure
    from one slow consumer is converted into an explicit local decision
    instead of a global stall.

    The drain in flight (handed to the sink, ``deliver`` not yet
    returned) still counts toward ``limit``, :attr:`depth` and
    :meth:`join`: a consumer buffers at most ``limit`` items, queued and
    in flight together.  Items already in flight cannot be shed.

    Args:
        deliver: ``deliver(items)``, called on the writer thread with a
            non-empty list.  An exception marks the queue broken (the
            consumer is gone).
        limit: bound on queued plus in-flight items before the policy
            triggers.
        policy: the :class:`SlowConsumerPolicy` applied on overflow.
        lag_factory: ``lag_factory(dropped) -> item`` building the lag
            marker item delivered in place of ``dropped`` discarded
            items.  Required for ``DROP_AND_SNAPSHOT``.
        lag_followup: ``lag_followup() -> iterable of items`` delivered
            immediately after a resolved lag marker — the transport's
            chance to push fresh snapshots so a drained consumer
            converges without asking.  Both hooks run on the writer
            thread *outside* the queue lock, after the items queued
            ahead of the marker were handed to the sink, and may
            therefore take application locks and read live state.
        on_overflow: called once (on the producer thread) when
            ``DISCONNECT`` fires — the transport's close hook.
        name: diagnostics label.
    """

    def __init__(
        self,
        deliver: Callable[[list], None],
        *,
        limit: int = 1024,
        policy: SlowConsumerPolicy = SlowConsumerPolicy.DISCONNECT,
        lag_factory: Callable[[int], object] | None = None,
        lag_followup: Callable[[], Iterable[object]] | None = None,
        on_overflow: Callable[[], None] | None = None,
        name: str = "fanout",
    ) -> None:
        if limit < 1:
            raise ValueError("limit must be >= 1")
        if policy is SlowConsumerPolicy.DROP_AND_SNAPSHOT and lag_factory is None:
            raise ValueError("DROP_AND_SNAPSHOT needs a lag_factory")
        self._deliver = deliver
        self.limit = limit
        self.policy = policy
        self._lag_factory = lag_factory
        self._lag_followup = lag_followup
        self._on_overflow = on_overflow
        self.name = name
        self._items: deque[tuple[object, bool]] = deque()
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._closed = False
        self.broken = False
        #: items handed to ``deliver`` so far (lag markers included).
        self.delivered = 0
        #: droppable items discarded by DROP_AND_SNAPSHOT so far.
        self.dropped = 0
        #: times the overflow policy fired.
        self.overflows = 0
        self._pending_lag = 0
        #: items of the drain handed to ``deliver`` and not yet returned.
        self._inflight = 0
        self._writer = threading.Thread(
            target=self._drain, name=f"{name}-writer", daemon=True
        )
        self._writer.start()

    def put(self, item: object, *, droppable: bool = False) -> bool:
        """Enqueue without blocking; returns False when closed/broken.

        ``droppable`` marks items the DROP_AND_SNAPSHOT policy may shed
        (deltas); control frames stay queued regardless.
        """
        overflow_hook = None
        with self._lock:
            if self._closed or self.broken:
                return False
            if len(self._items) + self._inflight >= self.limit:
                self.overflows += 1
                if self.policy is SlowConsumerPolicy.DISCONNECT:
                    self.broken = True
                    self._items.clear()
                    overflow_hook = self._on_overflow
                    self._wakeup.notify()
                else:
                    kept: deque[tuple[object, bool]] = deque()
                    shed = 0
                    for queued, d in self._items:
                        if d:
                            shed += 1
                        elif queued is not _LAG:
                            kept.append((queued, d))
                    self.dropped += shed
                    self._pending_lag += shed
                    if droppable:
                        # The overflowing item itself is shed too.
                        self.dropped += 1
                        self._pending_lag += 1
                        item = None
                    if self._pending_lag:
                        # One coalesced marker; its count resolves at
                        # write time so back-to-back overflows merge.
                        kept.append((_LAG, False))
                    if item is not None:
                        kept.append((item, droppable))
                    self._items = kept
                    self._wakeup.notify()
                    return True
            else:
                self._items.append((item, droppable))
                self._wakeup.notify()
                return True
        # DISCONNECT fired: run the close hook outside the lock.
        if overflow_hook is not None:
            overflow_hook()
        return False

    def _drain(self) -> None:
        while True:
            with self._lock:
                while not self._items and not self._closed and not self.broken:
                    self._wakeup.wait()
                if self.broken or (self._closed and not self._items):
                    return
                batch = [item for item, _droppable in self._items]
                self._items.clear()
                # At most one marker is ever queued, and exactly when
                # the pending count is non-zero (see ``put``).
                lagged, self._pending_lag = self._pending_lag, 0
                self._inflight = len(batch)
            delivered = 0
            try:
                if lagged:
                    at = batch.index(_LAG)
                    if at:
                        self._deliver(batch[:at])
                        delivered = at
                    # Resolve the coalesced marker outside the lock, and
                    # only now that the frames ahead of it are with the
                    # sink: the hooks may take application locks and
                    # snapshot live state.
                    tail = [self._lag_factory(lagged)]
                    if self._lag_followup is not None:
                        tail.extend(self._lag_followup())
                    tail.extend(batch[at + 1:])
                    batch = tail
                self._deliver(batch)
                delivered += len(batch)
            except Exception:
                with self._lock:
                    self.broken = True
                    self._inflight = 0
                    self._items.clear()
                    self._wakeup.notify_all()
                return
            with self._lock:
                self.delivered += delivered
                self._inflight = 0
                if not self._items:
                    self._wakeup.notify_all()

    def join(self, timeout: float | None = None) -> bool:
        """Wait until everything queued is delivered; True when drained.

        The condition is also notified by every ``put``, so the wait
        loops to a monotonic deadline rather than trusting one wake-up.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while (self._items or self._inflight) and not self.broken:
                if deadline is None:
                    self._wakeup.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._wakeup.wait(remaining)
            return not self._items and not self._inflight and not self.broken

    def close(self, *, flush: bool = True, timeout: float = 5.0) -> None:
        """Stop the writer; by default after draining what's queued."""
        if flush:
            self.join(timeout=timeout)
        with self._lock:
            self._closed = True
            if not flush:
                self._items.clear()
            self._wakeup.notify_all()
        if threading.current_thread() is not self._writer:
            self._writer.join(timeout=timeout)

    @property
    def depth(self) -> int:
        """Items currently queued or in flight (diagnostics)."""
        with self._lock:
            return len(self._items) + self._inflight

    def stats(self) -> dict[str, int | bool]:
        """One consistent counter snapshot (all fields under one lock).

        This is what :meth:`repro.api.server.MonitorSocketServer.stats`
        aggregates per connection — the counters themselves always
        existed, this read makes them reachable from the embedding
        process without racing the writer thread.
        """
        with self._lock:
            return {
                "depth": len(self._items) + self._inflight,
                "delivered": self.delivered,
                "dropped": self.dropped,
                "overflows": self.overflows,
                "broken": self.broken,
            }


class Subscription:
    """One registered delta listener (returned by ``subscribe``)."""

    __slots__ = ("callback", "delivered", "include_unchanged", "qids", "seq", "_hub")

    def __init__(
        self,
        hub: "SubscriptionHub",
        callback: DeltaCallback,
        qids: frozenset[int] | None,
        include_unchanged: bool,
        seq: int,
    ) -> None:
        self._hub = hub
        self.callback = callback
        #: ``None`` = firehose (all queries); otherwise the watched qid set.
        self.qids = qids
        self.include_unchanged = include_unchanged
        #: registration ordinal — the deterministic delivery order within
        #: one delta (bucketed and firehose subscribers interleave by it).
        self.seq = seq
        #: number of deltas delivered so far.
        self.delivered = 0

    @property
    def active(self) -> bool:
        return self._hub is not None and self._hub.is_active(self)

    def matches(self, delta: ResultDelta) -> bool:
        if self.qids is not None and delta.qid not in self.qids:
            return False
        return self.include_unchanged or delta.changed

    def close(self) -> None:
        """Unsubscribe (idempotent)."""
        if self._hub is not None:
            self._hub.unsubscribe(self)

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class SubscriptionHub:
    """Per-query routing table of delta subscribers plus the publish loop.

    Internally two structures share the subscriptions:

    * ``_by_qid`` — topic buckets: qid -> subscriptions watching it (a
      subscription watching n qids appears in n buckets);
    * ``_firehose`` — subscriptions with no qid filter.

    Both keep registration order; delivery within one delta merges the
    two by registration ordinal so the stream stays deterministic.
    """

    def __init__(self) -> None:
        self._by_qid: dict[int, list[Subscription]] = {}
        self._firehose: list[Subscription] = []
        self._count = 0
        self._next_seq = 0

    def subscribe(
        self,
        callback: DeltaCallback,
        *,
        qids: Iterable[int] | None = None,
        include_unchanged: bool = False,
    ) -> Subscription:
        """Register ``callback(timestamp, delta)`` for matching deltas.

        Args:
            callback: invoked synchronously during publish.
            qids: restrict to these query ids (``None`` = the firehose:
                every query).
            include_unchanged: also deliver no-op deltas (e.g. a moved
                query whose result happens to be identical).
        """
        qid_set = None if qids is None else frozenset(qids)
        subscription = Subscription(
            self, callback, qid_set, include_unchanged, self._next_seq
        )
        self._next_seq += 1
        if qid_set is None:
            self._firehose.append(subscription)
        else:
            for qid in qid_set:
                self._by_qid.setdefault(qid, []).append(subscription)
        self._count += 1
        return subscription

    def subscribe_query(
        self,
        qid: int,
        callback: DeltaCallback,
        *,
        include_unchanged: bool = False,
    ) -> Subscription:
        """Shorthand: watch exactly one query (the handle/topic idiom)."""
        return self.subscribe(
            callback, qids=(qid,), include_unchanged=include_unchanged
        )

    def unsubscribe(self, subscription: Subscription) -> None:
        """Remove a subscription (no-op when already removed)."""
        removed = False
        if subscription.qids is None:
            if subscription in self._firehose:
                self._firehose.remove(subscription)
                removed = True
        else:
            for qid in subscription.qids:
                bucket = self._by_qid.get(qid)
                if bucket and subscription in bucket:
                    bucket.remove(subscription)
                    removed = True
                    if not bucket:
                        del self._by_qid[qid]
        if removed:
            self._count -= 1

    def is_active(self, subscription: Subscription) -> bool:
        """Whether the subscription is still registered."""
        if subscription.qids is None:
            return subscription in self._firehose
        return any(
            subscription in self._by_qid.get(qid, ()) for qid in subscription.qids
        )

    @property
    def has_subscribers(self) -> bool:
        """O(1): anything registered at all (the tick cheap-path probe)."""
        return self._count > 0

    @property
    def has_firehose(self) -> bool:
        """Whether any subscription watches every query."""
        return bool(self._firehose)

    def watched_qids(self) -> set[int]:
        """Qids with at least one targeted subscription (diagnostics)."""
        return set(self._by_qid)

    def __len__(self) -> int:
        return self._count

    def publish(
        self, timestamp: int | None, deltas: dict[int, ResultDelta]
    ) -> int:
        """Deliver a cycle's deltas; returns the number of deliveries.

        ``timestamp`` is the cycle timestamp, or ``None`` for
        installation-time snapshots published outside the replay loop.
        Deltas are delivered in ascending qid order, and within one delta
        in subscriber-registration order, so the stream is deterministic
        for a deterministic workload.  Per-topic snapshots are taken
        before delivery: callbacks may subscribe or unsubscribe during
        the fan-out without corrupting it.
        """
        if not self._count:
            return 0
        delivered = 0
        by_qid = self._by_qid
        firehose = list(self._firehose)
        for qid in sorted(deltas):
            delta = deltas[qid]
            bucket = by_qid.get(qid)
            if bucket:
                if firehose:
                    targets = sorted(bucket + firehose, key=lambda s: s.seq)
                else:
                    targets = list(bucket)
            elif firehose:
                targets = firehose
            else:
                continue
            changed = delta.changed
            for subscription in targets:
                if changed or subscription.include_unchanged:
                    subscription.callback(timestamp, delta)
                    subscription.delivered += 1
                    delivered += 1
        return delivered
