"""Unit tests for the async fan-out tier (:class:`FanoutQueue`).

The contract under test: ``put`` never blocks the producer, the writer
thread hands the sink one *drain* at a time (everything queued at
wake-up, as one FIFO batch; the batch in flight counts toward the
limit), and a stalled consumer triggers an explicit slow-consumer
policy — DISCONNECT (break the queue, fire the close hook once) or
DROP_AND_SNAPSHOT (shed droppable items, deliver a single coalesced lag
marker, keep control frames intact and ordered).
"""

import threading
import time

import pytest

from repro.service.subscriptions import FanoutQueue, SlowConsumerPolicy


class Gate:
    """A batch sink that can be blocked and records everything: the
    flattened item stream in ``items``, one list per drain in
    ``batches``."""

    def __init__(self):
        self.items = []
        self.batches = []
        self._open = threading.Event()
        self._open.set()
        self.entered = threading.Event()

    def __call__(self, items):
        self.entered.set()
        self._open.wait(timeout=10.0)
        self.batches.append(list(items))
        self.items.extend(items)

    def block(self):
        self._open.clear()

    def unblock(self):
        self._open.set()


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


class TestBasics:
    def test_delivers_in_fifo_order(self):
        gate = Gate()
        q = FanoutQueue(gate, limit=64)
        for i in range(20):
            assert q.put(i)
        assert q.join(timeout=5.0)
        assert gate.items == list(range(20))
        assert q.delivered == 20
        q.close()

    def test_put_after_close_returns_false(self):
        gate = Gate()
        q = FanoutQueue(gate, limit=4)
        q.close()
        assert q.put("late") is False

    def test_close_with_flush_delivers_the_backlog(self):
        gate = Gate()
        gate.block()
        q = FanoutQueue(gate, limit=64)
        for i in range(5):
            q.put(i)
        gate.unblock()
        q.close(flush=True)
        assert gate.items == list(range(5))

    def test_limit_validation(self):
        with pytest.raises(ValueError, match="limit"):
            FanoutQueue(lambda items: None, limit=0)

    def test_drop_policy_requires_lag_factory(self):
        with pytest.raises(ValueError, match="lag_factory"):
            FanoutQueue(
                lambda items: None,
                policy=SlowConsumerPolicy.DROP_AND_SNAPSHOT,
            )

    def test_join_waits_for_the_inflight_drain(self):
        """join must not report drained while a batch sits inside
        deliver (taken from the queue but not yet on the wire)."""
        gate = Gate()
        q = FanoutQueue(gate, limit=8)
        gate.block()
        q.put("slow")
        assert gate.entered.wait(timeout=5.0)

        def release():
            time.sleep(0.05)
            gate.unblock()

        threading.Thread(target=release, daemon=True).start()
        assert q.join(timeout=5.0)
        assert gate.items == ["slow"]
        q.close()

    def test_join_with_timeout_survives_concurrent_puts(self):
        """Regression: every ``put`` notifies the condition ``join``
        waits on, so a single timed wait returned False at the first
        concurrent publish — and ``close(flush=True)`` cut the frames
        still queued.  join must keep waiting until its deadline."""
        gate = Gate()
        q = FanoutQueue(gate, limit=256)
        gate.block()
        q.put("head")
        assert gate.entered.wait(timeout=5.0)
        publishing = threading.Event()

        def publish():
            for i in range(40):
                q.put(i)
                publishing.set()
                time.sleep(0.005)
            gate.unblock()

        publisher = threading.Thread(target=publish, daemon=True)
        publisher.start()
        assert publishing.wait(timeout=5.0)
        assert q.join(timeout=10.0)
        publisher.join(timeout=5.0)
        assert not publisher.is_alive()
        assert q.join(timeout=5.0)
        assert gate.items == ["head", *range(40)]
        q.close()

    def test_join_times_out_on_a_stalled_sink(self):
        gate = Gate()
        q = FanoutQueue(gate, limit=8)
        gate.block()
        q.put("stuck")
        assert gate.entered.wait(timeout=5.0)
        start = time.monotonic()
        assert q.join(timeout=0.1) is False
        assert 0.09 <= time.monotonic() - start < 2.0
        gate.unblock()
        q.close()


class TestDrain:
    def test_a_backlog_reaches_the_sink_as_one_fifo_batch(self):
        gate = Gate()
        gate.block()
        q = FanoutQueue(gate, limit=64)
        q.put("head")
        assert gate.entered.wait(timeout=5.0)
        for i in range(20):
            q.put(i)
        gate.unblock()
        assert q.join(timeout=5.0)
        q.close()
        assert gate.batches == [["head"], list(range(20))]
        assert q.delivered == 21

    def test_inflight_batch_counts_toward_depth_and_limit(self):
        gate = Gate()
        gate.block()
        hooks = []
        q = FanoutQueue(gate, limit=4, on_overflow=lambda: hooks.append(1))
        for i in range(3):
            q.put(i)
        assert gate.entered.wait(timeout=5.0)
        assert wait_for(lambda: q.stats()["depth"] == 3)
        # Whatever split the writer took, queued + in flight is 3: one
        # more fits, the next overflows.
        assert q.put(3)
        assert q.depth == 4
        assert q.put(4) is False
        assert q.broken and hooks == [1]
        gate.unblock()
        q.close(flush=False)

    def test_lag_hooks_run_after_the_frames_ahead_were_handed_over(self):
        """A marker mid-batch splits the drain: the items queued ahead of
        it reach the sink first, then the hooks run (outside the queue
        lock), then marker + follow-ups + the rest go out together."""
        gate = Gate()
        gate.block()
        seen_at_followup = []

        def followup():
            seen_at_followup.append(list(gate.items))
            assert q.depth >= 0  # takes the queue lock: must not deadlock
            return ["snap0", "snap1"]

        q = FanoutQueue(
            gate,
            limit=3,
            policy=SlowConsumerPolicy.DROP_AND_SNAPSHOT,
            lag_factory=lambda dropped: ("lagged", dropped),
            lag_followup=followup,
        )
        q.put("head")
        assert gate.entered.wait(timeout=5.0)
        q.put("ctrl0")
        q.put(("delta", 0), droppable=True)
        q.put(("delta", 1), droppable=True)  # overflow: sheds both deltas
        q.put("ctrl1")
        gate.unblock()
        assert q.join(timeout=5.0)
        q.close()
        assert gate.batches == [
            ["head"],
            ["ctrl0"],
            [("lagged", 2), "snap0", "snap1", "ctrl1"],
        ]
        assert seen_at_followup == [["head", "ctrl0"]]
        assert q.delivered == 6 and q.dropped == 2


class TestDisconnectPolicy:
    def test_overflow_breaks_queue_and_fires_hook_once(self):
        gate = Gate()
        gate.block()
        hooks = []
        q = FanoutQueue(
            gate,
            limit=4,
            policy=SlowConsumerPolicy.DISCONNECT,
            on_overflow=lambda: hooks.append(1),
        )
        # One item enters deliver and blocks; it keeps counting toward
        # the limit together with what queues up behind it.
        q.put("head")
        assert gate.entered.wait(timeout=5.0)
        accepted = sum(1 for i in range(10) if q.put(i))
        assert accepted == 3
        assert q.broken
        assert hooks == [1]
        assert q.overflows == 1
        # Broken queue refuses everything, without re-firing the hook.
        assert q.put("after") is False
        assert hooks == [1]
        gate.unblock()
        q.close(flush=False)

    def test_producer_is_never_blocked_by_a_stalled_consumer(self):
        gate = Gate()
        gate.block()
        q = FanoutQueue(gate, limit=2, policy=SlowConsumerPolicy.DISCONNECT)
        start = time.monotonic()
        for i in range(100):
            q.put(i)
        elapsed = time.monotonic() - start
        assert elapsed < 1.0
        gate.unblock()
        q.close(flush=False)


class TestDropAndSnapshotPolicy:
    def make(self, gate, limit=4):
        return FanoutQueue(
            gate,
            limit=limit,
            policy=SlowConsumerPolicy.DROP_AND_SNAPSHOT,
            lag_factory=lambda dropped: ("lagged", dropped),
        )

    def test_droppables_shed_and_coalesced_into_one_lag_marker(self):
        gate = Gate()
        gate.block()
        q = self.make(gate, limit=4)
        q.put("head")  # enters deliver and stalls there
        assert gate.entered.wait(timeout=5.0)
        for i in range(12):
            assert q.put(("delta", i), droppable=True)
        gate.unblock()
        assert q.join(timeout=5.0)
        q.close()

        assert gate.items[0] == "head"
        lag_frames = [x for x in gate.items if x[0] == "lagged"]
        delta_frames = [x for x in gate.items if x[0] == "delta"]
        # Every delta was either delivered or counted in a lag marker.
        assert sum(n for _, n in lag_frames) + len(delta_frames) == 12
        assert q.dropped == sum(n for _, n in lag_frames)
        assert q.dropped > 0
        # Back-to-back overflows coalesce: one marker per stall window,
        # and a marker is never followed by another marker directly.
        for a, b in zip(gate.items, gate.items[1:]):
            assert not (a[0] == "lagged" and b[0] == "lagged")

    def test_control_frames_survive_overflow_in_order(self):
        gate = Gate()
        gate.block()
        q = self.make(gate, limit=4)
        q.put("head")
        assert gate.entered.wait(timeout=5.0)
        q.put("ctrl0")
        for i in range(8):
            q.put(("delta", i), droppable=True)
        q.put("ctrl1")
        gate.unblock()
        assert q.join(timeout=5.0)
        q.close()
        kept = [x for x in gate.items if isinstance(x, str)]
        assert kept == ["head", "ctrl0", "ctrl1"]
        assert not q.broken

    def test_lag_count_resolves_at_write_time(self):
        """The marker reports everything dropped up to the moment it is
        written, even across multiple overflow events."""
        gate = Gate()
        gate.block()
        q = self.make(gate, limit=2)
        q.put("head")
        assert gate.entered.wait(timeout=5.0)
        for i in range(9):
            q.put(("delta", i), droppable=True)
        gate.unblock()
        assert q.join(timeout=5.0)
        q.close()
        lag_frames = [x for x in gate.items if x[0] == "lagged"]
        assert len(lag_frames) >= 1
        assert sum(n for _, n in lag_frames) == q.dropped


@pytest.mark.chaos
class TestBrokenConsumer:
    def test_deliver_exception_marks_broken(self):
        def explode(items):
            raise ConnectionError("peer gone")

        q = FanoutQueue(explode, limit=8)
        q.put("x")
        assert wait_for(lambda: q.broken)
        assert q.put("y") is False
        q.close(flush=False)

    def test_sink_failing_mid_drain_breaks_the_queue_and_unblocks_join(self):
        gate = Gate()
        gate.block()

        def sink(items):
            gate(items)
            raise ConnectionError("peer gone part-way through the batch")

        q = FanoutQueue(sink, limit=16)
        for i in range(5):
            q.put(i)
        assert gate.entered.wait(timeout=5.0)
        q.put("queued behind the failing drain")
        gate.unblock()
        assert q.join(timeout=5.0) is False
        assert q.broken
        stats = q.stats()
        assert stats["depth"] == 0 and stats["delivered"] == 0
        assert q.put("late") is False
        q.close(flush=False)
