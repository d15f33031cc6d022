"""Unit tests for the bounded ingest buffer (back-pressure + coalescing)."""

import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ingest.batcher import CycleBatcher
from repro.ingest.buffer import BackPressurePolicy, IngestBuffer
from repro.updates import (
    FlatUpdateBatch,
    QueryUpdate,
    QueryUpdateKind,
    appear_update,
    disappear_update,
    move_update,
)


class TestCoalescing:
    def test_last_write_wins_per_oid(self):
        buf = IngestBuffer(capacity=8)
        buf.offer(move_update(1, (0.0, 0.0), (0.1, 0.1)))
        buf.offer(move_update(1, (0.1, 0.1), (0.2, 0.2)))
        buf.offer(move_update(1, (0.2, 0.2), (0.3, 0.3)))
        assert buf.pending == 1
        drained = buf.drain()
        assert drained.object_targets == [(1, (0.3, 0.3))]
        assert drained.counters.offered == 3
        assert drained.counters.coalesced == 2

    def test_coalescing_keeps_arrival_order(self):
        buf = IngestBuffer(capacity=8)
        buf.offer(move_update(1, (0.0, 0.0), (0.1, 0.1)))
        buf.offer(move_update(2, (0.0, 0.0), (0.2, 0.2)))
        buf.offer(move_update(1, (0.1, 0.1), (0.9, 0.9)))
        assert [oid for oid, _ in buf.drain().object_targets] == [1, 2]

    def test_disappearance_coalesces_to_offline_target(self):
        buf = IngestBuffer(capacity=8)
        buf.offer(move_update(1, (0.0, 0.0), (0.1, 0.1)))
        buf.offer(disappear_update(1, (0.1, 0.1)))
        assert buf.drain().object_targets == [(1, None)]

    def test_appearance_then_move_keeps_latest_position(self):
        buf = IngestBuffer(capacity=8)
        buf.offer(appear_update(1, (0.5, 0.5)))
        buf.offer(move_update(1, (0.5, 0.5), (0.6, 0.6)))
        assert buf.drain().object_targets == [(1, (0.6, 0.6))]


class TestDropOldest:
    def test_full_buffer_sheds_stalest_object(self):
        buf = IngestBuffer(capacity=2, policy=BackPressurePolicy.DROP_OLDEST)
        buf.offer(move_update(1, (0, 0), (0.1, 0.1)))
        buf.offer(move_update(2, (0, 0), (0.2, 0.2)))
        buf.offer(move_update(3, (0, 0), (0.3, 0.3)))
        drained = buf.drain()
        assert [oid for oid, _ in drained.object_targets] == [2, 3]
        assert drained.counters.dropped == 1

    def test_coalescing_never_drops(self):
        buf = IngestBuffer(capacity=2, policy=BackPressurePolicy.DROP_OLDEST)
        buf.offer(move_update(1, (0, 0), (0.1, 0.1)))
        buf.offer(move_update(2, (0, 0), (0.2, 0.2)))
        buf.offer(move_update(1, (0.1, 0.1), (0.9, 0.9)))
        drained = buf.drain()
        assert drained.counters.dropped == 0
        assert drained.object_targets == [(1, (0.9, 0.9)), (2, (0.2, 0.2))]


class TestBlock:
    def test_block_times_out_when_full(self):
        buf = IngestBuffer(capacity=1, policy=BackPressurePolicy.BLOCK)
        assert buf.offer(move_update(1, (0, 0), (0.1, 0.1)))
        assert not buf.offer(move_update(2, (0, 0), (0.2, 0.2)), timeout=0.01)
        counters = buf.counters()
        assert counters.blocked == 1
        assert counters.rejected == 1

    def test_blocked_producer_resumes_after_drain(self):
        buf = IngestBuffer(capacity=1, policy=BackPressurePolicy.BLOCK)
        buf.offer(move_update(1, (0, 0), (0.1, 0.1)))
        accepted = []

        def producer():
            accepted.append(
                bool(buf.offer(move_update(2, (0, 0), (0.2, 0.2)), timeout=5.0))
            )

        thread = threading.Thread(target=producer)
        thread.start()
        # Give the producer a moment to block, then free a slot.
        for _ in range(1000):
            if buf.counters().blocked:
                break
        buf.drain()
        thread.join(timeout=5.0)
        assert accepted == [True]
        assert buf.drain().object_targets == [(2, (0.2, 0.2))]


class TestDrain:
    def test_partial_drain_is_fifo(self):
        buf = IngestBuffer(capacity=8)
        for oid in (1, 2, 3):
            buf.offer(move_update(oid, (0, 0), (oid / 10.0, 0.0)))
        first = buf.drain(max_objects=2)
        assert [oid for oid, _ in first.object_targets] == [1, 2]
        assert buf.pending == 1
        assert [oid for oid, _ in buf.drain().object_targets] == [3]

    def test_an_off_line_target_drains_with_zero_placeholders(self):
        """A chunk's disappearance rows may carry anything in their new
        columns (a wire frame says nothing about them); the drained
        targets, and the batch assembled from them, hold ``0.0``."""
        # oid 1 appears at (0.25, 0.5); oid 2 leaves, new side (0.7, 0.8).
        chunk = FlatUpdateBatch(
            0, [1, 2], [0.0, 0.1], [0.0, 0.1], [0.25, 0.7], [0.5, 0.8], [1, 0], [0, 1]
        )
        buf = IngestBuffer(capacity=8)
        assert buf.try_offer_rows(chunk) == (2, 2)
        targets = buf.drain().object_targets
        assert targets == [(1, (0.25, 0.5)), (2, None)]
        assert (list(targets.xs), list(targets.ys)) == ([0.25, 0.0], [0.5, 0.0])
        batcher = CycleBatcher()
        batcher.prime([(2, (0.1, 0.1))])
        batch, _noops = batcher.assemble(targets)
        assert (list(batch.new_xs), list(batch.new_ys)) == ([0.25, 0.0], [0.5, 0.0])

    def test_counter_deltas_reset_per_drain(self):
        buf = IngestBuffer(capacity=8)
        buf.offer(move_update(1, (0, 0), (0.1, 0.1)))
        assert buf.drain().counters.offered == 1
        buf.offer(move_update(2, (0, 0), (0.2, 0.2)))
        drained = buf.drain()
        assert drained.counters.offered == 1
        assert drained.counters.coalesced == 0

    def test_query_updates_are_fifo_and_unbounded(self):
        buf = IngestBuffer(capacity=1)
        qus = [QueryUpdate(q, QueryUpdateKind.TERMINATE) for q in (7, 8, 9)]
        for qu in qus:
            buf.offer_query(qu)
        drained = buf.drain()
        assert drained.query_updates == qus
        assert drained.counters.query_offered == 3

    def test_close_wakes_consumer(self):
        buf = IngestBuffer(capacity=4)
        buf.close()
        assert buf.closed
        assert buf.wait_for_work(count=1, deadline=None)

    def test_blocking_offer_on_closed_full_buffer_rejects_instead_of_hanging(self):
        buf = IngestBuffer(capacity=1, policy=BackPressurePolicy.BLOCK)
        buf.offer(move_update(1, (0, 0), (0.1, 0.1)))
        buf.close()
        # timeout=None would previously wait forever: nobody drains a
        # closed buffer.
        assert not buf.offer(move_update(2, (0, 0), (0.2, 0.2)), timeout=None)
        assert buf.counters().rejected == 1


class TestTryOffer:
    def test_try_offer_declines_without_touching_producer_stats(self):
        buf = IngestBuffer(capacity=1, policy=BackPressurePolicy.BLOCK)
        assert buf.try_offer(move_update(1, (0, 0), (0.1, 0.1))) == 1
        assert buf.try_offer(move_update(2, (0, 0), (0.2, 0.2))) == 0
        counters = buf.counters()
        assert counters.offered == 1  # the declined update was not counted
        assert counters.blocked == 0
        assert counters.rejected == 0

    def test_try_offer_coalesces_and_drops_like_offer(self):
        buf = IngestBuffer(capacity=2, policy=BackPressurePolicy.DROP_OLDEST)
        buf.try_offer(move_update(1, (0, 0), (0.1, 0.1)))
        buf.try_offer(move_update(1, (0.1, 0.1), (0.5, 0.5)))
        buf.try_offer(move_update(2, (0, 0), (0.2, 0.2)))
        buf.try_offer(move_update(3, (0, 0), (0.3, 0.3)))
        drained = buf.drain()
        assert drained.object_targets == [(2, (0.2, 0.2)), (3, (0.3, 0.3))]
        assert drained.counters.coalesced == 1
        assert drained.counters.dropped == 1


def test_capacity_validation():
    with pytest.raises(ValueError):
        IngestBuffer(capacity=0)


# ----------------------------------------------------------------------
# Chunks: a FlatUpdateBatch staged under one lock acquisition
# ----------------------------------------------------------------------

#: ``(oid, disappears)`` rows; few enough objects that a chunk repeats
#: some, enough that a chunk can also bring only new ones.
chunk_rows = st.lists(
    st.tuples(st.integers(min_value=0, max_value=24), st.booleans()),
    max_size=20,
)


def _updates(rows, salt: float = 0.0):
    return [
        disappear_update(oid, (0.5, 0.5))
        if gone
        else move_update(oid, (0.5, 0.5), (oid / 16, salt + i / 64))
        for i, (oid, gone) in enumerate(rows)
    ]


def _state(buf: IngestBuffer):
    return buf.pending, buf.counters(), buf.drain().object_targets


class TestChunks:
    @given(
        prefill=chunk_rows,
        rows=chunk_rows,
        start=st.integers(min_value=0, max_value=8),
        capacity_slack=st.integers(min_value=-3, max_value=3),
        limit_slack=st.one_of(st.none(), st.integers(min_value=-3, max_value=3)),
        policy=st.sampled_from(list(BackPressurePolicy)),
    )
    def test_try_offer_rows_equals_try_offer_one_by_one(
        self, prefill, rows, start, capacity_slack, limit_slack, policy
    ):
        """Fast path or per-row path, a chunk stages exactly what the
        driver's row loop would: up to the row that reaches ``limit``,
        or up to the row a full BLOCK buffer declines.  Capacity and
        limit sit within a few rows of what prefill plus chunk need, the
        boundary the fast path must not cross."""
        start = min(start, len(rows))
        need = len({oid for oid, _gone in prefill}) + len(rows) - start
        capacity = max(1, need + capacity_slack)
        limit = None if limit_slack is None else max(1, need + limit_slack)
        updates = _updates(rows, salt=0.25)
        bufs = [IngestBuffer(capacity=capacity, policy=policy) for _ in range(2)]
        for buf in bufs:
            for update in _updates(prefill):
                buf.try_offer(update)
        chunked, by_row = bufs
        next_row, pending = chunked.try_offer_rows(
            FlatUpdateBatch.from_updates(updates), start, limit
        )
        row = start
        for update in updates[start:]:
            staged = by_row.try_offer(update)
            if not staged:
                break
            row += 1
            if limit is not None and staged >= limit:
                break
        assert (next_row, pending) == (row, by_row.pending)
        assert _state(chunked) == _state(by_row)

    @given(rows=chunk_rows, capacity=st.integers(min_value=1, max_value=16))
    def test_offer_rows_equals_offer_one_by_one(self, rows, capacity):
        updates = _updates(rows)
        chunked = IngestBuffer(capacity, BackPressurePolicy.DROP_OLDEST)
        by_row = IngestBuffer(capacity, BackPressurePolicy.DROP_OLDEST)
        assert chunked.offer_rows(FlatUpdateBatch.from_updates(updates)) == len(rows)
        for update in updates:
            assert by_row.offer(update)
        assert _state(chunked) == _state(by_row)

    def test_a_chunk_blocked_mid_way_wakes_the_consumer_first(self):
        """Rows staged before a BLOCK wait are announced before the
        producer sleeps: a consumer waiting for them drains at once, so
        an untimed producer never deadlocks against it."""
        buf = IngestBuffer(capacity=2, policy=BackPressurePolicy.BLOCK)
        chunk = FlatUpdateBatch.from_updates(_updates([(i, False) for i in range(5)]))
        staged = []
        producer = threading.Thread(
            target=lambda: staged.append(buf.offer_rows(chunk)), daemon=True
        )
        producer.start()
        drained = []
        t0 = time.monotonic()
        while len(drained) < 5 and time.monotonic() - t0 < 5.0:
            buf.wait_for_work(count=1, deadline=time.monotonic() + 5.0)
            drained += [oid for oid, _target in buf.drain().object_targets]
        producer.join(5.0)
        assert not producer.is_alive()
        assert staged == [5] and drained == [0, 1, 2, 3, 4]
        assert time.monotonic() - t0 < 2.0


class TestStagedColumnsStayBounded:
    """Superseded rows (coalesced writes, DROP_OLDEST evictions) are
    compacted away once the staged columns pass twice the capacity, so
    a hot set of oids or a stalled consumer cannot grow the buffer."""

    def test_coalescing_offers(self):
        buf = IngestBuffer(capacity=4)
        widest = 0
        for i in range(1000):
            buf.offer(move_update(i % 3, (0, 0), (i / 1000, 0.5)))
            widest = max(widest, len(buf._xs))
        assert widest <= 8
        assert buf.drain().object_targets == [
            (0, (0.999, 0.5)),
            (1, (0.997, 0.5)),
            (2, (0.998, 0.5)),
        ]

    def test_coalescing_chunks(self):
        """Every chunk fits the room left, so each is staged at once."""
        buf = IngestBuffer(capacity=8)
        widest = 0
        for i in range(500):
            chunk = FlatUpdateBatch.from_updates(
                [move_update(oid, (0, 0), (oid / 8, i / 500)) for oid in range(4)]
            )
            assert buf.try_offer_rows(chunk) == (4, 4)
            widest = max(widest, len(buf._xs))
        assert widest <= 16
        drained = buf.drain()
        assert drained.object_targets == [(oid, (oid / 8, 499 / 500)) for oid in range(4)]
        assert drained.counters.coalesced == 4 * 499

    def test_drop_oldest_with_a_stalled_consumer(self):
        buf = IngestBuffer(capacity=4, policy=BackPressurePolicy.DROP_OLDEST)
        widest = 0
        for start in range(0, 3000, 3):
            chunk = FlatUpdateBatch.from_updates(
                [move_update(oid, (0, 0), (oid / 3000, 0.5)) for oid in range(start, start + 3)]
            )
            assert buf.offer_rows(chunk) == 3
            widest = max(widest, len(buf._xs))
        assert widest <= 8
        first = buf.drain(max_objects=2)
        assert [oid for oid, _ in first.object_targets] == [2996, 2997]
        assert first.counters.dropped == 3000 - 4
        assert buf.drain().object_targets == [
            (2998, (2998 / 3000, 0.5)),
            (2999, (2999 / 3000, 0.5)),
        ]
