"""Unit tests for the search heap H (Figure 3.4 machinery)."""

import pytest

from repro.core.heap import CELL, RECT, SearchHeap
from repro.core.partition import DOWN, LEFT, RIGHT, UP


class TestBasicOrdering:
    def test_pops_ascending_keys(self):
        heap = SearchHeap()
        heap.push_cell(0.9, 1, 1)
        heap.push_cell(0.1, 2, 2)
        heap.push_cell(0.5, 3, 3)
        keys = [heap.pop()[0] for _ in range(3)]
        assert keys == [0.1, 0.5, 0.9]

    def test_mixed_kinds_sorted_together(self):
        heap = SearchHeap()
        heap.push_rect(0.2, UP, 0)
        heap.push_cell(0.1, 0, 0)
        heap.push_rect(0.05, LEFT, 0)
        kinds = [heap.pop()[2] for _ in range(3)]
        assert kinds == [RECT, CELL, RECT]

    def test_tie_broken_by_insertion_order(self):
        heap = SearchHeap()
        heap.push_cell(0.5, 1, 1)
        heap.push_cell(0.5, 2, 2)
        first = heap.pop()
        second = heap.pop()
        assert (first[3], first[4]) == (1, 1)
        assert (second[3], second[4]) == (2, 2)

    def test_peek_does_not_pop(self):
        heap = SearchHeap()
        heap.push_cell(0.3, 1, 1)
        assert heap.peek_key() == 0.3
        assert len(heap) == 1

    def test_peek_empty_is_inf(self):
        assert SearchHeap().peek_key() == float("inf")

    def test_bool_and_len(self):
        heap = SearchHeap()
        assert not heap
        heap.push_cell(0.1, 0, 0)
        assert heap
        assert len(heap) == 1


class TestEntryPayloads:
    def test_cell_payload(self):
        heap = SearchHeap()
        heap.push_cell(0.25, 7, 3)
        key, _seq, kind, a, b = heap.pop()
        assert (key, kind, a, b) == (0.25, CELL, 7, 3)

    def test_rect_payload(self):
        heap = SearchHeap()
        heap.push_rect(0.75, DOWN, 2)
        key, _seq, kind, a, b = heap.pop()
        assert (key, kind, a, b) == (0.75, RECT, DOWN, 2)


class TestCounting:
    def test_cell_and_rect_entry_counts(self):
        heap = SearchHeap()
        heap.push_cell(0.1, 0, 0)
        heap.push_cell(0.2, 1, 0)
        heap.push_rect(0.3, UP, 0)
        heap.push_rect(0.4, RIGHT, 0)
        heap.push_rect(0.5, DOWN, 0)
        assert heap.cell_entry_count() == 2
        assert heap.rect_entry_count() == 3

    def test_clear(self):
        heap = SearchHeap()
        heap.push_cell(0.1, 0, 0)
        heap.push_rect(0.2, UP, 1)
        heap.clear()
        assert len(heap) == 0
        assert heap.cell_entry_count() == 0

    def test_entries_snapshot(self):
        heap = SearchHeap()
        heap.push_cell(0.1, 0, 0)
        snapshot = heap.entries()
        snapshot.clear()
        assert len(heap) == 1


    def test_export_adopt_rebuilds_an_identical_heap(self):
        """Same pop order *and* the same future tie-breaks (the sequence
        counter travels with the entries), sharing no list."""
        heap = SearchHeap()
        heap.push_cell(0.2, 1, 0)
        heap.push_rect(0.2, UP, 0)
        heap.push_cell(0.1, 0, 0)
        heap.pop()
        twin = SearchHeap()
        twin.adopt(heap.export())
        twin.push_cell(0.2, 2, 0)
        assert len(heap) == 2
        heap.push_cell(0.2, 2, 0)
        assert twin.entries() == heap.entries()
        assert [twin.pop() for _ in range(3)] == [heap.pop() for _ in range(3)]


class TestMonotonicDeheap:
    def test_deheap_sequence_never_decreases(self):
        # The CPM search relies on ascending de-heap keys (visit-list order).
        import random

        rng = random.Random(3)
        heap = SearchHeap()
        for _ in range(50):
            heap.push_cell(rng.random(), rng.randrange(10), rng.randrange(10))
        last = -1.0
        while heap:
            key = heap.pop()[0]
            assert key >= last
            last = key

    def test_interleaved_push_pop_monotone_when_pushes_dominate(self):
        # Pushing keys >= the last popped key keeps the sequence monotone
        # (this mirrors rectangle expansion: children keys >= parent key).
        heap = SearchHeap()
        heap.push_cell(0.1, 0, 0)
        key0 = heap.pop()[0]
        heap.push_cell(key0 + 0.1, 1, 1)
        heap.push_rect(key0 + 0.05, UP, 0)
        key1 = heap.pop()[0]
        assert key1 >= key0
