"""Unit tests for the best_NN list (repro.core.neighbors)."""

import math

import pytest

from repro.core.neighbors import NeighborList


class TestAdd:
    def test_fills_to_capacity(self):
        nn = NeighborList(3)
        assert nn.add(0.5, 1)
        assert nn.add(0.3, 2)
        assert nn.add(0.7, 3)
        assert nn.is_full
        assert [oid for _d, oid in nn.entries()] == [2, 1, 3]

    def test_rejects_worse_when_full(self):
        nn = NeighborList(2)
        nn.add(0.1, 1)
        nn.add(0.2, 2)
        assert not nn.add(0.9, 3)
        assert 3 not in nn

    def test_evicts_worst_when_better_arrives(self):
        nn = NeighborList(2)
        nn.add(0.1, 1)
        nn.add(0.5, 2)
        assert nn.add(0.3, 3)
        assert 2 not in nn
        assert nn.entries() == [(0.1, 1), (0.3, 3)]

    def test_tie_broken_by_oid(self):
        nn = NeighborList(1)
        nn.add(0.5, 10)
        # Same distance, smaller id wins.
        assert nn.add(0.5, 3)
        assert nn.entries() == [(0.5, 3)]
        # Same distance, larger id loses.
        assert not nn.add(0.5, 20)

    def test_duplicate_oid_raises(self):
        nn = NeighborList(3)
        nn.add(0.5, 1)
        with pytest.raises(KeyError):
            nn.add(0.4, 1)

    def test_k_below_one_raises(self):
        with pytest.raises(ValueError):
            NeighborList(0)


class TestKthDist:
    def test_inf_while_underfull(self):
        nn = NeighborList(3)
        nn.add(0.5, 1)
        assert math.isinf(nn.kth_dist)

    def test_equals_last_entry_when_full(self):
        nn = NeighborList(2)
        nn.add(0.2, 1)
        nn.add(0.6, 2)
        assert nn.kth_dist == 0.6

    def test_shrinks_as_better_candidates_arrive(self):
        nn = NeighborList(2)
        nn.add(0.8, 1)
        nn.add(0.9, 2)
        nn.add(0.1, 3)
        nn.add(0.2, 4)
        assert nn.kth_dist == 0.2


class TestMembership:
    def test_contains_and_dist_of(self):
        nn = NeighborList(2)
        nn.add(0.4, 7)
        assert 7 in nn
        assert nn._dists[7] == 0.4
        assert 8 not in nn

    def test_len_and_iter(self):
        nn = NeighborList(3)
        nn.add(0.2, 1)
        nn.add(0.1, 2)
        assert len(nn) == 2
        assert list(nn) == [(0.1, 2), (0.2, 1)]


class TestMerge:
    """``merge`` is the once-per-cycle ordering step: the engine edits the
    distance map (``_dists``) in the update loop and merge re-ranks."""

    @staticmethod
    def filled(k, *pairs):
        nn = NeighborList(k)
        for d, oid in pairs:
            nn.add(d, oid)
        return nn

    def test_rekeyed_member_is_reordered(self):
        nn = self.filled(3, (0.1, 1), (0.2, 2), (0.3, 3))
        nn._dists[1] = 0.25
        nn.merge({})
        assert nn.entries() == [(0.2, 2), (0.25, 1), (0.3, 3)]
        assert nn._dists[1] == 0.25

    def test_entries_stay_pre_cycle_until_merge(self):
        nn = self.filled(2, (0.1, 1), (0.2, 2))
        before = nn.entries()
        nn._dists[1] = 0.9
        del nn._dists[2]
        # The stale window: membership is live, the ordered view is not.
        assert 2 not in nn
        assert nn.entries() == before
        nn.merge({})
        assert nn.entries() == [(0.9, 1)]

    def test_incomers_replace_evicted_members(self):
        nn = self.filled(2, (0.1, 1), (0.5, 2))
        del nn._dists[2]
        nn.merge({7: 0.3})
        assert nn.entries() == [(0.1, 1), (0.3, 7)]
        assert 2 not in nn
        assert 7 in nn

    def test_keeps_k_best_of_members_and_incomers(self):
        nn = self.filled(2, (0.2, 1), (0.4, 2))
        nn.merge({7: 0.1, 8: 0.3, 9: 0.5})
        assert nn.entries() == [(0.1, 7), (0.2, 1)]
        assert nn.kth_dist == 0.2
        assert 2 not in nn
        assert 8 not in nn

    def test_ties_broken_by_oid(self):
        nn = self.filled(2, (0.5, 10))
        nn.merge({3: 0.5, 20: 0.5})
        assert nn.entries() == [(0.5, 3), (0.5, 10)]

    def test_underfull_after_eviction_reports_inf(self):
        nn = self.filled(2, (0.1, 1), (0.2, 2))
        del nn._dists[2]
        nn.merge({})
        assert len(nn) == 1
        assert math.isinf(nn.kth_dist)

    def test_does_not_edit_a_snapshot_in_place(self):
        nn = self.filled(2, (0.1, 1), (0.2, 2))
        stale = nn._entries
        nn._dists[1] = 0.3
        nn.merge({})
        assert stale == [(0.1, 1), (0.2, 2)]
        assert nn._entries is not stale


class TestReplace:
    def test_keeps_k_best(self):
        nn = NeighborList(2)
        nn.replace([(0.9, 1), (0.1, 2), (0.5, 3)])
        assert nn.entries() == [(0.1, 2), (0.5, 3)]

    def test_deduplicates_keeping_best_distance(self):
        nn = NeighborList(3)
        nn.replace([(0.9, 1), (0.2, 1), (0.5, 3)])
        assert nn.entries() == [(0.2, 1), (0.5, 3)]

    def test_replace_with_fewer_than_k(self):
        nn = NeighborList(5)
        nn.replace([(0.3, 1)])
        assert len(nn) == 1
        assert math.isinf(nn.kth_dist)

    def test_replace_clears_previous(self):
        nn = NeighborList(2)
        nn.add(0.1, 1)
        nn.replace([(0.2, 2)])
        assert 1 not in nn
        assert 2 in nn


class TestClear:
    def test_clear(self):
        nn = NeighborList(2)
        nn.add(0.1, 1)
        nn.clear()
        assert len(nn) == 0
        assert 1 not in nn
        assert math.isinf(nn.kth_dist)
