"""Property-based tests for the NeighborList data structure."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.neighbors import NeighborList

dist = st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False)


@given(st.lists(dist, max_size=60), st.integers(min_value=1, max_value=10))
@settings(max_examples=200, deadline=None)
def test_add_keeps_k_smallest(dists, k):
    nn = NeighborList(k)
    for oid, d in enumerate(dists):
        nn.add(d, oid)
    expected = sorted((d, oid) for oid, d in enumerate(dists))[:k]
    assert nn.entries() == expected


@given(st.lists(dist, min_size=1, max_size=40), st.integers(min_value=1, max_value=8))
@settings(max_examples=200, deadline=None)
def test_entries_always_sorted_and_capped(dists, k):
    nn = NeighborList(k)
    for oid, d in enumerate(dists):
        nn.add(d, oid)
    entries = nn.entries()
    assert entries == sorted(entries)
    assert len(entries) <= k


@given(
    st.lists(dist, min_size=3, max_size=30),
    st.integers(min_value=1, max_value=6),
    st.lists(dist, max_size=12),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_merge_ranks_live_map_plus_incomers(dists, k, incoming, data):
    """The update loop's protocol: re-key and evict members through the
    distance map, collect incomers unordered, then merge once — the
    result is the k best of whatever survived plus the incomers, and the
    two internal views agree again."""
    nn = NeighborList(k)
    for oid, d in enumerate(dists):
        nn.add(d, oid)
    members = [oid for _d, oid in nn.entries()]
    survivors = {}
    for oid in members:
        fate = data.draw(st.sampled_from(["keep", "rekey", "evict"]))
        if fate == "rekey":
            nn._dists[oid] = data.draw(dist)
        elif fate == "evict":
            del nn._dists[oid]
            continue
        survivors[oid] = nn._dists[oid]
    incomers = {1000 + i: d for i, d in enumerate(incoming)}
    nn.merge(incomers)
    pool = {**survivors, **incomers}
    expected = sorted((d, oid) for oid, d in pool.items())[:k]
    assert nn.entries() == expected
    assert {oid: d for d, oid in expected} == nn._dists
    for d, oid in expected:
        assert nn._dists[oid] == d


@given(
    st.lists(st.tuples(dist, st.integers(min_value=0, max_value=100)), max_size=40),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=200, deadline=None)
def test_replace_equals_sorted_dedup_topk(pairs, k):
    nn = NeighborList(k)
    nn.replace(pairs)
    best: dict[int, float] = {}
    for d, oid in pairs:
        if oid not in best or d < best[oid]:
            best[oid] = d
    expected = sorted((d, oid) for oid, d in best.items())[:k]
    assert nn.entries() == expected


@given(st.lists(dist, max_size=30), st.integers(min_value=1, max_value=5))
@settings(max_examples=150, deadline=None)
def test_kth_dist_semantics(dists, k):
    nn = NeighborList(k)
    for oid, d in enumerate(dists):
        nn.add(d, oid)
    if len(dists) < k:
        assert math.isinf(nn.kth_dist)
    else:
        assert nn.kth_dist == sorted(dists)[k - 1]
