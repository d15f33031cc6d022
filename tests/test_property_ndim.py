"""Property-based tests for the d-dimensional CPM package."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from ndim.cpm import NdCPMMonitor
from ndim.partition import NdConceptualPartition
from repro.updates import ObjectUpdate

coord = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def nd_partitions(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    cells = draw(st.integers(min_value=1, max_value=6 if d <= 3 else 4))
    core_lo = tuple(draw(st.integers(min_value=0, max_value=cells - 1)) for _ in range(d))
    core_hi = tuple(
        draw(st.integers(min_value=lo, max_value=cells - 1)) for lo in core_lo
    )
    return NdConceptualPartition(core_lo, core_hi, cells)


@given(nd_partitions())
@settings(max_examples=120, deadline=None)
def test_nd_partition_tiles_exactly_once(partition):
    counts: dict = {}
    for direction in range(partition.direction_count):
        level = 0
        while partition.exists(direction, level):
            for cell in partition.slab_cells(direction, level):
                counts[cell] = counts.get(cell, 0) + 1
            level += 1
    for cell in partition.core_cells():
        counts[cell] = counts.get(cell, 0) + 1
    assert len(counts) == partition.cells_per_axis**partition.dimensions
    assert all(c == 1 for c in counts.values())


@given(nd_partitions())
@settings(max_examples=80, deadline=None)
def test_nd_owner_agrees_with_enumeration(partition):
    for direction in range(partition.direction_count):
        level = 0
        while partition.exists(direction, level):
            for cell in partition.slab_cells(direction, level):
                assert partition.owner_of(cell) == (direction, level)
            level += 1


@st.composite
def nd_scripts(draw):
    d = draw(st.integers(min_value=1, max_value=3))
    point = st.tuples(*([coord] * d))
    n_initial = draw(st.integers(min_value=0, max_value=15))
    initial = {oid: draw(point) for oid in range(n_initial)}
    n_batches = draw(st.integers(min_value=1, max_value=4))
    batches = []
    alive = set(initial)
    next_oid = n_initial
    for _ in range(n_batches):
        events = []
        used = set()
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            kind = draw(st.sampled_from(["move", "appear", "disappear"]))
            if kind == "move" and alive - used:
                oid = draw(st.sampled_from(sorted(alive - used)))
                events.append(("move", oid, draw(point)))
                used.add(oid)
            elif kind == "disappear" and alive - used:
                oid = draw(st.sampled_from(sorted(alive - used)))
                events.append(("disappear", oid, None))
                used.add(oid)
                alive.discard(oid)
            else:
                events.append(("appear", next_oid, draw(point)))
                alive.add(next_oid)
                used.add(next_oid)
                next_oid += 1
        batches.append(events)
    q = draw(point)
    return d, initial, batches, q


@given(nd_scripts(), st.integers(min_value=1, max_value=4))
@settings(max_examples=100, deadline=None)
def test_nd_cpm_equals_brute_force_under_any_stream(script, k):
    d, initial, batches, q = script
    monitor = NdCPMMonitor(cells_per_axis=3, dimensions=d)
    monitor.load_objects(initial.items())
    positions = dict(initial)

    def expected():
        return sorted(math.dist(p, q) for p in positions.values())[:k]

    def got():
        return [dist for dist, _oid in monitor.result(0)]

    monitor.install_query(0, q, k)
    assert all(abs(a - b) < 1e-9 for a, b in zip(got(), expected()))
    assert len(got()) == len(expected())
    for events in batches:
        updates = []
        for kind, oid, new in events:
            if kind == "move":
                updates.append(ObjectUpdate(oid, positions[oid], new))
                positions[oid] = new
            elif kind == "appear":
                updates.append(ObjectUpdate(oid, None, new))
                positions[oid] = new
            else:
                updates.append(ObjectUpdate(oid, positions.pop(oid), None))
        monitor.process(updates)
        assert len(got()) == len(expected())
        assert all(abs(a - b) < 1e-9 for a, b in zip(got(), expected()))
