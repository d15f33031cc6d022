"""Property-based tests: aggregate-NN monitoring (Section 5).

For every aggregate function, every generated query-point set and every
generated update stream, the CPM ANN result must match a brute-force
aggregate-distance scan.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cpm import CPMMonitor
from repro.geometry.aggregates import adist
from repro.updates import ObjectUpdate

coord = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)
point = st.tuples(coord, coord)
aggregate = st.sampled_from(["sum", "min", "max"])


def brute_adists(positions, query_points, k, fn):
    dists = sorted(adist(p, query_points, fn) for p in positions.values())
    return dists[:k]


def close(a, b, tol=1e-9):
    return len(a) == len(b) and all(abs(x - y) <= tol for x, y in zip(a, b))


@given(
    st.lists(point, min_size=0, max_size=30),
    st.lists(point, min_size=1, max_size=5),
    st.integers(min_value=1, max_value=4),
    aggregate,
    st.integers(min_value=2, max_value=10),
)
@settings(max_examples=150, deadline=None)
def test_ann_search_matches_brute_force(objects, query_points, k, fn, cells):
    monitor = CPMMonitor(cells_per_axis=cells)
    positions = dict(enumerate(objects))
    monitor.load_objects(positions.items())
    got = monitor.install_ann_query(0, query_points, k=k, fn=fn)
    assert close([d for d, _ in got], brute_adists(positions, query_points, k, fn))


@st.composite
def ann_scripts(draw):
    n_initial = draw(st.integers(min_value=0, max_value=18))
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
    return initial, batches


@given(
    ann_scripts(),
    st.lists(point, min_size=1, max_size=4),
    st.integers(min_value=1, max_value=3),
    aggregate,
)
@settings(max_examples=80, deadline=None)
def test_ann_monitoring_under_any_stream(script, query_points, k, fn):
    initial, batches = script
    monitor = CPMMonitor(cells_per_axis=6)
    monitor.load_objects(initial.items())
    positions = dict(initial)
    monitor.install_ann_query(0, query_points, k=k, fn=fn)
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
        monitor.check_invariants()
        assert close(
            [d for d, _ in monitor.result(0)],
            brute_adists(positions, query_points, k, fn),
        )


@given(
    st.lists(point, min_size=1, max_size=25),
    point,
    st.tuples(
        st.floats(min_value=0.0, max_value=0.6),
        st.floats(min_value=0.0, max_value=0.6),
    ),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=100, deadline=None)
def test_constrained_search_matches_filtered_brute_force(objects, q, corner, k):
    from repro.geometry.rects import Rect

    region = Rect(corner[0], corner[1], corner[0] + 0.4, corner[1] + 0.4)
    monitor = CPMMonitor(cells_per_axis=8)
    positions = dict(enumerate(objects))
    monitor.load_objects(positions.items())
    got = monitor.install_constrained_query(0, q, region, k=k)
    expected = sorted(
        math.hypot(x - q[0], y - q[1])
        for (x, y) in positions.values()
        if region.contains_point(x, y)
    )[:k]
    assert close([d for d, _ in got], expected)
