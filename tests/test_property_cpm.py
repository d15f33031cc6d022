"""Property-based tests: CPM correctness under arbitrary update streams.

The central invariant of the whole paper: after any sequence of object
updates (moves, appearances, disappearances), every monitored query's
result equals the brute-force k-NN over the current positions.  Distance
multisets are compared (ids can legitimately differ under exact ties,
which hypothesis *will* generate via duplicate coordinates).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cpm import CPMMonitor
from repro.updates import ObjectUpdate

coord = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)
point = st.tuples(coord, coord)


def brute_dists(positions, q, k):
    dists = sorted(math.hypot(x - q[0], y - q[1]) for x, y in positions.values())
    return dists[:k]


def result_dists(entries):
    return [d for d, _oid in entries]


def close(a, b, tol=1e-9):
    return len(a) == len(b) and all(abs(x - y) <= tol for x, y in zip(a, b))


@st.composite
def update_scripts(draw):
    """An initial population plus a batched stream of random events."""
    n_initial = draw(st.integers(min_value=0, max_value=25))
    initial = {oid: draw(point) for oid in range(n_initial)}
    n_batches = draw(st.integers(min_value=1, max_value=6))
    batches = []
    alive = set(initial)
    next_oid = n_initial
    for _ in range(n_batches):
        n_events = draw(st.integers(min_value=0, max_value=8))
        events = []
        used = set()
        for _ in range(n_events):
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
    update_scripts(),
    point,
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=2, max_value=10),
)
@settings(max_examples=120, deadline=None)
def test_cpm_equals_brute_force_under_any_stream(script, q, k, cells):
    initial, batches = script
    monitor = CPMMonitor(cells_per_axis=cells)
    monitor.load_objects(initial.items())
    positions = dict(initial)
    got = monitor.install_query(0, q, k)
    assert close(result_dists(got), brute_dists(positions, q, k))
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
            result_dists(monitor.result(0)), brute_dists(positions, q, k)
        )


@given(
    update_scripts(),
    point,
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_ablation_variants_agree_with_full_cpm(script, q, k):
    initial, batches = script
    full = CPMMonitor(cells_per_axis=4)
    no_merge = CPMMonitor(cells_per_axis=4, merge_optimization=False)
    no_book = CPMMonitor(cells_per_axis=4, reuse_bookkeeping=False)
    monitors = (full, no_merge, no_book)
    positions = dict(initial)
    for m in monitors:
        m.load_objects(initial.items())
        m.install_query(0, q, k)
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
        for m in monitors:
            m.process(updates)
            m.check_invariants()
        ref = result_dists(full.result(0))
        assert close(result_dists(no_merge.result(0)), ref)
        assert close(result_dists(no_book.result(0)), ref)


@given(
    st.lists(point, min_size=1, max_size=40),
    point,
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=2, max_value=12),
)
@settings(max_examples=150, deadline=None)
def test_search_is_cell_minimal(objects, q, k, cells):
    """CPM's visit list equals the minimal cell set: all cells with
    mindist < best_dist, none with mindist > best_dist."""
    monitor = CPMMonitor(cells_per_axis=cells)
    monitor.load_objects(
        (oid, pos) for oid, pos in enumerate(objects)
    )
    monitor.install_query(0, q, k)
    state = monitor.query_state(0)
    best = state.best_dist
    visited = set(state.visit_cells)
    grid = monitor.grid
    if math.isinf(best):
        # Under-populated: every cell must have been visited.
        assert len(visited) == grid.cols * grid.rows
        return
    for i in range(grid.cols):
        for j in range(grid.rows):
            md = grid.mindist(i, j, q)
            if md < best - 1e-12:
                assert (i, j) in visited
            elif md > best + 1e-12:
                assert (i, j) not in visited


@given(
    update_scripts(),
    point,
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_marked_prefix_invariant_holds_throughout(script, q, k):
    """The grid cells marked for a query are exactly the visit-list prefix
    recorded in its state — after every batch."""
    initial, batches = script
    monitor = CPMMonitor(cells_per_axis=5)
    monitor.load_objects(initial.items())
    positions = dict(initial)
    monitor.install_query(0, q, k)
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
        state = monitor.query_state(0)
        marked = set(monitor.grid.marked_cells(0))
        assert marked == set(state.visit_cells[: state.marked_upto])
        # And the visit list stays sorted by key.
        assert state.visit_keys == sorted(state.visit_keys)


def test_visit_keys_on_a_cell_boundary_stay_ordered():
    """q=(0.8, 0.0) on a 5x5 grid lies on grid lines.  Its level-1 LEFT
    strip cells key 0.19999999999999996 (0.8 - (0.4 + 0.2)), one ulp
    below 0.2, so a strip keyed ``0.0 + step`` would pop after a 0.2
    cell and visit them out of order; a strip keyed from its own grid
    line cannot."""
    monitor = CPMMonitor(cells_per_axis=5)
    monitor.load_objects([(1, (0.05, 0.95)), (2, (0.1, 0.9))])
    monitor.install_query(0, (0.8, 0.0), 2)
    assert 0.19999999999999996 in monitor.query_state(0).visit_keys
    for update in (None, ObjectUpdate(2, (0.1, 0.9), (0.15, 0.85))):
        if update is not None:
            monitor.process([update])
        monitor.check_invariants()
        state = monitor.query_state(0)
        assert state.visit_keys == sorted(state.visit_keys)
        marked = set(monitor.grid.marked_cells(0))
        assert marked == set(state.visit_cells[: state.marked_upto])


def test_visit_keys_ordered_for_every_grid_line_query():
    """The same property swept over every grid-line intersection of a
    few grids, each query searching (nearly) the whole grid."""
    for cells in (5, 7, 10):
        for i in range(cells + 1):
            for j in range(cells + 1):
                q = (i / cells, j / cells)
                monitor = CPMMonitor(cells_per_axis=cells)
                far = (1.0 - q[0] or 0.01, 1.0 - q[1] or 0.01)
                monitor.load_objects([(1, far)])
                monitor.install_query(0, q, 1)
                keys = monitor.query_state(0).visit_keys
                assert keys == sorted(keys), (cells, q)
