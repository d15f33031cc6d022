"""The stale window of update handling, under repeated oids in one cycle.

Between a query's first touch in a cycle and its finalize the engine
keeps only the oid -> distance map of its NN list live (the ordered
entries are the pre-cycle result, the incomers an unordered dict; see
:mod:`repro.core.cpm`).  An object that issues several rows in one cycle
walks through that window more than once: an NN leaves and returns, is
re-keyed twice, an incomer moves again or goes off-line, more than k
incomers pile up while NNs leave, distinct objects tie at one distance.

Every script here runs through the single engine and
``PartitionedMonitor(2)``.  The two must agree byte for byte (results,
changed sets, ``GridStats``), satisfy ``check_invariants`` and
match the brute-force oracle's distances (ids may differ from it under
exact ties, as in ``test_property_cpm``).

Coordinates are dyadic (multiples of 1/32) around queries at cell
centres of the 8x8 grid, so mirrored positions give *exactly* equal
distances and no query sits on a cell boundary.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.brute import BruteForceMonitor
from repro.core.cpm import CPMMonitor
from repro.service.partition import PartitionedMonitor
from repro.updates import appear_update, disappear_update, move_update

CELLS = 8
N_SHARDS = 2


def run_everywhere(initial, queries, batches, halo=1):
    """Replay ``batches`` of ``(oid, new_or_None)`` rows into all engines.

    ``initial`` maps oid -> position, ``queries`` qid -> (point, k); a row
    for an off-line oid is an appearance, ``None`` a disappearance.
    """
    single = CPMMonitor(cells_per_axis=CELLS)
    part = PartitionedMonitor(N_SHARDS, cells_per_axis=CELLS, halo=halo)
    brute = BruteForceMonitor()
    for monitor in (single, part, brute):
        monitor.load_objects(initial.items())
        for qid, (point, k) in queries.items():
            monitor.install_query(qid, point, k)

    def check(tag):
        table = single.result_table()
        assert part.result_table() == table, tag
        for qid, entries in table.items():
            assert [d for d, _ in entries] == [d for d, _ in brute.result(qid)], (
                tag,
                qid,
            )
        single.check_invariants()
        part.check_invariants()
        assert part.stats.snapshot() == single.stats.snapshot(), tag

    check("install")
    positions = dict(initial)
    for t, rows in enumerate(batches):
        updates = []
        for oid, new in rows:
            old = positions.get(oid)
            if new is None:
                updates.append(disappear_update(oid, positions.pop(oid)))
                continue
            updates.append(
                appear_update(oid, new) if old is None else move_update(oid, old, new)
            )
            positions[oid] = new
        changed = single.process(updates)
        assert part.process(updates) == changed, t
        brute.process(updates)
        check(t)


# ----------------------------------------------------------------------
# Directed scripts: one per way through the window
# ----------------------------------------------------------------------

Q = (0.5625, 0.5625)  # centre of cell (4, 4)
NEAR = {
    1: (0.5625, 0.59375),  # d = 1/32
    2: (0.5625, 0.625),  # d = 2/32
    3: (0.5625, 0.65625),  # d = 3/32
}
FAR = {
    10: (0.03125, 0.03125),
    11: (0.96875, 0.03125),
    12: (0.03125, 0.96875),
    13: (0.96875, 0.96875),
}
AWAY = (0.09375, 0.53125)
#: a second cycle over whatever the script left behind.
FOLLOW_UP = [(20, (0.5625, 0.5703125)), (2, (0.5625, 0.6875))]

DIRECTED = {
    "nn_leaves_and_returns": [(2, AWAY), (2, (0.5625, 0.625))],
    "nn_leaves_and_returns_closer": [(3, AWAY), (1, AWAY), (3, (0.5625, 0.578125))],
    "nn_rekeyed_twice": [(1, (0.5625, 0.609375)), (1, (0.59375, 0.5625))],
    "nn_rekeyed_then_leaves": [(1, (0.5625, 0.609375)), (1, AWAY)],
    "incomer_moves_again": [(10, (0.5625, 0.578125)), (10, (0.5625, 0.640625))],
    "incomer_moves_out_again": [(10, (0.5625, 0.578125)), (3, AWAY), (10, AWAY)],
    "incomer_disappears": [(10, (0.5625, 0.578125)), (3, AWAY), (10, None)],
    "more_than_k_incomers_with_outgoing": [
        (3, AWAY),
        (10, (0.5625, 0.578125)),
        (2, AWAY),
        (11, (0.578125, 0.5625)),
        (12, (0.546875, 0.5625)),
        (13, (0.5625, 0.546875)),
        (10, (0.5625, 0.640625)),
    ],
    "ties_on_different_oids": [
        (10, (0.5625, 0.46875)),  # mirrors NN 3 at d = 3/32
        (11, (0.65625, 0.5625)),
        (3, (0.46875, 0.5625)),
    ],
    "disappears_and_reappears": [(1, None), (1, (0.5625, 0.59375))],
}


@pytest.mark.parametrize("name", sorted(DIRECTED))
@pytest.mark.parametrize("k", [1, 3])
def test_directed_script(name, k):
    run_everywhere({**NEAR, **FAR}, {0: (Q, k)}, [DIRECTED[name], FOLLOW_UP])


# ----------------------------------------------------------------------
# The property
# ----------------------------------------------------------------------

lattice = st.integers(min_value=0, max_value=32).map(lambda n: n / 32)
# Three rows in four land within 5/32 of the first query.
near_q = st.integers(min_value=-5, max_value=5).map(lambda n: Q[0] + n / 32)
position = st.one_of(*[st.tuples(near_q, near_q)] * 3, st.tuples(lattice, lattice))
cell_centre = st.integers(min_value=0, max_value=CELLS - 1).map(
    lambda i: (i + 0.5) / CELLS
)


@st.composite
def repeated_oid_scripts(draw):
    n_initial = draw(st.integers(min_value=0, max_value=10))
    initial = {oid: draw(position) for oid in range(n_initial)}
    queries = {0: (Q, draw(st.integers(min_value=1, max_value=4)))}
    for qid in range(1, draw(st.integers(min_value=1, max_value=3))):
        queries[qid] = (
            (draw(cell_centre), draw(cell_centre)),
            draw(st.integers(min_value=1, max_value=4)),
        )
    online = set(initial)
    known = n_initial
    batches = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        rows = []
        for _ in range(draw(st.integers(min_value=1, max_value=12))):
            # Few distinct oids, drawn with replacement: most rows hit
            # an object that already moved this cycle.
            oid = draw(st.integers(min_value=0, max_value=min(known, 5)))
            if oid == known:
                known += 1
            if oid in online and draw(st.integers(min_value=0, max_value=5)) == 0:
                rows.append((oid, None))
                online.discard(oid)
            else:
                rows.append((oid, draw(position)))
                online.add(oid)
        batches.append(rows)
    return initial, queries, batches


@given(repeated_oid_scripts(), st.sampled_from([0, 1]))
@settings(max_examples=120, deadline=None)
def test_repeated_oids_in_one_cycle(script, halo):
    initial, queries, batches = script
    run_everywhere(initial, queries, batches, halo=halo)
