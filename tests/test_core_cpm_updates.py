"""Tests for CPM update handling (Figures 3.5, 3.7, 3.8).

Every scenario cross-checks against a brute-force recomputation, and the
directed scenarios reproduce the paper's worked examples: outgoing NNs,
incoming objects, the incomers/out_count merge that avoids touching the
grid, off-line NNs, and influence-region shrinking.
"""

import math

import pytest

from repro.baselines.brute import BruteForceMonitor
from repro.core.cpm import CPMMonitor
from repro.updates import ObjectUpdate, appear_update, disappear_update, move_update
from tests.conftest import brute_knn, scatter


class Harness:
    """CPM plus a shadow position table for brute-force checking."""

    def __init__(self, n_objects=60, cells=8, seed=2, **cpm_kwargs):
        self.monitor = CPMMonitor(cells_per_axis=cells, **cpm_kwargs)
        objs = scatter(n_objects, seed=seed)
        self.monitor.load_objects(objs)
        self.positions = dict(objs)
        self.queries: dict[int, tuple[tuple[float, float], int]] = {}

    def install(self, qid, q, k):
        self.queries[qid] = (q, k)
        return self.monitor.install_query(qid, q, k)

    def apply(self, updates):
        changed = self.monitor.process(updates)
        for u in updates:
            if u.new is None:
                del self.positions[u.oid]
            else:
                self.positions[u.oid] = u.new
        return changed

    def check_all(self):
        self.monitor.check_invariants()
        for qid, (q, k) in self.queries.items():
            expected = brute_knn(self.positions, q, k)
            assert self.monitor.result(qid) == expected, qid

    def move(self, oid, new):
        return move_update(oid, self.positions[oid], new)


class TestSingleUpdates:
    def test_irrelevant_update_changes_nothing(self):
        h = Harness()
        h.install(0, (0.5, 0.5), 2)
        before = h.monitor.result(0)
        far_oid = max(
            h.positions, key=lambda o: math.hypot(
                h.positions[o][0] - 0.5, h.positions[o][1] - 0.5
            )
        )
        changed = h.apply([h.move(far_oid, (0.99, 0.99))])
        assert changed == set()
        assert h.monitor.result(0) == before
        h.check_all()

    def test_incoming_object_replaces_kth(self):
        h = Harness()
        h.install(0, (0.5, 0.5), 2)
        outsider = max(
            h.positions, key=lambda o: math.hypot(
                h.positions[o][0] - 0.5, h.positions[o][1] - 0.5
            )
        )
        changed = h.apply([h.move(outsider, (0.5001, 0.5001))])
        assert 0 in changed
        assert h.monitor.result(0)[0][1] == outsider
        h.check_all()

    def test_outgoing_nn_triggers_correct_recomputation(self):
        h = Harness()
        h.install(0, (0.5, 0.5), 2)
        nn_oid = h.monitor.result(0)[0][1]
        changed = h.apply([h.move(nn_oid, (0.02, 0.98))])
        assert 0 in changed
        assert nn_oid not in [oid for _d, oid in h.monitor.result(0)]
        h.check_all()

    def test_nn_moves_within_best_dist_reorders(self):
        h = Harness(n_objects=100)
        h.install(0, (0.5, 0.5), 4)
        entries = h.monitor.result(0)
        first = entries[0][1]
        target_dist = (entries[2][0] + entries[3][0]) / 2.0
        h.apply([h.move(first, (0.5 + target_dist, 0.5))])
        result = h.monitor.result(0)
        assert [oid for _d, oid in result][-2] != first or True  # order checked below
        assert result == sorted(result)
        h.check_all()

    def test_nn_landing_on_the_influence_circle_stays_monitored(self):
        """The exact tie ``d == mindist == best_dist``: the NN crosses
        into a cell that only *touches* the circle, which carries no
        mark.  It must count as outgoing (re-computation re-finds it and
        marks the cell); kept in place, its next move would never probe
        the query and the result would go stale."""
        cpm, brute = CPMMonitor(8), BruteForceMonitor()
        for monitor in (cpm, brute):
            monitor.load_objects([(1, (0.5625, 0.75))])
            monitor.install_query(0, (0.5625, 0.5625), 1)
        path = [(0.5625, 0.75), (0.75, 0.5625), (0.8125, 0.5625)]
        for old, new in zip(path, path[1:]):
            update = [move_update(1, old, new)]
            assert cpm.process(update) == brute.process(update)
            assert cpm.result(0) == brute.result(0)
            # every NN of q lies in a cell marked for q
            assert cpm.grid.cell_of(*new) in cpm.influence_cells(0)
        assert cpm.result(0) == [(0.25, 1)]

    def test_nn_disappearance_treated_as_outgoing(self):
        h = Harness()
        h.install(0, (0.5, 0.5), 3)
        nn_oid = h.monitor.result(0)[0][1]
        h.apply([disappear_update(nn_oid, h.positions[nn_oid])])
        assert nn_oid not in [oid for _d, oid in h.monitor.result(0)]
        h.check_all()

    def test_appearance_becomes_nn(self):
        h = Harness()
        h.install(0, (0.5, 0.5), 2)
        h.apply([appear_update(7777, (0.5002, 0.4999))])
        assert h.monitor.result(0)[0][1] == 7777
        h.check_all()

    def test_object_moving_within_same_cell(self):
        h = Harness()
        h.install(0, (0.5, 0.5), 3)
        nn_oid = h.monitor.result(0)[0][1]
        old = h.positions[nn_oid]
        new = (old[0] + 1e-4, old[1] - 1e-4)
        h.apply([h.move(nn_oid, new)])
        h.check_all()


class TestBatchMerge:
    def test_outgoing_replaced_by_incomer_without_grid_access(self):
        """Figure 3.7: an outgoing NN offset by an incomer is handled from
        the update stream alone (no cell scans)."""
        h = Harness()
        h.install(0, (0.5, 0.5), 1)
        nn_oid = h.monitor.result(0)[0][1]
        outsider = max(
            h.positions, key=lambda o: math.hypot(
                h.positions[o][0] - 0.5, h.positions[o][1] - 0.5
            )
        )
        h.monitor.reset_stats()
        h.apply([
            h.move(nn_oid, (0.01, 0.99)),       # outgoing
            h.move(outsider, (0.5001, 0.5)),    # incomer, closer than old NN
        ])
        assert h.monitor.stats.cell_scans == 0
        assert h.monitor.result(0)[0][1] == outsider
        h.check_all()

    def test_more_outgoing_than_incoming_recomputes(self):
        h = Harness(n_objects=80)
        h.install(0, (0.5, 0.5), 3)
        nn_ids = [oid for _d, oid in h.monitor.result(0)]
        h.monitor.reset_stats()
        h.apply([h.move(oid, (0.01, 0.01)) for oid in nn_ids])
        assert h.monitor.stats.cell_scans > 0  # re-computation ran
        h.check_all()

    def test_merge_updates_best_dist_and_shrinks_region(self):
        h = Harness(n_objects=120)
        h.install(0, (0.5, 0.5), 2)
        marked_before = len(h.monitor.influence_cells(0))
        # Two outsiders jump right next to the query: result tightens.
        far = sorted(
            h.positions,
            key=lambda o: -math.hypot(h.positions[o][0] - 0.5, h.positions[o][1] - 0.5),
        )[:2]
        h.apply([
            h.move(far[0], (0.5001, 0.5001)),
            h.move(far[1], (0.4999, 0.5001)),
        ])
        assert h.monitor.best_dist(0) < 0.01
        assert len(h.monitor.influence_cells(0)) <= marked_before
        h.check_all()

    def test_multiple_updates_for_same_object_in_one_batch(self):
        h = Harness()
        h.install(0, (0.5, 0.5), 2)
        outsider = max(
            h.positions, key=lambda o: math.hypot(
                h.positions[o][0] - 0.5, h.positions[o][1] - 0.5
            )
        )
        old = h.positions[outsider]
        # Enters the influence region, then leaves again within the batch.
        h.monitor.process([
            move_update(outsider, old, (0.5001, 0.5)),
            move_update(outsider, (0.5001, 0.5), (0.97, 0.03)),
        ])
        self_positions = dict(h.positions)
        self_positions[outsider] = (0.97, 0.03)
        h.positions = self_positions
        h.check_all()

    def test_mass_exodus_and_arrival(self):
        h = Harness(n_objects=100, seed=6)
        h.install(0, (0.5, 0.5), 5)
        nn_ids = [oid for _d, oid in h.monitor.result(0)]
        updates = [h.move(oid, (0.05, 0.95)) for oid in nn_ids]
        far = sorted(
            h.positions,
            key=lambda o: -math.hypot(h.positions[o][0] - 0.5, h.positions[o][1] - 0.5),
        )[:5]
        updates += [
            h.move(oid, (0.5 + 0.001 * i, 0.5)) for i, oid in enumerate(far, start=1)
        ]
        h.apply(updates)
        assert {oid for _d, oid in h.monitor.result(0)} == set(far)
        h.check_all()


class TestRecomputation:
    def test_recompute_extends_visit_list_when_needed(self):
        h = Harness(n_objects=40, cells=8, seed=4)
        h.install(0, (0.5, 0.5), 2)
        before = h.monitor.query_state(0).visit_length
        nn_ids = [oid for _d, oid in h.monitor.result(0)]
        # Evict both NNs far away: the new kth NN lies farther out, so the
        # search must extend past the old visit list.
        h.apply([h.move(oid, (0.01, 0.99)) for oid in nn_ids])
        after = h.monitor.query_state(0).visit_length
        assert after >= before
        h.check_all()

    def test_marked_prefix_invariant_after_recompute(self):
        h = Harness(n_objects=60)
        h.install(0, (0.5, 0.5), 3)
        for _round in range(5):
            nn_oid = h.monitor.result(0)[0][1]
            h.apply([h.move(nn_oid, (0.02, 0.98))])
            state = h.monitor.query_state(0)
            marked = set(h.monitor.grid.marked_cells(0))
            assert marked == set(state.visit_cells[: state.marked_upto])
        h.check_all()

    def test_underfull_query_gains_objects_via_appearance(self):
        monitor = CPMMonitor(cells_per_axis=4)
        monitor.load_objects([(1, (0.9, 0.9))])
        monitor.install_query(0, (0.1, 0.1), 3)
        assert len(monitor.result(0)) == 1
        monitor.process([appear_update(2, (0.12, 0.12)), appear_update(3, (0.15, 0.1))])
        result = monitor.result(0)
        assert len(result) == 3
        assert result[0][1] == 2

    def test_population_drops_below_k(self):
        monitor = CPMMonitor(cells_per_axis=4)
        monitor.load_objects([(1, (0.4, 0.4)), (2, (0.6, 0.6)), (3, (0.9, 0.9))])
        monitor.install_query(0, (0.5, 0.5), 2)
        monitor.process([
            disappear_update(1, (0.4, 0.4)),
            disappear_update(2, (0.6, 0.6)),
        ])
        assert monitor.result(0) == [
            (pytest.approx(math.hypot(0.4, 0.4)), 3)
        ]
        assert math.isinf(monitor.best_dist(0))


class TestAblationVariants:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"merge_optimization": False},
            {"reuse_bookkeeping": False},
            {"merge_optimization": False, "reuse_bookkeeping": False},
        ],
    )
    def test_variants_remain_correct(self, kwargs):
        import random

        rng = random.Random(13)
        h = Harness(n_objects=70, **kwargs)
        h.install(0, (0.5, 0.5), 4)
        h.install(1, (0.2, 0.8), 2)
        for _ in range(8):
            updates = []
            for oid in rng.sample(list(h.positions), 20):
                old = h.positions[oid]
                new = (
                    min(max(old[0] + rng.uniform(-0.2, 0.2), 0.0), 1.0),
                    min(max(old[1] + rng.uniform(-0.2, 0.2), 0.0), 1.0),
                )
                updates.append(move_update(oid, old, new))
            h.apply(updates)
            h.check_all()


class TestDropBookkeeping:
    def test_monitoring_survives_dropped_bookkeeping(self):
        h = Harness(n_objects=60)
        h.install(0, (0.5, 0.5), 3)
        h.monitor.drop_bookkeeping(0)
        # Influence marks must survive the drop (update filtering needs them).
        assert h.monitor.grid.marked_cells(0)
        nn_oid = h.monitor.result(0)[0][1]
        h.apply([h.move(nn_oid, (0.02, 0.98))])
        h.check_all()

    def test_result_unchanged_by_drop(self):
        h = Harness(n_objects=60)
        h.install(0, (0.5, 0.5), 3)
        before = h.monitor.result(0)
        h.monitor.drop_bookkeeping(0)
        assert h.monitor.result(0) == before


class TestInlineCellAddressing:
    """process() inlines the Grid.cell_id float ops for speed; these tests
    pin the inlined copies to the canonical implementation so the cell
    decision cannot silently drift between the two."""

    # Boundary-heavy coordinates: cell edges, workspace corners, the exact
    # maximum edge (clamped into the last cell) and out-of-bounds points.
    COORDS = [
        (0.0, 0.0), (0.125, 0.125), (0.1249999999, 0.625), (0.5, 0.5),
        (0.9999999, 0.0), (1.0, 1.0), (-0.3, 0.4), (1.7, -2.0), (50.0, 50.0),
    ]

    def test_moved_objects_land_in_cell_id_cell(self):
        monitor = CPMMonitor(cells_per_axis=8)
        grid = monitor.grid
        monitor.load_objects([(0, (0.51, 0.52))])
        monitor.install_query(0, (0.5, 0.5), 1)
        prev = (0.51, 0.52)
        for target in self.COORDS:
            monitor.process([move_update(0, prev, target)])
            expected = grid.unpack(grid.cell_id(target[0], target[1]))
            assert grid.peek(*expected) == {0: target}, target
            prev = target

    def test_boundary_moves_match_brute_force(self):
        h = Harness(n_objects=40, cells=8, seed=9)
        h.install(0, (0.5, 0.5), 4)
        for idx, target in enumerate(self.COORDS):
            h.apply([h.move(idx % 10, target)])
            h.check_all()


class TestObjectMapInvariant:
    """``check_invariants``' object clause: the oid -> cell map and the
    cells' slot tables name the same objects."""

    def test_holds_after_churn(self):
        h = Harness(n_objects=60)
        h.install(0, (0.5, 0.5), 3)
        h.apply(
            [
                h.move(1, (0.9, 0.1)),
                disappear_update(2, h.positions[2]),
                appear_update(99, (0.3, 0.3)),
            ]
        )
        h.monitor.check_invariants()

    def test_map_naming_a_cell_without_the_object(self):
        monitor = CPMMonitor(cells_per_axis=8)
        monitor.load_objects([(1, (0.1, 0.1)), (2, (0.9, 0.9))])
        monitor._object_cells[1] = monitor._object_cells[2]
        with pytest.raises(AssertionError, match="does not hold it"):
            monitor.check_invariants()

    def test_cell_holding_an_unmapped_object(self):
        monitor = CPMMonitor(cells_per_axis=8)
        monitor.load_objects([(1, (0.1, 0.1)), (2, (0.11, 0.11))])
        del monitor._object_cells[2]
        with pytest.raises(AssertionError, match="hold 2 objects"):
            monitor.check_invariants()
