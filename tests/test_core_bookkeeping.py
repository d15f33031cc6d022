"""Direct unit tests for QueryState and CycleScratch internals."""

import math

import pytest

from repro.core.bookkeeping import CycleScratch, QueryState
from repro.core.cpm import CPMMonitor
from repro.core.partition import ConceptualPartition
from repro.core.strategies import PointNNStrategy
from repro.grid.grid import Grid
from repro.updates import move_update
from tests.conftest import brute_knn


def make_state(qid=0, k=2, q=(0.5, 0.5), cells=8):
    grid = Grid(cells)
    strategy = PointNNStrategy(*q)
    state = QueryState(qid, strategy, k, strategy.partition(grid))
    return grid, state


class TestVisitList:
    def test_append_visit_keeps_parallel_arrays(self):
        _grid, state = make_state()
        state.append_visit(0.0, (4, 4))
        state.append_visit(0.1, (4, 5))
        assert state.visit_cells == [(4, 4), (4, 5)]
        assert state.visit_keys == [0.0, 0.1]
        assert state.visit_length == 2

    def test_influence_cells_respects_marked_prefix(self):
        _grid, state = make_state()
        state.append_visit(0.0, (4, 4))
        state.append_visit(0.1, (4, 5))
        state.marked_upto = 1
        assert state.influence_cells() == [(4, 4)]

    def test_csh_counts_visit_and_heap_cells(self):
        _grid, state = make_state()
        state.append_visit(0.0, (4, 4))
        state.heap.push_cell(0.3, 5, 5)
        state.heap.push_rect(0.2, 0, 1)  # rectangles do not count
        assert state.csh() == 2


class TestReconcileMarks:
    def test_shrink_unmarks_suffix(self):
        grid, state = make_state()
        for idx, key in enumerate([0.0, 0.1, 0.2, 0.3]):
            cell = (idx, 0)
            state.append_visit(key, cell)
            grid.add_mark(cell, state.qid)
        state.marked_upto = 4
        state.best_dist = 0.15
        state.reconcile_marks(grid, processed_upto=4)
        assert state.marked_upto == 2
        assert grid.marked_cells(state.qid) == [(0, 0), (1, 0)]

    def test_cutoff_capped_by_processed(self):
        grid, state = make_state()
        for idx, key in enumerate([0.0, 0.1, 0.2]):
            state.append_visit(key, (idx, 0))
        grid.add_mark((0, 0), state.qid)
        state.marked_upto = 1
        state.best_dist = 1.0  # would cover everything...
        state.reconcile_marks(grid, processed_upto=1)  # ...but only 1 scanned
        assert state.marked_upto == 1

    def test_infinite_best_dist_keeps_everything(self):
        grid, state = make_state()
        for idx in range(3):
            cell = (idx, 0)
            state.append_visit(0.1 * idx, cell)
            grid.add_mark(cell, state.qid)
        state.marked_upto = 3
        state.best_dist = math.inf
        state.reconcile_marks(grid, processed_upto=3)
        assert state.marked_upto == 3

    def test_epsilon_keeps_boundary_cell(self):
        grid, state = make_state()
        state.append_visit(0.0, (0, 0))
        state.append_visit(0.2 + grid.boundary_epsilon / 2, (1, 0))
        grid.add_mark((0, 0), state.qid)
        grid.add_mark((1, 0), state.qid)
        state.marked_upto = 2
        state.best_dist = 0.2
        state.reconcile_marks(grid, processed_upto=2)
        # The key exceeds best_dist by less than the epsilon: stays marked.
        assert state.marked_upto == 2

    def test_unmark_all(self):
        grid, state = make_state()
        for idx in range(3):
            cell = (idx, 0)
            state.append_visit(0.1 * idx, cell)
            grid.add_mark(cell, state.qid)
        state.marked_upto = 3
        state.unmark_all(grid)
        assert state.marked_upto == 0
        assert grid.total_marks == 0


class TestCarriage:
    """``export`` / ``adopt`` / ``detach_marks``: how a query changes
    engines (live migration, partition checkpoints)."""

    def _searched(self):
        grid, state = make_state(qid=5, k=2)
        for idx, key in enumerate([0.0, 0.1, 0.2]):
            state.append_visit(key, (idx, 0))
            if idx < 2:
                grid.add_mark((idx, 0), state.qid)
        state.marked_upto = 2
        state.nn.replace([(0.05, 11), (0.15, 12)])
        state.best_dist = 0.15
        state.heap.push_cell(0.3, 3, 0)
        grid.stats.reset()
        return grid, state

    def test_adopt_rebuilds_the_exported_row_and_its_marks_uncounted(self):
        grid, state = self._searched()
        record = state.export()
        other = Grid(8)
        twin = QueryState.adopt(record, other)
        assert twin.export() == record
        assert twin.result_entries() == state.result_entries()
        assert other.marked_cells(5) == grid.marked_cells(5) == [(0, 0), (1, 0)]
        assert other.total_marks == 2
        assert other.stats.mark_ops == 0
        # the record is a copy: growing the twin leaves the original alone
        twin.append_visit(0.4, (4, 0))
        twin.heap.push_cell(0.5, 5, 0)
        assert state.visit_length == 3 and len(state.heap) == 1

    def test_detach_marks_takes_the_prefix_off_uncounted(self):
        grid, state = self._searched()
        state.detach_marks(grid)
        assert grid.total_marks == 0
        assert grid.marked_cells(5) == []
        assert grid.stats.mark_ops == 0
        # marked_upto stays: adopt() re-applies the same prefix elsewhere
        assert state.marked_upto == 2


class TestDropBookkeeping:
    def test_requires_unmarked_state(self):
        grid, state = make_state()
        state.append_visit(0.0, (0, 0))
        grid.add_mark((0, 0), state.qid)
        state.marked_upto = 1
        with pytest.raises(RuntimeError):
            state.drop_bookkeeping()

    def test_clears_structures(self):
        _grid, state = make_state()
        state.append_visit(0.0, (0, 0))
        state.heap.push_cell(0.5, 1, 1)
        state.marked_upto = 0
        state.drop_bookkeeping()
        assert state.visit_length == 0
        assert len(state.heap) == 0


class TestCycleScratch:
    """The scratch is a plain unordered record; what it means is decided
    by the engine's finalize, so that is what these drive."""

    Q = (0.55, 0.55)
    OBJECTS = {
        1: (0.55, 0.60),  # NN, d = 0.05
        2: (0.55, 0.65),  # NN, d = 0.10 = best_dist
        3: (0.05, 0.05),
        4: (0.95, 0.05),
        5: (0.05, 0.95),
    }

    def monitor(self):
        monitor = CPMMonitor(cells_per_axis=4)
        monitor.load_objects(self.OBJECTS.items())
        assert [oid for _d, oid in monitor.install_query(0, self.Q, 2)] == [1, 2]
        return monitor

    def run(self, monitor, *moves):
        """Apply ``(oid, new)`` moves as one cycle; returns (changed,
        cell scans spent, brute-force expectation)."""
        positions = dict(self.OBJECTS)
        updates = []
        for oid, new in moves:
            updates.append(move_update(oid, positions[oid], new))
            positions[oid] = new
        scans = monitor.stats.cell_scans
        changed = monitor.process(updates)
        monitor.check_invariants()
        return changed, monitor.stats.cell_scans - scans, brute_knn(positions, self.Q, 2)

    def test_reset_recycles(self):
        sc = CycleScratch()
        sc.out_count = 2
        sc.incomers[7] = 0.5
        sc.before = [(0.1, 1)]
        sc.reset()
        assert sc.out_count == 0
        assert sc.incomers == {}
        assert sc.before is None

    def test_finalize_keeps_k_best_of_nns_and_incomers(self):
        # One NN leaves and three objects (more than k) come within
        # best_dist: the result is the k best of NNs ∪ incomers, found
        # without a single cell access.
        monitor = self.monitor()
        changed, scans, expected = self.run(
            monitor,
            (2, (0.05, 0.50)),
            (3, (0.55, 0.57)),
            (4, (0.55, 0.58)),
            (5, (0.55, 0.63)),
        )
        assert changed == {0}
        assert scans == 0
        assert [oid for _d, oid in expected] == [3, 4]
        assert monitor.result(0) == expected

    def test_incomer_moving_twice_keeps_latest(self):
        monitor = self.monitor()
        changed, scans, expected = self.run(
            monitor, (3, (0.55, 0.57)), (3, (0.55, 0.62))
        )
        assert changed == {0}
        assert scans == 0
        assert [oid for _d, oid in expected] == [1, 3]
        assert monitor.result(0) == expected

    def test_incomer_that_leaves_again_is_forgotten(self):
        monitor = self.monitor()
        changed, scans, expected = self.run(
            monitor, (3, (0.55, 0.57)), (3, (0.05, 0.05))
        )
        assert changed == set()
        assert scans == 0
        assert monitor.result(0) == expected

    def test_more_outgoing_than_incoming_recomputes(self):
        monitor = self.monitor()
        changed, scans, expected = self.run(
            monitor, (1, (0.95, 0.95)), (2, (0.05, 0.50)), (3, (0.55, 0.57))
        )
        assert changed == {0}
        assert scans > 0
        assert monitor.result(0) == expected
