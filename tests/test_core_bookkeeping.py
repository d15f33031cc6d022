"""Direct unit tests for QueryState and CycleScratch internals."""

import math

import pytest

from repro.core.bookkeeping import CycleScratch, QueryState
from repro.core.partition import ConceptualPartition
from repro.core.strategies import PointNNStrategy
from repro.grid.grid import Grid


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
    def test_incomer_dedup_keeps_latest(self):
        sc = CycleScratch(k=3)
        sc.note_incomer(0.5, 7)
        sc.note_incomer(0.2, 7)  # same object updated again
        assert len(sc.in_list) == 1
        assert sc.in_list.dist_of(7) == 0.2

    def test_drop_incomer(self):
        sc = CycleScratch(k=3)
        sc.note_incomer(0.5, 7)
        sc.drop_incomer(7)
        assert len(sc.in_list) == 0
        sc.drop_incomer(7)  # idempotent

    def test_capacity_is_k(self):
        sc = CycleScratch(k=2)
        sc.note_incomer(0.3, 1)
        sc.note_incomer(0.2, 2)
        sc.note_incomer(0.1, 3)
        assert len(sc.in_list) == 2
        assert 1 not in sc.in_list  # worst incomer evicted

    def test_flags(self):
        sc = CycleScratch(k=2)
        assert not sc.touched
        sc.note_reorder()
        assert sc.touched
        assert sc.out_count == 0
        sc.note_outgoing()
        sc.note_outgoing()
        assert sc.out_count == 2
