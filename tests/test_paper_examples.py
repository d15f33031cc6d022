"""The paper's worked examples, reconstructed exactly.

Figure 3.2a walks through a 1-NN computation on a grid with ``δ = 1``:
the query q sits in cell c_{4,4} with initial heap
``H = {<c_44, 0>, <U0, 0.1>, <L0, 0.2>, <R0, 0.8>, <D0, 0.9>}``;
the first candidate is p1 in c_{3,3} at distance 1.7, then p2 in c_{2,4}
at distance 1.3 becomes the answer, and the search terminates at c_{5,6}
because ``mindist(c_56, q) >= best_dist``.

From the strip keys we can reconstruct the query point: the U0 gap of 0.1
puts q at y = 4.9, the L0 gap of 0.2 at x = 4.2.  Object positions are
chosen to produce the paper's distances (1.7 and 1.3).
"""

import math

import pytest

from repro.core.cpm import CPMMonitor
from repro.core.partition import DOWN, LEFT, RIGHT, UP
from repro.core.strategies import PointNNStrategy

# An 8x8 grid with delta = 1 over [0, 8]^2 contains all referenced cells.
GRID_CELLS = 8
BOUNDS = (0.0, 0.0, 8.0, 8.0)

QX, QY = 4.2, 4.9
# p1 in c_{3,3} at distance 1.7 from q: place it along the line to the
# cell so the arithmetic is exact enough.
P1 = (3.2, 3.53)   # dist ~ 1.69... close to the paper's 1.7
P2 = (2.9, 4.9)    # in c_{2,4}, dist = 1.3 exactly


@pytest.fixture
def monitor():
    m = CPMMonitor(cells_per_axis=GRID_CELLS, bounds=BOUNDS)
    m.load_objects([(1, P1), (2, P2)])
    return m


class TestFigure32a:
    def test_initial_strip_keys(self, monitor):
        strategy = PointNNStrategy(QX, QY)
        partition = strategy.partition(monitor.grid)
        keys = {
            UP: strategy.strip_key(monitor.grid, partition, UP),
            LEFT: strategy.strip_key(monitor.grid, partition, LEFT),
            RIGHT: strategy.strip_key(monitor.grid, partition, RIGHT),
            DOWN: strategy.strip_key(monitor.grid, partition, DOWN),
        }
        # The paper's heap: U0=0.1, L0=0.2, R0=0.8, D0=0.9.
        assert keys[UP] == pytest.approx(0.1)
        assert keys[LEFT] == pytest.approx(0.2)
        assert keys[RIGHT] == pytest.approx(0.8)
        assert keys[DOWN] == pytest.approx(0.9)
        # And the query cell is c_{4,4} with key 0.
        assert monitor.grid.cell_of(QX, QY) == (4, 4)
        assert strategy.cell_key(monitor.grid, 4, 4) == 0.0

    def test_search_returns_p2(self, monitor):
        result = monitor.install_query(0, (QX, QY), 1)
        assert result[0][1] == 2
        assert result[0][0] == pytest.approx(1.3)

    def test_candidate_p1_found_first_then_replaced(self, monitor):
        """c_{3,3} (key ~1.03) is de-heaped before c_{2,4} (key 1.2): the
        visit list must contain both, in that order."""
        monitor.install_query(0, (QX, QY), 1)
        visit = monitor.query_state(0).visit_cells
        assert visit.index((3, 3)) < visit.index((2, 4))

    def test_termination_cell_not_processed(self, monitor):
        """mindist(c_56, q) = hypot(0.8, 1.1) ~ 1.36 >= best_dist = 1.3:
        the search stops without scanning c_{5,6}."""
        expected_c56 = math.hypot(5.0 - QX, 6.0 - QY)
        assert expected_c56 > 1.3
        monitor.install_query(0, (QX, QY), 1)
        assert (5, 6) not in set(monitor.query_state(0).visit_cells)

    def test_visited_cells_lie_within_best_dist(self, monitor):
        monitor.install_query(0, (QX, QY), 1)
        for key in monitor.query_state(0).visit_keys:
            assert key < 1.3 + 1e-9

    def test_boundary_boxes_remain_in_heap(self, monitor):
        """After the search the heap keeps one boundary box per direction
        (U2, D1, L2, R1 in the paper's example)."""
        monitor.install_query(0, (QX, QY), 1)
        heap = monitor.query_state(0).heap
        rect_entries = [e for e in heap.entries() if e[2] == 1]
        directions = {e[3] for e in rect_entries}
        assert directions == {UP, DOWN, LEFT, RIGHT}
        levels = {e[3]: e[4] for e in rect_entries}
        assert levels[UP] == 2
        assert levels[DOWN] == 1
        assert levels[LEFT] == 2
        assert levels[RIGHT] == 1


class TestFigure35UpdateExamples:
    """Figure 3.5: update handling around the same configuration."""

    def test_update_outside_influence_region_is_free(self, monitor):
        # Like p4 -> p'4 in Figure 3.5a: an object moves between two cells
        # outside the influence region; nothing happens.
        monitor.load_objects = None  # guard against accidental use
        m = CPMMonitor(cells_per_axis=GRID_CELLS, bounds=BOUNDS)
        m.load_objects([(1, P1), (2, P2), (4, (5.5, 6.5))])
        m.install_query(0, (QX, QY), 1)
        m.reset_stats()
        from repro.updates import move_update

        changed = m.process([move_update(4, (5.5, 6.5), (5.5, 3.5))])
        assert changed == set()
        assert m.stats.cell_scans == 0
        assert m.result(0)[0][1] == 2

    def test_outgoing_nn_triggers_recomputation(self):
        # Like p2 -> p'2 in Figure 3.5b: the NN leaves; recomputation finds
        # the next object.
        m = CPMMonitor(cells_per_axis=GRID_CELLS, bounds=BOUNDS)
        m.load_objects([(1, P1), (2, P2), (4, (5.5, 3.5))])
        m.install_query(0, (QX, QY), 1)
        assert m.result(0)[0][1] == 2
        from repro.updates import move_update

        m.process([move_update(2, P2, (0.5, 6.5))])
        # New NN is p1 (dist ~1.69) not p4 (dist ~1.9).
        assert m.result(0)[0][1] == 1
