"""Property-based tests: the conceptual partition invariants.

The correctness proof of Section 3.1 rests on two structural facts that
must hold for *every* grid size and core block:

1. the direction rectangles plus the core tile the grid exactly once;
2. Lemma 3.1 / Corollaries 5.1-5.2 — the strip keys form an arithmetic
   progression, and each strip key lower-bounds all its cells' keys.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import DIRECTIONS, ConceptualPartition
from repro.core.strategies import AggregateNNStrategy, PointNNStrategy
from repro.grid.grid import Grid


@st.composite
def grids_and_cores(draw):
    cols = draw(st.integers(min_value=1, max_value=14))
    rows = draw(st.integers(min_value=1, max_value=14))
    i_lo = draw(st.integers(min_value=0, max_value=cols - 1))
    i_hi = draw(st.integers(min_value=i_lo, max_value=cols - 1))
    j_lo = draw(st.integers(min_value=0, max_value=rows - 1))
    j_hi = draw(st.integers(min_value=j_lo, max_value=rows - 1))
    return ConceptualPartition(i_lo, i_hi, j_lo, j_hi, cols, rows)


@given(grids_and_cores())
@settings(max_examples=200, deadline=None)
def test_partition_tiles_grid_exactly_once(partition):
    counts: dict = {}
    for direction in DIRECTIONS:
        level = 0
        while partition.exists(direction, level):
            for cell in partition.strip_cells(direction, level):
                counts[cell] = counts.get(cell, 0) + 1
            level += 1
    for cell in partition.core_cells():
        counts[cell] = counts.get(cell, 0) + 1
    assert len(counts) == partition.cols * partition.rows
    assert all(c == 1 for c in counts.values())


@given(grids_and_cores())
@settings(max_examples=100, deadline=None)
def test_strip_cells_stay_inside_grid(partition):
    for direction in DIRECTIONS:
        level = 0
        while partition.exists(direction, level):
            for i, j in partition.strip_cells(direction, level):
                assert 0 <= i < partition.cols
                assert 0 <= j < partition.rows
            level += 1


@given(
    st.integers(min_value=2, max_value=32),
    st.floats(min_value=0.001, max_value=0.999),
    st.floats(min_value=0.001, max_value=0.999),
)
@settings(max_examples=150, deadline=None)
def test_lemma_3_1_key_recurrence(cells, qx, qy):
    """mindist(DIR_{j+1}, q) == mindist(DIR_j, q) + delta, exactly."""
    grid = Grid(cells)
    strategy = PointNNStrategy(qx, qy)
    partition = strategy.partition(grid)
    step = strategy.level_step(grid)
    for direction in DIRECTIONS:
        if not partition.exists(direction, 0):
            continue
        key = strategy.strip_key(grid, partition, direction)
        level = 0
        while partition.exists(direction, level):
            # The strip key lower-bounds every cell in the strip, and the
            # bound is tight for the cell nearest the query's projection.
            cell_keys = [
                strategy.cell_key(grid, i, j)
                for i, j in partition.strip_cells(direction, level)
            ]
            assert min(cell_keys) >= key - 1e-12
            assert min(cell_keys) <= key + 1e-12  # tightness (arm spans q)
            key += step
            level += 1


@given(
    st.integers(min_value=2, max_value=16),
    st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=0.99),
            st.floats(min_value=0.01, max_value=0.99),
        ),
        min_size=1,
        max_size=5,
    ),
    st.sampled_from(["sum", "min", "max"]),
)
@settings(max_examples=100, deadline=None)
def test_corollaries_5_1_and_5_2(cells, points, fn):
    """amindist(DIR_{j+1}, Q) == amindist(DIR_j, Q) + step, where step is
    m*delta for sum and delta for min/max."""
    grid = Grid(cells)
    strategy = AggregateNNStrategy(points, fn)
    partition = strategy.partition(grid)
    step = strategy.level_step(grid)
    expected_step = len(points) * grid.delta if fn == "sum" else grid.delta
    assert abs(step - expected_step) < 1e-12
    for direction in DIRECTIONS:
        if not partition.exists(direction, 0):
            continue
        key = strategy.strip_key(grid, partition, direction)
        level = 0
        while partition.exists(direction, level):
            cell_keys = [
                strategy.cell_key(grid, i, j)
                for i, j in partition.strip_cells(direction, level)
            ]
            # Lower bound (correctness requirement).
            assert min(cell_keys) >= key - 1e-9
            key += step
            level += 1


@given(grids_and_cores())
@settings(max_examples=100, deadline=None)
def test_owner_of_agrees_with_enumeration(partition):
    for i in range(partition.cols):
        for j in range(partition.rows):
            owner = partition.owner_of((i, j))
            if owner is None:
                assert partition.i_lo <= i <= partition.i_hi
                assert partition.j_lo <= j <= partition.j_hi
            else:
                direction, level = owner
                assert (i, j) in set(partition.strip_cells(direction, level))
