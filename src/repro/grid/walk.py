"""Grid-walk primitives: enumerating cells by ring and by square.

Both grid baselines (YPK-CNN's expanding-square search, SEA-CNN's answer
regions) walk cells in simple spatial patterns around a center cell.
The iteration logic lives here — on the grid package, next to
:class:`repro.grid.grid.Grid` — so every consumer shares one
implementation (``repro.baselines.common`` re-exports these names for
backward compatibility).
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.grid.cell import CellCoord
from repro.grid.grid import Grid


def ring_cells(grid: Grid, center: CellCoord, radius: int) -> list[CellCoord]:
    """Cells at Chebyshev distance ``radius`` from ``center`` (clipped).

    ``radius == 0`` yields the center cell itself.  The result is empty when
    the whole ring falls outside the grid.
    """
    ci, cj = center
    if radius == 0:
        return [(ci, cj)] if grid.in_bounds(ci, cj) else []
    cells: list[CellCoord] = []
    lo_i, hi_i = ci - radius, ci + radius
    lo_j, hi_j = cj - radius, cj + radius
    for i in range(lo_i, hi_i + 1):
        if grid.in_bounds(i, lo_j):
            cells.append((i, lo_j))
        if grid.in_bounds(i, hi_j):
            cells.append((i, hi_j))
    for j in range(lo_j + 1, hi_j - 1 + 1):
        if grid.in_bounds(lo_i, j):
            cells.append((lo_i, j))
        if grid.in_bounds(hi_i, j):
            cells.append((hi_i, j))
    return cells


def square_cells(
    grid: Grid, center_cell: CellCoord, half_side: float
) -> Iterator[CellCoord]:
    """Cells intersecting the square of the given half side length centered
    at the *center of* ``center_cell`` (the paper's "centered at c_q")."""
    x0, y0, x1, y1 = grid.cell_rect(*center_cell)
    cx = (x0 + x1) / 2.0
    cy = (y0 + y1) / 2.0
    return grid.cells_in_rect(
        cx - half_side, cy - half_side, cx + half_side, cy + half_side
    )
