"""Alternative distance metrics (footnote 3 of the paper).

"We focus on two-dimensional Euclidean spaces, but the proposed techniques
can be applied to higher dimensionality and other distance metrics."

This module instantiates the *other distance metrics* half of that claim
for the Minkowski family: :class:`MinkowskiNNStrategy` monitors k-NN under
``L1`` (Manhattan), ``L2`` (Euclidean — equivalent to
:class:`~repro.core.strategies.PointNNStrategy`) and ``Linf`` (Chebyshev).

Why the CPM machinery carries over unchanged:

* ``mindist_p(c, q)`` under any Minkowski norm is still computed from the
  per-axis gaps ``(dx, dy)`` to the rectangle, and is still a lower bound
  on the distance of any object in the cell;
* every conceptual rectangle spans the query's axis projection, so its
  minimum distance is the pure perpendicular gap — *identical* under all
  Minkowski norms — and Lemma 3.1's ``+δ`` recurrence holds verbatim.
"""

from __future__ import annotations

import math

from repro.core.partition import ConceptualPartition
from repro.core.strategies import QueryStrategy, _perpendicular_gap
from repro.geometry.points import Point
from repro.grid.grid import Grid

#: accepted metric names and their Minkowski exponents (None = infinity).
METRICS: dict[str, float | None] = {"l1": 1.0, "l2": 2.0, "linf": None}


def minkowski_dist(ax: float, ay: float, bx: float, by: float, p: float | None) -> float:
    """Minkowski distance between two points (``p=None`` means infinity)."""
    dx = abs(ax - bx)
    dy = abs(ay - by)
    if p is None:
        return dx if dx > dy else dy
    if p == 1.0:
        return dx + dy
    if p == 2.0:
        return math.hypot(dx, dy)
    return (dx**p + dy**p) ** (1.0 / p)


class MinkowskiNNStrategy(QueryStrategy):
    """Point k-NN under a Minkowski norm (L1 / L2 / Linf).

    Args:
        x, y: the query point.
        metric: ``"l1"``, ``"l2"`` or ``"linf"`` (case-insensitive), or a
            numeric exponent ``p >= 1``.
    """

    __slots__ = ("metric_name", "p", "x", "y")

    kind = "minkowski-nn"

    def __init__(self, x: float, y: float, metric: str | float = "l2") -> None:
        self.x = float(x)
        self.y = float(y)
        if isinstance(metric, str):
            try:
                self.p = METRICS[metric.lower()]
            except KeyError:
                known = ", ".join(sorted(METRICS))
                raise ValueError(
                    f"unknown metric {metric!r}; expected one of {known} "
                    f"or a numeric exponent"
                ) from None
            self.metric_name = metric.lower()
        else:
            if metric < 1.0:
                raise ValueError("Minkowski exponent must be >= 1")
            self.p = float(metric)
            self.metric_name = f"l{metric:g}"

    def dist(self, x: float, y: float) -> float:
        return minkowski_dist(x, y, self.x, self.y, self.p)

    def core_range(self, grid: Grid) -> tuple[int, int, int, int]:
        i, j = grid.cell_of(self.x, self.y)
        return (i, i, j, j)

    def cell_key(self, grid: Grid, i: int, j: int) -> float:
        """Minkowski mindist to the cell, from the per-axis gaps."""
        x0, y0, x1, y1 = grid.cell_rect(i, j)
        if self.x < x0:
            dx = x0 - self.x
        elif self.x > x1:
            dx = self.x - x1
        else:
            dx = 0.0
        if self.y < y0:
            dy = y0 - self.y
        elif self.y > y1:
            dy = self.y - y1
        else:
            dy = 0.0
        return self._norm(dx, dy)

    def strip_key(
        self, grid: Grid, partition: ConceptualPartition, direction: int, level: int = 0
    ) -> float:
        """The perpendicular gap — metric-independent, since the arm spans
        the query's projection (one axis gap is zero) — put through the
        same norm expression as :meth:`cell_key`, so it never exceeds the
        key of a strip cell (for ``L1``/``L2``/``Linf`` it is the gap)."""
        gap = _perpendicular_gap(grid, partition, direction, level, self.x, self.y)
        return self._norm(0.0, max(0.0, gap))

    def _norm(self, dx: float, dy: float) -> float:
        p = self.p
        if p is None:
            return dx if dx > dy else dy
        if p == 1.0:
            return dx + dy
        if p == 2.0:
            return math.hypot(dx, dy)
        return (dx**p + dy**p) ** (1.0 / p)

    def level_step(self, grid: Grid) -> float:
        return grid.delta

    def reference_point(self) -> Point:
        return (self.x, self.y)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MinkowskiNNStrategy({self.x:.6g}, {self.y:.6g}, {self.metric_name})"
