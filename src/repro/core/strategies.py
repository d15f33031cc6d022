"""Per-query geometry strategies.

Section 5 argues that "CPM provides a general methodology that can be
applied to several types of spatial queries".  This module is that claim
made concrete: the CPM engine (:mod:`repro.core.cpm`) is written once
against the :class:`QueryStrategy` interface, and each query type plugs in
its own geometry:

* :class:`PointNNStrategy` — classic k-NN around a single point
  (Section 3); keys are plain ``mindist`` and the per-level increment is
  ``δ`` (Lemma 3.1).
* :class:`AggregateNNStrategy` — aggregate NN over a set of query points
  (Section 5); keys are ``amindist`` under ``sum``/``min``/``max`` and the
  per-level increment is ``m·δ`` for ``sum`` (Corollary 5.1) or ``δ`` for
  ``min``/``max`` (Corollary 5.2).  The core block is the set of cells
  covered by the MBR ``M`` of the query points (Figure 5.1a).
* :class:`ConstrainedStrategy` — constrained (A)NN (Figure 5.3): wraps
  another strategy and filters both the candidate objects and the visited
  cells by a constraint rectangle.
* :class:`FilteredStrategy` — attribute-filtered NN (the location-aware
  pub/sub extension): wraps another strategy and additionally requires
  every result object to carry a set of attribute tags.  The geometry is
  untouched (all keys delegate to the inner strategy and stay valid lower
  bounds); only :meth:`QueryStrategy.accepts` narrows, exactly like the
  constrained filter — which is why the whole CPM machinery (influence
  regions, visit lists, incremental repair) applies verbatim.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Sequence

from repro.core.partition import DOWN, LEFT, RIGHT, UP, ConceptualPartition
from repro.geometry.aggregates import AggregateFunction, get_aggregate
from repro.geometry.points import Point
from repro.geometry.rects import Rect, rects_intersect
from repro.grid.grid import Grid


class QueryStrategy(ABC):
    """Geometry of one continuous query, as seen by the CPM engine.

    All keys returned by :meth:`cell_key` / :meth:`strip_key` must be
    *lower bounds* on :meth:`dist` of any accepted object inside the
    corresponding region, and the level-``l`` strip key must equal
    ``strip_key(0) + l * level_step`` — these two facts are exactly what
    the correctness proof of Section 3.1 needs.

    The engine asks for every level's strip key directly rather than
    accumulating ``+ level_step``: a strip key computed with the float
    expressions its cells' keys use never exceeds those keys, so cells
    leave the heap in key order and the visit list stays sorted (an
    accumulated key can overshoot its cells by an ulp).
    """

    __slots__ = ()

    #: human-readable strategy kind for diagnostics.
    kind: str = "abstract"

    @abstractmethod
    def dist(self, x: float, y: float) -> float:
        """Distance of an object at ``(x, y)`` from the query."""

    def accepts(self, x: float, y: float, oid: int = -1) -> bool:
        """Whether object ``oid`` at ``(x, y)`` may appear in the result.

        ``oid`` lets attribute predicates (:class:`FilteredStrategy`)
        consult per-object state; pure-geometry strategies ignore it.
        """
        return True

    @abstractmethod
    def core_range(self, grid: Grid) -> tuple[int, int, int, int]:
        """Inclusive cell block ``(i_lo, i_hi, j_lo, j_hi)`` seeding the search."""

    @abstractmethod
    def cell_key(self, grid: Grid, i: int, j: int) -> float:
        """Search key of cell ``c_{i,j}`` (``mindist`` / ``amindist``)."""

    @abstractmethod
    def strip_key(
        self, grid: Grid, partition: ConceptualPartition, direction: int, level: int = 0
    ) -> float:
        """Search key of the level-``level`` rectangle of ``direction``."""

    @abstractmethod
    def level_step(self, grid: Grid) -> float:
        """Key increment between consecutive same-direction rectangles."""

    def cell_allowed(self, grid: Grid, i: int, j: int) -> bool:
        """Whether cell ``c_{i,j}`` may be en-heaped (constraint filter)."""
        return True

    @abstractmethod
    def reference_point(self) -> Point:
        """A representative location of the query (diagnostics, QT entry)."""

    def partition(self, grid: Grid) -> ConceptualPartition:
        """Conceptual partition around this query's core block."""
        i_lo, i_hi, j_lo, j_hi = self.core_range(grid)
        return ConceptualPartition(i_lo, i_hi, j_lo, j_hi, grid.cols, grid.rows)


class PointNNStrategy(QueryStrategy):
    """Plain k-NN around a single query point ``q`` (Section 3)."""

    __slots__ = ("x", "y")

    kind = "nn"

    def __init__(self, x: float, y: float) -> None:
        self.x = float(x)
        self.y = float(y)

    def dist(self, x: float, y: float) -> float:
        return math.hypot(x - self.x, y - self.y)

    def core_range(self, grid: Grid) -> tuple[int, int, int, int]:
        i, j = grid.cell_of(self.x, self.y)
        return (i, i, j, j)

    def cell_key(self, grid: Grid, i: int, j: int) -> float:
        return grid.mindist_xy(i, j, self.x, self.y)

    def strip_key(
        self, grid: Grid, partition: ConceptualPartition, direction: int, level: int = 0
    ) -> float:
        """Perpendicular distance from ``q`` to the inner edge of ``DIR_level``.

        Valid because every arm spans the query's projection on its axis
        (see :mod:`repro.core.partition`), hence ``mindist`` degenerates to
        the perpendicular component.  Clamped at zero against floating-point
        jitter when ``q`` sits exactly on a cell edge.
        """
        return max(
            0.0, _perpendicular_gap(grid, partition, direction, level, self.x, self.y)
        )

    def level_step(self, grid: Grid) -> float:
        return grid.delta

    def reference_point(self) -> Point:
        return (self.x, self.y)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PointNNStrategy({self.x:.6g}, {self.y:.6g})"


class AggregateNNStrategy(QueryStrategy):
    """Aggregate NN over query points ``Q = {q1..qm}`` (Section 5)."""

    __slots__ = ("fn", "points")

    kind = "ann"

    def __init__(self, points: Sequence[Point], fn: str | AggregateFunction = "sum") -> None:
        if not points:
            raise ValueError("an aggregate query needs at least one point")
        self.points: tuple[Point, ...] = tuple((float(x), float(y)) for x, y in points)
        self.fn = get_aggregate(fn)

    @property
    def mbr(self) -> Rect:
        """The minimum bounding rectangle ``M`` of the query points."""
        return Rect.bounding(list(self.points))

    def dist(self, x: float, y: float) -> float:
        return self.fn(math.hypot(x - qx, y - qy) for qx, qy in self.points)

    def core_range(self, grid: Grid) -> tuple[int, int, int, int]:
        m = self.mbr
        i_lo, j_lo = grid.cell_of(m.x0, m.y0)
        i_hi, j_hi = grid.cell_of(m.x1, m.y1)
        return (i_lo, i_hi, j_lo, j_hi)

    def cell_key(self, grid: Grid, i: int, j: int) -> float:
        """``amindist(c, Q) = f over mindist(c, q_i)`` — a lower bound for
        ``adist(p, Q)`` of any object ``p`` in the cell."""
        return self.fn(grid.mindist_xy(i, j, qx, qy) for qx, qy in self.points)

    def strip_key(
        self, grid: Grid, partition: ConceptualPartition, direction: int, level: int = 0
    ) -> float:
        """``amindist(DIR_level, Q)`` as the aggregate of perpendicular gaps.

        Every arm spans the projection of the whole MBR (hence of every
        ``q_i``), so each individual ``mindist(DIR_level, q_i)`` is the
        perpendicular gap of ``q_i``.  For ``min``/``max`` this realizes the
        paper's O(1) observation — the aggregate reduces to the gap of the
        closest/farthest MBR edge — computed here uniformly in O(m).
        """
        return self.fn(
            max(0.0, _perpendicular_gap(grid, partition, direction, level, qx, qy))
            for qx, qy in self.points
        )

    def level_step(self, grid: Grid) -> float:
        """``m·δ`` for sum (Corollary 5.1); ``δ`` for min/max (Corollary 5.2)."""
        return self.fn.level_step(len(self.points), grid.delta)

    def reference_point(self) -> Point:
        return self.mbr.center

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AggregateNNStrategy({self.fn.name}, m={len(self.points)})"


class ConstrainedStrategy(QueryStrategy):
    """Constrained (A)NN: results restricted to a rectangle (Figure 5.3).

    "The adaptation of CPM to this problem inserts into the search heap only
    cells and conceptual rectangles that intersect the constraint region."
    We filter cells on insertion and objects on evaluation; rectangle
    entries keep their unconstrained keys, which remain valid lower bounds.
    """

    __slots__ = ("inner", "region")

    kind = "constrained"

    def __init__(self, inner: QueryStrategy, region: Rect) -> None:
        if isinstance(inner, ConstrainedStrategy):
            raise TypeError("constrained strategies do not nest")
        self.inner = inner
        self.region = region

    def dist(self, x: float, y: float) -> float:
        return self.inner.dist(x, y)

    def accepts(self, x: float, y: float, oid: int = -1) -> bool:
        return self.region.contains_point(x, y) and self.inner.accepts(x, y, oid)

    def core_range(self, grid: Grid) -> tuple[int, int, int, int]:
        return self.inner.core_range(grid)

    def cell_key(self, grid: Grid, i: int, j: int) -> float:
        return self.inner.cell_key(grid, i, j)

    def strip_key(
        self, grid: Grid, partition: ConceptualPartition, direction: int, level: int = 0
    ) -> float:
        return self.inner.strip_key(grid, partition, direction, level)

    def level_step(self, grid: Grid) -> float:
        return self.inner.level_step(grid)

    def cell_allowed(self, grid: Grid, i: int, j: int) -> bool:
        x0, y0, x1, y1 = grid.cell_rect(i, j)
        return rects_intersect(
            self.region.x0, self.region.y0, self.region.x1, self.region.y1,
            x0, y0, x1, y1,
        )

    def reference_point(self) -> Point:
        return self.inner.reference_point()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConstrainedStrategy({self.inner!r}, region={self.region})"


class FilteredStrategy(QueryStrategy):
    """Attribute-filtered NN: results restricted to tagged objects.

    Wraps an inner strategy and accepts an object only when the engine's
    tag table says the object carries **every** tag in ``tags`` (subset
    semantics, like a pub/sub topic filter over attributes).  Geometry
    delegates to the inner strategy wholesale: search keys are unchanged
    lower bounds, so CPM's correctness argument (Section 3.1) holds with
    the filter exactly as it does for the constrained variant.

    The tag table is **bound by the engine at installation**
    (:meth:`bind_tags` — CPM hands over its own per-monitor table), not
    at construction: the strategy object travels through specs, the wire
    protocol and process-shard pickling without dragging object state
    along.  An unbound strategy accepts nothing, and an object absent
    from the table has no tags — both reject, never crash.
    """

    __slots__ = ("inner", "tags", "_table")

    kind = "filtered"

    def __init__(
        self,
        inner: QueryStrategy,
        tags,
        table: dict[int, frozenset[str]] | None = None,
    ) -> None:
        if isinstance(inner, FilteredStrategy):
            raise TypeError("filtered strategies do not nest")
        required = frozenset(str(tag) for tag in tags)
        if not required:
            raise ValueError("a filtered query needs at least one tag")
        self.inner = inner
        self.tags = required
        self._table = table

    def bind_tags(self, table: dict[int, frozenset[str]]) -> None:
        """Attach the engine's live ``oid -> tags`` table (install time)."""
        self._table = table

    def accepts(self, x: float, y: float, oid: int = -1) -> bool:
        table = self._table
        if table is None:
            return False
        tags = table.get(oid)
        if tags is None or not self.tags <= tags:
            return False
        return self.inner.accepts(x, y, oid)

    def dist(self, x: float, y: float) -> float:
        return self.inner.dist(x, y)

    def core_range(self, grid: Grid) -> tuple[int, int, int, int]:
        return self.inner.core_range(grid)

    def cell_key(self, grid: Grid, i: int, j: int) -> float:
        return self.inner.cell_key(grid, i, j)

    def strip_key(
        self, grid: Grid, partition: ConceptualPartition, direction: int, level: int = 0
    ) -> float:
        return self.inner.strip_key(grid, partition, direction, level)

    def level_step(self, grid: Grid) -> float:
        return self.inner.level_step(grid)

    def cell_allowed(self, grid: Grid, i: int, j: int) -> bool:
        return self.inner.cell_allowed(grid, i, j)

    def reference_point(self) -> Point:
        return self.inner.reference_point()

    def __getstate__(self):
        # The bound tag table is engine-local state: process shards
        # rebind their own replica at installation.
        return (self.inner, self.tags)

    def __setstate__(self, state) -> None:
        self.inner, self.tags = state
        self._table = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FilteredStrategy({self.inner!r}, tags={sorted(self.tags)})"


def _perpendicular_gap(
    grid: Grid,
    partition: ConceptualPartition,
    direction: int,
    level: int,
    x: float,
    y: float,
) -> float:
    """Distance from ``(x, y)`` to the inner edge of the level-``level``
    strip of ``direction`` around the partition's core block.

    The edge is spelled exactly as :meth:`Grid.mindist_xy` and
    :meth:`Grid.cell_rect` spell the strip cells' near edge (a lower row's
    top edge is ``y0 + delta``), so the gap equals the perpendicular
    component of those cells' mindist, bit for bit.
    """
    bounds = grid.bounds
    delta = grid.delta
    if direction == UP:
        return bounds.y0 + (partition.j_hi + 1 + level) * delta - y
    if direction == DOWN:
        return y - (bounds.y0 + (partition.j_lo - 1 - level) * delta + delta)
    if direction == RIGHT:
        return bounds.x0 + (partition.i_hi + 1 + level) * delta - x
    if direction == LEFT:
        return x - (bounds.x0 + (partition.i_lo - 1 - level) * delta + delta)
    raise ValueError(f"unknown direction {direction}")
