"""Typed query specifications: what a client asks the monitor to watch.

The engines register queries through positional arguments
(``install_query(qid, point, k)``, ``install_constrained_query(...)``),
which is fine inside the library but a poor client surface: the caller
must know which method matches which query type, and nothing ties the
arguments together as *one* continuously-monitored thing.  A
:class:`QuerySpec` is that thing — a small frozen value object naming
the query type and its geometry — and it is what travels through every
layer of the client API: :meth:`repro.api.session.Session.register`
installs specs in-process, the wire protocol (:mod:`repro.api.wire`)
serializes them, and the socket client re-registers them remotely.

Three spec types cover the engines the library has (the pub/sub framing
of per-query subscriptions — see *Distributed Spatial-Keyword kNN
Monitoring for Location-aware Pub/Sub* — treats each as one topic):

* :class:`KnnSpec` — classic continuous k-NN around a point (Section 3
  of the paper).  Works against **every** monitor, including the
  sharded service tier.
* :class:`ConstrainedKnnSpec` — constrained k-NN (Figure 5.3): the k
  nearest objects *inside* a rectangle.  Needs a strategy-capable
  engine (:class:`repro.core.cpm.CPMMonitor`).
* :class:`RangeSpec` — a continuous range query: every object inside a
  rectangle, delivered in the library-wide ordered ``(dist, oid)``
  vocabulary with distances measured from the rectangle's center.
  Installed as a constrained query with an effectively unbounded ``k``,
  so the one CPM engine (and the one delta stream) serves ranges too.
* :class:`FilteredKnnSpec` — attribute-filtered k-NN (the pub/sub
  subscription type): the k nearest objects carrying **all** of the
  spec's tags, optionally also constrained to a rectangle.  Rides the
  same strategy machinery (:class:`repro.core.strategies.FilteredStrategy`)
  and the engine's per-monitor tag table
  (:meth:`repro.monitor.ContinuousMonitor.set_object_tags`).

The strategy-backed specs install on any strategy-capable engine — the
CPM core directly, or the sharded service tier, which routes them to the
shard owning the spec's anchor cell (a search past that shard's cells
pulls them from the coordinator, so any shard answers exactly).

All specs expose ``anchor`` (the representative point used for shard
routing and ``move``) and ``moved_to(point)`` (the same spec re-anchored
— a range moves by translating its rectangle).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Union

from repro.geometry.points import Point
from repro.geometry.rects import Rect

#: ``k`` used to install a :class:`RangeSpec`: large enough that the
#: neighbor list never fills (``best_dist`` stays ``inf``), so the
#: constrained machinery degenerates to exact range monitoring.
RANGE_K = 1 << 30

RectLike = Union[Rect, tuple]


def as_rect(region: RectLike) -> Rect:
    """Normalize a rectangle argument (``Rect`` or ``(x0, y0, x1, y1)``)."""
    if isinstance(region, Rect):
        return region
    x0, y0, x1, y1 = region
    return Rect(float(x0), float(y0), float(x1), float(y1))


@dataclass(frozen=True, slots=True)
class KnnSpec:
    """Continuous k-NN around ``point`` (the paper's core query type)."""

    point: Point
    k: int = 1

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

    @property
    def anchor(self) -> Point:
        return self.point

    def moved_to(self, point: Point) -> "KnnSpec":
        return KnnSpec(point=point, k=self.k)


@dataclass(frozen=True, slots=True)
class ConstrainedKnnSpec:
    """Continuous constrained k-NN: nearest ``k`` inside ``region``."""

    point: Point
    region: Rect
    k: int = 1

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        object.__setattr__(self, "region", as_rect(self.region))

    @property
    def anchor(self) -> Point:
        return self.point

    def moved_to(self, point: Point) -> "ConstrainedKnnSpec":
        """Re-anchor the query point; the constraint region stays put."""
        return ConstrainedKnnSpec(point=point, region=self.region, k=self.k)


@dataclass(frozen=True, slots=True)
class RangeSpec:
    """Continuous range query: all objects inside ``region``, ordered by
    distance from the region's center."""

    region: Rect

    def __post_init__(self) -> None:
        object.__setattr__(self, "region", as_rect(self.region))

    @property
    def anchor(self) -> Point:
        r = self.region
        return ((r.x0 + r.x1) / 2.0, (r.y0 + r.y1) / 2.0)

    def moved_to(self, point: Point) -> "RangeSpec":
        """Translate the rectangle so its center lands on ``point``."""
        r = self.region
        cx, cy = self.anchor
        dx = point[0] - cx
        dy = point[1] - cy
        return RangeSpec(region=Rect(r.x0 + dx, r.y0 + dy, r.x1 + dx, r.y1 + dy))


@dataclass(frozen=True, slots=True)
class FilteredKnnSpec:
    """Continuous attribute-filtered k-NN: the nearest ``k`` objects
    carrying every tag in ``tags`` (optionally inside ``region``)."""

    point: Point
    k: int = 1
    tags: tuple[str, ...] = ()
    region: Rect | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        normalized = tuple(sorted({str(t) for t in self.tags}))
        if not normalized:
            raise ValueError("a filtered query needs at least one tag")
        object.__setattr__(self, "tags", normalized)
        if self.region is not None:
            object.__setattr__(self, "region", as_rect(self.region))

    @property
    def anchor(self) -> Point:
        return self.point

    def moved_to(self, point: Point) -> "FilteredKnnSpec":
        """Re-anchor the query point; tags and region stay put."""
        return FilteredKnnSpec(
            point=point, k=self.k, tags=self.tags, region=self.region
        )


QuerySpec = Union[KnnSpec, ConstrainedKnnSpec, RangeSpec, FilteredKnnSpec]

_SPEC_TYPES = (KnnSpec, ConstrainedKnnSpec, RangeSpec, FilteredKnnSpec)


def install_spec(monitor, qid: int, spec: QuerySpec):
    """Install ``spec`` on ``monitor``; returns the initial result.

    :class:`KnnSpec` goes through the universal
    ``ContinuousMonitor.install_query``; the strategy-backed specs need
    a strategy-capable engine (``install_strategy_query`` — the CPM core,
    the brute-force reference, or the sharded service tier, which routes
    by the spec's anchor cell) and raise :class:`TypeError` against
    engines that lack it (the YPK/SEA baselines).
    """
    if isinstance(spec, KnnSpec):
        return monitor.install_query(qid, spec.point, spec.k)
    if not isinstance(spec, _SPEC_TYPES):
        raise TypeError(f"not a query spec: {spec!r}")
    install = getattr(monitor, "install_strategy_query", None)
    if install is None:
        raise TypeError(
            f"{type(monitor).__name__} supports only plain k-NN specs; "
            f"{type(spec).__name__} needs a strategy-capable engine "
            "(repro.core.cpm.CPMMonitor or the sharded service tier)"
        )
    from repro.core.strategies import (
        ConstrainedStrategy,
        FilteredStrategy,
        PointNNStrategy,
    )

    if isinstance(spec, ConstrainedKnnSpec):
        strategy = ConstrainedStrategy(
            PointNNStrategy(spec.point[0], spec.point[1]), spec.region
        )
        return install(qid, strategy, spec.k)
    if isinstance(spec, FilteredKnnSpec):
        inner: "QueryStrategy" = PointNNStrategy(spec.point[0], spec.point[1])
        if spec.region is not None:
            inner = ConstrainedStrategy(inner, spec.region)
        return install(qid, FilteredStrategy(inner, spec.tags), spec.k)
    cx, cy = spec.anchor
    strategy = ConstrainedStrategy(PointNNStrategy(cx, cy), spec.region)
    return install(qid, strategy, RANGE_K)


# ----------------------------------------------------------------------
# Wire representation (used by repro.api.wire)
# ----------------------------------------------------------------------

def spec_to_wire(spec: QuerySpec) -> dict:
    """The JSON-ready dict form of a spec (stable key order)."""
    if isinstance(spec, KnnSpec):
        return {"type": "knn", "point": [spec.point[0], spec.point[1]], "k": spec.k}
    if isinstance(spec, ConstrainedKnnSpec):
        r = spec.region
        return {
            "type": "constrained",
            "point": [spec.point[0], spec.point[1]],
            "region": [r.x0, r.y0, r.x1, r.y1],
            "k": spec.k,
        }
    if isinstance(spec, RangeSpec):
        r = spec.region
        return {"type": "range", "region": [r.x0, r.y0, r.x1, r.y1]}
    if isinstance(spec, FilteredKnnSpec):
        r = spec.region
        return {
            "type": "filtered",
            "point": [spec.point[0], spec.point[1]],
            "k": spec.k,
            "tags": list(spec.tags),
            "region": None if r is None else [r.x0, r.y0, r.x1, r.y1],
        }
    raise TypeError(f"not a query spec: {spec!r}")


def _finite(raw) -> float:
    value = float(raw)
    if isfinite(value):
        return value
    raise ValueError(f"non-finite coordinate {raw!r} in a query spec")


def _wire_point(raw) -> Point:
    x, y = raw
    return (_finite(x), _finite(y))


def _wire_rect(raw) -> Rect:
    x0, y0, x1, y1 = raw
    return Rect(_finite(x0), _finite(y0), _finite(x1), _finite(y1))


def _wire_k(obj: dict) -> int:
    """``k`` as the wire must carry it: a positive JSON integer (a float
    such as ``2.9`` would silently truncate, a ``bool`` is no count)."""
    k = obj.get("k", 1)
    if type(k) is int and k >= 1:
        return k
    raise ValueError(f"query spec k must be a positive integer, got {k!r}")


def spec_from_wire(obj: dict) -> QuerySpec:
    """Parse the dict form back into a spec (inverse of spec_to_wire).

    Refuses (``ValueError``) what no engine may install: a non-finite
    point or region bound (``1e999`` is valid JSON that parses to
    ``inf``) and a ``k`` that is not a positive JSON integer."""
    kind = obj.get("type")
    if kind == "knn":
        return KnnSpec(point=_wire_point(obj["point"]), k=_wire_k(obj))
    if kind == "constrained":
        return ConstrainedKnnSpec(
            point=_wire_point(obj["point"]),
            region=_wire_rect(obj["region"]),
            k=_wire_k(obj),
        )
    if kind == "range":
        return RangeSpec(region=_wire_rect(obj["region"]))
    if kind == "filtered":
        region = obj.get("region")
        return FilteredKnnSpec(
            point=_wire_point(obj["point"]),
            k=_wire_k(obj),
            tags=tuple(str(t) for t in obj["tags"]),
            region=None if region is None else _wire_rect(region),
        )
    raise ValueError(f"unknown query spec type {kind!r}")
