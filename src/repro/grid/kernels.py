"""Columnar cell storage, the fused scan/filter kernels and the
pluggable numeric-backend registry.

The per-cell object store of the grid index is *columnar*: a cell keeps
its objects in three parallel flat columns — ``oids`` / ``xs`` / ``ys``
— plus an ``oid -> slot`` side index for O(1) membership, delete-by-swap
and same-cell relocation.  The paper's cost model is unchanged (a cell
list still supports expected-O(1) insert and delete, the ``Time_ind = 2``
of Section 4.1); what changes is the *per-object* cost of a scan.

Every hot read in the monitoring pipeline is a scan-and-filter: walk a
cell's objects, compute each distance to the query, keep the ones below
a bound.  With a ``dict[int, Point]`` store that loop pays dict-item
iteration, a tuple unpack and interpreted compare per object.  The
kernels below fuse the whole thing into a single list comprehension over
the parallel columns, so the per-object work runs on the comprehension
fast path — the standard flat-array trick of fast NN systems, in pure
Python.

Three kernel shapes make up the public scan surface:

* :func:`within` — fused distance + radius filter, returning ready-made
  ``(dist, oid)`` result entries (:func:`within_nd` is its d-dimensional
  sibling, consumed by ``repro.ndim``);
* :func:`best_k` — ``within`` plus sort-and-truncate, for callers that
  want a cell's local top-k;
* the raw columns themselves (``CellColumns`` attributes / the grid's
  ``scan_all_flat``) for consumers that apply their own predicate — on
  CPython 3.11 this zip-loop shape is what the 2-D baselines use, and
  the CPM engine inlines the same loops against the storage directly
  (the comprehension frame offsets the column savings at low occupancy
  — measured in PR 3, see CHANGES.md — so the framed kernels are kept
  as the *API*, not the hot path).

The kernels are *pure* (no accounting): the grid front-ends
(:meth:`repro.grid.grid.Grid.scan_within` and friends) charge the cell
access before delegating, so the paper's counters — one charged access
per scan call, ``objects_scanned`` bumped by the cell population — are
identical to the dict-store era, byte for byte.

Numeric backends
----------------

Three interchangeable backends serve the same kernel interface
(:class:`KernelBackend`); which one a grid uses is decided at
construction (``Grid(backend=...)``, the ``REPRO_KERNEL_BACKEND``
environment variable, or the auto default):

``list``
    The pure-python reference: plain list columns, scalar comprehension
    kernels.  Always available; the byte-identity baseline every other
    backend is tested against.
``array``
    Stdlib buffer backend: :class:`BufferCellColumns` stores ``xs`` /
    ``ys`` as ``array('d')`` — contiguous float64 buffers exposable as
    memoryviews (:meth:`BufferCellColumns.coord_views`) — while the
    scan loops stay scalar (``array('d')`` supports the exact same
    append/pop/index/zip surface as a list).  The default whenever
    numpy is not installed.
``numpy``
    The ``array`` storage plus vectorized scan kernels
    (:mod:`repro.grid._numpy_kernels`): ``np.frombuffer`` maps the live
    coordinate buffers zero-copy and a squared-distance prefilter +
    exact scalar finish replaces the per-row loop once a cell's
    population reaches :data:`VEC_MIN_OCCUPANCY` (below it, vector-call
    overhead loses to the comprehension — crossover recorded in PR 7,
    see the ``BENCH_PR7.json`` annotations).  Results are
    byte-identical to ``list`` by construction.  Auto-selected when
    numpy is importable; never a hard dependency.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass
from math import dist as _dist, hypot as _hypot
from typing import Callable, Optional

__all__ = [
    "CellColumns",
    "BufferCellColumns",
    "KernelBackend",
    "VEC_MIN_OCCUPANCY",
    "VEC_MIN_BATCH",
    "available_backends",
    "resolve_backend",
    "within",
    "best_k",
    "within_nd",
]


class CellColumns:
    """One cell's objects as parallel columns plus a slot index.

    Invariants: ``len(oids) == len(xs) == len(ys)``;
    ``slot[oids[i]] == i`` for every position ``i``.  Deletion swaps the
    last row into the freed slot (object order inside a cell is not
    observable: every consumer either filters by distance or sorts).
    """

    __slots__ = ("oids", "xs", "ys", "slot", "columns")

    def __init__(self) -> None:
        self.oids: list[int] = []
        self.xs: list[float] = []
        self.ys: list[float] = []
        self.slot: dict[int, int] = {}
        #: the (oids, xs, ys) triple, prebuilt once — flat scans return
        #: it without allocating (the lists mutate in place, so the
        #: tuple stays valid for the cell's lifetime).
        self.columns = (self.oids, self.xs, self.ys)

    def __len__(self) -> int:
        return len(self.oids)

    def __contains__(self, oid: int) -> bool:
        return oid in self.slot

    def insert(self, oid: int, x: float, y: float) -> None:
        """Append a row (caller guarantees ``oid`` is not present)."""
        self.slot[oid] = len(self.oids)
        self.oids.append(oid)
        self.xs.append(x)
        self.ys.append(y)

    def delete(self, oid: int) -> None:
        """Remove a row by swapping the last row into its slot.

        Raises ``KeyError`` when ``oid`` is not in the cell.
        """
        idx = self.slot.pop(oid)
        oids = self.oids
        last_oid = oids.pop()
        lx = self.xs.pop()
        ly = self.ys.pop()
        if last_oid != oid:
            oids[idx] = last_oid
            self.xs[idx] = lx
            self.ys[idx] = ly
            self.slot[last_oid] = idx

    def relocate(self, oid: int, x: float, y: float) -> None:
        """Overwrite a row's coordinates in place (same-cell move).

        Raises ``KeyError`` when ``oid`` is not in the cell.
        """
        idx = self.slot[oid]
        self.xs[idx] = x
        self.ys[idx] = y

    def position(self, oid: int) -> tuple[float, float]:
        """Stored coordinates of a member (``KeyError`` when absent)."""
        idx = self.slot[oid]
        return (self.xs[idx], self.ys[idx])

    def as_dict(self) -> dict[int, tuple[float, float]]:
        """Dict snapshot ``{oid: (x, y)}`` (the compatibility view)."""
        return {
            oid: (x, y) for oid, x, y in zip(self.oids, self.xs, self.ys)
        }


class BufferCellColumns(CellColumns):
    """:class:`CellColumns` with ``array('d')`` coordinate buffers.

    Same interface, same invariants, same mutation semantics —
    ``array('d')`` supports the exact append/pop/index/assign/zip
    surface the scalar loops (and the CPM engine's inlined copies of
    them) drive, so every consumer works unchanged.  What changes is
    the representation: ``xs`` / ``ys`` are contiguous float64 buffers,
    so they can be exposed as memoryviews (:meth:`coord_views`) and
    mapped zero-copy by the vectorized numpy kernels
    (``np.frombuffer``; see :mod:`repro.grid._numpy_kernels`).

    ``oids`` stays a plain list: object ids feed tuple construction and
    dict probes (never numeric vector math), and list indexing is
    faster than ``array('q')`` unboxing on every CPython this repo
    targets.
    """

    __slots__ = ()

    def __init__(self) -> None:
        self.oids: list[int] = []
        self.xs = array("d")
        self.ys = array("d")
        self.slot: dict[int, int] = {}
        self.columns = (self.oids, self.xs, self.ys)

    def coord_views(self) -> tuple[memoryview, memoryview]:
        """Zero-copy float64 memoryviews of the coordinate buffers.

        Views are snapshots of the *current* buffer: take them per scan
        and drop them before the next mutation (an append may realloc).
        """
        return (memoryview(self.xs), memoryview(self.ys))


@dataclass(frozen=True, slots=True)
class KernelBackend:
    """One numeric backend: a cell representation plus its kernels.

    ``vec_within`` is the cell-level vectorized scan (``None`` for
    scalar backends); grids call it instead of the inlined comprehension
    once a cell's population reaches ``vec_min``.  ``within_nd`` is the
    d-dimensional kernel consumed by :class:`repro.ndim.grid.NdGrid`.
    ``batch_cell_ids`` is the *batch* addressing kernel (``None`` for
    scalar backends): given the coordinate columns of a whole
    :class:`repro.updates.FlatUpdateBatch` it computes every row's packed
    cell id in one vectorized pass — the update loops of the monitors
    consume it instead of the inlined per-row ``int((x - x0) / delta)``
    arithmetic once a batch reaches :data:`VEC_MIN_BATCH` rows.
    All kernels are byte-identical to the ``list`` reference — the
    backend changes *how* a scan runs, never what it returns.
    """

    name: str
    cell_factory: type
    within_nd: Callable
    vec_within: Optional[Callable] = None
    vec_min: int = 0
    batch_cell_ids: Optional[Callable] = None


#: cell population at which the numpy vectorized scan overtakes the
#: inlined scalar comprehension.  Measured in PR 7 on CPython 3.11 (see
#: CHANGES.md and the ``BENCH_PR7.json`` annotations): below ~48 rows
#: the ``np.frombuffer`` view setup + prefilter overhead loses to the
#: comprehension; from ~64 rows the vector pass wins and the gap widens
#: with occupancy.
VEC_MIN_OCCUPANCY = 64

#: batch row count at which the vectorized addressing kernel
#: (``KernelBackend.batch_cell_ids``) overtakes the inlined per-row cell
#: arithmetic in the monitors' update loops.  The kernel's fixed cost is
#: two ``np.frombuffer`` views plus a handful of whole-column ufunc
#: passes (~15 µs against ~190 ns saved per row in isolation —
#: micro-breakeven near 80 rows), but *in situ* the consuming loop keeps
#: a per-row branch on the precomputed column, so interleaved A/B
#: replays put the real crossover higher: ~100-row batches measure
#: neutral-to-negative, ~500 rows and up measure a consistent win.
#: 128 keeps sub-crossover batches on the scalar path.
VEC_MIN_BATCH = 128

#: environment knob.
_BACKEND_ENV = "REPRO_KERNEL_BACKEND"

#: resolved-once cache: ``None`` = not probed yet, ``False`` = numpy
#: absent, otherwise the numpy :class:`KernelBackend`.
_numpy_backend_cache: object = None


def _make_numpy_backend() -> KernelBackend:
    from repro.grid import _numpy_kernels as nk

    return KernelBackend(
        name="numpy",
        cell_factory=BufferCellColumns,
        within_nd=nk.within_nd,
        vec_within=nk.within_cell,
        vec_min=VEC_MIN_OCCUPANCY,
        batch_cell_ids=nk.batch_cell_ids,
    )


def _numpy_backend() -> KernelBackend | None:
    global _numpy_backend_cache
    cached = _numpy_backend_cache
    if cached is None:
        try:
            backend = _make_numpy_backend()
        except ImportError:
            _numpy_backend_cache = False
            return None
        _numpy_backend_cache = backend
        return backend
    return cached or None


def available_backends() -> tuple[str, ...]:
    """Names of the backends importable in this interpreter."""
    names = ["list", "array"]
    if _numpy_backend() is not None:
        names.append("numpy")
    return tuple(names)


def resolve_backend(backend: "str | KernelBackend | None" = None) -> KernelBackend:
    """Resolve a backend selector to a :class:`KernelBackend`.

    Precedence: an explicit argument (name or backend object) beats the
    ``REPRO_KERNEL_BACKEND`` environment variable beats the ``auto``
    default.  ``auto`` picks ``numpy`` when numpy is importable and the
    stdlib ``array`` backend otherwise — the measured-fastest choice at
    the workload occupancies of the perf suite (PR 7's interleaved A/B,
    ``BENCH_PR7.json`` annotations).  Requesting ``numpy`` where
    numpy is not installed raises ``ImportError``; unknown names raise
    ``ValueError``.
    """
    if isinstance(backend, KernelBackend):
        return backend
    name = backend or os.environ.get(_BACKEND_ENV) or "auto"
    name = name.strip().lower()
    if name == "auto":
        np_backend = _numpy_backend()
        return np_backend if np_backend is not None else _ARRAY_BACKEND
    if name == "list":
        return _LIST_BACKEND
    if name == "array":
        return _ARRAY_BACKEND
    if name == "numpy":
        np_backend = _numpy_backend()
        if np_backend is None:
            raise ImportError(
                "the 'numpy' kernel backend requires numpy "
                "(pip install repro[numpy]); the stdlib 'array' backend "
                "is the drop-in fallback"
            )
        return np_backend
    raise ValueError(
        f"unknown kernel backend {name!r} "
        f"(expected one of: auto, list, array, numpy)"
    )


def within(
    oids: list[int],
    xs: list[float],
    ys: list[float],
    qx: float,
    qy: float,
    r: float,
) -> list[tuple[float, int]]:
    """Fused scan-and-filter: ``(dist, oid)`` pairs with ``dist <= r``.

    One comprehension computes every distance and applies the bound, so
    the per-object loop runs at comprehension speed.  ``r = inf`` returns
    every object with its distance.  The returned pairs are ready-made
    ``(dist, oid)`` result entries (the library-wide tie-break order).
    """
    return [
        (d, oid)
        for oid, x, y in zip(oids, xs, ys)
        if (d := _hypot(x - qx, y - qy)) <= r
    ]


def best_k(
    oids: list[int],
    xs: list[float],
    ys: list[float],
    qx: float,
    qy: float,
    k: int,
    bound: float,
) -> list[tuple[float, int]]:
    """The cell's ``k`` best objects within ``bound``, ascending."""
    hits = [
        (d, oid)
        for oid, x, y in zip(oids, xs, ys)
        if (d := _hypot(x - qx, y - qy)) <= bound
    ]
    if len(hits) > 1:
        hits.sort()
    return hits[:k]


def within_nd(
    oids: list[int],
    pts: list[tuple[float, ...]],
    q: tuple[float, ...],
    r: float,
) -> list[tuple[float, int]]:
    """d-dimensional :func:`within` over an ``oids`` / ``pts`` column pair."""
    return [
        (d, oid) for oid, p in zip(oids, pts) if (d := _dist(p, q)) <= r
    ]


#: the scalar backends (module-level singletons; the numpy backend is
#: materialized lazily by :func:`_numpy_backend` so importing this module
#: never imports numpy).
_LIST_BACKEND = KernelBackend(
    name="list", cell_factory=CellColumns, within_nd=within_nd
)
_ARRAY_BACKEND = KernelBackend(
    name="array", cell_factory=BufferCellColumns, within_nd=within_nd
)
