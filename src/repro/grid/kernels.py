"""Columnar cell storage, the fused scan/filter kernels and the
optional numpy accelerators.

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
  ``(dist, oid)`` result entries;
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

numpy acceleration
------------------

There is one storage — ``array('d')`` coordinate columns, contiguous
float64 buffers ``np.frombuffer`` maps zero-copy — and one scalar
implementation of every scan, all two-dimensional (the n-dimensional
CPM example carries its own scalar scan).  Where numpy imports,
:func:`accelerators` additionally offers vectorized twins
(:mod:`repro.grid._numpy_kernels`) that :class:`repro.grid.grid.Grid`
binds at construction and calls only past two measured crossovers: a cell scan from
:data:`VEC_MIN_OCCUPANCY` objects, batch cell addressing from
:data:`VEC_MIN_BATCH` rows.  Nothing selects them but those two sizes
and whether numpy is importable; their results are byte-identical to the
scalar loops by construction (squared-distance prefilter, exact scalar
finish), so the scalar loops double as the reference tests compare
against.  numpy is never a hard dependency and ``import repro`` never
imports it.
"""

from __future__ import annotations

from array import array
from functools import cache
from math import hypot as _hypot
from typing import Callable, NamedTuple, Optional

__all__ = [
    "CellColumns",
    "Accelerators",
    "VEC_MIN_OCCUPANCY",
    "VEC_MIN_BATCH",
    "accelerators",
    "within",
    "best_k",
]


class CellColumns:
    """One cell's objects as parallel columns plus a slot index.

    ``oids`` is a plain list (ids feed tuple construction and dict
    probes, never vector math, and list indexing beats ``array('q')``
    unboxing); ``xs`` / ``ys`` are ``array('d')`` — the same
    append/pop/index/assign/zip surface as a list for the scalar loops
    (and the CPM engine's inlined copies of them), and contiguous
    float64 buffers for the numpy kernels.

    Invariants: ``len(oids) == len(xs) == len(ys)``;
    ``slot[oids[i]] == i`` for every position ``i``.  Deletion swaps the
    last row into the freed slot (object order inside a cell is not
    observable: every consumer either filters by distance or sorts).
    """

    __slots__ = ("oids", "xs", "ys", "slot", "columns")

    def __init__(self) -> None:
        self.oids: list[int] = []
        self.xs = array("d")
        self.ys = array("d")
        self.slot: dict[int, int] = {}
        #: the (oids, xs, ys) triple, prebuilt once — flat scans return
        #: it without allocating (the columns mutate in place, so the
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


#: cell population at which the numpy vectorized scan overtakes the
#: inlined scalar comprehension.  Measured in PR 7 on CPython 3.11 (see
#: CHANGES.md and the ``BENCH_PR7.json`` annotations): below ~48 rows
#: the ``np.frombuffer`` view setup + prefilter overhead loses to the
#: comprehension; from ~64 rows the vector pass wins and the gap widens
#: with occupancy.
VEC_MIN_OCCUPANCY = 64

#: batch row count at which the vectorized addressing kernel
#: (``Accelerators.batch_cell_ids``) overtakes the inlined per-row cell
#: arithmetic in the monitors' update loops.  The kernel's fixed cost is
#: two ``np.frombuffer`` views plus a handful of whole-column ufunc
#: passes (~15 µs against ~190 ns saved per row in isolation —
#: micro-breakeven near 80 rows), but *in situ* the consuming loop keeps
#: a per-row branch on the precomputed column, so interleaved A/B
#: replays put the real crossover higher: ~100-row batches measure
#: neutral-to-negative, ~500 rows and up measure a consistent win.
#: 128 keeps sub-crossover batches on the scalar path.
VEC_MIN_BATCH = 128


class Accelerators(NamedTuple):
    """The vectorized twins of the scalar kernels — each ``None`` when
    numpy does not import, each byte-identical to its scalar reference."""

    #: ``within_cell(cell, qx, qy, r)``: one cell's ``within`` scan.
    within_cell: Optional[Callable] = None
    #: ``batch_cell_ids(xs, ys, x0, y0, delta, cols_1, rows_1, rows,
    #: skip)``: the packed cell id of every row of a coordinate column pair.
    batch_cell_ids: Optional[Callable] = None


@cache
def accelerators() -> Accelerators:
    """The accelerators this interpreter offers — probed on first call,
    so importing this module never imports numpy."""
    try:
        from repro.grid import _numpy_kernels as nk
    except ImportError:
        return Accelerators()
    return Accelerators(nk.within_cell, nk.batch_cell_ids)


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

