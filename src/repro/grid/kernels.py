"""Columnar cell storage and the optional numpy batch-addressing kernel.

The per-cell object store of the grid index is *columnar*: a cell keeps
its objects in three parallel flat columns — ``oids`` / ``xs`` / ``ys``
— plus an ``oid -> slot`` side index for O(1) membership, delete-by-swap
and same-cell relocation.  The paper's cost model is unchanged (a cell
list still supports expected-O(1) insert and delete, the ``Time_ind = 2``
of Section 4.1); what changes is the *per-object* cost of a scan.

Every hot read in the monitoring pipeline is a scan-and-filter: walk a
cell's objects, compute each distance to the query, keep the ones below
a bound.  With a ``dict[int, Point]`` store that loop pays dict-item
iteration, a tuple unpack and interpreted compare per object; over the
parallel columns it is one ``zip`` with no position tuple.  The scans
live with their callers: :meth:`repro.grid.grid.Grid.scan_within` and
:meth:`~repro.grid.grid.Grid.scan_all_flat` for the baselines, and the
CPM engine's inlined scan-and-merge (a call frame per cell offsets the
column savings at low occupancy, so the engine inlines rather than
calls).  Every scan charges one cell access with the whole population
counted as scanned, byte for byte the dict-store era's counters.

numpy acceleration
------------------

Every scan has one implementation, the scalar loop.  The one numpy
kernel is batch cell addressing: :func:`vec_cell_ids` returns
:func:`repro.grid._numpy_kernels.batch_cell_ids` where numpy imports
(``None`` otherwise), :class:`repro.grid.grid.Grid` binds it at
construction, and :meth:`~repro.grid.grid.Grid.batch_cell_ids` calls it
from :data:`VEC_MIN_BATCH` rows up.  Nothing else selects it; its cell
ids are the scalar loop's, and so is the set of rows it refuses
(non-finite cell coordinates).  numpy is never a hard dependency and
``import repro`` never imports it.
"""

from __future__ import annotations

from array import array
from functools import cache
from typing import Callable, Optional

__all__ = ["CellColumns", "VEC_MIN_BATCH", "vec_cell_ids"]


class CellColumns:
    """One cell's objects as parallel columns plus a slot index.

    ``oids`` is a plain list (ids feed tuple construction and dict
    probes, never vector math, and list indexing beats ``array('q')``
    unboxing); ``xs`` / ``ys`` are ``array('d')``, with the same
    append/pop/index/assign/zip surface as a list for the scan loops.
    No numpy kernel reads them; what remains of the reason for
    ``array('d')`` is size — 8 bytes per coordinate against a list's
    8-byte pointer plus a 24-byte float object.  Whether lists would
    scan faster or cost more memory end to end is unmeasured.

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


#: batch row count at which the vectorized addressing kernel
#: (:func:`vec_cell_ids`) overtakes the inlined per-row cell
#: arithmetic in the monitors' update loops.  The kernel's fixed cost is
#: two ``np.frombuffer`` views plus a handful of whole-column ufunc
#: passes (~15 µs against ~190 ns saved per row in isolation —
#: micro-breakeven near 80 rows), but *in situ* the consuming loop keeps
#: a per-row branch on the precomputed column, so interleaved A/B
#: replays put the real crossover higher: ~100-row batches measure
#: neutral-to-negative, ~500 rows and up measure a consistent win.
#: 128 keeps sub-crossover batches on the scalar path.
VEC_MIN_BATCH = 128


@cache
def vec_cell_ids() -> Optional[Callable]:
    """The numpy batch-addressing kernel, or ``None`` where numpy does
    not import — probed on first call, so importing this module never
    imports numpy.  Signature: ``(xs, ys, x0, y0, delta, cols_1, rows_1,
    rows, skip)`` -> the packed cell id of every unskipped row."""
    try:
        from repro.grid._numpy_kernels import batch_cell_ids
    except ImportError:
        return None
    return batch_cell_ids
