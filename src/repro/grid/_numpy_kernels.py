"""Vectorized scan kernels over buffer-backed cell columns (numpy).

This module is imported *lazily* by :func:`repro.grid.kernels.accelerators`
— on the first grid construction, and only successfully where numpy is
installed — so ``import repro`` never touches numpy (the library stays
stdlib-only by default; see "numpy acceleration" in the README).

Byte-identity contract
----------------------

Every kernel here returns *exactly* what its scalar reference
(:func:`repro.grid.kernels.within` and friends) returns: same candidate
set, same ``(dist, oid)`` tuples (distances computed by ``math.hypot``,
not ``numpy.hypot`` — the two may differ in the last ulp),
same column order.  The vectorization is a *prefilter*: a squared-distance
pass with a conservative relative slack selects the survivors (a strict
superset of the true hits — squared compare in float64 loses at most a few
ulps, the slack covers that), then the exact scalar distance and the exact
``d <= r`` decision re-run per survivor.  Cells are small (tens to a few
hundreds of objects), so the exact finish touches few rows while numpy
eats the O(population) arithmetic.

The coordinate views are *zero-copy*: ``np.frombuffer`` maps the live
``array('d')`` buffers of a :class:`repro.grid.kernels.CellColumns`.
Views are taken per scan and never cached — an ``append`` may realloc the
backing buffer, so a held view could go stale.
"""

from __future__ import annotations

from math import hypot as _hypot

import numpy as np

#: relative slack of the squared-distance prefilter.  The squared compare
#: ``dx*dx + dy*dy <= r*r`` loses at most ~4 ulps (two products, one sum,
#: one square) — 1e-12 relative is ~2000x that, still pruning everything
#: that is not within a hair of the bound.
_SLACK = 1.0 + 1e-12

#: squared radii beyond this overflow float64 (hypot does not); the
#: prefilter falls back to keeping every row for such bounds.
_MAX_SQUARE_BOUND = 1.3e154


def within_cell(cell, qx: float, qy: float, r: float) -> list[tuple[float, int]]:
    """Vectorized twin of the inlined scalar ``within`` scan over one
    cell: ``(dist, oid)`` pairs with ``dist <= r``, in
    column order, distances by ``math.hypot``."""
    xs = cell.xs
    ys = cell.ys
    oids = cell.oids
    vx = np.frombuffer(xs) - qx
    vy = np.frombuffer(ys) - qy
    d2 = vx * vx + vy * vy
    if r >= _MAX_SQUARE_BOUND:
        # inf (the under-full search bound) or a radius whose square
        # overflows: every row survives the prefilter by definition.
        idx = range(len(oids))
    else:
        idx = np.nonzero(d2 <= r * r * _SLACK)[0].tolist()
    out = []
    append = out.append
    for i in idx:
        d = _hypot(xs[i] - qx, ys[i] - qy)
        if d <= r:
            append((d, oids[i]))
    return out


def batch_cell_ids(
    xs,
    ys,
    x0: float,
    y0: float,
    delta: float,
    cols_1: int,
    rows_1: int,
    rows: int,
    skip=None,
) -> list[int]:
    """Packed cell ids of every ``(xs[i], ys[i])`` row in one vector pass.

    Twin of the inlined per-row addressing of the update loops
    (``i = int((x - x0) / delta)`` clamped to ``[0, cols-1]``, then
    ``i * rows + j``).  The clamp runs in the *float* domain before the
    integer cast: for in-range values the cast truncates exactly like
    ``int()``, out-of-range values hit the clamp boundary exactly as the
    integer clamp does, and huge coordinates never reach an overflowing
    float->int64 cast.  Non-finite coordinates are outside the grid
    contract (the scalar path raises on them; this one does not).

    ``skip`` (an optional byte mask, e.g. a batch's ``disappear``
    column) drops the marked rows from the result, keeping the remaining
    ids aligned with the rows a consumer actually addresses.
    """
    fi = np.clip((np.frombuffer(xs) - x0) / delta, 0.0, float(cols_1))
    fj = np.clip((np.frombuffer(ys) - y0) / delta, 0.0, float(rows_1))
    cids = fi.astype(np.int64) * rows + fj.astype(np.int64)
    if skip is not None:
        cids = cids[np.frombuffer(skip, dtype=np.uint8) == 0]
    return cids.tolist()

