"""Vectorized batch cell addressing (numpy).

This module is imported *lazily* by :func:`repro.grid.kernels.vec_cell_ids`
— on the first grid construction, and only successfully where numpy is
installed — so ``import repro`` never touches numpy (the library stays
stdlib-only by default; see "numpy acceleration" in the README).

Its one kernel returns exactly what the scalar per-row addressing of
:meth:`repro.grid.grid.Grid.batch_cell_ids` returns, and refuses exactly
the rows that loop refuses.  The coordinate views are *zero-copy*:
``np.frombuffer`` maps the batch's ``array('d')`` columns for the
duration of one call.
"""

from __future__ import annotations

import numpy as np


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
    float->int64 cast.

    Raises ``ValueError`` when an addressed row's cell coordinate
    ``(x - x0) / delta`` (or its ``y`` twin) is not finite — the rows on
    which the scalar ``int()`` raises.  Without the check ``inf`` would
    clamp to an edge cell and ``nan`` cast to an arbitrary one.

    ``skip`` (an optional byte mask, e.g. a batch's ``disappear``
    column) drops the marked rows from the result, keeping the remaining
    ids aligned with the rows a consumer actually addresses; skipped
    rows are not checked.
    """
    fi = (np.frombuffer(xs) - x0) / delta
    fj = (np.frombuffer(ys) - y0) / delta
    if skip is not None:
        keep = np.frombuffer(skip, dtype=np.uint8) == 0
        fi = fi[keep]
        fj = fj[keep]
    if not (np.isfinite(fi).all() and np.isfinite(fj).all()):
        raise ValueError("batch row with a non-finite coordinate")
    ci = np.clip(fi, 0.0, float(cols_1), out=fi).astype(np.int64)
    cj = np.clip(fj, 0.0, float(rows_1), out=fj).astype(np.int64)
    return (ci * rows + cj).tolist()
