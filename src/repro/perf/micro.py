"""Micro-benchmark of the hot loop shapes in isolation.

``python -m repro.perf micro`` times two families of loop shapes.

**Cell scans** — the per-object cost of one cell scan-and-filter under
the two storage layouts the library has used:

* **dict** — the pre-PR3 shape: a charged ``Grid.scan``-style *method
  call* returning the cell's ``dict[int, Point]``, then the item loop
  with a position-tuple unpack and two subscripts per object;
* **columnar** — the shape the engines inline today (see
  ``CPMMonitor._run_search``): direct store indexing with the accounting
  bumped in place (no function frame at all), then ``zip`` over the
  parallel ``oids`` / ``xs`` / ``ys`` columns of
  :class:`repro.grid.kernels.CellColumns`, coordinates arriving as plain
  floats with no tuple indirection.

**Backend scans** — the fused within-kernel timed once per installed
numeric backend (``list`` / ``array`` / ``numpy``, see
:mod:`repro.grid.kernels`) over a ladder of cell occupancies.  The
scalar backends run the exact comprehension the engines inline; numpy
runs its vectorized prefilter kernel.  The reported *crossover* — the
smallest occupancy where the numpy kernel beats the best scalar shape —
is what :data:`repro.grid.kernels.VEC_MIN_OCCUPANCY` encodes (override
per machine with ``REPRO_KERNEL_VEC_MIN``).

All shapes are timed as *inline statements* (``timeit``-style compiled
loops) because that is how the hot paths execute them; within a family
they charge the same counters, walk identical inputs and produce
identical outputs.  At low cell occupancy the dict era's per-scan call
frame dominates — which is exactly what the columnar rewrite removed.
The numbers are wall-clock and therefore *advisory* — CI runs this step
as informational only; the deterministic accounting of real scans is
covered by the perf-gate counters instead.
"""

from __future__ import annotations

import random
import timeit
from math import hypot

from repro.grid.kernels import CellColumns, available_backends, resolve_backend

#: cell populations timed by default: a sparse cell, the paper's typical
#: occupancy band, and a dense hotspot cell.
DEFAULT_SIZES = (4, 32, 256)

#: occupancy ladder for the per-backend kernel scan — dense enough around
#: the expected numpy crossover (tens of objects) to pin it down.
DEFAULT_BACKEND_SIZES = (4, 8, 16, 32, 64, 128, 256, 1024)

#: query point / filter radius (roughly half the objects pass).
_QX, _QY, _RADIUS = 0.5, 0.5, 0.35

_DICT_STMT = """
cell = scan(cid)
out = []
for oid, pt in cell.items():
    d = hypot(pt[0] - qx, pt[1] - qy)
    if d <= r:
        out.append((d, oid))
"""

_COLUMNAR_STMT = """
cell = cells[cid]
stats.cell_scans += 1
out = []
if cell is not None and (coids := cell.oids):
    stats.objects_scanned += len(coids)
    for oid, x, y in zip(coids, cell.xs, cell.ys):
        d = hypot(x - qx, y - qy)
        if d <= r:
            out.append((d, oid))
"""

_FUSED_STMT = """
cell = cells[cid]
stats.cell_scans += 1
out = []
if cell is not None and (coids := cell.oids):
    stats.objects_scanned += len(coids)
    out = [
        (d, oid)
        for oid, x, y in zip(coids, cell.xs, cell.ys)
        if (d := hypot(x - qx, y - qy)) <= r
    ]
"""


class _Stats:
    """Counter pair with the same attribute-bump shape as GridStats."""

    __slots__ = ("cell_scans", "objects_scanned")

    def __init__(self) -> None:
        self.cell_scans = 0
        self.objects_scanned = 0


class _DictEraGrid:
    """The pre-PR3 store + charged accessor, faithfully shaped.

    ``scan_id`` replicates the old ``Grid.scan_id`` operation for
    operation: store index, stats attribute chase, truthiness branch,
    per-scan counter bumps, live-dict return.
    """

    __slots__ = ("_cells", "stats")

    def __init__(self, cells: list, stats: _Stats) -> None:
        self._cells = cells
        self.stats = stats

    def scan_id(self, cid: int) -> dict:
        cell = self._cells[cid]
        stats = self.stats
        stats.cell_scans += 1
        if cell:
            stats.objects_scanned += len(cell)
            return cell
        return {}


def _populate(n_objects: int, seed: int) -> tuple[dict, CellColumns]:
    rng = random.Random(seed)
    cell_dict: dict[int, tuple[float, float]] = {}
    columns = CellColumns()
    for oid in range(n_objects):
        x, y = rng.random(), rng.random()
        cell_dict[oid] = (x, y)
        columns.insert(oid, x, y)
    return cell_dict, columns


def _time_per_object(
    stmt: str, namespace: dict, n_objects: int, repeats: int
) -> float:
    """Best-of-``repeats`` nanoseconds per scanned object."""
    timer = timeit.Timer(stmt, globals=namespace)
    # Size the inner iteration count so one sample is a few milliseconds.
    iterations = max(64, 100_000 // max(1, n_objects))
    best = min(timer.repeat(repeat=max(1, repeats), number=iterations))
    return best / (iterations * n_objects) * 1e9


def run_micro(
    sizes: tuple[int, ...] = DEFAULT_SIZES, repeats: int = 5, seed: int = 2005
) -> list[dict]:
    """Time both scan shapes; returns one row per cell population."""
    rows: list[dict] = []
    for n_objects in sizes:
        cell_dict, columns = _populate(n_objects, seed)
        stats = _Stats()
        namespace = {
            "cid": 0,
            "cells": [columns],
            # Pre-bound accessor, as the old engine hoisted grid.scan.
            "scan": _DictEraGrid([cell_dict], stats).scan_id,
            "stats": stats,
            "qx": _QX,
            "qy": _QY,
            "r": _RADIUS,
            "hypot": hypot,
        }
        # Sanity: identical candidates from both shapes.
        check: dict = dict(namespace)
        exec(_DICT_STMT, check)  # noqa: S102 - fixed local statement
        expected = check["out"]
        exec(_COLUMNAR_STMT, check)  # noqa: S102
        assert sorted(check["out"]) == sorted(expected)
        exec(_FUSED_STMT, check)  # noqa: S102
        assert sorted(check["out"]) == sorted(expected)
        dict_ns = _time_per_object(_DICT_STMT, namespace, n_objects, repeats)
        col_ns = _time_per_object(_COLUMNAR_STMT, namespace, n_objects, repeats)
        fused_ns = _time_per_object(_FUSED_STMT, namespace, n_objects, repeats)
        rows.append(
            {
                "n_objects": n_objects,
                "dict_ns_per_object": round(dict_ns, 2),
                "columnar_ns_per_object": round(col_ns, 2),
                "fused_ns_per_object": round(fused_ns, 2),
                "speedup": round(dict_ns / col_ns, 3) if col_ns else float("inf"),
                "fused_speedup": round(dict_ns / fused_ns, 3)
                if fused_ns
                else float("inf"),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Per-backend kernel scan (the VEC_MIN_OCCUPANCY crossover, measured)
# ----------------------------------------------------------------------

#: the exact fused comprehension the engines inline for scalar backends
#: (works unchanged over list- and array('d')-backed columns).
_SCALAR_WITHIN_STMT = """
out = [
    (d, oid)
    for oid, x, y in zip(cell.oids, cell.xs, cell.ys)
    if (d := hypot(x - qx, y - qy)) <= r
]
"""

_VEC_WITHIN_STMT = """
out = vec(cell, qx, qy, r)
"""


def _populate_backend_cell(backend, n_objects: int, seed: int):
    rng = random.Random(seed)
    cell = backend.cell_factory()
    for oid in range(n_objects):
        cell.insert(oid, rng.random(), rng.random())
    return cell


def run_micro_backends(
    sizes: tuple[int, ...] = DEFAULT_BACKEND_SIZES,
    repeats: int = 5,
    seed: int = 2005,
) -> dict:
    """Time the within-kernel per installed backend over an occupancy
    ladder; returns ``{"rows": [...], "crossover": int | None}``.

    ``crossover`` is the smallest occupancy where the numpy kernel beats
    every scalar backend (``None`` when numpy is absent or never wins) —
    the measured value of ``VEC_MIN_OCCUPANCY``.
    """
    backends = available_backends()
    rows: list[dict] = []
    for n_objects in sizes:
        row: dict = {"n_objects": n_objects}
        expected: list | None = None
        for name in backends:
            backend = resolve_backend(name)
            cell = _populate_backend_cell(backend, n_objects, seed)
            namespace = {
                "cell": cell,
                "qx": _QX,
                "qy": _QY,
                "r": _RADIUS,
                "hypot": hypot,
                "vec": backend.vec_within,
            }
            stmt = (
                _VEC_WITHIN_STMT
                if backend.vec_within is not None
                else _SCALAR_WITHIN_STMT
            )
            # Sanity: every backend returns the identical candidate list.
            check: dict = dict(namespace)
            exec(stmt, check)  # noqa: S102 - fixed local statement
            if expected is None:
                expected = check["out"]
            else:
                assert check["out"] == expected
            row[f"{name}_ns_per_object"] = round(
                _time_per_object(stmt, namespace, n_objects, repeats), 2
            )
        rows.append(row)
    crossover: int | None = None
    if "numpy" in backends:
        scalar_names = [n for n in backends if n != "numpy"]
        for row in rows:
            vec_ns = row["numpy_ns_per_object"]
            if all(vec_ns <= row[f"{n}_ns_per_object"] for n in scalar_names):
                crossover = row["n_objects"]
                break
    return {"rows": rows, "crossover": crossover}


def render_micro_backends(result: dict) -> str:
    rows = result["rows"]
    names = [k[: -len("_ns_per_object")] for k in rows[0] if k != "n_objects"]
    header = f"{'objects/cell':>12}" + "".join(
        f" {name + ' ns/obj':>15}" for name in names
    )
    lines = [header]
    for row in rows:
        lines.append(
            f"{row['n_objects']:>12}"
            + "".join(f" {row[f'{n}_ns_per_object']:>15.1f}" for n in names)
        )
    crossover = result["crossover"]
    if "numpy" not in names:
        lines.append("numpy backend not installed; no crossover to report")
    elif crossover is None:
        lines.append("numpy never beat the scalar backends at these sizes")
    else:
        lines.append(
            f"numpy crossover at ~{crossover} objects/cell "
            "(VEC_MIN_OCCUPANCY; override with REPRO_KERNEL_VEC_MIN)"
        )
    return "\n".join(lines)


def render_micro(rows: list[dict]) -> str:
    lines = [
        f"{'objects/cell':>12} {'dict ns/obj':>12} {'columnar ns/obj':>16} "
        f"{'fused ns/obj':>13} {'col':>6} {'fused':>6}"
    ]
    for row in rows:
        lines.append(
            f"{row['n_objects']:>12} {row['dict_ns_per_object']:>12.1f} "
            f"{row['columnar_ns_per_object']:>16.1f} "
            f"{row['fused_ns_per_object']:>13.1f} "
            f"{row['speedup']:>5.2f}x {row['fused_speedup']:>5.2f}x"
        )
    return "\n".join(lines)
