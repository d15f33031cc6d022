"""Property-based equivalence: columnar grid versus a dict-model reference.

The PR 3 rewrite replaced the per-cell ``dict[int, Point]`` store with
columnar ``oids`` / ``xs`` / ``ys`` lists plus a slot index
(:mod:`repro.grid.kernels`).  The accounting contract must be untouched:
for ANY interleaving of inserts, deletes, moves, same-cell relocations
and scans, the columnar grid must report the same objects, the same
kernel results and byte-identical ``cell_scans`` / ``objects_scanned``
counters as the obvious dict-of-dicts model.

Hypothesis drives random operation sequences against both and compares
after every step.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.grid import Grid

GRID_AXIS = 4  # 4x4 unit-square grid; delta = 0.25


class DictModelGrid:
    """The pre-rewrite reference: dict cells + the same charged accessors."""

    def __init__(self, cells_per_axis: int = GRID_AXIS) -> None:
        self.cols = self.rows = cells_per_axis
        self.delta = 1.0 / cells_per_axis
        self.cells: dict[int, dict[int, tuple[float, float]]] = {}
        self.cell_scans = 0
        self.objects_scanned = 0
        self.inserts = 0
        self.deletes = 0

    def cell_id(self, x: float, y: float) -> int:
        i = min(max(int(x / self.delta), 0), self.cols - 1)
        j = min(max(int(y / self.delta), 0), self.rows - 1)
        return i * self.rows + j

    def insert(self, oid: int, x: float, y: float) -> None:
        cell = self.cells.setdefault(self.cell_id(x, y), {})
        assert oid not in cell
        cell[oid] = (x, y)
        self.inserts += 1

    def delete(self, oid: int, x: float, y: float) -> None:
        cell = self.cells[self.cell_id(x, y)]
        del cell[oid]
        self.deletes += 1

    def move(self, oid: int, old, new) -> None:
        self.delete(oid, old[0], old[1])
        self.insert(oid, new[0], new[1])

    def scan(self, cid: int) -> dict[int, tuple[float, float]]:
        cell = self.cells.get(cid, {})
        self.cell_scans += 1
        self.objects_scanned += len(cell)
        return dict(cell)

    def scan_within(self, cid: int, qx: float, qy: float, r: float):
        cell = self.scan(cid)
        return [
            (math.hypot(x - qx, y - qy), oid)
            for oid, (x, y) in cell.items()
            if math.hypot(x - qx, y - qy) <= r
        ]


coord = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32)
point = st.tuples(coord, coord)
oid_st = st.integers(min_value=0, max_value=11)

operation = st.one_of(
    st.tuples(st.just("insert"), oid_st, point),
    st.tuples(st.just("delete"), oid_st, st.none()),
    st.tuples(st.just("move"), oid_st, point),
    st.tuples(st.just("scan"), st.integers(0, GRID_AXIS * GRID_AXIS - 1), st.none()),
    st.tuples(st.just("scan_within"), st.integers(0, GRID_AXIS * GRID_AXIS - 1), point),
    st.tuples(st.just("scan_all_flat"), st.integers(0, GRID_AXIS * GRID_AXIS - 1), st.none()),
)


@settings(max_examples=120, deadline=None)
@given(st.lists(operation, max_size=60))
def test_columnar_grid_matches_dict_model(ops):
    grid = Grid(GRID_AXIS)
    model = DictModelGrid()
    live: dict[int, tuple[float, float]] = {}  # oid -> position

    for op, arg, payload in ops:
        if op == "insert":
            if arg in live:
                continue
            x, y = payload
            grid.insert(arg, x, y)
            model.insert(arg, x, y)
            live[arg] = (x, y)
        elif op == "delete":
            if arg not in live:
                continue
            x, y = live.pop(arg)
            grid.delete(arg, x, y)
            model.delete(arg, x, y)
        elif op == "move":
            if arg not in live:
                continue
            old = live[arg]
            new = payload
            # Exercises the same-cell relocate fast path whenever the
            # packed ids collide.
            grid.move(arg, old, new)
            model.move(arg, old, new)
            live[arg] = new
        elif op == "scan":
            assert grid.scan_id(arg) == model.scan(arg)
        elif op == "scan_within":
            qx, qy = payload
            r = 0.4
            assert sorted(grid.scan_within(arg, qx, qy, r)) == sorted(
                model.scan_within(arg, qx, qy, r)
            )
        else:  # scan_all_flat
            oids, xs, ys = grid.scan_all_flat(arg)
            flat = {oid: (x, y) for oid, x, y in zip(oids, xs, ys)}
            assert flat == model.scan(arg)

        # Invariants after every step, counters byte-identical.
        assert len(grid) == len(live)
        assert grid.stats.cell_scans == model.cell_scans
        assert grid.stats.objects_scanned == model.objects_scanned
        assert grid.stats.inserts == model.inserts
        assert grid.stats.deletes == model.deletes

    # Full-content sweep at the end (uncharged peeks).
    for i in range(grid.cols):
        for j in range(grid.rows):
            cid = grid.pack(i, j)
            expected = {
                oid: pos for oid, pos in live.items() if model.cell_id(*pos) == cid
            }
            assert grid.peek(i, j) == expected


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(oid_st, point, point), min_size=1, max_size=30))
def test_same_cell_relocate_matches_delete_insert_counters(moves):
    """grid.move's relocate fast path bumps exactly one delete+insert."""
    grid = Grid(GRID_AXIS)
    placed: dict[int, tuple[float, float]] = {}
    for oid, first, second in moves:
        if oid not in placed:
            grid.insert(oid, first[0], first[1])
            placed[oid] = first
        before_ins = grid.stats.inserts
        before_del = grid.stats.deletes
        old = placed[oid]
        grid.move(oid, old, second)
        placed[oid] = second
        assert grid.stats.inserts == before_ins + 1
        assert grid.stats.deletes == before_del + 1
        assert grid.peek(*grid.cell_of(second[0], second[1]))[oid] == second
