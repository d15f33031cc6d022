"""Crowded cells against brute force, numpy batch addressing byte-identity
and the shared-memory batch transport.

Every cell scan has one implementation, the scalar loop.  Where numpy
imports, the grids additionally bind one vectorized kernel
(``repro.grid.kernels.vec_cell_ids``), batch cell addressing, which
engages from ``VEC_MIN_BATCH`` rows per batch.  It changes *how* the
cell ids are computed, never what they are.  The suite pins:

* crowded cells — workloads dense enough to put more than
  ``CROWDED_CELL`` objects in a cell and ``VEC_MIN_BATCH`` rows in every
  batch, replayed through the columnar cycle on CPM, YPK-CNN and
  SEA-CNN against ``BruteForceMonitor`` (results, deltas), in every
  environment;
* the same workloads with the kernel engaged vs a monitor constructed
  under ``scalar_kernels()`` (the kernel pinned off: the scalar
  reference) — results, deltas and the five counters.  Skipped without
  numpy: there the two constructions are the same code;
* golden replay — the PR 3 pre-rewrite fixture stream must be reproduced
  byte-identically with and without the kernel;
* kernel-level properties — ``Grid.batch_cell_ids`` against per-row
  ``Grid.cell_id``, including the skip mask, out-of-bounds clamping,
  sub-``VEC_MIN_BATCH`` fallback and the refusal of non-finite
  coordinates, plus ``Grid.move_ids`` against coordinate-addressed
  ``Grid.move``.

The shared-memory transport rides here too: ``pack_flat_batch`` /
``unpack_flat_batch`` round-trips are property-tested in-process, and a
``ProcessShardExecutor`` forced onto the shm path (``shm_min_rows=1``)
must produce the same results as the serial executor across real worker
processes.
"""

from __future__ import annotations

import json
import math
from array import array
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.brute import BruteForceMonitor
from repro.baselines.sea import SeaCnnMonitor
from repro.baselines.ypk import YpkCnnMonitor
from repro.core.cpm import CPMMonitor
from repro.grid.grid import Grid
from repro.grid.kernels import VEC_MIN_BATCH, vec_cell_ids
from repro.mobility.brinkhoff import BrinkhoffGenerator
from repro.mobility.uniform import UniformGenerator
from repro.mobility.workload import WorkloadSpec
from repro.service.executor import ProcessShardExecutor, SerialShardExecutor
from repro.service.partition import PartitionedMonitor
from repro.service.shm import pack_flat_batch, unpack_flat_batch
from repro.updates import FlatUpdateBatch
from tests.conftest import scalar_kernels

HAVE_NUMPY = vec_cell_ids() is not None

#: how a test's grid or monitor is constructed: with whatever kernel this
#: interpreter offers, or with it pinned off.
KERNELS = {"accelerated": nullcontext, "scalar": scalar_kernels}

ENGINES = {
    "CPM": CPMMonitor,
    "YPK-CNN": YpkCnnMonitor,
    "SEA-CNN": SeaCnnMonitor,
}


def _install(monitor, workload):
    monitor.load_objects(sorted(workload.initial_objects.items()))
    for qid, point in sorted(workload.initial_queries.items()):
        monitor.install_query(qid, point, workload.spec.k)


def _counter_tuple(monitor):
    stats = monitor.stats
    return (
        stats.cell_scans,
        stats.objects_scanned,
        stats.inserts,
        stats.deletes,
        stats.mark_ops,
    )


#: population a replay must put in at least one cell.
CROWDED_CELL = 64

#: dense on purpose: >= 600 objects on at most 3x3 cells puts at least one
#: cell past CROWDED_CELL (pigeonhole: 600 / 9 > 64) with others
#: around and below it, and the default 50% object agility puts every
#: batch past VEC_MIN_BATCH rows.  Uniform positions (continuous, so no
#: two objects tie on a distance) keep the comparison with the oracle
#: exact: the Section 3.3 merge cannot see an unmoved object sitting at
#: exactly ``best_dist``, so on tied distances CPM and brute force may
#: pick different — equally correct — k-th neighbours.
dense_shapes = st.fixed_dictionaries(
    {
        "n_objects": st.integers(min_value=600, max_value=800),
        "n_queries": st.integers(min_value=1, max_value=5),
        "k": st.integers(min_value=1, max_value=8),
        "timestamps": st.integers(min_value=1, max_value=3),
        "seed": st.integers(min_value=0, max_value=2**20),
        "object_speed": st.sampled_from(["slow", "medium", "fast"]),
        "query_agility": st.sampled_from([0.0, 0.3]),
        "cells": st.sampled_from([2, 3]),
    }
)


# ----------------------------------------------------------------------
# Crowded cells and full batches: brute force, and the kernel vs scalar
# ----------------------------------------------------------------------


@pytest.mark.parametrize("engine", sorted(ENGINES))
@given(shape=dense_shapes)
@settings(max_examples=10, deadline=None)
def test_crowded_cells_replay_matches_brute_force(engine, shape):
    """With cells holding more than ``CROWDED_CELL`` objects and every
    batch past ``VEC_MIN_BATCH`` rows, results and delta streams equal
    the oracle's — in every environment, numpy or not."""
    cells = shape.pop("cells")
    workload = UniformGenerator(WorkloadSpec(**shape)).generate()
    monitor = ENGINES[engine](cells_per_axis=cells)
    brute = BruteForceMonitor()
    for m in (monitor, brute):
        _install(m, workload)
    grid = monitor.grid
    assert CROWDED_CELL < max(grid.cell_size(i, j) for i, j in grid.all_cells())
    assert monitor.result_table() == brute.result_table()
    for batch in workload.batches:
        flat = FlatUpdateBatch.from_batch(batch)
        assert len(flat.oids) >= VEC_MIN_BATCH
        got = monitor.process_deltas_flat(flat)
        assert got == brute.process_deltas_flat(flat), batch.timestamp
        assert monitor.result_table() == brute.result_table(), batch.timestamp


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy kernel not importable")
@pytest.mark.parametrize("engine", sorted(ENGINES))
@given(shape=dense_shapes)
@settings(max_examples=10, deadline=None)
def test_accelerated_replay_matches_scalar(engine, shape):
    """With the batch addressing kernel engaged, results, delta streams
    and the deterministic counters equal the scalar construction's."""
    cells = shape.pop("cells")
    workload = UniformGenerator(WorkloadSpec(**shape)).generate()
    fast = ENGINES[engine](cells_per_axis=cells)
    with scalar_kernels():
        ref = ENGINES[engine](cells_per_axis=cells)
    assert fast.grid._vec_cell_ids is not None
    assert ref.grid._vec_cell_ids is None
    for monitor in (fast, ref):
        _install(monitor, workload)
    assert fast.result_table() == ref.result_table()
    for batch in workload.batches:
        flat = FlatUpdateBatch.from_batch(batch)
        assert len(flat.oids) >= VEC_MIN_BATCH
        got = fast.process_deltas_flat(flat)
        assert got == ref.process_deltas_flat(flat), batch.timestamp
        assert fast.result_table() == ref.result_table(), batch.timestamp
    assert _counter_tuple(fast) == _counter_tuple(ref)


@pytest.mark.parametrize("kernels", sorted(KERNELS))
def test_golden_fixture_replays_identically(kernels):
    """The PR 3 golden stream — recorded with the dict-per-cell grid —
    is reproduced byte-identically with and without the accelerators."""
    from repro.experiments.common import make_workload, scaled_spec
    from tests.test_replay_golden import GOLDEN_PATH, GRID, SPEC_OVERRIDES

    golden = json.loads(GOLDEN_PATH.read_text())
    spec = scaled_spec(1.0, **SPEC_OVERRIDES)
    workload = make_workload(spec)
    with KERNELS[kernels]():
        monitor = CPMMonitor(GRID, bounds=spec.bounds)
    monitor.load_objects(sorted(workload.initial_objects.items()))
    initial = {
        str(qid): [
            [repr(d), oid] for d, oid in monitor.install_query(qid, point, spec.k)
        ]
        for qid, point in sorted(workload.initial_queries.items())
    }
    assert initial == golden["initial"]
    for batch, expect in zip(workload.batches, golden["cycles"]):
        changed = monitor.process_flat(FlatUpdateBatch.from_batch(batch))
        got = {
            str(qid): [[repr(d), oid] for d, oid in monitor.result(qid)]
            for qid in sorted(changed)
        }
        assert got == expect["changed"], batch.timestamp
    stats = monitor.stats
    assert {
        "cell_scans": stats.cell_scans,
        "objects_scanned": stats.objects_scanned,
        "inserts": stats.inserts,
        "deletes": stats.deletes,
        "mark_ops": stats.mark_ops,
    } == golden["counters"]


# ----------------------------------------------------------------------
# Batch addressing kernel
# ----------------------------------------------------------------------

coords = st.one_of(
    st.floats(min_value=-0.5, max_value=1.5, allow_nan=False),
    st.sampled_from([0.0, 1.0, -0.0, 1e-300, 1e300, -1e300, 0.999999999999]),
)


@pytest.mark.parametrize("kernels", sorted(KERNELS))
@given(
    pts=st.lists(st.tuples(coords, coords), min_size=0, max_size=40),
    pad=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_batch_cell_ids_matches_per_row_cell_id(kernels, pts, pad):
    """``Grid.batch_cell_ids`` equals per-row ``Grid.cell_id`` with and
    without the numpy kernel — including out-of-bounds coordinates
    (clamped to the border cells) and huge magnitudes, above and below
    ``VEC_MIN_BATCH``."""
    if pad:
        # Pad past the vectorization threshold so the numpy kernel engages.
        pts = pts + [(0.25, 0.75)] * VEC_MIN_BATCH
    with KERNELS[kernels]():
        grid = Grid(16)
    xs = array("d", (x for x, _ in pts))
    ys = array("d", (y for _, y in pts))
    expect = [grid.cell_id(x, y) for x, y in pts]
    assert grid.batch_cell_ids(xs, ys) == expect


@pytest.mark.parametrize("kernels", sorted(KERNELS))
@given(
    pts=st.lists(
        st.tuples(coords, coords, st.booleans()), min_size=0, max_size=40
    ),
    pad=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_batch_cell_ids_skip_mask_compresses_rows(kernels, pts, pad):
    """With a skip mask, exactly the unskipped rows come back, in order."""
    if pad:
        pts = pts + [(0.5, 0.5, i % 3 == 0) for i in range(VEC_MIN_BATCH)]
    with KERNELS[kernels]():
        grid = Grid(16)
    xs = array("d", (x for x, _, _ in pts))
    ys = array("d", (y for _, y, _ in pts))
    skip = bytearray(1 if s else 0 for _, _, s in pts)
    expect = [grid.cell_id(x, y) for x, y, s in pts if not s]
    assert grid.batch_cell_ids(xs, ys, skip) == expect


NON_FINITE = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def _moves_to(n_rows: int, bad: float) -> FlatUpdateBatch:
    """``n_rows`` moves inside the unit square, the middle one to
    ``x = bad``."""
    batch = FlatUpdateBatch(1)
    for oid in range(n_rows):
        nx = bad if oid == n_rows // 2 else 0.25
        batch.append_move(oid, 0.5, 0.5, nx, 0.75)
    return batch


@pytest.mark.parametrize("bad", sorted(NON_FINITE))
@pytest.mark.parametrize("n_rows", [10, 200])
def test_batch_cell_ids_refuses_non_finite_coordinates(n_rows, bad):
    """Below and past ``VEC_MIN_BATCH`` rows, with numpy or without, a
    row with a non-finite coordinate is refused, not clamped or cast
    into some cell."""
    batch = _moves_to(n_rows, NON_FINITE[bad])
    with pytest.raises((ValueError, OverflowError)):
        Grid(8).batch_cell_ids(batch.new_xs, batch.new_ys)


@pytest.mark.parametrize("bad", sorted(NON_FINITE))
@pytest.mark.parametrize("n_rows", [10, 200])
def test_cpm_cycle_refuses_non_finite_coordinates(n_rows, bad):
    """``CPMMonitor.process_flat`` refuses a move to a non-finite
    coordinate at every batch size (what the rejected cycle leaves
    behind is not pinned here)."""
    monitor = CPMMonitor(8)
    monitor.load_objects((oid, (0.5, 0.5)) for oid in range(n_rows))
    monitor.install_query(0, (0.5, 0.5), 3)
    with pytest.raises((ValueError, OverflowError)):
        monitor.process_flat(_moves_to(n_rows, NON_FINITE[bad]))


@pytest.mark.parametrize("kernels", sorted(KERNELS))
def test_batch_cell_ids_does_not_check_skipped_rows(kernels):
    """A skipped row is not addressed, so its coordinates are not read:
    a non-finite value there is not refused."""
    with KERNELS[kernels]():
        grid = Grid(8)
    batch = _moves_to(200, math.inf)
    skip = bytearray(200)
    skip[100] = 1
    expect = [grid.cell_id(0.25, 0.75)] * 199
    assert grid.batch_cell_ids(batch.new_xs, batch.new_ys, skip) == expect


def test_move_ids_matches_coordinate_addressed_move():
    """``Grid.move`` is the coordinate-addressed front of ``Grid.move_ids``:
    same storage end state, same counters, for cross-cell and same-cell
    moves."""
    a = Grid(8)
    b = Grid(8)
    pts = [(i, (i % 13) / 13.0, (i % 7) / 7.0) for i in range(40)]
    for oid, x, y in pts:
        a.insert(oid, x, y)
        b.insert(oid, x, y)
    moves = [
        (oid, x, y, ((x + 0.31) % 1.0), ((y + 0.57) % 1.0)) for oid, x, y in pts
    ] + [(0, 0.31 % 1.0, 0.57 % 1.0, 0.3100001, 0.5700001)]  # same-cell
    for oid, ox, oy, nx, ny in moves:
        a.move(oid, (ox, oy), (nx, ny))
        b.move_ids(oid, b.cell_id(ox, oy), b.cell_id(nx, ny), nx, ny)
    assert a.stats.inserts == b.stats.inserts
    assert a.stats.deletes == b.stats.deletes
    assert len(a) == len(b)
    for oid, _, _, nx, ny in moves:
        i, j = a.cell_of(nx, ny)
        assert a.peek(i, j) == b.peek(i, j)
        assert oid in a.peek(i, j)


def test_move_ids_unknown_object_raises():
    grid = Grid(8)
    grid.insert(1, 0.1, 0.1)
    with pytest.raises(KeyError):
        grid.move_ids(99, grid.cell_id(0.1, 0.1), grid.cell_id(0.9, 0.9), 0.9, 0.9)


# ----------------------------------------------------------------------
# Shared-memory flat-batch transport
# ----------------------------------------------------------------------

rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2**40),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.sampled_from(["move", "appear", "disappear"]),
    ),
    min_size=0,
    max_size=64,
    unique_by=lambda r: r[0],
)


@given(rows=rows, timestamp=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, deadline=None)
def test_shm_pack_unpack_round_trips_every_column(rows, timestamp):
    """``pack_flat_batch``/``unpack_flat_batch`` preserve all seven
    columns, the timestamp and the query updates exactly."""
    batch = FlatUpdateBatch(timestamp)
    for oid, ox, oy, nx, ny, kind in rows:
        if kind == "appear":
            batch.append_appear(oid, nx, ny)
        elif kind == "disappear":
            batch.append_disappear(oid, ox, oy)
        else:
            batch.append_move(oid, ox, oy, nx, ny)
    handle, segment = pack_flat_batch(batch)
    try:
        copy = unpack_flat_batch(handle)
    finally:
        segment.close()
        segment.unlink()
    assert copy.timestamp == batch.timestamp
    assert copy.query_updates == batch.query_updates
    assert copy.oids == batch.oids
    assert copy.old_xs == batch.old_xs
    assert copy.old_ys == batch.old_ys
    assert copy.new_xs == batch.new_xs
    assert copy.new_ys == batch.new_ys
    assert copy.appear == batch.appear
    assert copy.disappear == batch.disappear


def test_process_executor_shm_path_matches_serial():
    """A sharded monitor whose executor ships every batch through shared
    memory (``shm_min_rows=1``) produces the same per-cycle changed sets
    and results as the in-process serial executor, and the same counters
    and partition traffic."""
    spec = WorkloadSpec(n_objects=120, n_queries=4, k=3, timestamps=4, seed=11)
    workload = BrinkhoffGenerator(spec).generate()
    serial = PartitionedMonitor(2, cells_per_axis=8, executor=SerialShardExecutor())
    shm = PartitionedMonitor(
        2, cells_per_axis=8, executor=ProcessShardExecutor(shm_min_rows=1)
    )
    try:
        _install(serial, workload)
        _install(shm, workload)
        for batch in workload.batches:
            flat = FlatUpdateBatch.from_batch(batch)
            expect = serial.process_flat(flat)
            got = shm.process_flat(flat)
            assert got == expect, batch.timestamp
            assert shm.result_table() == serial.result_table(), batch.timestamp
        assert shm.stats.snapshot() == serial.stats.snapshot()
        assert shm.partition_stats() == serial.partition_stats()
    finally:
        serial.close()
        shm.close()
