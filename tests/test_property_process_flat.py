"""Property-based equivalence: ``process_flat`` == ``process``.

The columnar fast path's contract is byte-identity with the dataclass
path: same per-cycle changed sets, same results, and — for the monitors
with deterministic accounting — identical cell-access counters.
Hypothesis sweeps workload shapes (generator family, population, k,
speed, agility, grid granularity) across every engine: CPM, YPK-CNN and
SEA-CNN (native columnar loops over batch-addressed cell ids), brute
(default translating wrapper) and the sharded service (flat translation).

The golden acceptance check replays the PR 3 full-replay fixture
workload through ``process_flat`` and requires the byte-identical stream
(results at full float precision via ``repr`` round-tripping) and
counters the fixture recorded for ``process``.

Coalescing correctness rides here too: last-write-wins per object over a
cycle's updates must yield the same end-of-cycle results as the
uncoalesced stream (the property that makes the ingest buffer's
coalescing semantics-preserving).
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.brute import BruteForceMonitor
from repro.baselines.sea import SeaCnnMonitor
from repro.baselines.ypk import YpkCnnMonitor
from repro.core.cpm import CPMMonitor
from repro.ingest.batcher import CycleBatcher
from repro.mobility.brinkhoff import BrinkhoffGenerator
from repro.mobility.uniform import UniformGenerator
from repro.mobility.workload import WorkloadSpec
from repro.service.partition import PartitionedMonitor
from repro.updates import FlatUpdateBatch

workload_shapes = st.fixed_dictionaries(
    {
        "generator": st.sampled_from(["brinkhoff", "uniform"]),
        "n_objects": st.integers(min_value=30, max_value=120),
        "n_queries": st.integers(min_value=1, max_value=6),
        "k": st.integers(min_value=1, max_value=6),
        "timestamps": st.integers(min_value=1, max_value=6),
        "seed": st.integers(min_value=0, max_value=2**20),
        "object_speed": st.sampled_from(["slow", "medium", "fast"]),
        "query_agility": st.sampled_from([0.0, 0.3, 1.0]),
        "cells": st.sampled_from([4, 8, 16]),
    }
)


def _workload(shape):
    spec = WorkloadSpec(
        n_objects=shape["n_objects"],
        n_queries=shape["n_queries"],
        k=shape["k"],
        timestamps=shape["timestamps"],
        seed=shape["seed"],
        object_speed=shape["object_speed"],
        query_agility=shape["query_agility"],
    )
    if shape["generator"] == "brinkhoff":
        return BrinkhoffGenerator(spec).generate()
    return UniformGenerator(spec).generate()


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


@given(shape=workload_shapes)
@settings(max_examples=25, deadline=None)
def test_cpm_process_flat_is_byte_identical(shape):
    workload = _workload(shape)
    cells = shape["cells"]
    row = CPMMonitor(cells_per_axis=cells)
    flat = CPMMonitor(cells_per_axis=cells)
    _install(row, workload)
    _install(flat, workload)
    for batch in workload.batches:
        expect = row.process(batch.object_updates, batch.query_updates)
        got = flat.process_flat(FlatUpdateBatch.from_batch(batch))
        assert got == expect, batch.timestamp
        assert flat.result_table() == row.result_table(), batch.timestamp
        assert flat.object_count == row.object_count
    assert _counter_tuple(flat) == _counter_tuple(row)


@given(
    shape=workload_shapes,
    engine=st.sampled_from(["YPK-CNN", "SEA-CNN", "brute"]),
)
@settings(max_examples=15, deadline=None)
def test_wrapped_engines_process_flat_matches_process(shape, engine):
    """Every engine's columnar cycle — the YPK/SEA native loops and
    brute's default translating wrapper — must be exactly ``process``
    over the same stream: changed sets, results and counters."""

    def build():
        cells = shape["cells"]
        if engine == "YPK-CNN":
            return YpkCnnMonitor(cells_per_axis=cells)
        if engine == "SEA-CNN":
            return SeaCnnMonitor(cells_per_axis=cells)
        return BruteForceMonitor()

    workload = _workload(shape)
    row = build()
    flat = build()
    _install(row, workload)
    _install(flat, workload)
    for batch in workload.batches:
        expect = row.process(batch.object_updates, batch.query_updates)
        got = flat.process_flat(FlatUpdateBatch.from_batch(batch))
        assert got == expect, batch.timestamp
        assert flat.result_table() == row.result_table(), batch.timestamp
    assert _counter_tuple(flat) == _counter_tuple(row)


@given(shape=workload_shapes, n_shards=st.sampled_from([1, 2, 4]))
@settings(max_examples=10, deadline=None)
def test_sharded_process_flat_matches_single_engine(shape, n_shards):
    workload = _workload(shape)
    cells = shape["cells"]
    single = CPMMonitor(cells_per_axis=cells)
    sharded = PartitionedMonitor(n_shards, cells_per_axis=cells)
    _install(single, workload)
    _install(sharded, workload)
    for batch in workload.batches:
        expect = single.process(batch.object_updates, batch.query_updates)
        got = sharded.process_flat(FlatUpdateBatch.from_batch(batch))
        assert got == expect, batch.timestamp
        assert sharded.result_table() == single.result_table(), batch.timestamp
    sharded.close()


@given(shape=workload_shapes)
@settings(max_examples=15, deadline=None)
def test_coalesced_stream_matches_uncoalesced_end_state(shape):
    """Last-write-wins coalescing per oid is semantics-preserving: folding
    each object's updates across a window of cycles into one re-based
    transition yields the identical end-of-window state."""
    workload = _workload(shape)
    cells = shape["cells"]
    raw = CPMMonitor(cells_per_axis=cells)
    coalesced = CPMMonitor(cells_per_axis=cells)
    _install(raw, workload)
    _install(coalesced, workload)

    # Raw path: every batch as generated.
    for batch in workload.batches:
        raw.process(batch.object_updates, batch.query_updates)

    # Coalesced path: fold the whole stream's object updates through a
    # last-write-wins target table (exactly what IngestBuffer keeps),
    # re-base through the batcher, then apply as ONE cycle per query
    # window.  Query updates are order-sensitive, so the fold window
    # breaks at every batch that carries them.
    batcher = CycleBatcher()
    batcher.prime(sorted(workload.initial_objects.items()))
    targets: dict = {}
    for batch in workload.batches:
        for upd in batch.object_updates:
            targets.pop(upd.oid, None)  # re-insert to refresh arrival order
            targets[upd.oid] = upd.new
        if batch.query_updates:
            flat, _ = batcher.assemble(
                list(targets.items()), batch.query_updates, batch.timestamp
            )
            targets.clear()
            coalesced.process_flat(flat)
    if targets:
        flat, _ = batcher.assemble(list(targets.items()), (), 0)
        coalesced.process_flat(flat)

    assert coalesced.result_table() == raw.result_table()
    assert coalesced.object_count == raw.object_count


def test_golden_fixture_replays_byte_identically_through_process_flat():
    """Acceptance: the PR 3 golden stream — recorded with ``process`` —
    is reproduced byte-identically by the columnar fast path."""
    from tests.test_replay_golden import GOLDEN_PATH, GRID, SPEC_OVERRIDES

    from repro.experiments.common import make_workload, scaled_spec

    golden = json.loads(GOLDEN_PATH.read_text())
    spec = scaled_spec(1.0, **SPEC_OVERRIDES)
    workload = make_workload(spec)
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
