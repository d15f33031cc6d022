"""Property-based equivalence: partitioned service == single engine.

Hypothesis generates workload shapes (population, k, agility, speed,
grid granularity, shard count, halo width, generator family) and the
tests assert the acceptance criterion of the shard tier: for
S ∈ {1, 2, 4, 8} the partitioned monitor produces *byte-identical*
per-cycle result tables, changed sets and delta streams, and
byte-identical deterministic counters (the one coordinator store's
insert/delete tallies are canonical, and search/probe/mark work happens
exactly once, on the hosting shard), with ``check_invariants`` holding
after every cycle.  The workload families include cross-boundary query
moves, so the live-migration path is exercised throughout, and object
appearance/disappearance (fast Brinkhoff objects finish trips and
re-enter).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cpm import CPMMonitor
from repro.mobility.brinkhoff import BrinkhoffGenerator
from repro.mobility.uniform import UniformGenerator
from repro.mobility.workload import WorkloadSpec
from repro.service.executor import ProcessShardExecutor
from repro.service.partition import PartitionedMonitor

# Shards need cells >= shards (ShardPlan refuses otherwise), so the grid
# floor is 8.
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
        "cells": st.sampled_from([8, 16]),
        "n_shards": st.sampled_from([1, 2, 4, 8]),
        "halo": st.sampled_from([0, 1, 2]),
    }
)


def _generate(shape):
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
        return spec, BrinkhoffGenerator(spec).generate()
    return spec, UniformGenerator(spec).generate()


@given(shape=workload_shapes)
@settings(max_examples=25, deadline=None)
def test_partitioned_is_byte_identical_to_single_engine(shape):
    spec, workload = _generate(shape)
    cells = shape["cells"]
    single = CPMMonitor(cells_per_axis=cells)
    part = PartitionedMonitor(
        shape["n_shards"], cells_per_axis=cells, halo=shape["halo"]
    )

    single.load_objects(workload.initial_objects.items())
    part.load_objects(workload.initial_objects.items())
    assert part.stats.snapshot() == single.stats.snapshot()
    for qid, point in workload.initial_queries.items():
        assert part.install_query(qid, point, spec.k) == single.install_query(
            qid, point, spec.k
        )
    assert part.result_table() == single.result_table()
    assert part.stats.snapshot() == single.stats.snapshot()

    for batch in workload.batches:
        expect = single.process_deltas(batch.object_updates, batch.query_updates)
        got = part.process_deltas(batch.object_updates, batch.query_updates)
        assert got == expect, batch.timestamp
        assert part.result_table() == single.result_table(), batch.timestamp
        assert sorted(part.query_ids()) == sorted(single.query_ids())
        assert part.object_count == single.object_count
        # Positions come from the coordinator store's cell columns: every
        # oid this batch touched (disappearances included) and a few more.
        assert list(part.iter_objects()) == list(single.iter_objects())
        sample = {u.oid for u in batch.object_updates} | set(range(5))
        for oid in sorted(sample):
            assert part.object_position(oid) == single.object_position(oid), oid
        single.check_invariants()
        part.check_invariants()
        # The partitioned contract is counter-exact — not S-fold.
        assert part.stats.snapshot() == single.stats.snapshot(), batch.timestamp


@given(shape=workload_shapes)
@settings(max_examples=10, deadline=None)
def test_partitioned_matches_single_changed_sets(shape):
    spec, workload = _generate(shape)
    cells = shape["cells"]
    single = CPMMonitor(cells_per_axis=cells)
    part = PartitionedMonitor(
        shape["n_shards"], cells_per_axis=cells, halo=shape["halo"]
    )
    for monitor in (single, part):
        monitor.load_objects(workload.initial_objects.items())
        for qid, point in workload.initial_queries.items():
            monitor.install_query(qid, point, spec.k)
    for batch in workload.batches:
        expect = single.process(batch.object_updates, batch.query_updates)
        assert (
            part.process(batch.object_updates, batch.query_updates) == expect
        )
        assert part.result_table() == single.result_table()
        part.check_invariants()


@given(shape=workload_shapes)
@settings(max_examples=6, deadline=None)
def test_partitioned_process_executor_is_byte_identical(shape):
    spec, workload = _generate(shape)
    cells = shape["cells"]
    single = CPMMonitor(cells_per_axis=cells)
    part = PartitionedMonitor(
        shape["n_shards"],
        cells_per_axis=cells,
        halo=shape["halo"],
        executor=ProcessShardExecutor(),
    )
    try:
        single.load_objects(workload.initial_objects.items())
        part.load_objects(workload.initial_objects.items())
        for qid, point in workload.initial_queries.items():
            assert part.install_query(
                qid, point, spec.k
            ) == single.install_query(qid, point, spec.k)
        for batch in workload.batches:
            expect = single.process_deltas(
                batch.object_updates, batch.query_updates
            )
            got = part.process_deltas(batch.object_updates, batch.query_updates)
            assert got == expect, batch.timestamp
            part.check_invariants()
            assert part.stats.snapshot() == single.stats.snapshot()
        assert part.result_table() == single.result_table()
    finally:
        part.close()
