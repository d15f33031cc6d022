"""Property-based equivalence: sharded service == single-engine CPM.

Hypothesis generates workload shapes (population, k, agility, speed,
grid granularity, shard count, generator family) and the test asserts the
acceptance criterion of the service-layer refactor: for S ∈ {1, 2, 4} the
sharded monitor produces *byte-identical* per-cycle result tables, changed
sets and delta streams — across random workloads that include query moves
and object appearance/disappearance (fast Brinkhoff objects finish trips
and re-enter).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cpm import CPMMonitor
from repro.mobility.brinkhoff import BrinkhoffGenerator
from repro.mobility.uniform import UniformGenerator
from repro.mobility.workload import WorkloadSpec
from repro.service.sharding import ShardedMonitor

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
        "n_shards": st.sampled_from([1, 2, 4]),
    }
)


@given(shape=workload_shapes)
@settings(max_examples=25, deadline=None)
def test_sharded_service_is_byte_identical_to_single_engine(shape):
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
        workload = BrinkhoffGenerator(spec).generate()
    else:
        workload = UniformGenerator(spec).generate()

    cells = shape["cells"]
    single = CPMMonitor(cells_per_axis=cells)
    sharded = ShardedMonitor(shape["n_shards"], cells_per_axis=cells)

    single.load_objects(workload.initial_objects.items())
    sharded.load_objects(workload.initial_objects.items())
    for qid, point in workload.initial_queries.items():
        assert sharded.install_query(qid, point, spec.k) == single.install_query(
            qid, point, spec.k
        )
    assert sharded.result_table() == single.result_table()

    for batch in workload.batches:
        expect_deltas = single.process_deltas(
            batch.object_updates, batch.query_updates
        )
        got_deltas = sharded.process_deltas(
            batch.object_updates, batch.query_updates
        )
        assert got_deltas == expect_deltas, batch.timestamp
        assert sharded.result_table() == single.result_table(), batch.timestamp
        assert sorted(sharded.query_ids()) == sorted(single.query_ids())
        assert sharded.object_count == single.object_count
        sharded._call_all("check_invariants", [()] * sharded.n_shards)


@given(shape=workload_shapes)
@settings(max_examples=10, deadline=None)
def test_sharded_changed_sets_match_single_engine(shape):
    spec = WorkloadSpec(
        n_objects=shape["n_objects"],
        n_queries=shape["n_queries"],
        k=shape["k"],
        timestamps=shape["timestamps"],
        seed=shape["seed"],
        object_speed=shape["object_speed"],
        query_agility=shape["query_agility"],
    )
    workload = BrinkhoffGenerator(spec).generate()
    cells = shape["cells"]
    single = CPMMonitor(cells_per_axis=cells)
    sharded = ShardedMonitor(shape["n_shards"], cells_per_axis=cells)
    for monitor in (single, sharded):
        monitor.load_objects(workload.initial_objects.items())
        for qid, point in workload.initial_queries.items():
            monitor.install_query(qid, point, spec.k)
    for batch in workload.batches:
        assert sharded.process(
            batch.object_updates, batch.query_updates
        ) == single.process(batch.object_updates, batch.query_updates)
        assert sharded.result_table() == single.result_table()
