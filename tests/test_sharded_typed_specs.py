"""Property-based equivalence: typed query specs behave identically on
the sharded service tier and a single CPM engine.

The sharded tier routes the strategy-backed specs (constrained / range /
filtered) to the shard owning the spec's anchor cell, replicates the tag
table to every shard, and pulls the cells a search needs past the
shard's block and halo.  These tests pin the acceptance criterion: for
S ∈ {1, 2, 4}, installing any typed spec and replaying a moving workload
produces byte-identical results, delta streams and counters on both
paths.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.queries import (
    ConstrainedKnnSpec,
    FilteredKnnSpec,
    KnnSpec,
    RangeSpec,
    install_spec,
)
from repro.core.cpm import CPMMonitor
from repro.mobility.uniform import UniformGenerator
from repro.mobility.workload import WorkloadSpec
from repro.service.executor import ProcessShardExecutor
from repro.service.partition import PartitionedMonitor

finite01 = st.floats(min_value=0.05, max_value=0.95)


def rect(t):
    return (min(t[0], t[2]), min(t[1], t[3]), max(t[0], t[2]), max(t[1], t[3]))


rects = st.tuples(finite01, finite01, finite01, finite01).map(rect)
points = st.tuples(finite01, finite01)
ks = st.integers(min_value=1, max_value=4)

typed_specs = st.one_of(
    st.builds(KnnSpec, point=points, k=ks),
    st.builds(ConstrainedKnnSpec, point=points, region=rects, k=ks),
    st.builds(RangeSpec, region=rects),
    st.builds(
        FilteredKnnSpec,
        point=points,
        k=ks,
        tags=st.sampled_from([("taxi",), ("taxi", "xl"), ("xl",)]),
    ),
)

shapes = st.fixed_dictionaries(
    {
        "specs": st.lists(typed_specs, min_size=1, max_size=4),
        "seed": st.integers(min_value=0, max_value=2**20),
        "n_objects": st.integers(min_value=30, max_value=90),
        "timestamps": st.integers(min_value=1, max_value=4),
        "cells": st.sampled_from([4, 8, 16]),
        "n_shards": st.sampled_from([1, 2, 4]),
    }
)


def build_workload(shape):
    spec = WorkloadSpec(
        n_objects=shape["n_objects"],
        n_queries=1,  # generator queries unused; specs injected below
        k=1,
        timestamps=shape["timestamps"],
        seed=shape["seed"],
        query_agility=0.0,
    )
    return UniformGenerator(spec).generate()


def tags_for(workload):
    return {oid: {"taxi"} if oid % 2 else {"taxi", "xl"}
            for oid in workload.initial_objects if oid % 3}


@given(shape=shapes)
@settings(max_examples=20, deadline=None)
def test_typed_specs_byte_identical_sharded_vs_single(shape):
    workload = build_workload(shape)
    tags = tags_for(workload)

    single = CPMMonitor(cells_per_axis=shape["cells"])
    sharded = PartitionedMonitor(shape["n_shards"], cells_per_axis=shape["cells"])
    for monitor in (single, sharded):
        monitor.load_objects(workload.initial_objects.items())
        monitor.set_object_tags(tags)

    for qid, spec in enumerate(shape["specs"], start=1):
        assert install_spec(sharded, qid, spec) == install_spec(
            single, qid, spec
        ), spec
    assert sharded.result_table() == single.result_table()

    for batch in workload.batches:
        expect = single.process_deltas(batch.object_updates, [])
        got = sharded.process_deltas(batch.object_updates, [])
        assert got == expect, batch.timestamp
        assert sharded.result_table() == single.result_table(), batch.timestamp
        assert sharded.stats.snapshot() == single.stats.snapshot(), batch.timestamp
        sharded.check_invariants()


def test_typed_specs_survive_process_shard_pickling():
    """Strategy-backed specs must install through process-backed shards:
    the filter strategy is pickled engine-state-free and rebinds the
    shard's own tag table on install."""
    shape = {
        "specs": [
            ConstrainedKnnSpec(point=(0.5, 0.5), region=(0.2, 0.2, 0.8, 0.8), k=3),
            RangeSpec(region=(0.3, 0.3, 0.7, 0.7)),
            FilteredKnnSpec(point=(0.5, 0.5), k=3, tags=("taxi",)),
        ],
        "seed": 11,
        "n_objects": 60,
        "timestamps": 3,
        "cells": 8,
        "n_shards": 2,
    }
    workload = build_workload(shape)
    tags = tags_for(workload)

    single = CPMMonitor(cells_per_axis=8)
    sharded = PartitionedMonitor(
        2, cells_per_axis=8, executor=ProcessShardExecutor()
    )
    try:
        for monitor in (single, sharded):
            monitor.load_objects(workload.initial_objects.items())
            monitor.set_object_tags(tags)
        for qid, spec in enumerate(shape["specs"], start=1):
            assert install_spec(sharded, qid, spec) == install_spec(
                single, qid, spec
            ), spec
        for batch in workload.batches:
            assert sharded.process_deltas(
                batch.object_updates, []
            ) == single.process_deltas(batch.object_updates, [])
        assert sharded.result_table() == single.result_table()
    finally:
        sharded.close()
