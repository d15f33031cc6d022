"""Attribute-filtered kNN: FilteredStrategy + FilteredKnnSpec semantics.

The acceptance criterion: a filtered query over a mixed population is
byte-identical to a plain kNN over the tagged-only sub-population, on
every engine (CPM, brute force, partitioned shards), across moving workloads.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.queries import FilteredKnnSpec, KnnSpec, install_spec
from repro.api.session import Session
from repro.baselines.brute import BruteForceMonitor
from repro.core.cpm import CPMMonitor
from repro.core.strategies import FilteredStrategy, PointNNStrategy
from repro.mobility.uniform import UniformGenerator
from repro.mobility.workload import WorkloadSpec
from repro.service.partition import PartitionedMonitor
from repro.updates import ObjectUpdate


def tag_for(oid: int) -> set[str]:
    """Deterministic tag assignment: thirds of the population."""
    if oid % 3 == 0:
        return {"taxi"}
    if oid % 3 == 1:
        return {"taxi", "xl"}
    return set()


class TestSpecValidation:
    def test_tags_required(self):
        with pytest.raises(ValueError, match="at least one tag"):
            FilteredKnnSpec(point=(0.5, 0.5), k=1, tags=())

    def test_k_validated(self):
        with pytest.raises(ValueError, match="k must be"):
            FilteredKnnSpec(point=(0.5, 0.5), k=0, tags=("taxi",))

    def test_tags_normalized_sorted_unique(self):
        spec = FilteredKnnSpec(
            point=(0.5, 0.5), k=1, tags=("xl", "taxi", "xl")
        )
        assert spec.tags == ("taxi", "xl")

    def test_strategy_rejects_nesting_and_empty_tags(self):
        inner = PointNNStrategy(0.5, 0.5)
        with pytest.raises(ValueError, match="at least one tag"):
            FilteredStrategy(inner, ())
        wrapped = FilteredStrategy(inner, {"taxi"})
        with pytest.raises(TypeError, match="do not nest"):
            FilteredStrategy(wrapped, {"xl"})

    def test_unbound_strategy_accepts_nothing(self):
        strategy = FilteredStrategy(PointNNStrategy(0.5, 0.5), {"taxi"})
        assert strategy.accepts(0.5, 0.5, 1) is False


class TestFilteredSemantics:
    def make_monitors(self):
        return {
            "cpm": CPMMonitor(cells_per_axis=8),
            "brute": BruteForceMonitor(),
            "partitioned": PartitionedMonitor(2, cells_per_axis=8),
        }

    def test_filter_equals_knn_over_tagged_subpopulation(self):
        objects = {
            oid: ((oid % 7) / 7.0 + 0.01, (oid % 5) / 5.0 + 0.01)
            for oid in range(30)
        }
        tags = {oid: tag_for(oid) for oid in objects}
        tagged_only = {
            oid: pos for oid, pos in objects.items() if "taxi" in tag_for(oid)
        }
        spec = FilteredKnnSpec(point=(0.5, 0.5), k=4, tags=("taxi",))

        oracle = BruteForceMonitor()
        oracle.load_objects(tagged_only.items())
        expected = oracle.install_query(1, spec.point, spec.k)

        for name, monitor in self.make_monitors().items():
            monitor.load_objects(objects.items())
            monitor.set_object_tags(tags)
            assert install_spec(monitor, 1, spec) == expected, name

    def test_multi_tag_filter_needs_every_tag(self):
        objects = {1: (0.4, 0.5), 2: (0.45, 0.5), 3: (0.55, 0.5)}
        monitor = CPMMonitor(cells_per_axis=8)
        monitor.load_objects(objects.items())
        monitor.set_object_tags({1: {"taxi"}, 2: {"taxi", "xl"}, 3: {"xl"}})
        spec = FilteredKnnSpec(point=(0.5, 0.5), k=3, tags=("taxi", "xl"))
        result = install_spec(monitor, 1, spec)
        assert [oid for _, oid in result] == [2]

    def test_filter_composes_with_region(self):
        objects = {1: (0.45, 0.5), 2: (0.55, 0.5), 3: (0.95, 0.5)}
        monitor = CPMMonitor(cells_per_axis=8)
        monitor.load_objects(objects.items())
        monitor.set_object_tags({1: {"taxi"}, 2: {"taxi"}, 3: {"taxi"}})
        spec = FilteredKnnSpec(
            point=(0.5, 0.5), k=3, tags=("taxi",), region=(0.5, 0.0, 1.0, 1.0)
        )
        result = install_spec(monitor, 1, spec)
        assert [oid for _, oid in result] == [2, 3]

    def test_no_tagged_objects_yields_empty_result(self):
        monitor = CPMMonitor(cells_per_axis=8)
        monitor.load_objects([(1, (0.5, 0.5))])
        spec = FilteredKnnSpec(point=(0.5, 0.5), k=2, tags=("taxi",))
        assert install_spec(monitor, 1, spec) == []

    def test_tag_changes_apply_when_the_object_is_touched(self):
        monitor = CPMMonitor(cells_per_axis=8)
        monitor.load_objects([(1, (0.45, 0.5)), (2, (0.9, 0.9))])
        monitor.set_object_tags({1: {"taxi"}})
        spec = FilteredKnnSpec(point=(0.5, 0.5), k=2, tags=("taxi",))
        result = install_spec(monitor, 7, spec)
        assert [oid for _, oid in result] == [1]

        # Object 2 gains the tag and moves close: it enters the result.
        monitor.set_object_tags({2: {"taxi"}})
        monitor.process([ObjectUpdate(2, (0.9, 0.9), (0.55, 0.5))], [])
        assert [oid for _, oid in monitor.result(7)] == [1, 2]

        # Object 1 loses the tag; on its next move it leaves the result.
        monitor.set_object_tags({1: set()})
        monitor.process([ObjectUpdate(1, (0.45, 0.5), (0.44, 0.5))], [])
        assert [oid for _, oid in monitor.result(7)] == [2]


class TestFilteredMonitoringEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        k=st.integers(min_value=1, max_value=4),
        cells=st.sampled_from([4, 8, 16]),
    )
    @settings(max_examples=15, deadline=None)
    def test_cpm_matches_brute_across_moving_workload(self, seed, k, cells):
        spec = WorkloadSpec(
            n_objects=60,
            n_queries=2,
            k=k,
            timestamps=4,
            seed=seed,
            query_agility=0.0,
        )
        workload = UniformGenerator(spec).generate()
        tags = {oid: tag_for(oid) for oid in workload.initial_objects}
        queries = sorted(workload.initial_queries.items())

        cpm = CPMMonitor(cells_per_axis=cells)
        brute = BruteForceMonitor()
        for monitor in (cpm, brute):
            monitor.load_objects(workload.initial_objects.items())
            monitor.set_object_tags(tags)

        results = {}
        for engine, monitor in (("cpm", cpm), ("brute", brute)):
            results[engine] = [
                install_spec(
                    monitor,
                    qid,
                    FilteredKnnSpec(point=point, k=k, tags=("taxi",)),
                )
                for qid, point in queries
            ]
        assert results["cpm"] == results["brute"]

        for batch in workload.batches:
            expect = brute.process_deltas(batch.object_updates, [])
            got = cpm.process_deltas(batch.object_updates, [])
            assert got == expect, batch.timestamp
            assert cpm.result_table() == brute.result_table(), batch.timestamp


class TestSessionFiltered:
    def test_register_filtered_spec_through_session(self):
        session = Session(CPMMonitor(cells_per_axis=8))
        session.load_objects([(1, (0.45, 0.5)), (2, (0.55, 0.5)), (3, (0.5, 0.6))])
        session.set_object_tags({1: {"taxi"}, 3: {"bus"}})
        handle = session.register(
            FilteredKnnSpec(point=(0.5, 0.5), k=3, tags=("taxi",))
        )
        assert [oid for _, oid in handle.snapshot()] == [1]
        plain = session.register(KnnSpec(point=(0.5, 0.5), k=3))
        assert [oid for _, oid in plain.snapshot()] == [1, 2, 3]

    def test_filtered_deltas_stream_to_subscribers(self):
        session = Session(CPMMonitor(cells_per_axis=8))
        session.load_objects([(1, (0.45, 0.5)), (2, (0.9, 0.9))])
        session.set_object_tags({1: {"taxi"}, 2: {"taxi"}})
        handle = session.register(
            FilteredKnnSpec(point=(0.5, 0.5), k=2, tags=("taxi",))
        )
        seen = []
        handle.subscribe(lambda ts, d: seen.append((ts, d.result)))
        session.tick(
            [ObjectUpdate(2, (0.9, 0.9), (0.55, 0.5))], timestamp=1
        )
        assert seen
        ts, result = seen[-1]
        assert ts == 1
        assert [oid for _, oid in result] == [1, 2]
