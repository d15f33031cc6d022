"""Session / QueryHandle tests: typed registration, per-query delta
routing, handle operations, and spec semantics vs reference monitors."""

import math

import pytest

from repro.api.queries import ConstrainedKnnSpec, KnnSpec, RangeSpec, install_spec
from repro.api.session import Session
from repro.baselines.brute import BruteForceMonitor
from repro.core.cpm import CPMMonitor
from repro.core.range_monitor import GridRangeMonitor
from repro.geometry.rects import Rect
from repro.mobility.uniform import UniformGenerator
from repro.mobility.workload import WorkloadSpec
from repro.service.partition import PartitionedMonitor
from repro.service.service import MonitoringService
from repro.updates import ObjectUpdate, QueryUpdate, QueryUpdateKind

SPEC = WorkloadSpec(n_objects=150, n_queries=4, k=3, timestamps=6, seed=31)


@pytest.fixture(scope="module")
def workload():
    return UniformGenerator(SPEC).generate()


def make_session() -> Session:
    return Session(CPMMonitor(cells_per_axis=16))


OBJECTS = [(i, (0.07 * i % 1.0, 0.11 * i % 1.0)) for i in range(1, 40)]


class TestRegistration:
    def test_register_returns_handle_with_result(self):
        session = make_session()
        session.load_objects(OBJECTS)
        handle = session.register(KnnSpec(point=(0.5, 0.5), k=3))
        assert handle.alive
        assert handle.snapshot() == session.monitor.result(handle.qid)
        assert len(handle.snapshot()) == 3

    def test_auto_qid_assignment_skips_taken_ids(self):
        session = make_session()
        session.load_objects(OBJECTS)
        a = session.register(KnnSpec(point=(0.5, 0.5)), qid=0)
        b = session.register(KnnSpec(point=(0.2, 0.2)))
        c = session.register(KnnSpec(point=(0.8, 0.8)))
        assert a.qid == 0
        assert b.qid != c.qid
        assert len({a.qid, b.qid, c.qid}) == 3

    def test_duplicate_qid_rejected(self):
        session = make_session()
        session.load_objects(OBJECTS)
        session.register(KnnSpec(point=(0.5, 0.5)), qid=7)
        with pytest.raises(KeyError):
            session.register(KnnSpec(point=(0.1, 0.1)), qid=7)

    def test_default_session_builds_cpm(self):
        session = Session()
        assert isinstance(session.monitor, CPMMonitor)

    def test_session_accepts_prebuilt_service(self):
        service = MonitoringService(CPMMonitor(cells_per_axis=8))
        session = Session(service)
        assert session.service is service


class TestPerQueryRouting:
    def test_handle_subscriber_sees_only_its_query(self):
        session = make_session()
        session.load_objects(OBJECTS)
        a = session.register(KnnSpec(point=(0.5, 0.5), k=2))
        b = session.register(KnnSpec(point=(0.1, 0.1), k=2))
        seen_a, seen_b = [], []
        a.subscribe(lambda ts, d: seen_a.append(d.qid))
        b.subscribe(lambda ts, d: seen_b.append(d.qid))
        # Perturb both neighborhoods over a few cycles.
        session.tick([ObjectUpdate(1, OBJECTS[0][1], (0.5, 0.51))], timestamp=0)
        session.tick([ObjectUpdate(2, OBJECTS[1][1], (0.1, 0.11))], timestamp=1)
        session.tick([ObjectUpdate(1, (0.5, 0.51), (0.09, 0.1))], timestamp=2)
        assert seen_a and set(seen_a) == {a.qid}
        assert seen_b and set(seen_b) == {b.qid}

    def test_firehose_sees_everything(self, workload):
        session = make_session()
        session.load_objects(workload.initial_objects.items())
        handles = [
            session.register(KnnSpec(point=p, k=SPEC.k), qid=qid)
            for qid, p in sorted(workload.initial_queries.items())
        ]
        fire = []
        session.subscribe(lambda ts, d: fire.append(d.qid))
        targeted = []
        handles[0].subscribe(lambda ts, d: targeted.append(d.qid))
        for batch in workload.batches:
            session.tick_batch(batch)
        assert set(targeted) <= {handles[0].qid}
        assert set(fire) > {handles[0].qid}

    def test_streamed_and_plain_tick_agree_on_changed_set(self, workload):
        plain = make_session()
        plain.load_objects(workload.initial_objects.items())
        streamed = make_session()
        streamed.load_objects(workload.initial_objects.items())
        for qid, p in workload.initial_queries.items():
            plain.register(KnnSpec(point=p, k=SPEC.k), qid=qid)
            streamed.register(KnnSpec(point=p, k=SPEC.k), qid=qid)
        streamed.subscribe(lambda ts, d: None)  # force the delta path
        for batch in workload.batches:
            assert plain.tick_batch(batch) == streamed.tick_batch(batch)
        assert plain.monitor.result_table() == streamed.monitor.result_table()


class TestHandleOperations:
    def test_move_matches_fresh_install(self):
        session = make_session()
        session.load_objects(OBJECTS)
        handle = session.register(KnnSpec(point=(0.2, 0.8), k=3))
        moved = handle.move((0.6, 0.3))
        reference = CPMMonitor(cells_per_axis=16)
        reference.load_objects(OBJECTS)
        assert moved == reference.install_query(0, (0.6, 0.3), 3)
        assert handle.spec == KnnSpec(point=(0.6, 0.3), k=3)

    def test_move_publishes_delta_to_handle_subscribers(self):
        session = make_session()
        session.load_objects(OBJECTS)
        handle = session.register(KnnSpec(point=(0.2, 0.8), k=3))
        deltas = []
        handle.subscribe(lambda ts, d: deltas.append((ts, d)))
        handle.move((0.6, 0.3))
        assert len(deltas) == 1
        ts, delta = deltas[0]
        assert ts is None
        assert tuple(delta.result) == tuple(handle.snapshot())

    def test_terminate_sends_drain_delta_and_kills_handle(self):
        session = make_session()
        session.load_objects(OBJECTS)
        handle = session.register(KnnSpec(point=(0.5, 0.5), k=2))
        old = handle.snapshot()
        deltas = []
        handle.subscribe(lambda ts, d: deltas.append(d))
        handle.terminate()
        assert not handle.alive
        assert deltas[-1].terminated
        assert list(deltas[-1].outgoing) == old
        with pytest.raises(RuntimeError):
            handle.snapshot()
        assert handle.qid not in session.monitor.query_ids()

    def test_raw_terminate_update_reaps_handle(self):
        session = make_session()
        session.load_objects(OBJECTS)
        handle = session.register(KnnSpec(point=(0.5, 0.5), k=2))
        session.tick(
            (), [QueryUpdate(handle.qid, QueryUpdateKind.TERMINATE)]
        )
        assert not handle.alive
        assert handle.qid not in session.query_ids()

    def test_context_manager_terminates(self):
        session = make_session()
        session.load_objects(OBJECTS)
        with session.register(KnnSpec(point=(0.5, 0.5))) as handle:
            qid = handle.qid
        assert qid not in session.monitor.query_ids()


class TestTypedSpecs:
    def test_constrained_spec_matches_reference(self):
        session = make_session()
        session.load_objects(OBJECTS)
        region = Rect(0.0, 0.0, 0.5, 0.5)
        handle = session.register(
            ConstrainedKnnSpec(point=(0.4, 0.4), region=region, k=4)
        )
        result = handle.snapshot()
        assert len(result) == 4
        for d, oid in result:
            x, y = session.monitor.object_position(oid)
            assert region.contains_point(x, y)
            assert d == pytest.approx(math.hypot(x - 0.4, y - 0.4))

    def test_range_spec_tracks_grid_range_monitor(self):
        region = Rect(0.2, 0.2, 0.6, 0.6)
        session = make_session()
        session.load_objects(OBJECTS)
        handle = session.register(RangeSpec(region=region))
        reference = GridRangeMonitor(cells_per_axis=16)
        reference.load_objects(OBJECTS)
        reference.install_range_query(0, region)

        def members():
            return {oid for _d, oid in handle.snapshot()}

        assert members() == reference.result(0)
        updates = [
            ObjectUpdate(1, OBJECTS[0][1], (0.3, 0.3)),
            ObjectUpdate(5, OBJECTS[4][1], (0.9, 0.9)),
            ObjectUpdate(9, OBJECTS[8][1], (0.21, 0.59)),
        ]
        session.tick(updates, timestamp=0)
        reference.process(updates)
        assert members() == reference.result(0)
        # Results are ordered by distance from the region center.
        dists = [d for d, _ in handle.snapshot()]
        assert dists == sorted(dists)

    def test_range_move_translates_region(self):
        session = make_session()
        session.load_objects(OBJECTS)
        handle = session.register(RangeSpec(region=(0.0, 0.0, 0.2, 0.2)))
        handle.move((0.5, 0.5))
        region = handle.spec.region
        assert (region.x0, region.y0, region.x1, region.y1) == pytest.approx(
            (0.4, 0.4, 0.6, 0.6)
        )
        reference = GridRangeMonitor(cells_per_axis=16)
        reference.load_objects(OBJECTS)
        reference.install_range_query(0, Rect(0.4, 0.4, 0.6, 0.6))
        assert {oid for _d, oid in handle.snapshot()} == reference.result(0)

    def test_strategy_specs_work_on_brute_force_too(self):
        """Any engine with the strategy surface serves typed specs."""
        session = Session(BruteForceMonitor())
        session.load_objects(OBJECTS)
        handle = session.register(RangeSpec(region=(0.0, 0.0, 0.5, 0.5)))
        reference = make_session()
        reference.load_objects(OBJECTS)
        ref_handle = reference.register(RangeSpec(region=(0.0, 0.0, 0.5, 0.5)))
        assert handle.snapshot() == ref_handle.snapshot()

    def test_strategy_specs_rejected_on_strategyless_engines(self):
        from repro.baselines.ypk import YpkCnnMonitor

        session = Session(YpkCnnMonitor(cells_per_axis=16))
        session.load_objects(OBJECTS)
        with pytest.raises(TypeError, match="strategy-capable"):
            session.register(RangeSpec(region=(0.0, 0.0, 0.5, 0.5)))

    def test_install_spec_rejects_non_specs(self):
        with pytest.raises(TypeError, match="not a query spec"):
            install_spec(CPMMonitor(), 0, "knn")

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            KnnSpec(point=(0.5, 0.5), k=0)


class TestShardedSession:
    def test_knn_session_over_sharded_monitor(self, workload):
        monitor = PartitionedMonitor(2, cells_per_axis=16)
        session = Session(monitor)
        session.load_objects(workload.initial_objects.items())
        handles = [
            session.register(KnnSpec(point=p, k=SPEC.k), qid=qid)
            for qid, p in sorted(workload.initial_queries.items())
        ]
        seen = []
        handles[0].subscribe(lambda ts, d: seen.append(d.qid))
        reference = CPMMonitor(cells_per_axis=16)
        reference.load_objects(workload.initial_objects.items())
        for qid, p in sorted(workload.initial_queries.items()):
            reference.install_query(qid, p, SPEC.k)
        for batch in workload.batches:
            session.tick_batch(batch)
            reference.process_batch(batch)
        assert session.monitor.result_table() == reference.result_table()
        assert set(seen) <= {handles[0].qid}
        session.close()

    def test_strategy_specs_install_on_sharded(self):
        # Every typed spec is routable on the sharded tier (anchor-cell
        # routing; a search past the shard's cells pulls them).
        session = Session(PartitionedMonitor(2, cells_per_axis=16))
        session.load_objects([(1, (0.2, 0.5)), (2, (0.6, 0.5)), (3, (0.8, 0.5))])
        handle = session.register(ConstrainedKnnSpec(
            point=(0.5, 0.5), region=(0.0, 0.0, 1.0, 1.0), k=2
        ))
        assert [oid for _d, oid in handle.snapshot()] == [2, 1]
        session.close()


class TestReplay:
    def test_replay_matches_replay_workload(self, workload):
        from repro.api.session import replay_workload

        session = make_session()
        report = session.replay(workload)
        reference = replay_workload(CPMMonitor(cells_per_axis=16), workload)
        assert report.algorithm == reference.algorithm
        assert len(report.cycles) == len(reference.cycles)
        for got, want in zip(report.cycles, reference.cycles):
            assert got.stats.cell_scans == want.stats.cell_scans
            assert got.results_changed == want.results_changed
        # The replay registers handles for every initial query.
        assert {h.qid for h in session.handles()} == set(
            workload.initial_queries
        )

    def test_replay_collects_result_log(self, workload):
        session = make_session()
        log: list = []
        session.replay(workload, collect_results=True, result_log=log)
        assert len(log) == SPEC.timestamps + 1  # install + one per cycle
        assert set(log[0]) == set(workload.initial_queries)
