"""Delta layer: diff semantics and monitor capture equivalence.

Every monitor's ``process_deltas`` must report exactly the difference
between its result tables before and after the cycle — verified here by
replaying workloads and cross-checking each delta against a snapshot
diff of the whole result table.
"""

import random

import pytest

from repro.baselines.brute import BruteForceMonitor
from repro.baselines.sea import SeaCnnMonitor
from repro.baselines.ypk import YpkCnnMonitor
from repro.core.cpm import CPMMonitor
from repro.mobility.brinkhoff import BrinkhoffGenerator
from repro.mobility.workload import Workload, WorkloadSpec
from repro.service.deltas import ResultDelta, diff_results
from repro.service.partition import PartitionedMonitor
from repro.updates import (
    QueryUpdate,
    QueryUpdateKind,
    UpdateBatch,
    appear_update,
    move_update,
)
from tests.conftest import scatter


class TestDiffResults:
    def test_no_change(self):
        entries = [(0.1, 1), (0.2, 2)]
        delta = diff_results(7, entries, list(entries))
        assert delta.qid == 7
        assert not delta.changed
        assert delta.incoming == () and delta.outgoing == ()
        assert not delta.reordered and not delta.terminated
        assert delta.result == tuple(entries)

    def test_incoming_and_outgoing(self):
        old = [(0.1, 1), (0.2, 2)]
        new = [(0.1, 1), (0.15, 3)]
        delta = diff_results(0, old, new)
        assert delta.incoming == ((0.15, 3),)
        assert delta.outgoing == ((0.2, 2),)
        assert not delta.reordered
        assert delta.changed

    def test_reorder_of_survivors(self):
        old = [(0.1, 1), (0.2, 2)]
        new = [(0.05, 2), (0.1, 1)]
        delta = diff_results(0, old, new)
        assert delta.incoming == () and delta.outgoing == ()
        assert delta.reordered and delta.changed

    def test_incomer_shift_is_not_a_reorder(self):
        # The surviving neighbor keeps its distance; only its list
        # position changes because an incomer lands ahead of it.
        old = [(0.2, 2)]
        new = [(0.1, 3), (0.2, 2)]
        delta = diff_results(0, old, new)
        assert delta.incoming == ((0.1, 3),)
        assert not delta.reordered

    def test_terminated_drains(self):
        old = [(0.1, 1)]
        delta = diff_results(0, old, [], terminated=True)
        assert delta.terminated and delta.changed
        assert delta.outgoing == ((0.1, 1),)
        assert delta.result == ()

    def test_apply_to_reconstructs(self):
        old = [(0.1, 1), (0.2, 2)]
        new = [(0.05, 3), (0.1, 1)]
        delta = diff_results(0, old, new)
        assert delta.apply_to(old) == new

    def test_apply_to_rejects_wrong_base(self):
        delta = diff_results(0, [(0.1, 1)], [(0.05, 3), (0.1, 1)])
        with pytest.raises(ValueError):
            delta.apply_to([])


MONITOR_FACTORIES = [
    pytest.param(lambda: CPMMonitor(cells_per_axis=16), id="CPM"),
    pytest.param(lambda: YpkCnnMonitor(cells_per_axis=16), id="YPK-CNN"),
    pytest.param(lambda: SeaCnnMonitor(cells_per_axis=16), id="SEA-CNN"),
    pytest.param(BruteForceMonitor, id="BruteForce"),
    pytest.param(
        lambda: PartitionedMonitor(2, cells_per_axis=16, halo=1), id="Partitioned-2"
    ),
    # Four column blocks and no halo: the scripted moves span several
    # blocks, and a search near a block edge pulls the neighbour's cells.
    pytest.param(
        lambda: PartitionedMonitor(4, cells_per_axis=16, halo=0),
        id="Partitioned-4-halo0",
    ),
]


def scripted_workload() -> Workload:
    """Batches that update one qid several times, on a grid whose
    two-shard split is ``x = 0.5``: every way a query can cross shards
    inside one cycle, with object moves in the same batches."""
    initial = dict(scatter(80, seed=5))
    queries = {1: (0.2, 0.2), 2: (0.3, 0.7), 3: (0.7, 0.3), 4: (0.6, 0.8)}
    kind = QueryUpdateKind
    scripts = [
        # insert + terminate in one batch
        [QueryUpdate(10, kind.INSERT, (0.3, 0.3), 2), QueryUpdate(10, kind.TERMINATE)],
        # terminate, then re-insert (on the other shard, with a new k)
        [QueryUpdate(1, kind.TERMINATE), QueryUpdate(1, kind.INSERT, (0.7, 0.6), 4)],
        # two moves, the second crossing shards
        [QueryUpdate(2, kind.MOVE, (0.35, 0.65), 3), QueryUpdate(2, kind.MOVE, (0.8, 0.6), 3)],
        # out of the origin shard and back to it
        [QueryUpdate(3, kind.MOVE, (0.2, 0.4), 3), QueryUpdate(3, kind.MOVE, (0.72, 0.32), 3)],
        # a k-less cross-shard move (the partitioned tier migrates it)
        [QueryUpdate(4, kind.MOVE, (0.25, 0.75))],
        # all of it at once: k-less moves out and back, insert-and-cross
        [
            QueryUpdate(1, kind.MOVE, (0.1, 0.9)),
            QueryUpdate(1, kind.MOVE, (0.9, 0.1)),
            QueryUpdate(11, kind.INSERT, (0.4, 0.4), 3),
            QueryUpdate(11, kind.MOVE, (0.6, 0.4)),
            QueryUpdate(2, kind.TERMINATE),
        ],
    ]
    rng = random.Random(5)
    positions = dict(initial)
    batches = []
    for t, query_updates in enumerate(scripts):
        moves = []
        for oid in rng.sample(sorted(positions), 10):
            new = (rng.random(), rng.random())
            moves.append(move_update(oid, positions[oid], new))
            positions[oid] = new
        batches.append(UpdateBatch(t, tuple(moves), tuple(query_updates)))
    spec = WorkloadSpec(n_objects=80, n_queries=4, k=3, timestamps=len(batches), seed=5)
    return Workload(spec, initial, queries, batches)


@pytest.mark.parametrize("factory", MONITOR_FACTORIES)
class TestCaptureMatchesSnapshots:
    """Replay-level theorem: the cycle's before/after pairs == snapshot diff."""

    def replay_and_check(self, factory, workload, k):
        """Replay ``process_deltas`` into one engine and ``process`` into
        a twin; check each delta against the snapshot diff and the twin's
        changed set against the non-terminated deltas."""
        monitor, twin = factory(), factory()
        try:
            for engine in (monitor, twin):
                engine.load_objects(workload.initial_objects.items())
                for qid, point in workload.initial_queries.items():
                    engine.install_query(qid, point, k)
            self.check_batches(monitor, twin, workload)
        finally:
            for engine in (monitor, twin):
                getattr(engine, "close", lambda: None)()

    def check_batches(self, monitor, twin, workload):
        previous = monitor.result_table()
        saw_delta = False
        for batch in workload.batches:
            deltas = monitor.process_deltas(
                batch.object_updates, batch.query_updates
            )
            changed = twin.process(batch.object_updates, batch.query_updates)
            assert changed == {
                qid for qid, delta in deltas.items() if not delta.terminated
            }, batch.timestamp
            current = monitor.result_table()
            changed_qids = {
                qid
                for qid in set(previous) & set(current)
                if previous[qid] != current[qid]
            }
            new_qids = set(current) - set(previous)
            gone_qids = set(previous) - set(current)
            # Every result change is covered by a delta...
            for qid in changed_qids | new_qids | gone_qids:
                assert qid in deltas, (batch.timestamp, qid)
            # ... and every delta matches the snapshot diff exactly (a
            # query inserted and terminated in one batch drains nothing).
            for qid, delta in deltas.items():
                assert isinstance(delta, ResultDelta)
                if delta.terminated:
                    assert qid not in current
                    assert delta == diff_results(
                        qid, previous.get(qid, []), [], terminated=True
                    ), (batch.timestamp, qid)
                else:
                    reference = diff_results(
                        qid, previous.get(qid, []), current[qid]
                    )
                    assert delta == reference, (batch.timestamp, qid)
                    if delta.changed:
                        saw_delta = True
                        assert delta.apply_to(previous.get(qid, [])) == current[qid]
            previous = current
        assert saw_delta, "workload produced no deltas — test is vacuous"

    def test_default_workload(self, factory):
        spec = WorkloadSpec(n_objects=140, n_queries=6, k=4, timestamps=8, seed=11)
        self.replay_and_check(factory, BrinkhoffGenerator(spec).generate(), spec.k)

    def test_churn_and_moving_queries(self, factory):
        spec = WorkloadSpec(
            n_objects=100,
            n_queries=5,
            k=3,
            timestamps=10,
            object_speed="fast",
            query_agility=0.8,
            seed=12,
        )
        workload = BrinkhoffGenerator(spec).generate()
        assert any(
            u.new is None for b in workload.batches for u in b.object_updates
        )
        self.replay_and_check(factory, workload, spec.k)

    def test_same_qid_multi_update_batches(self, factory):
        workload = scripted_workload()
        self.replay_and_check(factory, workload, workload.spec.k)


class TestExplicitQueryEvents:
    def test_insert_move_terminate_deltas(self):
        monitor = CPMMonitor(cells_per_axis=8)
        monitor.load_objects([(i, (i / 10.0, 0.5)) for i in range(1, 8)])
        deltas = monitor.process_deltas(
            [], [QueryUpdate(1, QueryUpdateKind.INSERT, (0.35, 0.5), 2)]
        )
        assert set(deltas) == {1}
        assert len(deltas[1].incoming) == 2 and not deltas[1].terminated

        deltas = monitor.process_deltas(
            [], [QueryUpdate(1, QueryUpdateKind.MOVE, (0.65, 0.5), 2)]
        )
        assert set(deltas) == {1}
        # The move is reported against the previous result, not from scratch.
        assert deltas[1].result == tuple(monitor.result(1))
        assert deltas[1].outgoing  # the old-side neighbors left

        deltas = monitor.process_deltas(
            [], [QueryUpdate(1, QueryUpdateKind.TERMINATE)]
        )
        assert deltas[1].terminated and deltas[1].outgoing
        assert monitor.query_ids() == []

    def test_object_churn_deltas(self):
        monitor = CPMMonitor(cells_per_axis=8)
        monitor.load_objects([(1, (0.2, 0.5)), (2, (0.8, 0.5))])
        monitor.install_query(9, (0.5, 0.5), 1)
        assert monitor.result(9)[0][1] == 1

        # A new object appears right on the query point.
        deltas = monitor.process_deltas([appear_update(3, (0.5, 0.5))])
        assert deltas[9].incoming == ((0.0, 3),)
        assert deltas[9].outgoing == ((pytest.approx(0.3), 1),)

        # It moves within the result: pure reorder.
        deltas = monitor.process_deltas([move_update(3, (0.5, 0.5), (0.45, 0.5))])
        assert deltas[9].reordered and not deltas[9].incoming

    def test_unchanged_cycle_reports_nothing(self):
        monitor = CPMMonitor(cells_per_axis=8)
        monitor.load_objects([(1, (0.2, 0.5)), (2, (0.8, 0.5))])
        monitor.install_query(9, (0.1, 0.5), 1)
        # An update far outside the influence region.
        deltas = monitor.process_deltas([move_update(2, (0.8, 0.5), (0.9, 0.5))])
        assert deltas == {}

    def test_leave_and_return_same_cycle_is_no_change(self):
        # An NN that moves and returns to its original distance within one
        # batch must not be reported as changed — exactness pinned against
        # the brute-force oracle.
        def build(factory):
            monitor = factory()
            monitor.load_objects([(1, (0.4, 0.5)), (2, (0.8, 0.5))])
            monitor.install_query(9, (0.5, 0.5), 1)
            return monitor

        batch = [
            move_update(1, (0.4, 0.5), (0.45, 0.5)),
            move_update(1, (0.45, 0.5), (0.4, 0.5)),
        ]
        brute = build(BruteForceMonitor)
        cpm = build(lambda: CPMMonitor(cells_per_axis=8))
        assert brute.process(batch) == set()
        assert cpm.process(batch) == set()
        assert cpm.process_deltas(batch) == {}

    def test_reorder_only_cycle_is_reported(self):
        # The converse: a genuine distance change of a surviving NN is a
        # result change (CPM under-reported these before the service PR).
        cpm = CPMMonitor(cells_per_axis=8)
        cpm.load_objects([(1, (0.4, 0.5)), (2, (0.3, 0.5)), (3, (0.8, 0.5))])
        cpm.install_query(9, (0.5, 0.5), 2)
        batch = [move_update(1, (0.4, 0.5), (0.42, 0.5))]
        assert cpm.process(batch) == {9}
