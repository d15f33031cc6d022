"""Tests for the shared monitor interface (repro.monitor)."""

import importlib
import pkgutil

import pytest

import repro
from repro.baselines.brute import BruteForceMonitor
from repro.baselines.sea import SeaCnnMonitor
from repro.baselines.ypk import YpkCnnMonitor
from repro.core.cpm import CPMMonitor
from repro.mobility.brinkhoff import BrinkhoffGenerator
from repro.mobility.workload import WorkloadSpec
from repro.monitor import ContinuousMonitor
from repro.service.partition import PartitionedMonitor, PartitionShardEngine
from repro.updates import (
    FlatUpdateBatch,
    QueryUpdate,
    QueryUpdateKind,
    UpdateBatch,
    move_update,
)
from tests.conftest import brute_knn, scatter

ALL = [
    lambda: CPMMonitor(cells_per_axis=8),
    lambda: YpkCnnMonitor(cells_per_axis=8),
    lambda: SeaCnnMonitor(cells_per_axis=8),
    BruteForceMonitor,
]

#: the shard tier and the shard-local engine, behind the same contract.
TIERS = [
    lambda: PartitionedMonitor(2, cells_per_axis=8),
    lambda: PartitionShardEngine(8),
]
IDS = ["cpm", "ypk", "sea", "brute", "partitioned", "shard-engine"]

CYCLE_NAMES = {
    "process",
    "process_batch",
    "process_flat",
    "process_deltas",
    "process_deltas_flat",
    # the query-update phase, which folds each update into the cycle's
    # before/after pairs
    "_apply_query_updates",
}


def _close(monitor) -> None:
    close = getattr(monitor, "close", None)
    if close is not None:
        close()


def _monitor_classes() -> list[type]:
    """Every ContinuousMonitor subclass importable from src/."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        try:
            importlib.import_module(info.name)
        except ImportError:  # optional accelerator modules (numpy kernels)
            pass
    found: list[type] = []
    todo = [ContinuousMonitor]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found and sub.__module__.startswith("repro."):
                found.append(sub)
                todo.append(sub)
    return sorted(found, key=lambda cls: cls.__name__)


class TestOneCycleLoop:
    """The shape of the contract: one ``_cycle`` hook per engine, the five
    public cycle names defined once in the base class."""

    def test_every_engine_is_found(self):
        names = {cls.__name__ for cls in _monitor_classes()}
        assert names >= {
            "CPMMonitor",
            "YpkCnnMonitor",
            "SeaCnnMonitor",
            "BruteForceMonitor",
            "PartitionedMonitor",
            "PartitionShardEngine",
        }

    @pytest.mark.parametrize("cls", _monitor_classes(), ids=lambda c: c.__name__)
    def test_cycle_names_are_not_overridden(self, cls):
        assert not CYCLE_NAMES & set(vars(cls))

    def test_no_cpm_subclass_replaces_a_piece_of_the_engine_cycle(self):
        """Partitioning *adds* to the engine (halo sentinels, the
        ``partition_cycle`` command, migration, checkpoints); the row loop,
        the cycle tail and the cycle itself stay ``CPMMonitor``'s."""
        subclasses = [
            cls
            for cls in _monitor_classes()
            if issubclass(cls, CPMMonitor) and cls is not CPMMonitor
        ]
        assert PartitionShardEngine in subclasses
        for cls in subclasses:
            assert not {"_apply_flat_rows", "_finish_cycle", "_cycle"} & set(
                vars(cls)
            ), cls

    @pytest.mark.parametrize("make", ALL + TIERS, ids=IDS)
    def test_rows_and_columns_run_the_same_cycle(self, make):
        spec = WorkloadSpec(n_objects=150, n_queries=6, k=3, timestamps=5, seed=31)
        workload = BrinkhoffGenerator(spec).generate()
        outcomes = []
        for flat in (False, True):
            monitor = make()
            try:
                monitor.load_objects(workload.initial_objects.items())
                for qid, point in workload.initial_queries.items():
                    monitor.install_query(qid, point, spec.k)
                monitor.reset_stats()
                changed = []
                for batch in workload.batches:
                    if flat:
                        changed.append(
                            monitor.process_flat(FlatUpdateBatch.from_batch(batch))
                        )
                    else:
                        changed.append(
                            monitor.process(batch.object_updates, batch.query_updates)
                        )
                outcomes.append(
                    (changed, monitor.result_table(), monitor.stats.snapshot())
                )
            finally:
                _close(monitor)
        assert outcomes[0] == outcomes[1]
        assert any(outcomes[0][0]), "workload changed no result"


@pytest.mark.parametrize("make", ALL + TIERS[:2], ids=IDS[:6])
@pytest.mark.parametrize(
    "hops",
    [[(0.3, 0.6)], [(0.9, 0.6)], [(0.3, 0.6), (0.9, 0.6)]],
    ids=["same-shard", "cross-shard", "stacked-cross-shard"],
)
def test_move_without_k_keeps_the_querys_k(make, hops):
    """``QueryUpdate(qid, MOVE, point)`` — what a wire ``query`` frame with
    no ``"k"`` decodes to — must not shrink the query to k=1.  On the tiers
    the last two cases cross a shard boundary: by live migration
    (partitioned, single update) and by the TERMINATE+INSERT split."""
    objects = scatter(60, seed=4)
    monitor = make()
    try:
        monitor.load_objects(objects)
        monitor.install_query(5, (0.2, 0.5), 4)
        changed = monitor.process(
            [], [QueryUpdate(5, QueryUpdateKind.MOVE, point) for point in hops]
        )
        assert changed == {5}
        assert monitor.result(5) == brute_knn(dict(objects), hops[-1], 4)
        assert monitor.query_k(5) == 4
    finally:
        _close(monitor)


@pytest.mark.parametrize("make", ALL)
class TestSharedInterface:
    def test_names_are_distinct(self, make):
        monitor = make()
        assert monitor.name in {"CPM", "YPK-CNN", "SEA-CNN", "BruteForce"}

    def test_apply_query_update_insert(self, make):
        monitor = make()
        monitor.load_objects(scatter(30, seed=1))
        monitor.apply_query_update(
            QueryUpdate(5, QueryUpdateKind.INSERT, (0.5, 0.5), 2)
        )
        assert 5 in monitor.query_ids()
        assert len(monitor.result(5)) == 2

    def test_apply_query_update_move(self, make):
        monitor = make()
        monitor.load_objects(scatter(30, seed=1))
        monitor.install_query(5, (0.5, 0.5), 2)
        monitor.apply_query_update(QueryUpdate(5, QueryUpdateKind.MOVE, (0.1, 0.1), 2))
        assert 5 in monitor.query_ids()

    def test_apply_query_update_terminate(self, make):
        monitor = make()
        monitor.load_objects(scatter(30, seed=1))
        monitor.install_query(5, (0.5, 0.5), 2)
        monitor.apply_query_update(QueryUpdate(5, QueryUpdateKind.TERMINATE))
        assert 5 not in monitor.query_ids()

    def test_process_batch_wrapper(self, make):
        monitor = make()
        objs = scatter(30, seed=2)
        monitor.load_objects(objs)
        monitor.install_query(0, (0.5, 0.5), 1)
        positions = dict(objs)
        oid = next(iter(positions))
        batch = UpdateBatch(
            timestamp=0,
            object_updates=(move_update(oid, positions[oid], (0.51, 0.5)),),
        )
        changed = monitor.process_batch(batch)
        assert isinstance(changed, set)
        assert monitor.result(0)[0][1] == oid

    def test_reset_stats(self, make):
        monitor = make()
        monitor.load_objects(scatter(30, seed=3))
        monitor.install_query(0, (0.5, 0.5), 1)
        monitor.reset_stats()
        assert monitor.stats.cell_scans == 0

    def test_object_bookkeeping(self, make):
        monitor = make()
        monitor.load_objects([(1, (0.25, 0.75))])
        assert monitor.object_count == 1
        assert monitor.object_position(1) == (0.25, 0.75)
        assert monitor.object_position(2) is None
