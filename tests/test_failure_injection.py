"""Failure-injection and boundary-condition tests (DESIGN.md Section 7).

Deliberately hostile inputs: NNs going off-line mid-cycle, populations
collapsing to zero, duplicate coordinates, boundary positions, queries on
cell corners, empty batches, malformed streams.
"""

import pytest

from repro.baselines.sea import SeaCnnMonitor
from repro.baselines.ypk import YpkCnnMonitor
from repro.core.cpm import CPMMonitor
from repro.service.partition import PartitionedMonitor
from repro.updates import (
    FlatUpdateBatch,
    QueryUpdate,
    QueryUpdateKind,
    appear_update,
    disappear_update,
    move_update,
)

ALL_MONITORS = [
    lambda: CPMMonitor(cells_per_axis=8),
    lambda: YpkCnnMonitor(cells_per_axis=8),
    lambda: SeaCnnMonitor(cells_per_axis=8),
]


#: the public boundaries that validate object rows, by tier.
ROW_BOUNDARIES = {
    "cpm": lambda: CPMMonitor(cells_per_axis=8),
    "partitioned": lambda: PartitionedMonitor(2, cells_per_axis=8),
    # No halo columns: each row reaches only its owning shard, and the
    # two loaded objects sit on different shards.
    "partitioned-4-halo0": lambda: PartitionedMonitor(4, cells_per_axis=8, halo=0),
}

#: the four ways one cycle's object rows reach an engine.
ENTRY_POINTS = {
    "process": lambda m, rows: m.process(rows),
    "process_flat": lambda m, rows: m.process_flat(
        FlatUpdateBatch.from_updates(rows)
    ),
    "process_deltas": lambda m, rows: m.process_deltas(rows),
    "process_deltas_flat": lambda m, rows: m.process_deltas_flat(
        FlatUpdateBatch.from_updates(rows)
    ),
}


@pytest.mark.parametrize("tier", ROW_BOUNDARIES)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
class TestObjectRowsMeanTheSameEverywhere:
    """A row whose kind disagrees with whether the object is on-line is
    rejected with ``KeyError`` — through the row names and the columnar
    names alike, on the single engine and on the shard tier, with and
    without halo columns."""

    @pytest.fixture()
    def monitor(self, tier):
        monitor = ROW_BOUNDARIES[tier]()
        monitor.load_objects([(1, (0.1, 0.1)), (2, (0.6, 0.6))])
        yield monitor
        close = getattr(monitor, "close", None)
        if close is not None:
            close()

    def test_move_of_unknown_object(self, monitor, entry):
        with pytest.raises(KeyError):
            ENTRY_POINTS[entry](monitor, [move_update(9, (0.5, 0.5), (0.6, 0.6))])

    def test_disappearance_of_unknown_object(self, monitor, entry):
        with pytest.raises(KeyError):
            ENTRY_POINTS[entry](monitor, [disappear_update(9, (0.5, 0.5))])

    def test_double_appearance_same_cell(self, monitor, entry):
        with pytest.raises(KeyError):
            ENTRY_POINTS[entry](monitor, [appear_update(1, (0.11, 0.11))])

    def test_double_appearance_other_cell(self, monitor, entry):
        """The appearance lands in a *different* cell than the object's
        own: a check that only looks in the new cell accepts it and
        leaves a second copy of the object behind."""
        with pytest.raises(KeyError):
            ENTRY_POINTS[entry](monitor, [appear_update(1, (0.9, 0.9))])

    def test_valid_lifecycle_is_accepted(self, monitor, entry):
        ENTRY_POINTS[entry](
            monitor,
            [
                appear_update(3, (0.3, 0.3)),
                move_update(3, (0.3, 0.3), (0.8, 0.2)),
                disappear_update(1, (0.1, 0.1)),
                appear_update(1, (0.9, 0.9)),
            ],
        )
        assert monitor.object_position(3) == (0.8, 0.2)
        assert monitor.object_position(1) == (0.9, 0.9)


class TestPopulationCollapse:
    @pytest.mark.parametrize("make", ALL_MONITORS)
    def test_whole_population_disappears(self, make):
        monitor = make()
        objs = [(i, (0.1 * i + 0.05, 0.5)) for i in range(5)]
        monitor.load_objects(objs)
        monitor.install_query(0, (0.5, 0.5), 2)
        monitor.process([disappear_update(oid, pos) for oid, pos in objs])
        assert monitor.result(0) == []
        # And objects can come back afterwards.
        monitor.process([appear_update(100, (0.52, 0.51))])
        assert [oid for _d, oid in monitor.result(0)] == [100]

    @pytest.mark.parametrize("make", ALL_MONITORS)
    def test_all_nns_offline_simultaneously(self, make):
        monitor = make()
        near = [(i, (0.5 + 0.001 * (i + 1), 0.5)) for i in range(3)]
        far = [(10 + i, (0.05 * (i + 1), 0.9)) for i in range(4)]
        monitor.load_objects(near + far)
        monitor.install_query(0, (0.5, 0.5), 3)
        assert {oid for _d, oid in monitor.result(0)} == {0, 1, 2}
        monitor.process([disappear_update(oid, pos) for oid, pos in near])
        # The closest survivors are 13 (dist 0.50), 12 (0.53), 11 (0.57).
        assert {oid for _d, oid in monitor.result(0)} == {11, 12, 13}

    def test_cpm_empty_grid_query_then_appearances(self):
        monitor = CPMMonitor(cells_per_axis=8)
        monitor.install_query(0, (0.5, 0.5), 2)
        assert monitor.result(0) == []
        monitor.process([appear_update(1, (0.2, 0.2)), appear_update(2, (0.8, 0.9))])
        assert len(monitor.result(0)) == 2


class TestDegenerateGeometry:
    @pytest.mark.parametrize("make", ALL_MONITORS)
    def test_all_objects_at_same_position(self, make):
        monitor = make()
        monitor.load_objects([(i, (0.5, 0.5)) for i in range(6)])
        result = monitor.install_query(0, (0.5, 0.5), 3)
        assert [d for d, _oid in result] == [0.0, 0.0, 0.0]
        # Ties broken by id in every implementation.
        assert [oid for _d, oid in result] == [0, 1, 2]

    @pytest.mark.parametrize("make", ALL_MONITORS)
    def test_objects_on_workspace_edges(self, make):
        monitor = make()
        edge_objs = [
            (0, (0.0, 0.0)), (1, (1.0, 1.0)), (2, (0.0, 1.0)),
            (3, (1.0, 0.0)), (4, (0.5, 1.0)), (5, (1.0, 0.5)),
        ]
        monitor.load_objects(edge_objs)
        result = monitor.install_query(0, (1.0, 1.0), 2)
        assert result[0] == (0.0, 1)

    @pytest.mark.parametrize("make", ALL_MONITORS)
    def test_query_on_cell_boundary(self, make):
        monitor = make()
        monitor.load_objects([(1, (0.24, 0.25)), (2, (0.26, 0.25))])
        # 0.25 is an exact cell boundary of the 8x8 grid.
        result = monitor.install_query(0, (0.25, 0.25), 2)
        assert {oid for _d, oid in result} == {1, 2}

    def test_cpm_object_moves_onto_query_point(self):
        monitor = CPMMonitor(cells_per_axis=8)
        monitor.load_objects([(1, (0.9, 0.9)), (2, (0.8, 0.8))])
        monitor.install_query(0, (0.3, 0.3), 1)
        monitor.process([move_update(1, (0.9, 0.9), (0.3, 0.3))])
        assert monitor.result(0) == [(0.0, 1)]


class TestStreamEdgeCases:
    @pytest.mark.parametrize("make", ALL_MONITORS)
    def test_empty_batch_is_safe(self, make):
        monitor = make()
        monitor.load_objects([(1, (0.5, 0.5))])
        monitor.install_query(0, (0.5, 0.5), 1)
        before = monitor.result(0)
        monitor.process([])
        assert monitor.result(0) == before

    def test_cpm_rejects_move_of_unknown_object(self):
        monitor = CPMMonitor(cells_per_axis=8)
        with pytest.raises(KeyError):
            monitor.process([move_update(1, (0.5, 0.5), (0.6, 0.6))])

    def test_cpm_rejects_double_appearance(self):
        monitor = CPMMonitor(cells_per_axis=8)
        monitor.process([appear_update(1, (0.5, 0.5))])
        with pytest.raises(KeyError):
            monitor.process([appear_update(1, (0.6, 0.6))])

    def test_cpm_double_appearance_across_cells_leaves_no_ghost(self):
        monitor = CPMMonitor(cells_per_axis=8)
        monitor.process([appear_update(1, (0.1, 0.1))])
        with pytest.raises(KeyError):
            monitor.process([appear_update(1, (0.9, 0.9))])
        result = monitor.install_query(0, (0.1, 0.1), 2)
        assert [oid for _d, oid in result] == [1]

    @pytest.mark.parametrize("make", ALL_MONITORS[1:])
    def test_baselines_reject_double_appearance_across_cells(self, make):
        monitor = make()
        monitor.process([appear_update(1, (0.1, 0.1))])
        with pytest.raises(KeyError):
            monitor.process([appear_update(1, (0.9, 0.9))])

    def test_cpm_object_bounces_within_one_batch(self):
        """Move in, out, and back in within a single batch."""
        monitor = CPMMonitor(cells_per_axis=8)
        monitor.load_objects([(1, (0.5, 0.5)), (2, (0.9, 0.9))])
        monitor.install_query(0, (0.5, 0.5), 1)
        monitor.process([
            move_update(2, (0.9, 0.9), (0.51, 0.5)),
            move_update(2, (0.51, 0.5), (0.9, 0.9)),
            move_update(2, (0.9, 0.9), (0.49, 0.5)),
        ])
        assert monitor.result(0) == [
            (pytest.approx(0.0), 1)
        ] or monitor.result(0)[0][1] == 1

    def test_terminate_and_reinsert_same_qid(self):
        monitor = CPMMonitor(cells_per_axis=8)
        monitor.load_objects([(1, (0.4, 0.4))])
        monitor.install_query(0, (0.5, 0.5), 1)
        monitor.process([], [QueryUpdate(0, QueryUpdateKind.TERMINATE)])
        monitor.process([], [QueryUpdate(0, QueryUpdateKind.INSERT, (0.1, 0.1), 1)])
        assert len(monitor.result(0)) == 1

    def test_query_churn_leaves_no_marks_behind(self):
        monitor = CPMMonitor(cells_per_axis=8)
        monitor.load_objects([(i, (0.1 * i, 0.1 * i)) for i in range(1, 9)])
        for round_ in range(5):
            monitor.install_query(round_, (0.5, 0.5), 2)
            monitor.remove_query(round_)
        assert monitor.grid.total_marks == 0

    def test_sea_query_churn_leaves_no_marks_behind(self):
        monitor = SeaCnnMonitor(cells_per_axis=8)
        monitor.load_objects([(i, (0.1 * i, 0.1 * i)) for i in range(1, 9)])
        for round_ in range(5):
            monitor.install_query(round_, (0.5, 0.5), 2)
            monitor.remove_query(round_)
        assert monitor.grid.total_marks == 0


class TestTinyWorkspaces:
    def test_one_by_one_grid(self):
        monitor = CPMMonitor(cells_per_axis=1)
        monitor.load_objects([(1, (0.2, 0.2)), (2, (0.8, 0.8))])
        result = monitor.install_query(0, (0.5, 0.5), 2)
        assert len(result) == 2
        monitor.process([move_update(1, (0.2, 0.2), (0.55, 0.55))])
        assert monitor.result(0)[0][1] == 1

    def test_single_row_grid(self):
        monitor = CPMMonitor(delta=0.1, bounds=(0.0, 0.0, 1.0, 0.1))
        monitor.load_objects([(1, (0.06, 0.05)), (2, (0.95, 0.05))])
        result = monitor.install_query(0, (0.5, 0.05), 1)
        assert result[0][1] == 1

    def test_non_unit_workspace(self):
        monitor = CPMMonitor(cells_per_axis=8, bounds=(-100.0, -100.0, 100.0, 100.0))
        monitor.load_objects([(1, (-50.0, -50.0)), (2, (50.0, 50.0))])
        result = monitor.install_query(0, (-40.0, -40.0), 1)
        assert result[0][1] == 1
        monitor.process([move_update(2, (50.0, 50.0), (-45.0, -45.0))])
        assert monitor.result(0)[0][1] == 2
