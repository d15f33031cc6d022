"""Unit tests for the update feed adapters (workload, live generator,
JSONL trace) and the cycle batcher."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ingest.batcher import CycleBatcher
from repro.ingest.buffer import IngestBuffer
from repro.ingest.feeds import (
    CycleMark,
    GeneratorFeed,
    JsonlTraceFeed,
    WorkloadFeed,
    write_jsonl_trace,
)
from repro.mobility.brinkhoff import BrinkhoffGenerator
from repro.mobility.workload import WorkloadSpec
from repro.updates import (
    ObjectUpdate,
    QueryUpdate,
    appear_update,
    disappear_update,
    move_update,
)

SPEC = WorkloadSpec(
    n_objects=80,
    n_queries=4,
    k=3,
    timestamps=5,
    seed=99,
    object_speed="fast",
    query_agility=0.5,
)


class TestWorkloadFeed:
    def test_events_mirror_batches_with_marks(self):
        workload = BrinkhoffGenerator(SPEC).generate()
        feed = WorkloadFeed(workload)
        assert feed.initial_objects() == workload.initial_objects
        assert feed.initial_queries() == workload.initial_queries
        events = list(feed.events())
        marks = [e for e in events if isinstance(e, CycleMark)]
        assert [m.timestamp for m in marks] == [b.timestamp for b in workload.batches]
        # Re-group by marks and compare against the batches exactly.
        cycle: list = []
        grouped = []
        for event in events:
            if isinstance(event, CycleMark):
                grouped.append(tuple(cycle))
                cycle = []
            else:
                cycle.append(event)
        assert not cycle  # stream ends on a mark
        for group, batch in zip(grouped, workload.batches):
            assert group == batch.object_updates + batch.query_updates


class TestGeneratorFeed:
    def test_live_feed_matches_materialized_workload(self):
        """The acceptance property: a live feed stepping the agents emits
        the byte-identical stream the materialized generator recorded."""
        workload = BrinkhoffGenerator(SPEC).generate()
        feed = GeneratorFeed(SPEC, timestamps=SPEC.timestamps)
        assert feed.initial_objects() == workload.initial_objects
        assert feed.initial_queries() == workload.initial_queries
        assert list(feed.events()) == list(WorkloadFeed(workload).events())

    def test_second_events_iterator_continues_cycle_labels(self):
        """Resuming iteration must not restart mark timestamps at 0 over
        already-advanced agent state."""
        feed = GeneratorFeed(SPEC, timestamps=4)
        first = feed.events()
        marks: list[int] = []
        for event in first:
            if isinstance(event, CycleMark):
                marks.append(event.timestamp)
                if len(marks) == 2:
                    break
        for event in feed.events():
            if isinstance(event, CycleMark):
                marks.append(event.timestamp)
        assert marks == [0, 1, 2, 3]

    def test_unbounded_feed_outlives_the_spec_horizon(self):
        feed = GeneratorFeed(SPEC, timestamps=None)
        events = feed.events()
        marks = 0
        for event in events:
            if isinstance(event, CycleMark):
                marks += 1
                if marks > SPEC.timestamps + 3:
                    break
        assert marks > SPEC.timestamps


class TestJsonlTraceFeed:
    def test_round_trip(self, tmp_path):
        workload = BrinkhoffGenerator(SPEC).generate()
        path = write_jsonl_trace(tmp_path / "trace.jsonl", workload)
        feed = JsonlTraceFeed(path)
        assert feed.initial_objects() == workload.initial_objects
        assert feed.initial_queries() == workload.initial_queries
        assert list(feed.events()) == list(WorkloadFeed(workload).events())
        qid = next(iter(workload.initial_queries))
        assert feed.install_k(qid) == SPEC.k

    def test_events_are_lazy_and_repeatable(self, tmp_path):
        workload = BrinkhoffGenerator(SPEC).generate()
        path = write_jsonl_trace(tmp_path / "trace.jsonl", workload)
        feed = JsonlTraceFeed(path)
        assert list(feed.events()) == list(feed.events())


#: targets that collide: equal coordinates, signed zeros.
TARGETS = [(0.0, 0.5), (-0.0, 0.5), (0.25, 0.5), (0.5, 0.5), (0.5, -0.0)]


class TestCycleBatcher:
    def test_rebases_old_positions_against_applied_state(self):
        batcher = CycleBatcher()
        batcher.prime([(1, (0.1, 0.1))])
        # The buffer coalesced two hops into one target; the batch must
        # move from the *applied* position, not an intermediate one.
        batch, noops = batcher.assemble([(1, (0.3, 0.3))], timestamp=5)
        assert noops == 0
        assert batch.to_object_updates() == (
            move_update(1, (0.1, 0.1), (0.3, 0.3)),
        )
        assert batch.timestamp == 5
        assert batcher.positions[1] == (0.3, 0.3)

    def test_unknown_object_becomes_appearance(self):
        batcher = CycleBatcher()
        batch, _ = batcher.assemble([(7, (0.2, 0.2))])
        assert batch.to_object_updates() == (appear_update(7, (0.2, 0.2)),)

    def test_offline_target_becomes_disappearance(self):
        batcher = CycleBatcher()
        batcher.prime([(7, (0.2, 0.2))])
        batch, _ = batcher.assemble([(7, None)])
        assert batch.to_object_updates() == (disappear_update(7, (0.2, 0.2)),)
        assert 7 not in batcher.positions

    def test_annihilation_and_noop_are_skipped(self):
        batcher = CycleBatcher()
        batcher.prime([(1, (0.4, 0.4))])
        batch, noops = batcher.assemble([(9, None), (1, (0.4, 0.4))])
        assert len(batch) == 0
        assert noops == 2

    def test_query_updates_pass_through(self):
        from repro.updates import QueryUpdateKind

        batcher = CycleBatcher()
        qu = QueryUpdate(5, QueryUpdateKind.INSERT, (0.5, 0.5), 2)
        batch, _ = batcher.assemble([], [qu], timestamp=1)
        assert batch.query_updates == (qu,)

    def test_repeated_oid_is_refused(self):
        with pytest.raises(ValueError, match="twice"):
            CycleBatcher().assemble([(1, (0.1, 0.1)), (1, (0.2, 0.2))])

    @settings(max_examples=60)
    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=12),
                    st.one_of(st.none(), st.sampled_from(TARGETS)),
                ),
                max_size=14,
            ),
            max_size=6,
        ),
        st.sampled_from(["pairs", "drained"]),
    )
    def test_columns_equal_the_row_reference_over_cycles(self, cycles, source):
        """Cycle after cycle — appearances into freed table rows,
        disappearances, annihilations, no-ops (``-0.0`` against ``0.0``
        included) — the columnar batcher emits exactly the rows the
        per-row reference emits and keeps the same shadow table, whether
        the targets come as pairs or as a drain's columns."""
        batcher = CycleBatcher()
        primed = [(oid, (oid / 16, 0.5)) for oid in range(0, 12, 2)]
        batcher.prime(primed)
        shadow = dict(primed)
        for cycle in cycles:
            targets = list(dict(cycle).items())  # each oid once
            if source == "drained":
                buf = IngestBuffer(capacity=64)
                for oid, target in cycle:
                    buf.try_offer(ObjectUpdate(oid, (0.0, 0.0), target))
                drained = buf.drain().object_targets
                assert drained == list(dict(cycle).items())
                batch, noops = batcher.assemble(drained, (), 3)
            else:
                batch, noops = batcher.assemble(targets, (), 3)
            expected, expected_noops = reference_assemble(shadow, targets)
            assert batch.to_object_updates() == expected
            assert (list(batch.old_xs), list(batch.new_xs)) == (
                [u.old[0] if u.old else 0.0 for u in expected],
                [u.new[0] if u.new else 0.0 for u in expected],
            )
            assert noops == expected_noops
            assert batcher.positions == shadow
            assert all(
                repr(batcher.positions[oid]) == repr(shadow[oid]) for oid in shadow
            )


def reference_assemble(shadow: dict, targets) -> tuple[tuple, int]:
    """The per-row batcher the columnar one replaced, on a dict shadow
    table (mutated in place)."""
    rows = []
    for oid, target in targets:
        old = shadow.get(oid)
        if target is None:
            if old is None:
                continue
            del shadow[oid]
        elif old == target:
            continue
        else:
            shadow[oid] = target
        rows.append(ObjectUpdate(oid, old, target))
    return tuple(rows), len(targets) - len(rows)


def test_feed_events_typecheck():
    """Feeds only ever yield the three event types."""
    workload = BrinkhoffGenerator(SPEC).generate()
    for event in WorkloadFeed(workload).events():
        assert isinstance(event, (ObjectUpdate, QueryUpdate, CycleMark))
