"""Flat delta capture: ``process_deltas_flat`` pins (ROADMAP item).

The columnar delta path must be byte-identical to the dataclass delta
path — same delta objects, same encoded wire frames, same deterministic
counters — and ``MonitoringService.tick_flat`` must keep the columnar
apply when subscribers are listening (no ``to_object_updates`` fallback).
"""

import pytest

from repro.api import wire
from repro.core.cpm import CPMMonitor
from repro.mobility.uniform import UniformGenerator
from repro.mobility.workload import WorkloadSpec
from repro.service.partition import PartitionedMonitor
from repro.service.service import MonitoringService
from repro.updates import FlatUpdateBatch

SPEC = WorkloadSpec(n_objects=180, n_queries=5, k=3, timestamps=6, seed=23)
CELLS = 16


@pytest.fixture(scope="module")
def workload():
    return UniformGenerator(SPEC).generate()


def loaded(monitor, workload):
    monitor.load_objects(workload.initial_objects.items())
    for qid, point in workload.initial_queries.items():
        monitor.install_query(qid, point, SPEC.k)
    monitor.reset_stats()
    return monitor


def replay_deltas(monitor, workload, flat: bool):
    """One delta map per cycle, plus the final counter snapshot."""
    stream = []
    for batch in workload.batches:
        if flat:
            deltas = monitor.process_deltas_flat(FlatUpdateBatch.from_batch(batch))
        else:
            deltas = monitor.process_deltas(
                batch.object_updates, batch.query_updates
            )
        stream.append(deltas)
    return stream, monitor.stats.snapshot()


class TestCpmFlatDeltas:
    def test_flat_deltas_byte_identical_to_row_deltas(self, workload):
        row_stream, row_stats = replay_deltas(
            loaded(CPMMonitor(cells_per_axis=CELLS), workload), workload, flat=False
        )
        flat_stream, flat_stats = replay_deltas(
            loaded(CPMMonitor(cells_per_axis=CELLS), workload), workload, flat=True
        )
        assert flat_stats == row_stats
        assert len(flat_stream) == len(row_stream)
        for t, (flat_deltas, row_deltas) in enumerate(
            zip(flat_stream, row_stream)
        ):
            assert flat_deltas.keys() == row_deltas.keys(), t
            for qid in row_deltas:
                # Dataclass equality *and* wire-frame byte equality.
                assert flat_deltas[qid] == row_deltas[qid], (t, qid)
                assert wire.encode_delta(t, flat_deltas[qid]) == wire.encode_delta(
                    t, row_deltas[qid]
                )
        assert any(d for d in row_stream), "workload produced no deltas"


class TestShardedFlatDeltas:
    def test_sharded_flat_deltas_match_single_engine(self, workload):
        single_stream, _ = replay_deltas(
            loaded(CPMMonitor(cells_per_axis=CELLS), workload), workload, flat=True
        )
        sharded = loaded(PartitionedMonitor(2, cells_per_axis=CELLS), workload)
        try:
            sharded_stream, _ = replay_deltas(sharded, workload, flat=True)
        finally:
            sharded.close()
        assert len(sharded_stream) == len(single_stream)
        for t, (got, want) in enumerate(zip(sharded_stream, single_stream)):
            assert got == want, t


class TestTickFlatStreaming:
    def test_tick_flat_keeps_columnar_apply_with_subscribers(
        self, workload, monkeypatch
    ):
        """The streamed tick_flat path must never translate the batch
        back to ObjectUpdate rows (the pre-PR5 fallback)."""
        monitor = loaded(CPMMonitor(cells_per_axis=CELLS), workload)
        service = MonitoringService(monitor)
        received = []
        service.subscribe(lambda ts, d: received.append((ts, d.qid)))
        monkeypatch.setattr(
            FlatUpdateBatch,
            "to_object_updates",
            lambda self: pytest.fail("tick_flat fell back to the row encoding"),
        )
        for batch in workload.batches:
            service.tick_flat(FlatUpdateBatch.from_batch(batch))
        assert received, "no deltas streamed"

    def test_tick_flat_streams_same_deltas_as_tick(self, workload):
        row_service = MonitoringService(
            loaded(CPMMonitor(cells_per_axis=CELLS), workload)
        )
        flat_service = MonitoringService(
            loaded(CPMMonitor(cells_per_axis=CELLS), workload)
        )
        row_lines, flat_lines = [], []
        row_service.subscribe(
            lambda ts, d: row_lines.append(wire.encode_delta(ts, d))
        )
        flat_service.subscribe(
            lambda ts, d: flat_lines.append(wire.encode_delta(ts, d))
        )
        for batch in workload.batches:
            row_changed = row_service.tick_batch(batch)
            flat_changed = flat_service.tick_flat(FlatUpdateBatch.from_batch(batch))
            assert row_changed == flat_changed
        assert row_lines == flat_lines
        assert row_lines

    def test_tick_report_times_publish_separately(self, workload):
        service = MonitoringService(
            loaded(CPMMonitor(cells_per_axis=CELLS), workload)
        )
        plain = service.tick_report(FlatUpdateBatch.from_batch(workload.batches[0]))
        assert not plain.streamed
        assert plain.publish_sec == 0.0
        assert plain.process_sec > 0.0
        service.subscribe(lambda ts, d: None)
        streamed = service.tick_report(
            FlatUpdateBatch.from_batch(workload.batches[1])
        )
        assert streamed.streamed
        assert streamed.process_sec > 0.0
        assert streamed.publish_sec >= 0.0
