"""The ``--trace 1`` run: per-layer metrics, measured from outside.

A traced run spends its ``--seconds`` on three things:

1. an **untraced pass** and a **traced pass** of the workload, same seed,
   fresh build each — their ``cycle_ms_p50`` difference is
   ``trace.overhead_pct``, and their per-cycle cell scans must agree;
2. readings off the live system after those passes (counters the program
   keeps itself: ``partition_stats()``, ``server.stats()``, the driver's
   ``IngestReport``), and off the traced pass's spans;
3. **twins**: further instances fed the same recorded cycles, each using
   the program a different way, so that phases the program does not time
   itself are separated by subtraction — an index-only twin has no
   queries, an objects-only twin gets no query updates, a queries-only
   twin gets no rows.  Twins run one after the other, each alone on the
   heap: six engines alive at once made every collection six times as
   long, which showed up as a +190% "capture overhead".
   ``wire_stream`` is re-played *staged*: the benchmark calls each
   layer's public functions in turn, with no threads, and what the live
   cycle costs beyond their sum is ``wire_stream.unattributed_ms``.

Every number is a time or count of calls into a layer's public
functions; nothing under ``src/`` is instrumented.  Twin times are
per-cycle medians.  Layer metrics are advisory (no bound): they say
where an end-to-end change came from.
"""

from __future__ import annotations

import gc
import socket
from dataclasses import replace
from pathlib import Path
from statistics import median
from time import perf_counter

from repro.api import wire
from repro.core.cpm import CPMMonitor
from repro.ingest.batcher import CycleBatcher
from repro.ingest.buffer import BackPressurePolicy, IngestBuffer
from repro.ingest.feeds import SocketFeed
from repro.obs.metrics import MetricsRegistry
from repro.service.deltas import diff_results
from repro.service.partition import PartitionedMonitor
from repro.service.service import MonitoringService
from repro.service.subscriptions import SubscriptionHub
from repro.updates import FlatUpdateBatch, ObjectUpdate

from bench import harness
from bench.runners import PartitionSkewed, Runner, WireStream
from bench.trace import Tracer
from bench.workloads import (
    ROWS_PER_FRAME,
    flat_batch,
    frame_lines,
    query_updates,
    row_batch,
)

#: share of ``--seconds`` each of the two passes measures for; the twins
#: get the rest.
PASS_SHARE = 0.25
#: warm-up cycles of the two passes (they feed no bounded metric).
PASS_WARMUP_CYCLES = 2
TWIN_MIN_CYCLES = 3
RPC_SAMPLES = 200

_ENGINE = frozenset({"engine_maintain", "engine_search"})
_SERVICE = frozenset({"wire_stream", "partition_skewed"})
_WIRE = frozenset({"wire_stream"})
#: the workloads that measure a per-layer metric, by metric name or by the
#: layer prefix before its first dot; a metric listed neither way is
#: measured on every workload.  A traced run must produce exactly the
#: metrics its workload measures — the result line reads 0 for the others
#: ("this layer is idle here"), so a reading that silently went missing
#: would otherwise pass for a perfect score.
MEASURED_ON = {
    "grid.index_us_per_row": _ENGINE,
    "cpm.maintain_us_per_row": _ENGINE,
    "cpm.search_us_per_move": frozenset({"engine_search"}),
    "cpm.row_over_flat_ratio": _ENGINE,
    "cpm.capture_overhead_pct": _ENGINE,
    "service": _SERVICE,
    "hub": _SERVICE,
    "deltas": _SERVICE,
    "obs": _SERVICE,
    "partition": frozenset({"partition_skewed"}),
    "feeds": _WIRE,
    "ingest": _WIRE,
    "wire": _WIRE,
    "server": _WIRE,
    "client": _WIRE,
    "wire_stream": _WIRE,
}


def measured_on(metric: str, workload: str) -> bool:
    owners = MEASURED_ON.get(metric) or MEASURED_ON.get(metric.partition(".")[0])
    return owners is None or workload in owners


def traced_run(runner_cls, spec, seed: int, seconds: float, span_file: Path):
    """Returns ``(values, details, attempted, failed)``; ``values`` is
    empty when a pass failed before it measured one cycle."""
    plain_runner = runner_cls(spec, seed)
    plain_runner.build()
    plain = harness.run_pass(
        plain_runner, seconds * PASS_SHARE, warmup_cycles=PASS_WARMUP_CYCLES
    )
    if not plain.cycles:
        plain_runner.close()
        return _failed(plain)
    values = _common(plain_runner, plain)
    if isinstance(plain_runner, WireStream):
        values.update(_driver_report(plain_runner, plain))
    plain_runner.close()

    tracer = Tracer()
    runner = runner_cls(spec, seed, tracer)
    runner.build()
    traced = harness.run_pass(
        runner, seconds * PASS_SHARE, warmup_cycles=PASS_WARMUP_CYCLES
    )
    if not traced.cycles:
        runner.close()
        return _failed(plain, traced)
    checks, mismatches = harness.verify(runner, seed)
    values["trace.overhead_pct"] = (traced.p50_ms() / plain.p50_ms() - 1.0) * 100.0
    if isinstance(runner, WireStream):
        values.update(_wire_live(runner, tracer))
    elif isinstance(runner, PartitionSkewed):
        values.update(_partition_live(runner, traced, tracer))
    runner.close()
    tracer.write(span_file)

    # Same seed, same stream: the two passes must have scanned the same
    # cells in every cycle both of them ran.
    shared = min(len(plain.scans), len(traced.scans))
    scans_differ = int(plain.scans[:shared] != traced.scans[:shared])

    del plain_runner, runner
    budget = seconds * (1.0 - 2 * PASS_SHARE)
    if runner_cls is WireStream:
        values.update(_wire_staged(spec, seed, budget, plain.p50_ms()))
    elif runner_cls is PartitionSkewed:
        values.update(_partition_twins(spec, seed, budget))
    else:
        values.update(_engine_twins(runner_cls, spec, seed, budget))

    details = {
        "cycles": plain.cycles,
        "traced_cycles": traced.cycles,
        "cycle_ms_p50": plain.p50_ms(),
        "traced_cycle_ms_p50": traced.p50_ms(),
        "spans": len(tracer.spans),
        "span_file": str(span_file),
        "scans_differ": scans_differ,
    }
    attempted = plain.attempted + traced.attempted + checks + 1
    failed = plain.failed + traced.failed + mismatches + scans_differ
    return values, details, attempted, failed


def _failed(*passes: harness.PassResult):
    """What a traced run returns when a pass measured not one cycle."""
    details = {"cycles": [p.cycles for p in passes]}
    return {}, details, sum(p.attempted for p in passes), sum(p.failed for p in passes)


def _common(runner: Runner, result: harness.PassResult) -> dict:
    """Counts every workload's engine keeps, over the untraced window."""
    cycles = result.cycles
    scans = sum(result.measured_scans())
    counters = result.window
    return {
        "cycle_ms_p90": result.p90_ms(),
        "cpm.install_us_per_query": runner.install_seconds
        / len(runner.queries) * 1e6,
        "cpm.cell_scans_per_cycle": scans / cycles,
        "cpm.results_changed_per_cycle": result.changed / cycles,
        "cpm.scans_per_changed_result": scans / max(1, result.changed),
        "grid.inserts_per_row": counters.inserts / result.rows,
        "grid.deletes_per_row": counters.deletes / result.rows,
        "grid.mark_ops_per_cycle": counters.mark_ops / cycles,
        "grid.objects_per_scan": counters.objects_scanned / max(1, scans),
    }


# ----------------------------------------------------------------------
# Twins: one instance at a time over the same recorded cycles
# ----------------------------------------------------------------------


class Twins:
    """Replays one recorded stream into twins built one after the other.

    The first twin sets how many cycles fit: it generates and records
    cycles until its share of the budget is spent; every later twin
    replays exactly those.
    """

    def __init__(self, step, budget: float, n_twins: int) -> None:
        self._step = step
        self._share = budget / n_twins
        self.inputs: list = []

    def _cycles(self, seconds: list[float]):
        """The recorded cycles; the first twin records them as it goes."""
        if self.inputs:
            yield from self.inputs
            return
        while len(self.inputs) < TWIN_MIN_CYCLES or sum(seconds) < self._share:
            self.inputs.append(self._step(len(self.inputs)))
            yield self.inputs[-1]

    def run(self, build, prepare, apply) -> float:
        """Median seconds of ``apply(twin, prepare(input))`` per cycle."""
        gc.collect()
        twin = build()
        seconds: list[float] = []
        for inp in self._cycles(seconds):
            payload = prepare(inp)
            t0 = perf_counter()
            apply(twin, payload)
            seconds.append(perf_counter() - t0)
        close = getattr(getattr(twin, "monitor", None), "close", None)
        if close is not None:
            close()
        return median(seconds)


def _engine_twins(runner_cls, spec, seed: int, budget: float) -> dict:
    source = runner_cls(spec, seed)
    k = spec.k

    def engine(queries: bool = True) -> CPMMonitor:
        monitor = CPMMonitor(spec.grid)
        monitor.load_objects(source.objects)
        if queries:
            for qid, point in source.queries:
                monitor.install_query(qid, point, k)
        return monitor

    def flat(inp) -> FlatUpdateBatch:
        return flat_batch(inp, k)

    def no_queries(inp) -> FlatUpdateBatch:
        return replace(flat_batch(inp, k), query_updates=())

    def no_rows(inp) -> FlatUpdateBatch:
        return FlatUpdateBatch(inp.timestamp, query_updates=query_updates(inp, k))

    def process_flat(monitor, batch) -> None:
        monitor.process_flat(batch)

    # With static queries the objects-only twin *is* the flat twin, and a
    # queries-only twin would have nothing to do.
    moving = spec.f_qry > 0
    twins = Twins(source.pop.step, budget, 6 if moving else 4)
    t_flat = twins.run(engine, flat, process_flat)
    t_index = twins.run(lambda: engine(False), no_queries, process_flat)
    t_row = twins.run(
        engine,
        lambda inp: row_batch(inp, k),
        lambda monitor, batch: monitor.process(
            batch.object_updates, batch.query_updates
        ),
    )
    t_deltas = twins.run(
        engine, flat, lambda monitor, batch: monitor.process_deltas_flat(batch)
    )
    t_objects = twins.run(engine, no_queries, process_flat) if moving else t_flat
    t_queries = twins.run(engine, no_rows, process_flat) if moving else None
    rows = len(twins.inputs[0].oids)
    moves = len(twins.inputs[0].moves)
    values = {
        "grid.index_us_per_row": t_index / rows * 1e6,
        "cpm.maintain_us_per_row": (t_objects - t_index) / rows * 1e6,
        "cpm.row_over_flat_ratio": t_row / t_flat,
        "cpm.capture_overhead_pct": (t_deltas / t_flat - 1.0) * 100.0,
    }
    if moving:
        values["cpm.search_us_per_move"] = t_queries / moves * 1e6
    return values


# ----------------------------------------------------------------------
# Deltas and hub, replayed from recorded cycles
# ----------------------------------------------------------------------


def _record_publishes(hub: SubscriptionHub, into: list) -> None:
    """Keep every ``(timestamp, deltas)`` this hub instance publishes."""
    publish = hub.publish

    def recording(timestamp, deltas):
        into.append((timestamp, deltas))
        return publish(timestamp, deltas)

    hub.publish = recording


def _replay_hub_and_diff(recorded: list, subscriptions_per_query: int) -> dict:
    """``SubscriptionHub.publish`` on the recorded delta dicts with no-op
    callbacks, and ``diff_results`` on each recorded query's consecutive
    results."""
    hub = SubscriptionHub()
    qids = {qid for _ts, deltas in recorded for qid in deltas}

    def noop(_timestamp, _delta) -> None:
        pass

    for qid in sorted(qids):
        for _ in range(subscriptions_per_query):
            hub.subscribe_query(qid, noop)
    t0 = perf_counter()
    deliveries = sum(hub.publish(ts, deltas) for ts, deltas in recorded)
    publish_seconds = perf_counter() - t0

    last: dict[int, tuple] = {}
    pairs = []
    for _ts, deltas in recorded:
        for qid, delta in deltas.items():
            if qid in last:
                pairs.append((qid, last[qid], delta.result))
            last[qid] = delta.result
    t0 = perf_counter()
    for qid, old, new in pairs:
        diff_results(qid, old, new)
    diff_seconds = perf_counter() - t0
    return {
        "hub.publish_us_per_delivery": publish_seconds / max(1, deliveries) * 1e6,
        "hub.deliveries_per_cycle": deliveries / len(recorded),
        "deltas.diff_us_per_query": diff_seconds / max(1, len(pairs)) * 1e6,
    }


# ----------------------------------------------------------------------
# partition_skewed
# ----------------------------------------------------------------------


def _partition_live(runner: PartitionSkewed, window, tracer: Tracer) -> dict:
    """Shard and coordinator time from the timing executor's spans, and
    per-cycle traffic from ``partition_stats()`` (whole pass: the program
    keeps running totals only)."""
    tick = tracer.durations_ms("service.service.tick_flat")
    publish = tracer.durations_ms("service.subscriptions.publish")
    shards = [
        tracer.durations_ms(f"service.partition.shard{s}.")
        for s in range(runner.N_SHARDS)
    ]
    measured = sorted(tick)[window.warmup_cycles:]
    busiest, imbalance, coordinator = [], [], []
    for cycle in measured:
        busy = [shard.get(cycle, 0.0) for shard in shards]
        busiest.append(max(busy))
        imbalance.append(max(busy) / (sum(busy) / len(busy)))
        coordinator.append(tick[cycle] - sum(busy) - publish.get(cycle, 0.0))
    traffic = runner.monitor.partition_stats()
    cycles = traffic["cycles"]
    rows_per_cycle = window.rows / window.cycles
    return {
        "service.tick_flat_ms_p50": median(tick[c] for c in measured),
        "partition.shard_busy_ms_max": median(busiest),
        "partition.shard_imbalance": median(imbalance),
        "partition.coordinator_ms": median(coordinator),
        "partition.fanout_rows_per_row": traffic["fanout_rows"]
        / (cycles * rows_per_cycle),
        "partition.sync_rows": traffic["sync_rows"] / cycles,
        "partition.pulls": traffic["pulls"] / cycles,
        "partition.migrations": traffic["migrations"] / cycles,
        "partition.evictions": traffic["evictions"] / cycles,
    }


def _partition_twins(spec, seed: int, budget: float) -> dict:
    """The partitioned service against a single-engine twin with the same
    subscriptions, and that twin against one carrying a registry."""
    source = PartitionSkewed(spec, seed)
    recorded: list = []

    def single() -> MonitoringService:
        service = source.make_service(CPMMonitor(spec.grid))
        _record_publishes(service.hub, recorded)
        return service

    def tick(service, batch) -> None:
        service.tick_flat(batch)

    def flat(inp) -> FlatUpdateBatch:
        return flat_batch(inp, spec.k)

    twins = Twins(source.pop.step, budget, 3)
    t_partitioned = twins.run(
        lambda: source.make_service(
            PartitionedMonitor(source.N_SHARDS, spec.grid, halo=1)
        ),
        flat, tick,
    )
    t_single = twins.run(single, flat, tick)
    t_observed = twins.run(
        lambda: source.make_service(CPMMonitor(spec.grid), MetricsRegistry()),
        flat, tick,
    )
    values = _replay_hub_and_diff(recorded, source.SUBSCRIPTIONS_PER_QUERY)
    values["partition.over_single_ratio"] = t_partitioned / t_single
    values["obs.registry_overhead_pct"] = (t_observed / t_single - 1.0) * 100.0
    return values


# ----------------------------------------------------------------------
# wire_stream
# ----------------------------------------------------------------------


def _driver_report(runner: WireStream, window) -> dict:
    """The untraced pass's own ``IngestReport``.  ``ingest_sec`` starts
    when the previous cycle ends, so it includes the wait for the
    producer's next frames (the benchmark generating them)."""
    cycles = runner.driver.report.cycles[window.warmup_cycles:]
    return {
        "ingest.driver_ingest_ms": median(c.ingest_sec for c in cycles) * 1e3,
        "ingest.driver_process_ms": median(c.process_sec for c in cycles) * 1e3,
    }


def _wire_live(runner: WireStream, tracer: Tracer) -> dict:
    stats = runner.server.stats()
    round_trips = []
    for _ in range(RPC_SAMPLES):
        t0 = perf_counter()
        runner.client.snapshot(0)
        round_trips.append(perf_counter() - t0)
    return {
        "service.tick_flat_ms_p50": tracer.median_ms("service.service.tick_report"),
        "server.outbox_depth_max": runner.outbox_depth_max,
        "server.delivered": stats.delivered,
        "server.dropped": stats.dropped,
        "client.rpc_roundtrip_us_p50": median(round_trips) * 1e6,
    }


def _wire_service(source: WireStream, spec, outbox: list, metrics=None):
    """The engine side of the wire workload without server or sockets:
    every query subscribed the way a connection subscribes — enqueue."""
    service = MonitoringService(CPMMonitor(spec.grid), metrics=metrics)
    service.load_objects(source.objects)
    for qid, point in source.queries:
        service.install_query(qid, point, spec.k)
    service.install_query(source.sentinel_qid, source.SENTINEL_AT, 1)

    def enqueue(timestamp, delta) -> None:
        outbox.append((timestamp, delta))

    for qid in service.monitor.query_ids():
        service.hub.subscribe_query(qid, enqueue)
    return service


def _wire_staged(spec, seed: int, budget: float, live_p50_ms: float) -> dict:
    """Re-play the wire cycle one layer at a time, single-threaded; then
    replay the assembled batches into a twin carrying a registry."""
    source = WireStream(spec, seed)
    k = spec.k
    outbox: list = []
    service = _wire_service(source, spec, outbox)
    recorded: list = []
    _record_publishes(service.hub, recorded)
    buffer = IngestBuffer(capacity=1 << 20, policy=BackPressurePolicy.BLOCK)
    batcher = CycleBatcher()
    batcher.prime(source.objects)
    feed_end, producer_end = socket.socketpair()
    feed = SocketFeed(feed_end)
    events = feed.events()

    stages = ("socketfeed", "offer", "drain_assemble", "tick", "encode", "decode")
    per_cycle: dict[str, list[float]] = {name: [] for name in stages}
    decode_updates = encode_updates = 0.0
    rows = deltas = delta_bytes = update_bytes = offered = coalesced = 0
    batches = []
    deadline = perf_counter() + budget * 0.8
    while len(batches) < TWIN_MIN_CYCLES or perf_counter() < deadline:
        inp = source.step(len(batches))
        lines = frame_lines(inp, k)
        n_rows = len(inp.oids)
        frame_events = [
            min(ROWS_PER_FRAME, n_rows - lo) for lo in range(0, n_rows, ROWS_PER_FRAME)
        ]
        update_lines = lines[: len(frame_events)]
        frame_events += [1] * (len(lines) - len(frame_events))

        # SocketFeed.events() drained from a pre-filled socket, one frame
        # at a time (a frame always fits the socket buffer).
        staged = []
        seconds = 0.0
        for line, n_events in zip(lines, frame_events):
            producer_end.sendall(line.encode("utf-8") + b"\n")
            t0 = perf_counter()
            for _ in range(n_events):
                staged.append(next(events))
            seconds += perf_counter() - t0
        per_cycle["socketfeed"].append(seconds)

        t0 = perf_counter()
        for line in update_lines:
            wire.decode_frame(line)
        decode_updates += perf_counter() - t0
        update_bytes += sum(len(line) + 1 for line in update_lines)

        t0 = perf_counter()
        for event in staged[:-1]:  # the last event is the cycle mark
            if type(event) is ObjectUpdate:
                buffer.try_offer(event)
            else:
                buffer.offer_query(event)
        per_cycle["offer"].append(perf_counter() - t0)

        t0 = perf_counter()
        drained = buffer.drain(None)
        batch, _noops = batcher.assemble(
            drained.object_targets, drained.query_updates, inp.timestamp
        )
        per_cycle["drain_assemble"].append(perf_counter() - t0)
        offered += drained.counters.offered
        coalesced += drained.counters.coalesced

        outbox.clear()
        t0 = perf_counter()
        service.tick_flat(batch)
        per_cycle["tick"].append(perf_counter() - t0)

        t0 = perf_counter()
        encoded = [wire.encode_delta(ts, delta) for ts, delta in outbox]
        per_cycle["encode"].append(perf_counter() - t0)
        t0 = perf_counter()
        for line in encoded:
            wire.decode_frame(line)
        per_cycle["decode"].append(perf_counter() - t0)
        deltas += len(encoded)
        delta_bytes += sum(len(line) + 1 for line in encoded)

        t0 = perf_counter()
        wire.encode_updates_flat(batch)
        encode_updates += perf_counter() - t0
        rows += n_rows
        batches.append(batch)
    producer_end.close()
    feed.close()
    del service

    gc.collect()
    observed = _wire_service(source, spec, outbox, MetricsRegistry())
    observed_ticks = []
    for batch in batches:
        outbox.clear()
        t0 = perf_counter()
        observed.tick_flat(batch)
        observed_ticks.append(perf_counter() - t0)

    p50 = {name: median(values) * 1e3 for name, values in per_cycle.items()}
    rows_per_cycle = rows / len(batches)
    values = _replay_hub_and_diff(recorded, 1)
    values.update({
        "feeds.socketfeed_us_per_row": p50["socketfeed"] / rows_per_cycle * 1e3,
        "ingest.offer_us_per_row": p50["offer"] / rows_per_cycle * 1e3,
        "ingest.drain_assemble_ms": p50["drain_assemble"],
        "ingest.coalesced_share": coalesced / max(1, offered),
        "wire.decode_updates_us_per_row": decode_updates / rows * 1e6,
        "wire.encode_updates_us_per_row": encode_updates / rows * 1e6,
        "wire.encode_delta_us": sum(per_cycle["encode"]) / max(1, deltas) * 1e6,
        "wire.decode_delta_us": sum(per_cycle["decode"]) / max(1, deltas) * 1e6,
        "wire.bytes_per_update_row": update_bytes / rows,
        "wire.bytes_per_delta": delta_bytes / max(1, deltas),
        "wire_stream.unattributed_ms": live_p50_ms - sum(p50.values()),
        "obs.registry_overhead_pct": (
            median(observed_ticks) * 1e3 / p50["tick"] - 1.0
        ) * 100.0,
    })
    return values
