#!/usr/bin/env python
"""Live dashboard: delta streams, health telemetry and a scrape endpoint.

Builds an instrumented pipeline over a skewed (hotspot) workload: a
2-shard monitor wrapped in a :class:`MonitoringService`, driven by an
:class:`IngestDriver` whose deliberately small DROP_OLDEST buffer sheds
load — so the tiered health policy's drop-rate rule fires soft alerts
while the run keeps going.  Three queries stream onto the dashboard as
pre-chewed deltas (who entered, who left, who merely reordered), every
published delta is verified against a snapshot diff of the monitor's
result table, and the run's health surfaces three ways that must agree:

* per-cycle alert lines as the health monitor emits them,
* the service health snapshot rendered after the run,
* a Prometheus scrape over a real socket, parsed back and compared
  key-for-key against the in-process registry.

Exit code != 0 on any delta mismatch, missing alert, counter/report
disagreement, or scrape divergence.

Run:  python examples/live_dashboard.py
"""

from __future__ import annotations

from repro.ingest.buffer import BackPressurePolicy, IngestBuffer
from repro.ingest.driver import CycleIngestStats, IngestDriver
from repro.ingest.feeds import WorkloadFeed
from repro.mobility.skewed import SkewedGenerator
from repro.mobility.workload import WorkloadSpec
from repro.obs.health import AlertEvent, DropRateSpike, HealthPolicy
from repro.obs.metrics import MetricsRegistry
from repro.obs.scrape import ScrapeServer, parse_prometheus, scrape_text
from repro.service.deltas import ResultDelta, diff_results
from repro.service.partition import PartitionedMonitor
from repro.service.service import MonitoringService


def describe(timestamp: int | None, delta: ResultDelta) -> str:
    """One dashboard line per delta."""
    when = "install" if timestamp is None else f"t={timestamp}"
    if delta.terminated:
        return f"[{when}] q{delta.qid}: terminated ({len(delta.outgoing)} drained)"
    parts = []
    for dist, oid in delta.incoming:
        parts.append(f"+obj{oid}@{dist:.3f}")
    for dist, oid in delta.outgoing:
        parts.append(f"-obj{oid}@{dist:.3f}")
    if delta.reordered:
        parts.append("~reordered")
    change = " ".join(parts) if parts else "(no change)"
    nearest = delta.result[0] if delta.result else None
    tail = f"; nearest obj{nearest[1]}@{nearest[0]:.3f}" if nearest else ""
    return f"[{when}] q{delta.qid}: {change}{tail}"


def stable(snapshot: dict) -> dict:
    """Strip the wall-clock series before comparing scrape vs registry."""
    return {k: v for k, v in snapshot.items() if "staleness" not in k}


def main() -> None:
    spec = WorkloadSpec(
        n_objects=600,
        n_queries=12,
        k=4,
        timestamps=8,
        seed=42,
        object_agility=0.6,
        query_agility=0.0,
    )
    workload = SkewedGenerator(spec).generate()

    registry = MetricsRegistry()
    monitor = PartitionedMonitor(2, cells_per_axis=32)
    service = MonitoringService(monitor, metrics=registry)

    # Watch three of the queries on the dashboard.  Subscribing to their
    # topics *before* priming means even the install snapshots stream in
    # as all-incoming deltas.
    watched = sorted(workload.initial_queries)[:3]
    lines: list[str] = []
    dashboard = service.subscribe(
        lambda ts, delta: lines.append(describe(ts, delta)), qids=watched
    )
    # The verifier sees everything, no-op deltas included.
    published: dict[int, ResultDelta] = {}
    verifier = service.subscribe(
        lambda ts, delta: published.__setitem__(delta.qid, delta),
        include_unchanged=True,
    )

    mismatches = 0
    previous: dict[int, list] = {}

    def on_cycle(stats: CycleIngestStats) -> None:
        """Verify the cycle's stream, then render the dashboard lines."""
        nonlocal mismatches, previous
        current = monitor.result_table()
        for qid, delta in published.items():
            reference = diff_results(
                qid,
                previous.get(qid, []),
                current.get(qid, []),
                terminated=delta.terminated,
            )
            if delta != reference:
                mismatches += 1
        published.clear()
        previous = current
        for line in lines:
            print(line)
        lines.clear()
        if stats.dropped:
            print(
                f"  load shed at t={stats.timestamp}: {stats.offered} offered, "
                f"{stats.dropped} dropped, {stats.applied} applied"
            )

    alerts: list[AlertEvent] = []

    def on_alert(event: AlertEvent) -> None:
        alerts.append(event)
        print(f"  ALERT [{event.level}] {event.rule}: {event.message}")

    # A buffer an order of magnitude smaller than a cycle's update volume:
    # DROP_OLDEST keeps the pipeline live and the drop-rate rule alerting.
    driver = IngestDriver(
        WorkloadFeed(workload),
        service,
        buffer=IngestBuffer(capacity=64, policy=BackPressurePolicy.DROP_OLDEST),
        metrics=registry,
        health=HealthPolicy(rules=(DropRateSpike(max_rate=0.05, min_offered=10),)),
        on_alert=on_alert,
        on_cycle=on_cycle,
    )
    driver.prime(k=spec.k)
    # The installs streamed as all-incoming deltas; verification starts
    # from the post-prime table, so drop them from the pending set.
    published.clear()
    previous = monitor.result_table()

    print(
        f"watching queries {watched} on {monitor.n_shards} shards "
        f"(query load per shard: {monitor.shard_query_counts()})"
    )
    for line in lines:
        print(line)
    lines.clear()

    report = driver.run()

    # The handle-free view: the monitor agrees with the delta-built picture.
    nearest = monitor.result(watched[0])[0]
    print(f"q{watched[0]} final snapshot: nearest obj{nearest[1]}@{nearest[0]:.3f}")

    health = service.health_snapshot()
    print(
        "health snapshot: "
        + ", ".join(f"{key}={value}" for key, value in sorted(health.items()))
    )
    print(
        f"run complete: {report.n_cycles} cycles, "
        f"{report.total_offered} offered / {report.total_applied} applied "
        f"({report.total_dropped} dropped, {report.total_coalesced} coalesced), "
        f"{dashboard.delivered} dashboard deltas, {len(report.alerts)} soft alerts, "
        f"{mismatches} mismatching deltas"
    )

    # The scrape path: what a Prometheus poller sees over the socket must
    # equal the in-process registry, key for key.
    with ScrapeServer(registry) as scrape_server:
        body = scrape_text(scrape_server.host, scrape_server.port)
    scraped = parse_prometheus(body)
    scrape_ok = stable(scraped) == stable(registry.snapshot())
    ticks = scraped.get("repro_service_ticks_total", 0)
    print(
        f"scrape: {len(scraped)} series from {scrape_server.host}:"
        f"{scrape_server.port}, ticks={ticks}, "
        f"matches registry: {scrape_ok}"
    )

    dashboard.close()
    verifier.close()
    failures = []
    if mismatches:
        failures.append(f"{mismatches} deltas diverged from snapshot diffs")
    if not report.alerts or report.alerts != alerts:
        failures.append("drop-rate soft alerts missing or unrelayed")
    if any(event.level != "soft" for event in alerts):
        failures.append("a hard alert fired in a soft-only policy")
    if health["ticks"] != report.n_cycles or not ticks:
        failures.append("health snapshot disagrees with the run report")
    if registry.snapshot()["repro_ingest_dropped_total"] != report.total_dropped:
        failures.append("registry drop counter disagrees with the report")
    if not scrape_ok:
        failures.append("remote scrape diverged from the registry")
    if failures:
        print("FAILED: " + "; ".join(failures))
        raise SystemExit(1)


if __name__ == "__main__":
    main()
