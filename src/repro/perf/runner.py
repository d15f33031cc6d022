"""Suite runner: replay the canonical workloads and record their counters.

For every suite case the runner materializes the workload once (all
algorithms observe byte-identical update streams, as in the paper's
methodology) and replays it once into a fresh monitor per algorithm:

* ``cell_scans`` and ``cell_accesses_per_query_per_ts`` — the Figure 6.3b
  counters;
* ``objects_scanned`` / ``results_changed`` — secondary counters;
* ``deltas_delivered`` (subscribed cases) and the ``partition_*`` traffic
  counters (sharded cases).

Every one is deterministic for a given workload, so a single replay is
the measurement and the values are byte-exact regression signals.  The
runner reads no clock: how long a replay took is ``python3 -m bench``'s
question.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.api.session import Session, replay_workload
from repro.engine.metrics import RunReport
from repro.experiments.common import build_monitor
from repro.grid.kernels import vec_cell_ids
from repro.ingest.driver import IngestDriver
from repro.ingest.feeds import WorkloadFeed
from repro.mobility.workload import Workload
from repro.monitor import ContinuousMonitor
from repro.obs.metrics import MetricsRegistry
from repro.perf.schema import BenchCase, BenchReport, environment_info
from repro.perf.suite import ALGORITHMS, SuiteCase, build_suite
from repro.service.partition import PartitionedMonitor
from repro.service.service import MonitoringService

#: the partition traffic counters a sharded case records (keys of
#: ``PartitionedMonitor.partition_stats()``, prefixed ``partition_``).
PARTITION_COUNTERS = (
    "fanout_rows",
    "sync_rows",
    "pulls",
    "pull_objects",
    "prefetch_cells",
    "evictions",
    "migrations",
)


def _case_monitor(
    case: SuiteCase, algorithm: str, bounds: tuple[float, float, float, float]
) -> ContinuousMonitor:
    """The monitor under test: bare algorithm, or the sharded service tier
    on the serial executor."""
    if case.shards:
        # The sharded tier is CPM-specific (run_suite only sweeps CPM over
        # service-layer cases).
        return PartitionedMonitor(case.shards, case.grid, bounds=bounds)
    return build_monitor(algorithm, case.grid, bounds=bounds)


def _report_counters(report: RunReport) -> dict:
    return {
        "cell_scans": report.total_cell_scans,
        "cell_accesses_per_query_per_ts": round(
            report.cell_accesses_per_query_per_timestamp, 6
        ),
        "objects_scanned": report.total_objects_scanned,
        "results_changed": report.total_results_changed,
    }


def _row(
    case: SuiteCase, workload: Workload, algorithm: str, metrics: dict, **params
) -> BenchCase:
    spec = workload.spec
    return BenchCase(
        case_id=f"{case.key}/{algorithm}",
        workload=case.workload,
        algorithm=algorithm,
        params={
            "n_objects": spec.n_objects,
            "n_queries": spec.n_queries,
            "k": spec.k,
            "grid": case.grid,
            "timestamps": spec.timestamps,
            "seed": spec.seed,
            "shards": case.shards,
            **params,
        },
        metrics=metrics,
    )


def _run_ingest_case(
    case: SuiteCase,
    workload: Workload,
    algorithm: str,
    registry: MetricsRegistry | None,
) -> BenchCase:
    """Replay one case through the full ingestion pipeline.

    The driver honors the workload feed's cycle marks, so every counter
    is byte-identical to the direct replay of the same workload.  With a
    ``registry`` the service and driver run fully instrumented — the
    configuration CI pins against the plain run (the counters must stay
    byte-identical either way).
    """
    spec = workload.spec
    monitor = build_monitor(algorithm, case.grid, bounds=spec.bounds)
    service = MonitoringService(monitor, metrics=registry)
    driver = IngestDriver(WorkloadFeed(workload), service, metrics=registry)
    driver.prime(k=spec.k)
    monitor.reset_stats()
    report = driver.run()
    stats = monitor.stats
    per_query_per_ts = (
        stats.cell_scans / (spec.n_queries * max(1, report.n_cycles))
        if spec.n_queries
        else 0.0
    )
    metrics = {
        "cell_scans": stats.cell_scans,
        "cell_accesses_per_query_per_ts": round(per_query_per_ts, 6),
        "objects_scanned": stats.objects_scanned,
        "results_changed": report.total_changed,
    }
    return _row(case, workload, algorithm, metrics, ingest=True)


def _replay_subscribed(
    case: SuiteCase,
    workload: Workload,
    monitor: ContinuousMonitor,
    registry: MetricsRegistry | None,
) -> tuple[dict, dict]:
    """Replay one case through the delta-streaming service path; returns
    its counters and the row's extra params.

    The default shape (``subscription_routing`` and the shard tier): a
    quarter of the queries (at least one) get per-query topic
    subscriptions and one firehose listens to everything — a small
    ``repro.api`` deployment.  With ``case.subscribers > 0``
    (``subscription_scale``): every query gets that many topic
    subscriptions and no firehose — tens of thousands of concurrent
    subscriptions at full scale.  Either way the grid counters are
    byte-identical to the plain replay (delta capture reads result lists,
    never the grid), and the delivered-delta count is deterministic for a
    fixed workload.
    """
    qids = sorted(workload.initial_queries)
    if case.subscribers > 0:
        watched = [qid for qid in qids for _ in range(case.subscribers)]
    else:
        watched = qids[: max(1, len(qids) // 4)]
    service = MonitoringService(monitor, metrics=registry)
    subscriptions = [
        service.hub.subscribe_query(qid, lambda ts, delta: None) for qid in watched
    ]
    if case.subscribers == 0:
        subscriptions.append(service.subscribe(lambda ts, delta: None))
    metrics = _report_counters(Session(service).replay(workload))
    metrics["deltas_delivered"] = sum(s.delivered for s in subscriptions)
    params = {
        "subscribed": True,
        "subscribers": case.subscribers,
        "watched_queries": len(watched),
    }
    return metrics, params


def run_case(
    case: SuiteCase,
    workload: Workload,
    algorithm: str,
    registry: MetricsRegistry | None = None,
) -> BenchCase:
    """Replay one (case, algorithm) pair; returns its counter row.

    Ingest cases (``case.ingest``) replay through the :mod:`repro.ingest`
    pipeline instead of the direct loop.  ``registry`` instruments the
    service-tier cases (ingest and subscribed); the bare-engine replays
    have no service around them and run unchanged either way.
    """
    if case.ingest:
        return _run_ingest_case(case, workload, algorithm, registry)
    monitor = _case_monitor(case, algorithm, workload.spec.bounds)
    try:
        if case.subscribed:
            metrics, params = _replay_subscribed(case, workload, monitor, registry)
        else:
            metrics = _report_counters(replay_workload(monitor, workload))
            params = {}
        if case.shards:
            partition = monitor.partition_stats()
            for key in PARTITION_COUNTERS:
                metrics[f"partition_{key}"] = partition[key]
    finally:
        close = getattr(monitor, "close", None)
        if close is not None:
            close()
    return _row(case, workload, algorithm, metrics, **params)


def run_suite(
    scale: float,
    *,
    suite: str = "full",
    algorithms: tuple[str, ...] = ALGORITHMS,
    annotations: dict[str, str] | None = None,
    progress: Callable[[str], None] | None = None,
    registry: MetricsRegistry | None = None,
) -> BenchReport:
    """Run the whole suite; returns the filled bench report.

    ``registry`` turns on full service/ingest instrumentation for the
    cases that have a service tier; counters accumulate across cases, so
    the registry afterwards is the run's scrape snapshot.
    """
    report = BenchReport(
        scale=scale,
        suite=suite,
        environment=environment_info(),
        annotations=dict(annotations or {}),
    )
    report.annotations.setdefault(
        "numpy_kernels", "off" if vec_cell_ids() is None else "on"
    )
    for case in build_suite(scale, suite=suite):
        workload = case.materialize()
        # Shard-scaling, ingest and subscription cases measure the
        # service/ingestion layers around one engine; sweeping every
        # baseline there would triple the suite for no extra signal.
        # They still honour the caller's algorithm filter.
        if case.shards or case.ingest or case.subscribed:
            case_algorithms = ("CPM",) if "CPM" in algorithms else ()
        else:
            case_algorithms = algorithms
        for algorithm in case_algorithms:
            row = run_case(case, workload, algorithm, registry=registry)
            report.cases.append(row)
            if progress is not None:
                progress(f"{row.case_id}: scans={row.metrics['cell_scans']}")
    return report
