"""The canonical counter workload suite.

One suite run replays a fixed set of workload cases into every monitoring
algorithm and records their deterministic counters.  The cases mirror the
paper's evaluation axes at a configurable ``scale`` (1.0 = the paper's
Table 6.1 sizes):

* ``scalability_n`` — the Figure 6.2a object-population sweep over the
  network-based (Brinkhoff-style) generator;
* ``scalability_q`` — the Figure 6.2b query-count sweep;
* ``granularity``   — the Figure 6.1 grid-granularity sensitivity (half /
  default / double cells per axis);
* ``k_sweep``       — the Figure 6.3 result-cardinality sweep;
* ``uniform``       — the Section 4.1 analysis setting (uniform random
  displacement);
* ``skewed``        — the adversarial Gaussian-hotspot workload;
* ``high_density``  — the uniform workload over a grid sized for a mean
  cell occupancy of ``HIGH_DENSITY_OCCUPANCY`` (128) objects: the only
  counter gate where every scan walks a crowded cell (the coarse end of
  the Figure 6.1 granularity trade-off, well past the ``granularity``
  sweep);
* ``partition_scaling`` — the Figure 6.2 defaults workload replayed
  into the sharded service tier (``repro.service.partition``: each shard
  owns a column block plus a halo) at S ∈ {1, 2, 4, 8} shards (serial
  executor; S=1 is the pure adapter), through the same delta-streaming
  service as ``subscription_routing``, so ``deltas_delivered`` pins the
  merge of the shards' changes.  The tier is counter-exact against the
  single engine, so the gate pins the engine's own values, plus the
  partition traffic counters (fan-out rows, halo sync rows, pulls,
  migrations);
* ``streaming_ingest`` — the defaults workload pushed through the full
  ``repro.ingest`` pipeline (feed → buffer → batcher →
  ``MonitoringService.tick_flat``) instead of the direct replay loop.
  The driver honors the feed's cycle marks, so every counter is
  byte-comparable with the plain replay;
* ``subscription_routing`` — the defaults workload replayed through a
  ``MonitoringService`` with per-query subscriptions on a quarter of the
  queries plus one firehose: the delta-streaming path of the client API
  (``repro.api``).  The grid counters stay byte-comparable with the
  plain replay (delta capture never touches the grid) and the extra
  ``deltas_delivered`` counter pins the routing;
* ``subscription_scale`` — the pub/sub stress shape: **every** query
  carries ``SuiteCase.subscribers`` per-query subscriptions (tens of
  thousands of live subscriptions at full scale).

Workload materialization is deterministic (fixed seed per case), so two
runs of the same suite at the same scale replay byte-identical update
streams — which is what makes the counters byte-comparable across code
versions.  Process-backed executors have no case here: their counters
would duplicate the serial cases', and their timing belongs to
``python3 -m bench``.

The ``smoke`` suite is the subset cheap enough for per-PR CI.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.experiments.common import make_workload, scaled_grid, scaled_spec
from repro.mobility.skewed import SkewedGenerator
from repro.mobility.uniform import UniformGenerator
from repro.mobility.workload import Workload, WorkloadSpec

ALGORITHMS = ("CPM", "YPK-CNN", "SEA-CNN")

#: paper sweep values (Figures 6.2a, 6.2b and 6.3).
PAPER_N = (10_000, 50_000, 100_000, 150_000, 200_000)
PAPER_QUERIES = (1_000, 2_000, 5_000, 7_000, 10_000)
K_SWEEP = (4, 16, 64)

#: default RNG seed of the suite (the paper's publication year).
SUITE_SEED = 2005

#: shard counts of the service-layer scaling scenario (Figure 6.2 defaults).
SHARD_SCALING = (1, 2, 4, 8)

#: the cheap subset of the shard sweep exercised by the smoke suite.
SHARD_SCALING_SMOKE = (1, 4)

#: per-query subscription multiplicity of the ``subscription_scale``
#: case: 8 × 5 000 queries = 40 000 live subscriptions at full scale.
SUBSCRIBERS_PER_QUERY = 8

#: mean objects per cell the ``high_density`` case's grid is sized for.
HIGH_DENSITY_OCCUPANCY = 128


@dataclass(slots=True, frozen=True)
class SuiteCase:
    """One workload case (replayed once per algorithm).

    ``shards > 0`` marks a service-layer case: the workload is replayed
    into a :class:`repro.service.partition.PartitionedMonitor` with that
    many shards (serial executor) instead of a bare algorithm;
    ``subscribed`` composes with it.
    ``ingest`` routes the replay through the ``repro.ingest`` pipeline
    (mark-honoring, columnar fast path) instead of the direct loop.
    ``subscribed`` replays through a delta-streaming service;
    ``subscribers > 0`` additionally attaches that many per-query topic
    subscriptions to *every* query (the ``subscription_scale`` shape).
    """

    key: str
    workload: str  # "network" | "uniform" | "skewed"
    spec: WorkloadSpec
    grid: int
    shards: int = 0
    ingest: bool = False
    subscribed: bool = False
    subscribers: int = 0

    def materialize(self) -> Workload:
        if self.workload == "network":
            return make_workload(self.spec)
        if self.workload == "uniform":
            return UniformGenerator(self.spec).generate()
        if self.workload == "skewed":
            return SkewedGenerator(self.spec).generate()
        raise ValueError(f"unknown workload kind {self.workload!r}")


def _dedup(cases: list[SuiteCase]) -> list[SuiteCase]:
    """Drop cases whose scaled parameters collapsed onto an earlier case."""
    seen: set[SuiteCase] = set()
    out: list[SuiteCase] = []
    for case in cases:
        signature = replace(case, key="")
        if signature in seen:
            continue
        seen.add(signature)
        out.append(case)
    return out


def build_suite(
    scale: float, suite: str = "full", seed: int = SUITE_SEED
) -> list[SuiteCase]:
    """The case list of one suite run (workloads not yet materialized)."""
    if suite not in ("full", "smoke"):
        raise ValueError(f"unknown suite {suite!r} (expected 'full' or 'smoke')")
    grid = scaled_grid(scale)
    default = scaled_spec(scale, seed=seed)
    cases: list[SuiteCase] = []

    # Scalability versus N (the Figure 6.2a workload family).
    for paper_n in PAPER_N:
        n_objects = max(200, round(paper_n * scale))
        cases.append(
            SuiteCase(
                key=f"scalability_n/N={n_objects}",
                workload="network",
                spec=default.replace(n_objects=n_objects),
                grid=grid,
            )
        )
    if suite == "full":
        # Scalability versus n.
        for paper_q in PAPER_QUERIES:
            n_queries = max(2, round(paper_q * scale))
            cases.append(
                SuiteCase(
                    key=f"scalability_q/n={n_queries}",
                    workload="network",
                    spec=default.replace(n_queries=n_queries),
                    grid=grid,
                )
            )
        # Grid granularity sensitivity around the scaled default.
        for factor, label in ((0.5, "half"), (1.0, "default"), (2.0, "double")):
            cells = max(4, round(grid * factor))
            cases.append(
                SuiteCase(
                    key=f"granularity/{label}",
                    workload="network",
                    spec=default,
                    grid=cells,
                )
            )
        # Result cardinality.
        for k in K_SWEEP:
            cases.append(
                SuiteCase(
                    key=f"k_sweep/k={k}",
                    workload="network",
                    spec=default.replace(k=k),
                    grid=grid,
                )
            )
    # Distribution stress cases run in both suites: they exercise the
    # update-handling hot path under very different cell occupancies.
    cases.append(
        SuiteCase(key="uniform/default", workload="uniform", spec=default, grid=grid)
    )
    cases.append(
        SuiteCase(key="skewed/default", workload="skewed", spec=default, grid=grid)
    )
    # Streaming ingestion over the defaults workload: both suites run it
    # (the ingestion tier is hot-path code, so the smoke gate must cover
    # its deterministic counters per PR).
    cases.append(
        SuiteCase(
            key="streaming_ingest/default",
            workload="network",
            spec=default,
            grid=grid,
            ingest=True,
        )
    )
    # Per-query subscription routing (the repro.api delta-streaming path):
    # the defaults workload replayed through a service with per-query
    # topics and a firehose attached, so the smoke gate covers both the
    # streamed path's deterministic counters and the delivered-delta
    # count per PR.  (The plain cases above gate the no-subscriber cheap
    # path: they replay through the same service tier with an empty hub.)
    cases.append(
        SuiteCase(
            key="subscription_routing/default",
            workload="network",
            spec=default,
            grid=grid,
            subscribed=True,
        )
    )
    # Subscription scale: every query watched by SUBSCRIBERS_PER_QUERY
    # topic subscriptions — tens of thousands of concurrent subscriptions
    # at full scale — pricing hub routing under real pub/sub fan-out.
    cases.append(
        SuiteCase(
            key="subscription_scale/default",
            workload="network",
            spec=default,
            grid=grid,
            subscribed=True,
            subscribers=SUBSCRIBERS_PER_QUERY,
        )
    )
    # Coarse-grid/high-occupancy stress: size the grid for a mean cell
    # occupancy of HIGH_DENSITY_OCCUPANCY objects.
    dense_grid = max(2, int((default.n_objects / HIGH_DENSITY_OCCUPANCY) ** 0.5))
    cases.append(
        SuiteCase(
            key="high_density/default",
            workload="uniform",
            spec=default,
            grid=dense_grid,
        )
    )
    # Service-layer shard scaling over the defaults workload (owned column
    # blocks + halo sync; counter-exact against the single engine, plus
    # the partition traffic counters).  It streams deltas, so
    # ``deltas_delivered`` gates the tier's merge of its shards' changes.
    # The shard count is clamped to the grid's column count (tiny smoke
    # grids).
    shard_counts = SHARD_SCALING if suite == "full" else SHARD_SCALING_SMOKE
    for n_shards in shard_counts:
        if n_shards > grid:
            continue
        cases.append(
            SuiteCase(
                key=f"partition_scaling/S={n_shards}",
                workload="network",
                spec=default,
                grid=grid,
                shards=n_shards,
                subscribed=True,
            )
        )
    return _dedup(cases)
