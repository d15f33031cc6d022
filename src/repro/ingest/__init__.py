"""Streaming update ingestion: feed -> buffer -> batcher -> service.

The paper's input model is a continuous stream of location updates
processed in periodic cycles; the rest of the library replays
pre-materialized workloads.  This package is the tier in between — it
turns a live (or replayed) update feed into the per-cycle batches a
:class:`repro.service.service.MonitoringService` consumes:

* :mod:`repro.ingest.feeds` — update sources (:class:`UpdateFeed`):
  materialized workloads, live generator-backed feeds, JSONL traces and
  wire-protocol sockets (:class:`SocketFeed`, speaking the
  :mod:`repro.api.wire` frames, one columnar chunk per ``updates``
  frame);
* :mod:`repro.ingest.buffer` — the bounded :class:`IngestBuffer` with
  explicit back-pressure (block / drop-oldest) and last-write-wins
  coalescing per object, staging a chunk under one lock acquisition;
* :mod:`repro.ingest.batcher` — the :class:`CycleBatcher` re-basing
  buffered target positions into consistent columnar
  :class:`repro.updates.FlatUpdateBatch` transitions;
* :mod:`repro.ingest.driver` — the :class:`IngestDriver` pumping the
  pipeline on cycle deadlines/batch-size triggers (optionally on a
  background thread) and reporting per-cycle ingest stats.
"""

from repro.ingest.batcher import CycleBatcher
from repro.ingest.buffer import (
    BackPressurePolicy,
    BufferCounters,
    DrainedCycle,
    IngestBuffer,
)
from repro.ingest.driver import (
    CycleIngestStats,
    IngestDriver,
    IngestReport,
    ThreadedFeedPump,
)
from repro.ingest.feeds import (
    CycleMark,
    GeneratorFeed,
    JsonlTraceFeed,
    SocketFeed,
    UpdateFeed,
    WorkloadFeed,
    push_feed_to_socket,
    write_jsonl_trace,
)

__all__ = [
    "BackPressurePolicy",
    "BufferCounters",
    "CycleBatcher",
    "CycleIngestStats",
    "CycleMark",
    "DrainedCycle",
    "GeneratorFeed",
    "IngestBuffer",
    "IngestDriver",
    "IngestReport",
    "JsonlTraceFeed",
    "SocketFeed",
    "ThreadedFeedPump",
    "UpdateFeed",
    "WorkloadFeed",
    "push_feed_to_socket",
    "write_jsonl_trace",
]
