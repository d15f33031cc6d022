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
  coalescing per object, staging a chunk under one lock acquisition by
  extending its own target columns;
* :mod:`repro.ingest.batcher` — the :class:`CycleBatcher` re-basing
  buffered target positions against a columnar shadow table into
  consistent columnar :class:`repro.updates.FlatUpdateBatch`
  transitions;
* :mod:`repro.ingest.driver` — the :class:`IngestDriver` pumping the
  pipeline on cycle deadlines/batch-size triggers (optionally on a
  background thread) and reporting per-cycle ingest stats.

**Columns end to end.**  On the wire an ``updates`` frame is one JSON
line, ``{"v":5,"t":"updates","n":N,"cols":"..."}``, whose ``cols`` is
the base64 of the ``42 * N``-byte little-endian column block (i64 oids;
f64 old x, old y, new x, new y; u8 appear and disappear flags), about
56.2 bytes per row at 256 rows a frame where v4's JSON rows took 88.9.
:class:`SocketFeed` decodes it into one ``FlatUpdateBatch`` chunk
(one base64 decode, one ``frombytes`` per column), the buffer extends
its columns with the chunk's target columns plus one ``dict.update``
from oid to row, a drain gathers the live rows, and the batcher
assembles the cycle's batch with C-level ``map`` / ``compress`` over
columns.  No Python value per row is built on that path; the per-row
views (:meth:`UpdateFeed.events`, :meth:`IngestBuffer.try_offer`,
iterating a drain's :class:`~repro.ingest.buffer.Targets`,
:meth:`CycleBatcher.assemble` on ``(oid, target)`` pairs) stay for
row-at-a-time callers.
"""

from repro.ingest.batcher import CycleBatcher
from repro.ingest.buffer import (
    BackPressurePolicy,
    BufferCounters,
    DrainedCycle,
    IngestBuffer,
    Targets,
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
    "Targets",
    "ThreadedFeedPump",
    "UpdateFeed",
    "WorkloadFeed",
    "push_feed_to_socket",
    "write_jsonl_trace",
]
