"""The ingest driver: feed -> buffer -> batcher -> monitoring service.

One :class:`IngestDriver` owns the whole pipeline and pumps it cycle by
cycle.  A cycle closes on the first of three triggers:

* **mark** — the feed emitted a :class:`repro.ingest.feeds.CycleMark` and
  the driver honors source cycles (deterministic replay: the resulting
  stream of batches — and therefore every deterministic counter — is
  byte-identical to a plain workload replay);
* **size** — ``max_batch`` distinct objects are staged;
* **deadline** — ``cycle_deadline`` seconds elapsed since the cycle
  started (real-time operation; a feed that outruns the deadline shows up
  as coalesced/dropped counts in the stats, not as an error).

Each closed cycle drains the buffer, assembles one columnar
:class:`repro.updates.FlatUpdateBatch` and hands it to
:meth:`repro.service.service.MonitoringService.tick_report`; the per-cycle
:class:`CycleIngestStats` aggregates into an :class:`IngestReport`.

The driver reads :meth:`repro.ingest.feeds.UpdateFeed.chunks`: feed
events plus *chunks*, runs of object rows that arrive as one
``FlatUpdateBatch`` (a :class:`repro.ingest.feeds.SocketFeed` yields one
per ``updates`` frame).  A chunk is staged under one buffer lock
acquisition and counts as one feed item for the deadline check.  A size
trigger, or a full BLOCK buffer, inside a chunk stages exactly the rows
before it would have fired row by row and carries the rest into the next
cycle, so the cycles cut, the batches and every counter equal those of
feeding the same rows one at a time.  Any other item is a feed bug and
raises ``TypeError`` before it is staged.

Two source modes:

* **pull** (default) — the driver iterates the feed itself, applying
  back-pressure implicitly (it simply stops pulling while it processes);
* **buffered** — a :class:`ThreadedFeedPump` pushes the feed into the
  buffer from its own thread while the driver drains on its own cadence;
  this is where the buffer's BLOCK/DROP_OLDEST policies do real work.

``start()`` runs the pump loop on a background thread for interactive
deployments; ``run()`` drives it synchronously.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from repro.ingest.batcher import CycleBatcher
from repro.ingest.buffer import BackPressurePolicy, IngestBuffer
from repro.ingest.feeds import CycleMark, FeedItem, UpdateFeed
from repro.obs.health import (
    AlertEvent,
    HealthMonitor,
    HealthPolicy,
    HealthSample,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import SpanRecorder
from repro.service.service import MonitoringService
from repro.updates import FlatUpdateBatch, ObjectUpdate, QueryUpdate


@dataclass(slots=True)
class CycleIngestStats:
    """Ingest-side accounting of one driven cycle."""

    #: driver cycle ordinal (0-based).
    cycle: int
    #: cycle label: the honored mark's timestamp, else the ordinal.
    timestamp: int
    #: what closed the cycle: "mark" | "size" | "deadline" | "drain"
    #: (buffered mode woke with work but no configured trigger fired) |
    #: "end" (feed exhausted).
    trigger: str
    #: object updates offered by the feed during this cycle.
    offered: int
    #: offers coalesced into a pending object (last-write-wins).
    coalesced: int
    #: pending objects shed by DROP_OLDEST back-pressure.
    dropped: int
    #: producer waits on a full buffer (BLOCK back-pressure).
    blocked: int
    #: rows in the applied batch.
    applied: int
    #: drained targets that assembled to nothing (unchanged position or
    #: in-buffer appear/disappear annihilation).
    noops: int
    query_updates: int
    #: queries whose result changed.
    changed: int
    #: the cycle missed its cadence: an early-triggered (mark/size/drain)
    #: cycle failed to finish within one deadline period, or a
    #: deadline-triggered cycle's post-trigger work (drain + assemble +
    #: tick) consumed more than a further full period.  (A
    #: deadline-triggered cycle necessarily *ends* past the deadline, so
    #: raw elapsed time would flag every one of them and carry no signal.)
    deadline_overrun: bool
    #: wall-clock spent pulling/draining/assembling.
    ingest_sec: float
    #: wall-clock spent inside the service tick (monitor processing plus
    #: delta diffing plus, when streaming, the subscriber fan-out — the
    #: sum of ``TickReport.process_sec`` and ``TickReport.publish_sec``).
    process_sec: float


@dataclass(slots=True)
class IngestReport:
    """Aggregated stats of one driver run."""

    cycles: list[CycleIngestStats] = field(default_factory=list)
    #: the run died on an exception (feed/service failure, or a *hard*
    #: health violation — a :class:`repro.obs.health.HealthError`)
    #: instead of ending; ``error`` carries its repr.  A background run
    #: records the failure here and :meth:`IngestDriver.stop` re-raises
    #: it.
    failed: bool = False
    error: str | None = None
    #: soft health alerts emitted during the run (``health`` attached).
    alerts: list[AlertEvent] = field(default_factory=list)
    #: cross-partition traffic counters when the monitor is partitioned
    #: (:meth:`repro.service.partition.PartitionedMonitor.partition_stats`,
    #: snapshotted at the end of the run), else ``None``.
    partition: dict[str, int] | None = None

    @property
    def n_cycles(self) -> int:
        return len(self.cycles)

    @property
    def total_offered(self) -> int:
        return sum(c.offered for c in self.cycles)

    @property
    def total_applied(self) -> int:
        return sum(c.applied for c in self.cycles)

    @property
    def total_coalesced(self) -> int:
        return sum(c.coalesced for c in self.cycles)

    @property
    def total_dropped(self) -> int:
        return sum(c.dropped for c in self.cycles)

    @property
    def total_changed(self) -> int:
        return sum(c.changed for c in self.cycles)

    @property
    def deadline_overruns(self) -> int:
        return sum(1 for c in self.cycles if c.deadline_overrun)

    @property
    def total_ingest_sec(self) -> float:
        return sum(c.ingest_sec for c in self.cycles)

    @property
    def total_process_sec(self) -> float:
        return sum(c.process_sec for c in self.cycles)


_END = object()


class IngestDriver:
    """Pumps one feed through a buffer/batcher into a monitoring service.

    Args:
        feed: the update source.
        service: the service whose monitor consumes the cycles.
        buffer: staging buffer; a fresh unbounded-ish default otherwise.
        max_batch: close a cycle once this many distinct objects are
            staged (``None`` = no size trigger).
        cycle_deadline: close a cycle after this many seconds (``None`` =
            no deadline; required for byte-deterministic replay).
        honor_marks: close cycles on the feed's own :class:`CycleMark`
            boundaries (on by default; turn off to re-cut a marked feed
            purely by size/deadline).
        record: keep every applied :class:`FlatUpdateBatch` in
            :attr:`recorded` (the offline-replay verification hook).
        clock: time source for deadlines (monotonic seconds); injectable
            for deterministic tests.
        on_cycle: optional per-cycle callback (stats dashboards).
        metrics: optional :class:`repro.obs.metrics.MetricsRegistry`; the
            driver exports per-cycle counters (offered / coalesced /
            dropped / applied / changed / overruns), buffer occupancy
            and feed-staleness gauges, and phase-timing histograms.
            ``None`` (the default) leaves the hot path untouched.
        health: a :class:`repro.obs.health.HealthPolicy` (or a prebuilt
            :class:`~repro.obs.health.HealthMonitor`) evaluated on every
            cycle.  Hard violations raise through the pump loop (a
            background run surfaces them as ``report.failed``/``error``);
            soft alerts collect on ``report.alerts``.
        on_alert: callback for soft alerts (wire export hooks in the
            socket server); implies nothing without ``health``.
        fault_hook: test seam called with the cycle ordinal at the start
            of every cycle (:meth:`repro.testing.faults.FaultPlan.ingest_hook`).
        queue_depth_probe / reconnect_probe: optional callables sampled
            into the cycle's :class:`~repro.obs.health.HealthSample`
            (outbound fan-out depth, cumulative transport reconnects) —
            how downstream tiers feed the health rules.
    """

    def __init__(
        self,
        feed: UpdateFeed,
        service: MonitoringService,
        *,
        buffer: IngestBuffer | None = None,
        max_batch: int | None = None,
        cycle_deadline: float | None = None,
        honor_marks: bool = True,
        record: bool = False,
        clock: Callable[[], float] = time.monotonic,
        on_cycle: Callable[[CycleIngestStats], None] | None = None,
        metrics: MetricsRegistry | None = None,
        health: HealthPolicy | HealthMonitor | None = None,
        on_alert: Callable[[AlertEvent], None] | None = None,
        fault_hook: Callable[[int], None] | None = None,
        queue_depth_probe: Callable[[], int] | None = None,
        reconnect_probe: Callable[[], int] | None = None,
    ) -> None:
        self.feed = feed
        self.service = service
        self.buffer = buffer if buffer is not None else IngestBuffer(
            capacity=1 << 20, policy=BackPressurePolicy.BLOCK
        )
        self.max_batch = max_batch
        self.cycle_deadline = cycle_deadline
        self.honor_marks = honor_marks
        self.record = record
        self.clock = clock
        self.on_cycle = on_cycle
        self.batcher = CycleBatcher()
        self.report = IngestReport()
        #: applied columnar batches, when ``record`` is set.
        self.recorded: list[FlatUpdateBatch] = []
        self._items: Iterator[FeedItem] | None = None
        #: pull-mode chunk remainder ``(chunk, first unstaged row)`` left
        #: by a size trigger or a full BLOCK buffer inside the chunk:
        #: staged first thing next cycle.
        self._carry: tuple[FlatUpdateBatch, int] | None = None
        self._primed = False
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: exception that killed a background run (re-raised by stop()).
        self.failure: BaseException | None = None
        self.fault_hook = fault_hook
        self._queue_depth_probe = queue_depth_probe
        self._reconnect_probe = reconnect_probe
        self.metrics = metrics
        if isinstance(health, HealthMonitor):
            self.health: HealthMonitor | None = health
        elif health is not None:
            self.health = HealthMonitor(
                health, registry=metrics, on_alert=on_alert
            )
        else:
            self.health = None
        #: monotonic clock reading of the last cycle that applied rows
        #: (feed freshness: staleness = clock() - this).
        self._last_apply_at: float | None = None
        if metrics is not None:
            self._spans = SpanRecorder(metrics)
            self._m = {
                name: metrics.counter(f"repro_ingest_{name}_total", help_text)
                for name, help_text in (
                    ("cycles", "Driver cycles completed."),
                    ("offered", "Object updates offered by the feed."),
                    ("coalesced", "Offers coalesced into pending objects."),
                    ("dropped", "Pending objects shed by DROP_OLDEST."),
                    ("applied", "Rows applied to the monitor."),
                    ("changed", "Query results changed."),
                    ("deadline_overruns", "Cycles that missed their cadence."),
                )
            }
            metrics.gauge_fn(
                "repro_ingest_buffer_pending",
                lambda: self.buffer.pending,
                "Object updates staged in the ingest buffer.",
            )
            metrics.gauge_fn(
                "repro_ingest_buffer_capacity",
                lambda: self.buffer.capacity,
                "Ingest buffer capacity.",
            )
            metrics.gauge_fn(
                "repro_ingest_feed_staleness_seconds",
                self._staleness,
                "Seconds since the last cycle that applied rows.",
            )
            self._g_timestamp = metrics.gauge(
                "repro_ingest_last_timestamp",
                "Cycle label of the newest applied batch (stream time).",
            )
        else:
            self._spans = None
            self._m = None
            self._g_timestamp = None

    def _staleness(self) -> float:
        if self._last_apply_at is None:
            return 0.0
        return self.clock() - self._last_apply_at

    # ------------------------------------------------------------------
    # Priming
    # ------------------------------------------------------------------

    def prime(self, k: int = 1) -> None:
        """Load the feed's initial populations into the service.

        Objects bulk-load (and seed the batcher's shadow table); queries
        install with ``k`` neighbors — a feed carrying per-query ``k``
        (see :meth:`UpdateFeed.install_k`, e.g. a recorded trace)
        overrides the argument.
        """
        if self._primed:
            raise RuntimeError("driver already primed")
        initial_objects = self.feed.initial_objects()
        if initial_objects:
            items = sorted(initial_objects.items())
            self.service.load_objects(items)
            self.batcher.prime(items)
        for qid, point in sorted(self.feed.initial_queries().items()):
            self.service.install_query(qid, point, self.feed.install_k(qid, k))
        self._primed = True

    # ------------------------------------------------------------------
    # The pump
    # ------------------------------------------------------------------

    def _fill_from_feed(self, cycle_start: float) -> tuple[str, int | None]:
        """Pull feed items until a cycle trigger fires (pull mode).

        Returns ``(trigger, mark_timestamp)``.

        Offers never block here: the pull loop is the only thread that
        could drain the buffer, so a blocking offer on a full BLOCK
        buffer would deadlock.  A full buffer instead closes the cycle
        (trigger ``"size"``); so does ``max_batch`` staged objects.
        Either can fire inside a chunk: the rows up to that point are
        staged and the rest of the chunk carries into the next cycle,
        which starts with a freshly drained buffer.  The deadline is
        checked between feed items, so a chunk counts as one item.
        """
        if self._items is None:
            self._items = self.feed.chunks()
        items = self._items
        buffer = self.buffer
        max_batch = self.max_batch
        deadline = self.cycle_deadline
        clock = self.clock
        if self._carry is not None:
            chunk, row = self._carry
            self._carry = None
            if self._stage(chunk, row):
                return "size", None
        while True:
            item = next(items, _END)
            if item is _END:
                return "end", None
            kind = type(item)
            if kind is FlatUpdateBatch:
                if self._stage(item, 0):
                    return "size", None
            elif kind is ObjectUpdate:
                pending = buffer.try_offer(item)
                if not pending:
                    self._carry = (FlatUpdateBatch.from_updates((item,)), 0)
                    return "size", None
                if max_batch is not None and pending >= max_batch:
                    return "size", None
            elif kind is QueryUpdate:
                buffer.offer_query(item)
            elif kind is CycleMark:
                if self.honor_marks:
                    return "mark", item.timestamp
                continue
            else:
                raise _not_a_feed_item(item)
            if deadline is not None and clock() - cycle_start >= deadline:
                return "deadline", None

    def _stage(self, chunk: FlatUpdateBatch, row: int) -> bool:
        """Stage ``chunk[row:]`` without blocking; True when the size
        trigger fired (the unstaged remainder, if any, is carried)."""
        max_batch = self.max_batch
        end, pending = self.buffer.try_offer_rows(chunk, row, max_batch)
        if end < len(chunk):
            self._carry = (chunk, end)
            return True
        return max_batch is not None and pending >= max_batch

    def _wait_on_buffer(self, cycle_start: float) -> str:
        """Wait for staged work until a trigger fires (buffered mode)."""
        buffer = self.buffer
        clock = self.clock
        max_batch = self.max_batch
        deadline = (
            None
            if self.cycle_deadline is None
            else cycle_start + self.cycle_deadline
        )
        if deadline is not None:
            # Deadline cadence (optionally with a size trigger): keep
            # accumulating — query updates included — until the batch
            # fills, the deadline elapses, or the producer closes.
            # buffer.wait wakes on every offer; each wake just re-checks.
            while True:
                if max_batch is not None and buffer.pending >= max_batch:
                    return "size"
                if buffer.closed:
                    if not buffer.pending and not buffer.pending_queries:
                        return "end"
                    return "drain"
                remaining = deadline - clock()
                if remaining <= 0:
                    return "deadline"
                buffer.wait(remaining)
        if max_batch is not None:
            buffer.wait_for_work(count=max_batch, deadline=None, clock=clock)
            if buffer.pending >= max_batch:
                return "size"
            if buffer.closed and not buffer.pending and not buffer.pending_queries:
                return "end"
            # Woke early: producer closed with leftovers, or a query
            # update arrived (order-sensitive, flushed promptly when no
            # deadline bounds its latency).
            return "drain"
        # No triggers configured: one cycle per batch of whatever shows up.
        buffer.wait_for_work(count=1, deadline=None, clock=clock)
        if buffer.closed and not buffer.pending and not buffer.pending_queries:
            return "end"
        return "drain"

    def pump_cycle(self, *, from_buffer: bool = False) -> CycleIngestStats | None:
        """Drive one cycle; returns its stats, or ``None`` at stream end.

        ``from_buffer`` selects buffered mode (a producer thread owns the
        feed); the default pulls from the feed inline.
        """
        clock = self.clock
        ordinal = len(self.report.cycles)
        cycle_start = clock()
        if self.fault_hook is not None:
            self.fault_hook(ordinal)
        if from_buffer:
            trigger = self._wait_on_buffer(cycle_start)
            mark_ts = None
        else:
            trigger, mark_ts = self._fill_from_feed(cycle_start)
        trigger_elapsed = clock() - cycle_start
        drained = self.buffer.drain(self.max_batch)
        drain_done = clock()
        if trigger == "end" and not drained.object_targets and not drained.query_updates:
            return None
        timestamp = mark_ts if mark_ts is not None else ordinal
        batch, noops = self.batcher.assemble(
            drained.object_targets, drained.query_updates, timestamp
        )
        ingest_sec = clock() - cycle_start
        if self.record:
            self.recorded.append(batch)
        tick = self.service.tick_report(batch)
        elapsed = clock() - cycle_start
        if self._spans is not None:
            self._spans.record("drain", drain_done - cycle_start)
            self._spans.record("assemble", ingest_sec - (drain_done - cycle_start))
            self._spans.record("process", tick.process_sec)
            self._spans.record("publish", tick.publish_sec)
        if self.cycle_deadline is None:
            overrun = False
        elif trigger == "deadline":
            # The fill/wait phase ends at the deadline by construction;
            # overrun means the post-trigger work alone ate a further
            # full period.
            overrun = (elapsed - trigger_elapsed) > self.cycle_deadline
        else:
            overrun = elapsed > self.cycle_deadline
        stats = CycleIngestStats(
            cycle=ordinal,
            timestamp=timestamp,
            trigger=trigger,
            offered=drained.counters.offered,
            coalesced=drained.counters.coalesced,
            dropped=drained.counters.dropped,
            blocked=drained.counters.blocked,
            applied=len(batch),
            noops=noops,
            query_updates=len(batch.query_updates),
            changed=len(tick.changed),
            deadline_overrun=overrun,
            ingest_sec=ingest_sec,
            process_sec=tick.process_sec + tick.publish_sec,
        )
        self.report.cycles.append(stats)
        if self._m is not None:
            self._observe_cycle(stats)
        if self.on_cycle is not None:
            self.on_cycle(stats)
        if self.health is not None:
            # After on_cycle: a hard violation propagates with the cycle
            # already recorded and reported.
            self.report.alerts.extend(
                self.health.observe(self._health_sample(stats))
            )
        return stats

    def _observe_cycle(self, stats: CycleIngestStats) -> None:
        counters = self._m
        counters["cycles"].inc()
        counters["offered"].inc(stats.offered)
        counters["coalesced"].inc(stats.coalesced)
        counters["dropped"].inc(stats.dropped)
        counters["applied"].inc(stats.applied)
        counters["changed"].inc(stats.changed)
        if stats.deadline_overrun:
            counters["deadline_overruns"].inc()
        if stats.applied or stats.query_updates:
            self._last_apply_at = self.clock()
            self._g_timestamp.set(stats.timestamp)

    def _health_sample(self, stats: CycleIngestStats) -> HealthSample:
        return HealthSample(
            cycle=stats.cycle,
            timestamp=float(stats.timestamp),
            trigger=stats.trigger,
            offered=stats.offered,
            coalesced=stats.coalesced,
            dropped=stats.dropped,
            applied=stats.applied,
            changed=stats.changed,
            deadline_overrun=stats.deadline_overrun,
            ingest_sec=stats.ingest_sec,
            process_sec=stats.process_sec,
            buffer_pending=self.buffer.pending,
            buffer_capacity=self.buffer.capacity,
            queue_depth=(
                0
                if self._queue_depth_probe is None
                else self._queue_depth_probe()
            ),
            reconnects=(
                0
                if self._reconnect_probe is None
                else self._reconnect_probe()
            ),
        )

    def run(
        self, max_cycles: int | None = None, *, from_buffer: bool = False
    ) -> IngestReport:
        """Pump cycles until the feed ends (or ``max_cycles``)."""
        while max_cycles is None or len(self.report.cycles) < max_cycles:
            if self._stop.is_set():
                break
            if self.pump_cycle(from_buffer=from_buffer) is None:
                break
        monitor = getattr(self.service, "monitor", None)
        partition_stats = getattr(monitor, "partition_stats", None)
        if partition_stats is not None:
            self.report.partition = dict(partition_stats())
        return self.report

    # ------------------------------------------------------------------
    # Background operation
    # ------------------------------------------------------------------

    def start(
        self, max_cycles: int | None = None, *, from_buffer: bool = False
    ) -> None:
        """Run the pump loop on a daemon thread (see :meth:`stop`)."""
        if self._thread is not None:
            raise RuntimeError("driver already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run_background,
            args=(max_cycles, from_buffer),
            name="ingest-driver",
            daemon=True,
        )
        self._thread.start()

    def _run_background(self, max_cycles: int | None, from_buffer: bool) -> None:
        """Thread body: a crash must not die silently — it is recorded on
        the report (``failed``/``error``) and re-raised by :meth:`stop`."""
        try:
            self.run(max_cycles, from_buffer=from_buffer)
        except BaseException as exc:  # noqa: BLE001 - surfaced via stop()
            self.failure = exc
            self.report.failed = True
            self.report.error = repr(exc)

    def stop(self, timeout: float | None = 5.0) -> IngestReport:
        """Signal the background loop to finish, join it, and re-raise
        the exception that killed it, if one did."""
        self._stop.set()
        self.buffer.close()  # wake a blocked consumer wait
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
            self._thread = None
        if self.failure is not None:
            failure, self.failure = self.failure, None
            raise failure
        return self.report


def _not_a_feed_item(item) -> TypeError:
    return TypeError(
        f"feed yielded a {type(item).__name__!r}, not an ObjectUpdate, "
        "QueryUpdate, CycleMark or FlatUpdateBatch chunk"
    )


class ThreadedFeedPump:
    """Producer thread pushing a feed into an :class:`IngestBuffer`.

    The live half of buffered mode: it reads :meth:`UpdateFeed.chunks`,
    ignores cycle marks (the driver re-cuts cycles by size/deadline) and
    stages object rows through :meth:`IngestBuffer.offer_rows`, a chunk
    at a time — so a full buffer exerts real back-pressure on this
    thread (BLOCK) or sheds stale positions (DROP_OLDEST).
    ``max_events`` caps the rows and query updates pushed, checked
    between feed items (a chunk counts whole); ``None`` pushes the
    whole feed as fast as the buffer accepts.
    """

    def __init__(
        self,
        feed: UpdateFeed,
        buffer: IngestBuffer,
        *,
        max_events: int | None = None,
        offer_timeout: float = 0.05,
    ) -> None:
        self.feed = feed
        self.buffer = buffer
        self.max_events = max_events
        self.offer_timeout = offer_timeout
        self.pushed = 0
        #: exception that killed the producer thread (re-raised by stop()).
        self.failure: BaseException | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def failed(self) -> bool:
        return self.failure is not None

    def _run(self) -> None:
        buffer = self.buffer
        try:
            for item in self.feed.chunks():
                if self._stop.is_set():
                    break
                if self.max_events is not None and self.pushed >= self.max_events:
                    break
                kind = type(item)
                if kind is CycleMark:
                    continue
                if kind is QueryUpdate:
                    buffer.offer_query(item)
                    self.pushed += 1
                    continue
                if kind is ObjectUpdate:
                    n = 1
                    while not buffer.offer(item, timeout=self.offer_timeout):
                        if self._given_up():
                            return
                elif kind is FlatUpdateBatch:
                    n = len(item)
                    row = 0
                    while row < n:
                        row = buffer.offer_rows(item, row, self.offer_timeout)
                        if row < n and self._given_up():
                            return
                else:
                    raise _not_a_feed_item(item)
                self.pushed += n
        except BaseException as exc:  # noqa: BLE001 - surfaced via stop()
            # A dying feed must not fail silently: record the reason —
            # the buffer close below still unblocks the consumer, which
            # otherwise would see a clean early end of stream.
            self.failure = exc
        finally:
            self.buffer.close()

    def _given_up(self) -> bool:
        """After an offer timed out: stop retrying?  A closed buffer
        rejects instantly (nobody will drain it again), so retrying
        would spin forever."""
        return self._stop.is_set() or self.buffer.closed

    def start(self) -> "ThreadedFeedPump":
        if self._thread is not None:
            raise RuntimeError("pump already started")
        self._thread = threading.Thread(
            target=self._run, name="ingest-feed-pump", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float | None = 5.0) -> None:
        """Join the producer thread; re-raises the exception that killed
        it, if one did (a feed crash is an error, not an end-of-stream)."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
            self._thread = None
        if self.failure is not None:
            failure, self.failure = self.failure, None
            raise failure
