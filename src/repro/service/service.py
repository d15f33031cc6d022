"""The cycle-driven monitoring service facade.

A :class:`MonitoringService` couples one monitor — single-engine or
:class:`repro.service.partition.PartitionedMonitor` — with a
:class:`repro.service.subscriptions.SubscriptionHub`.  Callers feed it
update batches in either encoding (:meth:`tick`, :meth:`tick_flat`); the
service normalises to columns once, decides per cycle whether the plain
cycle (``process_flat``) suffices or the delta adapter
(``process_deltas_flat``) must run to feed subscribers, and publishes the
resulting stream through the hub's per-query routing.

Programs normally talk to the service through the typed client surface
(:class:`repro.api.session.Session` in-process,
:class:`repro.api.client.Client` over a socket); the replay loop
(:meth:`repro.api.session.Session.replay`) and the ingest driver drive
it batch by batch.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.geometry.points import Point
from repro.monitor import ContinuousMonitor, ResultEntry
from repro.obs.metrics import MetricsRegistry
from repro.service.deltas import diff_results
from repro.service.subscriptions import SubscriptionHub
from repro.updates import FlatUpdateBatch, ObjectUpdate, QueryUpdate, UpdateBatch


@dataclass(slots=True)
class TickReport:
    """Everything one processing cycle produced, for callers that need
    more than the bare changed-set (the ingestion driver, dashboards).

    ``timestamp`` is echoed back verbatim: the service itself only
    *labels* cycles with it (see :meth:`MonitoringService.tick`), it never
    interprets it.
    """

    timestamp: int | None
    #: ids of queries whose result changed this cycle (the
    #: :meth:`ContinuousMonitor.process` contract).
    changed: set[int] = field(default_factory=set)
    #: whether the delta path ran (i.e. subscribers were listening).
    streamed: bool = False
    object_updates: int = 0
    query_updates: int = 0
    #: wall-clock spent producing the cycle's outcome: the monitor's
    #: update handling *plus*, when :attr:`streamed` is set, the
    #: per-query delta diffing of the delta adapter.  On the
    #: no-subscriber cheap path this is exactly the monitor's cycle
    #: time; either way it excludes subscriber fan-out, which is
    #: reported separately as :attr:`publish_sec`.
    process_sec: float = 0.0
    #: wall-clock spent inside ``SubscriptionHub.publish`` delivering the
    #: cycle's deltas to subscriber callbacks (0.0 when not streamed).
    publish_sec: float = 0.0
    #: the service's health snapshot taken right after the cycle
    #: (:meth:`MonitoringService.health_snapshot`); ``None`` unless a
    #: metrics registry is attached — the uninstrumented path builds
    #: nothing.
    health: dict[str, int | float] | None = None


class MonitoringService:
    """One monitor plus delta streaming, driven cycle by cycle."""

    def __init__(
        self,
        monitor: ContinuousMonitor,
        *,
        hub: SubscriptionHub | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.monitor = monitor
        self.hub = hub if hub is not None else SubscriptionHub()
        #: timestamp handed to :meth:`tick` last (diagnostics).
        self.last_timestamp: int | None = None
        #: running totals mirrored into the registry (kept as plain
        #: attributes too so :meth:`health_snapshot` is registry-free).
        self.ticks = 0
        self.total_changed = 0
        self.metrics = metrics
        if metrics is not None:
            self._m_ticks = metrics.counter(
                "repro_service_ticks_total", "Cycles processed."
            )
            self._m_streamed = metrics.counter(
                "repro_service_streamed_ticks_total",
                "Cycles that ran the delta-streaming path.",
            )
            self._m_changed = metrics.counter(
                "repro_service_results_changed_total",
                "Query results changed across all cycles.",
            )
            metrics.gauge_fn(
                "repro_service_subscriptions",
                lambda: len(self.hub),
                "Active hub subscriptions.",
            )
        else:
            self._m_ticks = None
            self._m_streamed = None
            self._m_changed = None

    def health_snapshot(self) -> dict[str, int | float]:
        """Point-in-time service health (rides on :class:`TickReport`)."""
        return {
            "ticks": self.ticks,
            "results_changed": self.total_changed,
            "subscriptions": len(self.hub),
            "last_timestamp": -1 if self.last_timestamp is None else
            self.last_timestamp,
        }

    # ------------------------------------------------------------------
    # Population / query management (pass-through with install streaming)
    # ------------------------------------------------------------------

    def load_objects(self, objects: Iterable[tuple[int, Point]]) -> None:
        self.monitor.load_objects(objects)

    def set_object_tags(self, tags) -> None:
        """Merge attribute tags into the monitor's object tag table (the
        predicate state of filtered subscriptions)."""
        self.monitor.set_object_tags(tags)

    def install_query(
        self, qid: int, point: Point, k: int = 1
    ) -> list[ResultEntry]:
        """Install a query; subscribers receive its initial snapshot as an
        all-incoming delta with ``timestamp=None``."""
        result = self.monitor.install_query(qid, point, k)
        if self.hub.has_subscribers:
            self.hub.publish(None, {qid: diff_results(qid, [], result)})
        return result

    def remove_query(self, qid: int) -> None:
        """Terminate a query; subscribers receive the draining delta."""
        if not self.hub.has_subscribers:
            self.monitor.remove_query(qid)
            return
        old = self.monitor.result(qid)
        self.monitor.remove_query(qid)
        self.hub.publish(None, {qid: diff_results(qid, old, [], terminated=True)})

    def subscribe(self, callback, **kwargs):
        """Shorthand for ``service.hub.subscribe`` (see SubscriptionHub)."""
        return self.hub.subscribe(callback, **kwargs)

    # ------------------------------------------------------------------
    # Cycle processing
    # ------------------------------------------------------------------

    def tick(
        self,
        object_updates: Sequence[ObjectUpdate],
        query_updates: Sequence[QueryUpdate] = (),
        *,
        timestamp: int | None = None,
    ) -> set[int]:
        """Process one cycle; streams deltas iff anyone is listening.

        Returns the changed-query id set (the :meth:`ContinuousMonitor.process`
        contract) so metrics collection is identical on both paths.

        **Timestamp contract.**  ``timestamp`` is a cycle *label*, never an
        input to processing: it is recorded as :attr:`last_timestamp` on
        every path and stamped onto the published deltas when (and only
        when) subscribers are listening.  With no subscribers there is no
        delta capture, so the label has no further effect — that asymmetry
        is intentional, not a dropped value.  Callers that need the label
        echoed back alongside cycle timing use :meth:`tick_report`.
        """
        batch = FlatUpdateBatch.from_updates(object_updates, query_updates)
        return self._run_cycle(batch, timestamp).changed

    def tick_batch(self, batch: UpdateBatch) -> set[int]:
        """Process a packaged :class:`repro.updates.UpdateBatch`."""
        return self.tick_report(batch).changed

    def tick_flat(self, batch: FlatUpdateBatch) -> set[int]:
        """Process a columnar :class:`repro.updates.FlatUpdateBatch`."""
        return self._run_cycle(batch, batch.timestamp).changed

    def tick_report(self, batch: UpdateBatch | FlatUpdateBatch) -> TickReport:
        """Process one packaged cycle and report label, changes and timing.

        Accepts either batch encoding (a row batch is columnarized first)
        and returns a :class:`TickReport` — the surface the ingestion
        driver consumes (``tick`` stays the backward-compatible
        changed-set entry point).  The timing is decomposed so streaming
        callers can see the diff cost: ``process_sec`` covers the monitor
        cycle *including* the per-query delta diffing of the streamed
        path, ``publish_sec`` covers only the subscriber fan-out.
        """
        if not isinstance(batch, FlatUpdateBatch):
            batch = FlatUpdateBatch.from_batch(batch)
        return self._run_cycle(batch, batch.timestamp)

    def _run_cycle(
        self, batch: FlatUpdateBatch, timestamp: int | None
    ) -> TickReport:
        """The one cycle every tick flavor runs: the monitor's plain cycle
        with no subscribers, its delta adapter plus hub fan-out with."""
        self.last_timestamp = timestamp
        streamed = self.hub.has_subscribers
        publish_sec = 0.0
        t0 = time.perf_counter()
        if not streamed:
            changed = self.monitor.process_flat(batch)
            process_sec = time.perf_counter() - t0
        else:
            deltas = self.monitor.process_deltas_flat(batch)
            t1 = time.perf_counter()
            process_sec = t1 - t0
            self.hub.publish(timestamp, deltas)
            # The ``process`` changed-set contract: terminated queries
            # are deltas, not changes.
            changed = {qid for qid, d in deltas.items() if not d.terminated}
            publish_sec = time.perf_counter() - t1
            if self._m_streamed is not None:
                self._m_streamed.inc()
        self.ticks += 1
        self.total_changed += len(changed)
        if self._m_ticks is not None:
            self._m_ticks.inc()
            self._m_changed.inc(len(changed))
        return TickReport(
            timestamp=timestamp,
            changed=changed,
            streamed=streamed,
            object_updates=len(batch.oids),
            query_updates=len(batch.query_updates),
            process_sec=process_sec,
            publish_sec=publish_sec,
            health=None if self.metrics is None else self.health_snapshot(),
        )
