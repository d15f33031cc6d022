"""The typed in-process client surface: sessions and query handles.

A :class:`Session` is *the* way programs talk to the monitor.  It wraps
a :class:`repro.service.service.MonitoringService` (or builds one around
a bare engine) and exposes the client vocabulary:

* :meth:`Session.register` installs a typed
  :class:`repro.api.queries.QuerySpec` and returns a
  :class:`QueryHandle`;
* a handle *is* the query from the client's point of view:
  ``snapshot()`` reads the current ordered result, ``move()``
  re-anchors it, ``terminate()`` tears it down, and ``subscribe(cb)``
  attaches a callback that sees **only this query's**
  :class:`repro.service.deltas.ResultDelta` stream (per-query topic
  routing in the hub — never the firehose);
* :meth:`Session.tick` (and the batch/flat/report variants) advance the
  monitoring cycle exactly like the service does.

The same surface exists remotely: :class:`repro.api.client.Client`
mirrors it over the wire protocol.  Workload replay lives here
too — :meth:`Session.replay`, or the one-shot :func:`replay_workload`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

from repro.api.queries import KnnSpec, QuerySpec, install_spec
from repro.geometry.points import Point
from repro.monitor import ContinuousMonitor, ResultEntry
from repro.service.deltas import ResultDelta, diff_results
from repro.service.service import MonitoringService, TickReport
from repro.service.subscriptions import Subscription
from repro.updates import (
    FlatUpdateBatch,
    ObjectUpdate,
    QueryUpdate,
    QueryUpdateKind,
    UpdateBatch,
)

DeltaCallback = Callable[[int | None, ResultDelta], None]


class QueryHandle:
    """One registered continuous query, as held by a client.

    Handles are created by :meth:`Session.register`; all operations
    delegate to the session so the engine-facing logic lives in one
    place.  A terminated handle stays inspectable (``spec``, ``qid``)
    but every operation on it raises.
    """

    __slots__ = ("qid", "_session", "_spec", "_subscriptions", "_alive")

    def __init__(self, session: "Session", qid: int, spec: QuerySpec) -> None:
        self._session = session
        self.qid = qid
        self._spec = spec
        self._subscriptions: list[Subscription] = []
        self._alive = True

    # -- introspection -------------------------------------------------

    @property
    def spec(self) -> QuerySpec:
        """The spec currently installed (moves re-anchor it)."""
        return self._spec

    @property
    def alive(self) -> bool:
        return self._alive

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "live" if self._alive else "terminated"
        return f"QueryHandle(qid={self.qid}, {state}, spec={self._spec!r})"

    # -- operations ----------------------------------------------------

    def _check_alive(self) -> None:
        if not self._alive:
            raise RuntimeError(f"query {self.qid} is terminated")

    def snapshot(self) -> list[ResultEntry]:
        """Current ordered result (ascending ``(dist, oid)``)."""
        self._check_alive()
        return self._session.snapshot(self.qid)

    def move(self, point: Point) -> list[ResultEntry]:
        """Re-anchor the query at ``point``; returns the new result.

        Semantically the Figure 3.9 query move (termination +
        re-insertion); subscribers on this handle receive the resulting
        delta (old result vs new result, ``timestamp=None``).
        """
        self._check_alive()
        return self._session._move(self, point)

    def terminate(self) -> None:
        """Terminate the query; subscribers receive the draining delta
        and the handle's own subscriptions are then closed."""
        self._check_alive()
        self._session._terminate(self)

    def subscribe(
        self, callback: DeltaCallback, *, include_unchanged: bool = False
    ) -> Subscription:
        """Route **this query's** deltas to ``callback(timestamp, delta)``.

        The subscription lives on the hub's per-query topic, so the
        callback never sees (nor pays for) other queries' traffic.
        """
        self._check_alive()
        subscription = self._session.hub.subscribe_query(
            self.qid, callback, include_unchanged=include_unchanged
        )
        self._subscriptions.append(subscription)
        return subscription

    def close(self) -> None:
        """Close the handle's subscriptions (the query keeps running)."""
        for subscription in self._subscriptions:
            subscription.close()
        self._subscriptions.clear()

    def _drop(self) -> None:
        self._alive = False
        self.close()

    def __enter__(self) -> "QueryHandle":
        return self

    def __exit__(self, *_exc) -> None:
        if self._alive:
            self.terminate()
        else:
            self.close()


class Session:
    """A typed client session over one monitoring service.

    Args:
        monitor: the engine to drive — a bare
            :class:`repro.monitor.ContinuousMonitor` (wrapped in a fresh
            :class:`MonitoringService`) or an existing service (reusing
            its hub and monitor).  ``None`` builds a default
            :class:`repro.core.cpm.CPMMonitor`.
    """

    def __init__(
        self, monitor: ContinuousMonitor | MonitoringService | None = None
    ) -> None:
        if monitor is None:
            from repro.core.cpm import CPMMonitor

            monitor = CPMMonitor()
        if isinstance(monitor, MonitoringService):
            self.service = monitor
        else:
            self.service = MonitoringService(monitor)
        self._handles: dict[int, QueryHandle] = {}
        self._next_qid = 0

    # ------------------------------------------------------------------
    # Introspection / plumbing
    # ------------------------------------------------------------------

    @property
    def monitor(self) -> ContinuousMonitor:
        return self.service.monitor

    @property
    def hub(self):
        return self.service.hub

    def query_ids(self) -> list[int]:
        return self.monitor.query_ids()

    def handles(self) -> list[QueryHandle]:
        """The live handles, ascending qid."""
        return [self._handles[qid] for qid in sorted(self._handles)]

    def handle(self, qid: int) -> QueryHandle:
        return self._handles[qid]

    def snapshot(self, qid: int) -> list[ResultEntry]:
        return self.monitor.result(qid)

    # ------------------------------------------------------------------
    # Population / registration
    # ------------------------------------------------------------------

    def load_objects(self, objects: Iterable[tuple[int, Point]]) -> None:
        self.service.load_objects(objects)

    def set_object_tags(self, tags) -> None:
        """Merge attribute tags into the monitor's object tag table.

        Tags are the predicate state of filtered subscriptions
        (:class:`repro.api.queries.FilteredKnnSpec`): a filtered query
        only ever returns objects carrying all of its tags.  Tag changes
        take effect from the next cycle that touches the object (see
        :meth:`repro.monitor.ContinuousMonitor.set_object_tags`).
        """
        self.service.set_object_tags(tags)

    def register(self, spec: QuerySpec, *, qid: int | None = None) -> QueryHandle:
        """Install a typed query and return its handle.

        ``qid`` is auto-assigned (smallest unused id at or above the
        session's counter) unless given.  Firehose subscribers receive
        the initial snapshot as an all-incoming delta; the handle's own
        subscribers attach afterwards, so their stream starts with the
        first post-install change (the initial result is returned by
        ``register`` itself, via :meth:`QueryHandle.snapshot`).
        """
        auto = qid is None
        if auto:
            # O(1) per registration: probe only the session's own handle
            # table.  A collision with an out-of-band install (a query
            # put on the monitor without this session) surfaces as the
            # engine's duplicate-install KeyError below and is resolved
            # with one full scan — the rare path pays, not every call.
            qid = self._next_qid
            while qid in self._handles:
                qid += 1
            self._next_qid = qid + 1
        elif qid in self._handles:
            raise KeyError(f"query {qid} is already registered")
        try:
            self._install(qid, spec)
        except KeyError:
            if not auto:
                raise
            qid = max(
                (q for q in (*self.monitor.query_ids(), *self._handles)),
                default=-1,
            ) + 1
            self._next_qid = qid + 1
            self._install(qid, spec)
        handle = QueryHandle(self, qid, spec)
        self._handles[qid] = handle
        return handle

    def _install(self, qid: int, spec: QuerySpec) -> None:
        if isinstance(spec, KnnSpec):
            # The universal path: works on every engine (sharded too) and
            # publishes the install delta through the service.
            self.service.install_query(qid, spec.point, spec.k)
        else:
            result = install_spec(self.monitor, qid, spec)
            if self.hub.has_subscribers:
                self.hub.publish(None, {qid: diff_results(qid, [], result)})

    # ------------------------------------------------------------------
    # Handle operations (the engine-facing halves)
    # ------------------------------------------------------------------

    def _move(self, handle: QueryHandle, point: Point) -> list[ResultEntry]:
        spec = handle.spec.moved_to(point)
        if isinstance(spec, KnnSpec):
            # The real Figure 3.9 move: a query-update-only cycle through
            # the service (delta capture and publication included).
            self.service.tick(
                (),
                (QueryUpdate(handle.qid, QueryUpdateKind.MOVE, point, spec.k),),
            )
        else:
            old = self.monitor.result(handle.qid)
            self.monitor.remove_query(handle.qid)
            result = install_spec(self.monitor, handle.qid, spec)
            if self.hub.has_subscribers:
                self.hub.publish(
                    None, {handle.qid: diff_results(handle.qid, old, result)}
                )
        handle._spec = spec
        return self.monitor.result(handle.qid)

    def _terminate(self, handle: QueryHandle) -> None:
        self.service.remove_query(handle.qid)
        self._handles.pop(handle.qid, None)
        handle._drop()

    # ------------------------------------------------------------------
    # Cycle processing (service pass-throughs)
    # ------------------------------------------------------------------

    def subscribe(self, callback: DeltaCallback, **kwargs) -> Subscription:
        """Hub subscription (firehose unless ``qids=`` narrows it)."""
        return self.hub.subscribe(callback, **kwargs)

    def tick(
        self,
        object_updates: Sequence[ObjectUpdate],
        query_updates: Sequence[QueryUpdate] = (),
        *,
        timestamp: int | None = None,
    ) -> set[int]:
        changed = self.service.tick(
            object_updates, query_updates, timestamp=timestamp
        )
        self._reap(query_updates)
        return changed

    def tick_batch(self, batch: UpdateBatch) -> set[int]:
        changed = self.service.tick_batch(batch)
        self._reap(batch.query_updates)
        return changed

    def tick_flat(self, batch: FlatUpdateBatch) -> set[int]:
        changed = self.service.tick_flat(batch)
        self._reap(batch.query_updates)
        return changed

    def tick_report(self, batch: UpdateBatch | FlatUpdateBatch) -> TickReport:
        report = self.service.tick_report(batch)
        self._reap(batch.query_updates)
        return report

    def _reap(self, query_updates: Sequence[QueryUpdate]) -> None:
        """Drop handles whose queries a raw update stream terminated."""
        for qu in query_updates:
            if qu.kind is QueryUpdateKind.TERMINATE:
                handle = self._handles.pop(qu.qid, None)
                if handle is not None:
                    handle._drop()

    # ------------------------------------------------------------------
    # Workload replay (the engine's measurement loop, client-side)
    # ------------------------------------------------------------------

    def replay(
        self,
        workload,
        *,
        collect_results: bool = False,
        on_cycle=None,
        result_log: list | None = None,
    ):
        """Replay a materialized workload; returns the aggregated
        :class:`repro.engine.metrics.RunReport`.

        This is the paper's simulation loop (load, install, then one
        ``tick`` per timestamp with per-cycle timing and counter
        snapshots).  ``result_log`` (when ``collect_results``) receives
        the per-cycle ``{qid: result}`` tables, install snapshot first.
        """
        # Local import: keeps the api package importable without pulling
        # the metrics vocabulary in at load time.
        from repro.engine.metrics import CycleMetrics, RunReport
        import time

        monitor = self.monitor
        workload_spec = workload.spec
        report = RunReport(
            algorithm=monitor.name, n_queries=len(workload.initial_queries)
        )

        monitor.load_objects(workload.initial_objects.items())
        monitor.reset_stats()
        t0 = time.perf_counter()
        for qid, point in workload.initial_queries.items():
            self.register(KnnSpec(point=point, k=workload_spec.k), qid=qid)
        report.install_sec = time.perf_counter() - t0
        report.install_stats = monitor.stats.snapshot()

        if collect_results and result_log is not None:
            result_log.append(monitor.result_table())

        # Columnar replay: the materialized stream is transposed once
        # (memoized on the workload) instead of once per cycle inside
        # ``tick_batch``; either entry point runs the same cycle.
        for batch in workload.flat_batches():
            monitor.reset_stats()
            t0 = time.perf_counter()
            changed = self.tick_flat(batch)
            elapsed = time.perf_counter() - t0
            metrics = CycleMetrics(
                timestamp=batch.timestamp,
                elapsed_sec=elapsed,
                stats=monitor.stats.snapshot(),
                object_updates=len(batch.oids),
                query_updates=len(batch.query_updates),
                results_changed=len(changed),
            )
            report.cycles.append(metrics)
            if collect_results and result_log is not None:
                result_log.append(monitor.result_table())
            if on_cycle is not None:
                on_cycle(metrics)
        return report

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def close(self, *, close_monitor: bool = True) -> None:
        """Close every handle's subscriptions and — by default — the
        monitor's runtime resources (its ``close``, when it has one: the
        sharded executors do).  Queries stay installed either way.  A
        session that does *not* own its monitor (several sessions sharing
        one service, a host session handed to a socket server) passes
        ``close_monitor=False`` so only the owning session tears the
        engine down."""
        for handle in list(self._handles.values()):
            handle.close()
        if close_monitor:
            close = getattr(self.monitor, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def replay_workload(
    monitor: ContinuousMonitor | MonitoringService,
    workload,
    *,
    collect_results: bool = False,
    result_log: list | None = None,
    on_cycle=None,
):
    """One-shot replay of a workload into a monitor (or service).

    Builds a throwaway :class:`Session` (reusing the hub when handed a
    :class:`MonitoringService`) and runs :meth:`Session.replay`.
    ``result_log`` receives the per-cycle ``{qid: result}`` tables when
    ``collect_results`` is set (install snapshot first).
    """
    session = Session(monitor)
    return session.replay(
        workload,
        collect_results=collect_results,
        on_cycle=on_cycle,
        result_log=result_log,
    )
