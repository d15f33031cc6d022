"""Supervised shard execution: detect, recover, degrade — deterministically.

:class:`SupervisedShardExecutor` wraps the process-backed executor's
failure primitives (:class:`repro.service.executor.ShardCrashError` /
:class:`~repro.service.executor.ShardTimeoutError`, raised by the
deadline-aware receive) with a recovery policy:

* ``FAIL_FAST`` — re-raise the failure to the caller (the pre-supervision
  behavior, minus the hang).
* ``RESTART`` — respawn the worker and rebuild its engine, then re-issue
  the interrupted command; after ``max_restarts`` restarts of the same
  shard the failure propagates.
* ``DEGRADE_TO_SERIAL`` — rebuild the shard's engine *in-process* and
  serve it serially from the parent thereafter; the remaining shards keep
  their worker processes.

**Deterministic rebuild.**  The supervisor keeps a per-shard log of every
state-mutating command that completed successfully (reads are skipped —
they touch no engine state and no counters).  A crashed shard is rebuilt
by replaying that log against a fresh engine, which reconstructs not just
the results but the engine's full search bookkeeping — so the recovered
run's results *and* deterministic access counters are byte-identical to a
run that never crashed.  The replayed commands' stats are discarded (the
original execution already reported them; the sharded monitor's aggregate
counters are never polluted by recovery traffic), and the re-issued
in-flight command reports its stats exactly once.  A partitioned shard
logs one ``partition_cycle`` per cycle, so its log — and a fault
schedule's command ordinal — advances by whole cycles; the cell pulls a
cycle made are answered from a pull log during the rebuild.

**Checkpoints.**  The log grows with the run; :meth:`checkpoint` compacts
it by capturing each engine's logical state
(:meth:`repro.monitor.ContinuousMonitor.capture_state`) and truncating
the log, after which a rebuild restores the snapshot and replays only the
tail.  A partitioned shard's capture records cells and query bookkeeping
verbatim (:meth:`repro.service.partition.PartitionShardEngine.capture_state`),
so its rebuild stays counter-exact; a plain engine's
:class:`repro.monitor.MonitorState` re-installs queries with fresh
searches, which is *results*-exact only.

The failed command itself is assumed not to have mutated the engine: a
worker that died mid-command never applied it (engines apply commands
atomically with respect to the reply — the reply is sent only after the
command returns), and a command that *replied* with an application error
raised during validation, before mutation.  Both are re-issued or
re-raised safely.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from repro.grid.stats import GridStats
from repro.monitor import ContinuousMonitor, MonitorState
from repro.obs.metrics import MetricsRegistry
from repro.service.shm import release_segment
from repro.service.executor import (
    FaultHook,
    ProcessShardExecutor,
    PullServer,
    ShardFactory,
    ShardFailure,
    ShardWorkerError,
    _execute,
)


class SupervisorPolicy(Enum):
    """What to do when a shard worker crashes or times out."""

    FAIL_FAST = "fail_fast"
    RESTART = "restart"
    DEGRADE_TO_SERIAL = "degrade_to_serial"


@dataclass(slots=True)
class RecoveryEvent:
    """One observed shard failure and the action taken (diagnostics)."""

    shard: int
    action: str  # "fail_fast" | "restart" | "degrade"
    error: str  # repr of the triggering ShardFailure
    method: str  # the in-flight command
    replayed: int  # commands replayed during the rebuild
    restarts: int  # cumulative restarts of this shard afterwards


#: commands that read engine state without mutating it — excluded from
#: the replay log.  Anything not listed is conservatively logged.
_READ_ONLY = frozenset(
    {
        "result",
        "result_table",
        "query_ids",
        "query_k",
        "query_state",
        "object_position",
        "best_dist",
        "influence_cells",
        "iter_objects",
        "capture_state",
        "check_invariants",
        "materialized_cells",
    }
)


class SupervisedShardExecutor(ProcessShardExecutor):
    """A :class:`ProcessShardExecutor` that survives worker failures.

    Drop-in replacement: pass it as ``executor=`` to
    :class:`repro.service.partition.PartitionedMonitor`.  With no faults the
    only added work per command is one log append, so supervision
    overhead is negligible (measured in PR 8, see CHANGES.md).

    Args:
        policy: recovery policy (default ``RESTART``).
        max_restarts: per-shard restart budget before the failure
            propagates (``RESTART`` only).
        recv_timeout: per-command reply deadline in seconds; ``None``
            (default) detects only dead workers, never wedged ones.
        mp_context / shm_min_rows / fault_hook: as in
            :class:`ProcessShardExecutor`.
        metrics: optional :class:`repro.obs.metrics.MetricsRegistry`;
            every :class:`RecoveryEvent` is forwarded as a
            ``repro_shard_recoveries_total{action=...}`` bump.
    """

    def __init__(
        self,
        *,
        policy: SupervisorPolicy = SupervisorPolicy.RESTART,
        max_restarts: int = 3,
        recv_timeout: float | None = None,
        mp_context: str | None = None,
        shm_min_rows: int | None = None,
        fault_hook: FaultHook | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(
            mp_context=mp_context,
            shm_min_rows=shm_min_rows,
            recv_timeout=recv_timeout,
            fault_hook=fault_hook,
        )
        self.policy = policy
        self.max_restarts = max_restarts
        #: per-shard replay log of committed mutating commands.
        self._log: list[list[tuple[str, tuple]]] = []
        #: per-shard checkpoint snapshots (None = replay from birth).
        self._checkpoints: list[MonitorState | None] = []
        #: shards degraded to in-process serial execution.
        self._local: dict[int, ContinuousMonitor] = {}
        #: cumulative restarts per shard.
        self.restart_counts: list[int] = []
        #: every failure observed and the recovery taken, in order.
        self.events: list[RecoveryEvent] = []
        self.metrics = metrics
        #: per-shard (request, reply) log of served cell pulls, and the
        #: replay cursor into it (see :meth:`_replayable_pull`).
        self._pull_log: list[list[tuple[object, object]]] = []
        self._pull_cursor: list[int] = []
        self._pull_origin: PullServer | None = None

    def _record_event(self, event: RecoveryEvent) -> None:
        self.events.append(event)
        if self.metrics is not None:
            self.metrics.counter(
                "repro_shard_recoveries_total",
                "Shard failures observed, by recovery action.",
                action=event.action,
            ).inc()

    def start(self, factories: Sequence[ShardFactory]) -> None:
        super().start(factories)
        self._log = [[] for _ in factories]
        self._checkpoints = [None] * len(factories)
        self._local = {}
        self.restart_counts = [0] * len(factories)
        self.events = []
        self._pull_log = [[] for _ in factories]
        self._pull_cursor = [0] * len(factories)

    # ------------------------------------------------------------------
    # Cell pulls (partitioned shards)
    # ------------------------------------------------------------------

    def bind_pull_server(self, server: PullServer) -> None:
        """Wrap the coordinator's pull service with a replay log.

        The coordinator's stores move on after each committed command, so
        a restarted shard replaying its command log must NOT hit the live
        service — it would see post-crash data mid-replay.  Instead every
        served pull is logged per shard; during replay the cursor walks
        the log and returns the original replies (asserting the replayed
        requests match — the engine rebuild is deterministic), going back
        to live service exactly when the log is exhausted.
        """
        self._pull_origin = server
        super().bind_pull_server(self._replayable_pull)

    def _replayable_pull(self, shard: int, request: object) -> object:
        log = self._pull_log[shard]
        cursor = self._pull_cursor[shard]
        if cursor < len(log):
            logged_request, logged_reply = log[cursor]
            if logged_request != request:
                raise ShardWorkerError(
                    f"shard {shard}: non-deterministic pull during replay "
                    f"(logged {logged_request!r}, replayed {request!r})"
                )
            self._pull_cursor[shard] = cursor + 1
            return logged_reply
        assert self._pull_origin is not None
        reply = self._pull_origin(shard, request)
        log.append((request, reply))
        self._pull_cursor[shard] = len(log)
        return reply

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def degraded_shards(self) -> set[int]:
        """Shards now served serially in-process (``DEGRADE_TO_SERIAL``)."""
        return set(self._local)

    def local_monitor(self, shard: int) -> ContinuousMonitor:
        """The in-process engine of a degraded shard (tests, diagnostics)."""
        return self._local[shard]

    def log_length(self, shard: int) -> int:
        """Replay-log size of a shard (checkpoint compaction diagnostics)."""
        return len(self._log[shard])

    # ------------------------------------------------------------------
    # Command surface
    # ------------------------------------------------------------------

    def call(self, shard: int, method: str, *args) -> tuple[object, GridStats]:
        result = self._dispatch(shard, method, args)
        self._commit(shard, method, args)
        return result

    def call_all(
        self, method: str, args_per_shard: Sequence[tuple]
    ) -> list[tuple[object, GridStats]]:
        n = self.n_shards
        if len(args_per_shard) != n:
            raise ValueError(
                f"expected {n} argument tuples, got {len(args_per_shard)}"
            )
        segments: list = []
        try:
            # Phase 1: fan the command out to every healthy worker.
            failed: dict[int, ShardFailure] = {}
            for shard, args in enumerate(args_per_shard):
                if shard in self._local:
                    continue
                try:
                    self._send(shard, method, args, segments)
                except ShardFailure as exc:
                    failed[shard] = exc
            # Phase 2: run degraded shards in-process while workers compute.
            results: list = [None] * n
            for shard, monitor in self._local.items():
                results[shard] = _execute(monitor, method, args_per_shard[shard])
            # Phase 3: drain every healthy worker (keeps survivors in
            # protocol sync regardless of other shards' failures).
            app_error: ShardWorkerError | None = None
            for shard in range(n):
                if shard in self._local or shard in failed:
                    continue
                try:
                    results[shard] = self._recv(shard)
                except ShardFailure as exc:
                    failed[shard] = exc
                except ShardWorkerError as exc:
                    if app_error is None:
                        app_error = exc
            # Phase 4: recover failed shards one at a time.
            for shard in sorted(failed):
                results[shard] = self._recover(
                    shard, failed[shard], method, args_per_shard[shard]
                )
            if app_error is not None:
                raise app_error
            for shard, args in enumerate(args_per_shard):
                self._commit(shard, method, args)
            return results
        finally:
            for shm in segments:
                release_segment(shm)

    def checkpoint(self) -> None:
        """Snapshot every shard's logical state and truncate the logs.

        Bounds rebuild cost (and log memory) for long runs.  Trade-off:
        a rebuild from a snapshot is results-exact but future counter
        deltas may diverge from the crash-free timeline (see the module
        docstring) — skip checkpoints where byte-exact counters across a
        crash are required.
        """
        for shard in range(self.n_shards):
            if shard in self._local:
                state = self._local[shard].capture_state()
            else:
                state, _stats = self._dispatch(shard, "capture_state", ())
            self._checkpoints[shard] = state
            self._log[shard].clear()
            # Pulls served before the checkpoint can never replay again
            # (a rebuild restores the snapshot, then replays only the
            # log tail), so the pull log compacts with the command log.
            self._pull_log[shard].clear()
            self._pull_cursor[shard] = 0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _dispatch(self, shard: int, method: str, args: tuple):
        """Run one command with recovery; no log commit."""
        if shard in self._local:
            return _execute(self._local[shard], method, args)
        segments: list = []
        try:
            self._send(shard, method, args, segments)
            return self._recv(shard)
        except ShardFailure as exc:
            return self._recover(shard, exc, method, args)
        finally:
            for shm in segments:
                release_segment(shm)

    def _commit(self, shard: int, method: str, args: tuple) -> None:
        if method not in _READ_ONLY:
            self._log[shard].append((method, args))

    def _recover(self, shard: int, failure: ShardFailure, method: str, args: tuple):
        """Apply the policy to a failed shard; returns the command result."""
        replayed = len(self._log[shard])
        if self.policy is SupervisorPolicy.FAIL_FAST:
            self._record_event(
                RecoveryEvent(
                    shard=shard,
                    action="fail_fast",
                    error=repr(failure),
                    method=method,
                    replayed=0,
                    restarts=self.restart_counts[shard],
                )
            )
            raise failure
        if self.policy is SupervisorPolicy.DEGRADE_TO_SERIAL:
            monitor = self._rebuild_local(shard)
            self._local[shard] = monitor
            self._reap(shard)
            self._record_event(
                RecoveryEvent(
                    shard=shard,
                    action="degrade",
                    error=repr(failure),
                    method=method,
                    replayed=replayed,
                    restarts=self.restart_counts[shard],
                )
            )
            return _execute(monitor, method, args)
        # RESTART: respawn + replay + re-issue, with a bounded budget.
        while True:
            if self.restart_counts[shard] >= self.max_restarts:
                raise failure
            self.restart_counts[shard] += 1
            self._record_event(
                RecoveryEvent(
                    shard=shard,
                    action="restart",
                    error=repr(failure),
                    method=method,
                    replayed=replayed,
                    restarts=self.restart_counts[shard],
                )
            )
            try:
                self.restart_shard(shard)
                self._replay_into_worker(shard)
                segments: list = []
                try:
                    self._send(shard, method, args, segments)
                    return self._recv(shard)
                finally:
                    for shm in segments:
                        release_segment(shm)
            except ShardFailure as exc:  # crashed again mid-recovery
                failure = exc

    def _replay_into_worker(self, shard: int) -> None:
        """Rebuild a freshly restarted worker's engine over the pipe.

        Replayed results and stats are discarded: the original execution
        already reported them to the caller, so recovery contributes
        nothing to the aggregate accounting.
        """
        segments: list = []
        # Replayed commands re-issue their cell pulls in the original
        # order; rewind the pull cursor so they are answered from the log
        # (the live coordinator has moved on).  The re-issued in-flight
        # command consumes any pulls its crashed attempt logged, then the
        # cursor reaches the end of the log and service goes live again.
        if self._pull_cursor:
            self._pull_cursor[shard] = 0
        try:
            if self._checkpoints[shard] is not None:
                self._send(
                    shard, "restore_state", (self._checkpoints[shard],), segments
                )
                self._recv(shard)
            for method, args in self._log[shard]:
                self._send(shard, method, args, segments)
                self._recv(shard)
        finally:
            for shm in segments:
                release_segment(shm)

    def _bind_local_pull(self, monitor: ContinuousMonitor, shard: int) -> None:
        """Give a degraded in-process engine the same replayable pulls."""
        bind = getattr(monitor, "bind_pull_transport", None)
        if bind is not None:
            bind(lambda request, _shard=shard: self._replayable_pull(_shard, request))

    def _rebuild_local(self, shard: int) -> ContinuousMonitor:
        """Rebuild a shard's engine in-process (DEGRADE_TO_SERIAL)."""
        monitor = self._factories[shard]()
        self._bind_local_pull(monitor, shard)
        if self._pull_cursor:
            self._pull_cursor[shard] = 0
        if self._checkpoints[shard] is not None:
            monitor.restore_state(self._checkpoints[shard])
        for method, args in self._log[shard]:
            getattr(monitor, method)(*args)
        return monitor

    def _reap(self, shard: int) -> None:
        """Bury a degraded shard's worker and pipe (slot stays occupied)."""
        worker = self._workers[shard]
        if worker.is_alive():
            worker.kill()
        worker.join(timeout=5.0)
        try:
            self._pipes[shard].close()
        except OSError:  # pragma: no cover - already broken
            pass

    def close(self) -> None:
        self._local = {}
        self._log = []
        self._checkpoints = []
        self._pull_log = []
        self._pull_cursor = []
        super().close()
