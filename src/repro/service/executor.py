"""Pluggable shard executors.

A :class:`repro.service.partition.PartitionedMonitor` drives its per-shard
engines through an executor.  The executor owns the engine *instances*
(they may live in worker processes) and exposes a uniform command surface:
``call`` (one shard) and ``call_all`` (every shard, one argument tuple
each).  Every command returns ``(payload, stats)`` where ``stats`` is the
:class:`repro.grid.stats.GridStats` delta accumulated by the shard engine
while executing the command — the sharded monitor folds these into its
aggregate counters so the engine-facing accounting (cell scans etc.) stays
exact regardless of where the shards run.  Both block until every reply
is in: nothing pipelines one command behind another, and a cycle is a
single ``call_all`` of ``partition_cycle``.

Two implementations:

* :class:`SerialShardExecutor` — engines live in-process, commands run
  sequentially.  Zero overhead, fully deterministic; the default.
* :class:`ProcessShardExecutor` — one ``multiprocessing`` worker process
  per shard, commands fan out over pipes and ``call_all`` overlaps the
  per-shard work across cores.  Engines are built inside the workers from
  a picklable factory; command payloads (update batches, result lists)
  are plain picklable values, except that large
  :class:`repro.updates.FlatUpdateBatch` arguments travel as
  ``multiprocessing.shared_memory`` blocks with only a fixed-size header
  pickled through the pipe (see :mod:`repro.service.shm`).

Executors are context managers; :class:`ProcessShardExecutor` must be
closed (or used via ``with``) to reap its workers.
"""

from __future__ import annotations

import multiprocessing
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from time import monotonic

from repro.grid.stats import GridStats
from repro.monitor import ContinuousMonitor
from repro.service.shm import SHM_MIN_ROWS, decode_args, encode_args, release_segment

#: a picklable zero-argument callable returning a fresh shard engine.
ShardFactory = Callable[[], ContinuousMonitor]

#: observation hook invoked before every command send:
#: ``hook(shard, seq, worker)`` where ``seq`` is the per-shard command
#: ordinal (monotonic across worker restarts) and ``worker`` the live
#: ``multiprocessing.Process``.  Fault-injection harnesses use it to kill
#: or wedge workers at exact schedule points; hooks must not raise.
FaultHook = Callable[[int, int, object], None]

#: coordinator-side cell-pull service: ``server(shard, request) -> reply``.
#: Bound by a partitioned monitor (:mod:`repro.service.partition`) so a
#: shard engine that needs a remote cell mid-command can fetch it through
#: the executor; requests and replies must be picklable.
PullServer = Callable[[int, object], object]


def _execute(
    monitor: ContinuousMonitor, method: str, args: tuple
) -> tuple[object, GridStats]:
    """Run one command against a shard engine, measuring its stats delta."""
    monitor.stats.reset()
    payload = getattr(monitor, method)(*args)
    return payload, monitor.stats.snapshot()


class ShardExecutor(ABC):
    """Uniform command surface over a fleet of shard engines."""

    #: coordinator-side cell-pull service (see :meth:`bind_pull_server`).
    _pull_server: PullServer | None = None

    @abstractmethod
    def start(self, factories: Sequence[ShardFactory]) -> None:
        """Build one engine per factory (idempotent start-once)."""

    @abstractmethod
    def call(self, shard: int, method: str, *args) -> tuple[object, GridStats]:
        """Run ``engine.<method>(*args)`` on one shard."""

    @abstractmethod
    def call_all(
        self, method: str, args_per_shard: Sequence[tuple]
    ) -> list[tuple[object, GridStats]]:
        """Run ``engine.<method>(*args)`` on every shard (one args tuple
        per shard, in shard order); returns payload/stats pairs in shard
        order."""

    def bind_pull_server(self, server: PullServer) -> None:
        """Register the coordinator's cell-pull service.

        Shard engines exposing ``bind_pull_transport`` (the partitioned
        engines of :mod:`repro.service.partition`) get a transport that
        routes ``engine -> executor -> server(shard, request)`` so a
        command that expands past the shard's materialized cells can
        fetch the missing data mid-command.  Executors without such
        engines never invoke the server.
        """
        self._pull_server = server

    def close(self) -> None:
        """Release engines/workers (idempotent)."""

    @property
    @abstractmethod
    def n_shards(self) -> int:
        """Number of started shards (0 before :meth:`start`)."""

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class SerialShardExecutor(ShardExecutor):
    """In-process executor: shard engines run sequentially in the caller."""

    def __init__(self) -> None:
        self._monitors: list[ContinuousMonitor] = []

    @property
    def n_shards(self) -> int:
        return len(self._monitors)

    def start(self, factories: Sequence[ShardFactory]) -> None:
        if self._monitors:
            raise RuntimeError("executor already started")
        self._monitors = [factory() for factory in factories]
        for shard, monitor in enumerate(self._monitors):
            bind = getattr(monitor, "bind_pull_transport", None)
            if bind is not None:
                bind(self._local_pull(shard))

    def _local_pull(self, shard: int):
        """In-process pull transport: dispatch straight to the server.

        Late-bound through ``self`` so ``bind_pull_server`` may run after
        :meth:`start` (the coordinator binds once its stores exist).
        """

        def pull(request):
            server = self._pull_server
            if server is None:
                raise RuntimeError(
                    f"shard {shard} pulled a cell but no pull server is bound"
                )
            return server(shard, request)

        return pull

    def monitors(self) -> list[ContinuousMonitor]:
        """The live shard engines (tests and diagnostics)."""
        return list(self._monitors)

    def call(self, shard: int, method: str, *args) -> tuple[object, GridStats]:
        return _execute(self._monitors[shard], method, args)

    def call_all(
        self, method: str, args_per_shard: Sequence[tuple]
    ) -> list[tuple[object, GridStats]]:
        if len(args_per_shard) != len(self._monitors):
            raise ValueError(
                f"expected {len(self._monitors)} argument tuples, "
                f"got {len(args_per_shard)}"
            )
        return [
            _execute(monitor, method, args)
            for monitor, args in zip(self._monitors, args_per_shard)
        ]

    def close(self) -> None:
        self._monitors = []


def _shard_worker(conn, factory: ShardFactory) -> None:
    """Worker-process loop: build the engine, serve commands until EOF."""
    monitor = factory()
    bind = getattr(monitor, "bind_pull_transport", None)
    if bind is not None:
        # Cell-pull transport: a mid-command upcall over the same duplex
        # pipe.  The parent's receive loop recognizes the "pull" status,
        # serves it, and replies "pulldata" before resuming its wait for
        # the command's real reply — the worker blocks here meanwhile.
        def _pull(request):
            conn.send(("pull", request))
            status, payload = conn.recv()
            if status != "pulldata":
                raise RuntimeError(
                    f"unexpected pull reply status {status!r}"
                )
            return payload

        bind(_pull)
    try:
        while True:
            message = conn.recv()
            if message is None:
                break
            method, args = message
            try:
                conn.send(("ok", _execute(monitor, method, decode_args(args))))
            except Exception as exc:  # forwarded to the caller
                conn.send(("err", f"{type(exc).__name__}: {exc}"))
    except (EOFError, BrokenPipeError, OSError):  # pragma: no cover - parent died
        pass
    finally:
        conn.close()


class ShardWorkerError(RuntimeError):
    """A command failed inside a shard worker process."""


class ShardFailure(ShardWorkerError):
    """Transport-level shard failure: the worker process is gone or wedged.

    Unlike a plain :class:`ShardWorkerError` (the engine raised while
    executing a command — the worker is still healthy), a
    :class:`ShardFailure` means the request/reply channel itself broke:
    the shard cannot serve further commands until it is restarted
    (:meth:`ProcessShardExecutor.restart_shard`) or replaced.  ``shard``
    identifies the failed shard for supervisors.
    """

    def __init__(self, shard: int, message: str) -> None:
        super().__init__(message)
        self.shard = shard


class ShardCrashError(ShardFailure):
    """The shard worker process died (killed, OOM, crashed) mid-protocol."""


class ShardTimeoutError(ShardFailure):
    """The shard worker is alive but did not reply within ``recv_timeout``."""


class ProcessShardExecutor(ShardExecutor):
    """One worker process per shard, connected by a duplex pipe.

    ``call_all`` sends every shard its command before collecting any
    reply, so the per-shard work overlaps across cores.  The default
    start method prefers ``fork`` (cheap, engines inherit nothing they
    need) and falls back to the platform default where unavailable.

    Flat update batches of at least ``shm_min_rows`` rows ship to the
    workers as shared-memory blocks instead of pickles (header-only pipe
    traffic); the parent creates each segment just before sending and
    unlinks it after the command's reply, so segments never outlive a
    command.

    **Failure semantics.**  Every receive is deadline-aware: the parent
    polls the pipe in short intervals and checks the worker's liveness,
    so a worker that died raises :class:`ShardCrashError` and (when
    ``recv_timeout`` is set) a worker that wedged raises
    :class:`ShardTimeoutError` — a faulty shard can never hang the
    parent.  Both are :class:`ShardFailure`\\ s, after which that shard's
    request/reply channel is poisoned (a late reply from a wedged worker
    would desynchronize it); the shard must be rebuilt with
    :meth:`restart_shard` before further use.  ``call_all`` drains or
    fails every shard before raising, so surviving shards stay in
    protocol sync.  :class:`repro.service.supervisor.SupervisedShardExecutor`
    layers automatic recovery policies on top of these primitives.
    """

    #: liveness/deadline check cadence while waiting on a reply.
    POLL_INTERVAL = 0.05

    def __init__(
        self,
        *,
        mp_context: str | None = None,
        shm_min_rows: int | None = None,
        recv_timeout: float | None = None,
        fault_hook: FaultHook | None = None,
    ) -> None:
        if mp_context is None:
            mp_context = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else None
            )
        self._ctx = multiprocessing.get_context(mp_context)
        self._shm_min_rows = SHM_MIN_ROWS if shm_min_rows is None else shm_min_rows
        self._recv_timeout = recv_timeout
        self._fault_hook = fault_hook
        self._factories: list[ShardFactory] = []
        self._workers: list = []
        self._pipes: list = []
        self._sent: list[int] = []

    @property
    def n_shards(self) -> int:
        return len(self._workers)

    def start(self, factories: Sequence[ShardFactory]) -> None:
        if self._workers:
            raise RuntimeError("executor already started")
        self._factories = list(factories)
        for factory in self._factories:
            parent, child = self._ctx.Pipe()
            worker = self._ctx.Process(
                target=_shard_worker, args=(child, factory), daemon=True
            )
            worker.start()
            child.close()
            self._workers.append(worker)
            self._pipes.append(parent)
            self._sent.append(0)

    def worker_pid(self, shard: int) -> int | None:
        """PID of a shard's worker process (diagnostics, fault injection)."""
        return self._workers[shard].pid

    def restart_shard(self, shard: int) -> None:
        """Replace a shard's worker with a fresh process and pipe.

        The old worker is killed outright if still alive (a wedged worker
        may be unresponsive to SIGTERM — e.g. stopped — so SIGKILL is the
        only reliable reap), the poisoned pipe is discarded, and a new
        worker rebuilds an **empty** engine from the shard's factory.
        Callers are responsible for re-populating the engine (the
        supervisor replays its command log); the per-shard command
        ordinal seen by ``fault_hook`` keeps counting monotonically so a
        scheduled fault never re-fires on the replacement worker.
        """
        worker = self._workers[shard]
        if worker.is_alive():  # wedged, not dead: reap it
            worker.kill()
        worker.join(timeout=5.0)
        try:
            self._pipes[shard].close()
        except OSError:  # pragma: no cover - already broken
            pass
        parent, child = self._ctx.Pipe()
        replacement = self._ctx.Process(
            target=_shard_worker,
            args=(child, self._factories[shard]),
            daemon=True,
        )
        replacement.start()
        child.close()
        self._workers[shard] = replacement
        self._pipes[shard] = parent

    def _send(self, shard: int, method: str, args: tuple, segments: list) -> None:
        """Encode and send one command, wrapping transport failures."""
        if self._fault_hook is not None:
            self._fault_hook(shard, self._sent[shard], self._workers[shard])
        self._sent[shard] += 1
        try:
            self._pipes[shard].send(
                (method, encode_args(args, segments, self._shm_min_rows))
            )
        except (BrokenPipeError, ConnectionError, OSError) as exc:
            raise ShardCrashError(
                shard,
                f"shard {shard}: worker pipe broke sending {method!r} "
                f"({type(exc).__name__})",
            ) from exc

    def _recv(self, shard: int) -> tuple[object, GridStats]:
        """Deadline-aware receive: poll the pipe, watch worker liveness."""
        pipe = self._pipes[shard]
        worker = self._workers[shard]
        timeout = self._recv_timeout
        deadline = None if timeout is None else monotonic() + timeout
        while True:
            try:
                if pipe.poll(self.POLL_INTERVAL):
                    status, payload = pipe.recv()
                    if status == "pull":
                        # Mid-command upcall from a partitioned shard
                        # engine: serve the cell fetch and keep waiting
                        # for the command's real reply.  The deadline
                        # restarts — the worker is demonstrably alive
                        # and making progress.
                        server = self._pull_server
                        if server is None:
                            raise ShardWorkerError(
                                f"shard {shard}: pulled a cell but no "
                                f"pull server is bound"
                            )
                        try:
                            pipe.send(("pulldata", server(shard, payload)))
                        except (BrokenPipeError, ConnectionError, OSError) as exc:
                            raise ShardCrashError(
                                shard,
                                f"shard {shard}: worker died awaiting pull "
                                f"data ({type(exc).__name__})",
                            ) from exc
                        deadline = (
                            None if timeout is None else monotonic() + timeout
                        )
                        continue
                    break
            except (EOFError, ConnectionError, OSError) as exc:
                raise ShardCrashError(
                    shard,
                    f"shard {shard}: worker (pid {worker.pid}) died "
                    f"mid-command ({type(exc).__name__})",
                ) from exc
            if not worker.is_alive():
                # One final zero-timeout poll: the worker may have replied
                # in full just before exiting.
                try:
                    if pipe.poll(0):
                        status, payload = pipe.recv()
                        break
                except (EOFError, ConnectionError, OSError):
                    pass
                raise ShardCrashError(
                    shard,
                    f"shard {shard}: worker (pid {worker.pid}) exited with "
                    f"code {worker.exitcode} mid-command",
                )
            if deadline is not None and monotonic() >= deadline:
                raise ShardTimeoutError(
                    shard,
                    f"shard {shard}: no reply from worker (pid {worker.pid}) "
                    f"within {timeout:g}s",
                )
        if status != "ok":
            raise ShardWorkerError(f"shard {shard}: {payload}")
        return payload

    def call(self, shard: int, method: str, *args) -> tuple[object, GridStats]:
        segments: list = []
        try:
            self._send(shard, method, args, segments)
            return self._recv(shard)
        finally:
            # The worker copied the columns out before replying, so the
            # segments are safe to destroy as soon as the reply is in.
            for shm in segments:
                release_segment(shm)

    def call_all(
        self, method: str, args_per_shard: Sequence[tuple]
    ) -> list[tuple[object, GridStats]]:
        if len(args_per_shard) != len(self._pipes):
            raise ValueError(
                f"expected {len(self._pipes)} argument tuples, "
                f"got {len(args_per_shard)}"
            )
        segments: list = []
        try:
            # Send to every live shard even when one send fails: skipping
            # the rest would starve healthy workers of their command and
            # desynchronize the request/reply protocol fleet-wide.
            failure: ShardWorkerError | None = None
            sent: list[bool] = []
            for shard, args in enumerate(args_per_shard):
                try:
                    self._send(shard, method, args, segments)
                    sent.append(True)
                except ShardFailure as exc:
                    sent.append(False)
                    if failure is None:
                        failure = exc
            # Drain every reply before raising: leaving a reply buffered
            # would desynchronize the request/reply protocol and make every
            # later command return the previous command's payload.  A dead
            # pipe (ShardCrashError) counts as drained — there is nothing
            # left to read from it.
            results: list[tuple[object, GridStats]] = []
            for shard in range(len(self._pipes)):
                if not sent[shard]:
                    continue
                try:
                    results.append(self._recv(shard))
                except ShardWorkerError as exc:
                    if failure is None:
                        failure = exc
            if failure is not None:
                raise failure
            return results
        finally:
            for shm in segments:
                release_segment(shm)

    def close(self) -> None:
        for pipe in self._pipes:
            try:
                pipe.send(None)
            except (BrokenPipeError, OSError):  # pragma: no cover - dead worker
                pass
        for worker in self._workers:
            worker.join(timeout=5.0)
            if worker.is_alive():  # pragma: no cover - stuck worker
                worker.kill()
                worker.join(timeout=5.0)
        for pipe in self._pipes:
            pipe.close()
        self._factories = []
        self._workers = []
        self._pipes = []
        self._sent = []
