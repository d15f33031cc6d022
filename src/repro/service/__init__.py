"""The monitoring service layer: sharding, delta streaming, execution.

Layered on top of the single-engine monitors (:mod:`repro.core.cpm` and
the baselines), this package scales the library toward a serving system:

* :mod:`repro.service.deltas` — structured per-query result deltas (the
  incremental contract extension of :class:`repro.monitor.ContinuousMonitor`);
* :mod:`repro.service.subscriptions` — callback-based delta streaming;
* :mod:`repro.service.partition` — the sharded monitor: a ``ShardPlan``
  splits the grid into column blocks, and ``PartitionedMonitor`` runs one
  CPM engine per block (halo cells, cell-sync fan-out, on-demand pulls,
  live query migration);
* :mod:`repro.service.executor` — pluggable shard executors (serial and
  ``multiprocessing``-backed);
* :mod:`repro.service.service` — the cycle-driven facade the replay
  loop (:meth:`repro.api.session.Session.replay`) adapts to.

Submodules are imported lazily (PEP 562) so that :mod:`repro.monitor` can
depend on :mod:`repro.service.deltas` without an import cycle.
"""

from __future__ import annotations

_EXPORTS = {
    "ResultDelta": "repro.service.deltas",
    "diff_results": "repro.service.deltas",
    "Subscription": "repro.service.subscriptions",
    "SubscriptionHub": "repro.service.subscriptions",
    "ShardPlan": "repro.service.partition",
    "PartitionedMonitor": "repro.service.partition",
    "PartitionShardEngine": "repro.service.partition",
    "SerialShardExecutor": "repro.service.executor",
    "ProcessShardExecutor": "repro.service.executor",
    "ShardWorkerError": "repro.service.executor",
    "ShardFailure": "repro.service.executor",
    "ShardCrashError": "repro.service.executor",
    "ShardTimeoutError": "repro.service.executor",
    "SupervisedShardExecutor": "repro.service.supervisor",
    "SupervisorPolicy": "repro.service.supervisor",
    "RecoveryEvent": "repro.service.supervisor",
    "MonitoringService": "repro.service.service",
    "TickReport": "repro.service.service",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
