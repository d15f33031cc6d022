"""The typed client API: sessions, handles and the wire protocol.

This package is *the* way programs talk to the monitor (ROADMAP: the
delta network transport and the wire-format ingestion source, unified):

* :mod:`repro.api.queries` — typed query specs
  (:class:`KnnSpec` / :class:`ConstrainedKnnSpec` / :class:`RangeSpec`);
* :mod:`repro.api.session` — the in-process client surface
  (:class:`Session` + :class:`QueryHandle` with per-query delta
  subscriptions);
* :mod:`repro.api.wire` — the versioned wire protocol (ndjson updates
  in, binary delta records out);
* :mod:`repro.api.server` — the socket server publishing subscribed
  deltas and accepting update/query frames;
* :mod:`repro.api.client` — the remote client mirroring the Session
  API over a socket.

Submodules are imported lazily (PEP 562, same pattern as
:mod:`repro.service`) so importing :mod:`repro.api` stays cheap and
cycle-free.
"""

from __future__ import annotations

_EXPORTS = {
    "KnnSpec": "repro.api.queries",
    "ConstrainedKnnSpec": "repro.api.queries",
    "RangeSpec": "repro.api.queries",
    "QuerySpec": "repro.api.queries",
    "install_spec": "repro.api.queries",
    "Session": "repro.api.session",
    "QueryHandle": "repro.api.session",
    "Client": "repro.api.client",
    "RemoteQueryHandle": "repro.api.client",
    "RemoteError": "repro.api.client",
    "ReconnectEvent": "repro.api.client",
    "ReconnectPolicy": "repro.api.retry",
    "MonitorSocketServer": "repro.api.server",
    "WIRE_VERSION": "repro.api.wire",
    "WireError": "repro.api.wire",
    "encode_frame": "repro.api.wire",
    "decode_frame": "repro.api.wire",
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
