#!/usr/bin/env python
"""Remote dashboard: two processes, one wire protocol.

The **server process** hosts a CPM monitor behind a
:class:`repro.api.server.MonitorSocketServer` on a localhost socket.
The **client process** (this one) connects with
:class:`repro.api.client.Client`, registers kNN queries through the
versioned wire protocol, streams the workload's object updates in and
receives per-query result deltas back.

Two properties are verified (exit code != 0 on failure):

* **isolation** — the client subscribes to only one of its queries, and
  every ``delta`` frame that arrives on the connection belongs to that
  query: the server's per-query topic routing, observed from outside.
* **fidelity** — an in-process :class:`repro.api.session.Session`
  replays the identical workload; both delta streams are re-encoded as
  wire frames (binary delta records) and must match **byte for byte**.

Both processes derive the same deterministic workload from the same
seed, so nothing but queries, updates and deltas crosses the socket.

Run:  python examples/remote_dashboard.py
"""

from __future__ import annotations

import subprocess
import sys

from repro.api import wire
from repro.api.client import Client
from repro.api.queries import KnnSpec
from repro.api.server import MonitorSocketServer
from repro.api.session import Session
from repro.core.cpm import CPMMonitor
from repro.mobility.skewed import SkewedGenerator
from repro.mobility.workload import WorkloadSpec

SPEC = WorkloadSpec(
    n_objects=400,
    n_queries=6,
    k=3,
    timestamps=6,
    seed=77,
    object_agility=0.5,
    query_agility=0.0,  # queries move only through the client's API
)
CELLS = 32


def build_workload():
    return SkewedGenerator(SPEC).generate()


def serve() -> None:
    """The server process: monitor + socket endpoint, port on stdout."""
    workload = build_workload()
    session = Session(CPMMonitor(cells_per_axis=CELLS))
    session.load_objects(workload.initial_objects.items())
    server = MonitorSocketServer(session, "127.0.0.1", 0, name="remote-dashboard")
    host, port = server.start()
    print(f"PORT {port}", flush=True)
    # Serve until the parent kills us (examples-smoke bounds the runtime).
    import time

    time.sleep(120)


def main() -> None:
    if "--serve" in sys.argv:
        serve()
        return

    workload = build_workload()
    queries = sorted(workload.initial_queries.items())[:2]
    (watched_qid, watched_point), (silent_qid, silent_point) = queries

    # ---- process 1: the server ---------------------------------------
    proc = subprocess.Popen(
        [sys.executable, __file__, "--serve"],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline().strip()
        assert line.startswith("PORT "), f"unexpected server output: {line!r}"
        port = int(line.split()[1])
        print(f"server process {proc.pid} listening on 127.0.0.1:{port}")

        # ---- process 2 (this one): the wire client -------------------
        client = Client.connect("127.0.0.1", port, client_name="dashboard")
        frames: list[wire.Delta] = []
        client.delta_frame_log = frames  # record *everything* that arrives

        watched = client.register(
            KnnSpec(point=watched_point, k=SPEC.k), qid=watched_qid
        )
        silent = client.register(
            KnnSpec(point=silent_point, k=SPEC.k), qid=silent_qid, watch=False
        )
        remote_lines: list[bytes] = []
        watched.subscribe(
            lambda ts, d: remote_lines.append(wire.encode_delta(ts, d))
        )
        print(
            f"registered q{watched.qid} (subscribed) and q{silent.qid} "
            f"(unwatched) over the wire; initial |NN| = "
            f"{len(watched.snapshot())}/{len(silent.snapshot())}"
        )

        for batch in workload.batches:
            client.send_updates(batch.object_updates)
            changed = client.tick(timestamp=batch.timestamp)
            print(
                f"t={batch.timestamp}: {len(batch.object_updates)} updates "
                f"sent, {len(changed)} queries changed, "
                f"{len(remote_lines)} deltas streamed so far"
            )
        client.close()
    finally:
        proc.terminate()
        proc.wait(timeout=10)

    # ---- isolation: only the subscribed topic crossed the socket -----
    leaked = sorted({f.delta.qid for f in frames} - {watched_qid})
    print(
        f"isolation: {len(frames)} delta frames on the connection, "
        f"leaked topics: {leaked if leaked else 'none'}"
    )

    # ---- fidelity: byte-equivalent to an in-process session ----------
    local = Session(CPMMonitor(cells_per_axis=CELLS))
    local.load_objects(workload.initial_objects.items())
    local_watched = local.register(
        KnnSpec(point=watched_point, k=SPEC.k), qid=watched_qid
    )
    local.register(KnnSpec(point=silent_point, k=SPEC.k), qid=silent_qid)
    local_lines: list[bytes] = []
    local_watched.subscribe(
        lambda ts, d: local_lines.append(wire.encode_delta(ts, d))
    )
    for batch in workload.batches:
        local.tick_batch(batch)

    matches = remote_lines == local_lines
    print(
        f"fidelity: {len(remote_lines)} remote vs {len(local_lines)} local "
        f"delta frames — byte-identical: {matches}"
    )
    if remote_lines and matches:
        sample = remote_lines[-1]
        print(
            f"sample frame: {len(sample)}-byte delta record "
            f"{wire.decode_frame(sample)}"
        )
    if leaked or not matches:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
