"""Seeded workload definitions and input generators of the benchmark.

The program under test only ever sees what this module generates.  The
generators run on ``random.Random(seed)`` and share nothing with
``repro.mobility``, so a later change there cannot move the load.

One :class:`Population` is both the input source and the benchmark's
*shadow position table*: after the last cycle its ``xs``/``ys`` hold
where every object is, which is what the brute-force verification
sorts.  Ordinary objects and queries stay inside ``[0, LIMIT]`` on both
axes; the strip beyond ``LIMIT`` is reserved for ``wire_stream``'s
end-of-cycle sentinel.

Every MOVE :class:`~repro.updates.QueryUpdate` carries ``k``: with
``k=None`` the engine re-installs the query at ``k=1``.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, replace
from typing import NamedTuple

from repro.api import wire
from repro.updates import (
    FlatUpdateBatch,
    ObjectUpdate,
    QueryUpdate,
    QueryUpdateKind,
    UpdateBatch,
)

#: ordinary coordinates stay in [0, LIMIT]; beyond it lives the sentinel.
LIMIT = 0.99
#: per-axis random-walk amplitude of one update (objects and queries).
STEP = 1.0 / 250.0
#: rows per ``updates`` frame (``push_feed_to_socket``'s default).
ROWS_PER_FRAME = 256

#: ``partition_skewed``'s hotspot centres.  Fixed, not seeded: the skew
#: (3 / 2 / 1 / 2 hotspots in the four column blocks of a 4-shard plan)
#: is part of the workload's definition, so every seed measures the same
#: imbalance and only positions and walks vary.
HOTSPOTS = (
    (0.12, 0.20), (0.18, 0.70), (0.22, 0.45), (0.40, 0.30),
    (0.45, 0.80), (0.62, 0.55), (0.80, 0.25), (0.88, 0.75),
)
HOTSPOT_SIGMA = 0.03
HOTSPOT_CUT = 2.0
#: share of the distance to its hotspot an object recovers per update,
#: which keeps the hotspots from diffusing away over a run.
HOTSPOT_PULL = 0.02


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """One workload's sizes (why each exists: ``BENCHMARK.json``, README.md)."""

    name: str
    n_objects: int
    n_queries: int
    k: int
    #: share of objects that report a new position each cycle.
    f_obj: float
    #: share of queries that move each cycle.
    f_qry: float
    grid: int = 128
    hotspots: bool = False
    #: this many cycles, counted from the run's sixth, give
    #: ``cell_accesses_per_query_per_ts``, so the count depends on the
    #: seed alone and not on how many cycles fit the warm-up or the window.
    counter_cycles: int = 10

    def scaled(self, share: float) -> "WorkloadSpec":
        """The same workload at ``share`` of its populations (smoke runs)."""
        return replace(
            self,
            n_objects=max(200, int(self.n_objects * share)),
            n_queries=max(20, int(self.n_queries * share)),
            counter_cycles=3,
        )


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="engine_maintain",
            n_objects=100_000, n_queries=5_000, k=16, f_obj=0.5, f_qry=0.0,
            counter_cycles=10,
        ),
        WorkloadSpec(
            name="engine_search",
            n_objects=100_000, n_queries=5_000, k=16, f_obj=0.05, f_qry=1.0,
            counter_cycles=20,
        ),
        WorkloadSpec(
            name="wire_stream",
            n_objects=50_000, n_queries=2_000, k=8, f_obj=0.1, f_qry=0.05,
            counter_cycles=30,
        ),
        WorkloadSpec(
            name="partition_skewed",
            n_objects=50_000, n_queries=2_500, k=16, f_obj=0.3, f_qry=0.2,
            hotspots=True, counter_cycles=15,
        ),
    )
}


class CycleInput(NamedTuple):
    """One cycle of generated movement, still in plain columns."""

    timestamp: int
    oids: list[int]
    old_xs: list[float]
    old_ys: list[float]
    new_xs: list[float]
    new_ys: list[float]
    #: ``(qid, x, y)`` of every query that moves this cycle.
    moves: list[tuple[int, float, float]]


def _clamp(v: float) -> float:
    return 0.0 if v < 0.0 else LIMIT if v > LIMIT else v


def _hotspot_coordinate(rng: random.Random, centre: float) -> float:
    """``centre`` plus a Gaussian offset redrawn until within
    ``HOTSPOT_CUT`` sigmas: the few queries a plain Gaussian strands in
    empty space each scan hundreds of cells, and how many a seed strands
    would decide its cell accesses."""
    while True:
        d = rng.gauss(0.0, HOTSPOT_SIGMA)
        if abs(d) <= HOTSPOT_CUT * HOTSPOT_SIGMA:
            return _clamp(centre + d)


class Population:
    """Seeded moving objects and queries; also the shadow position table."""

    def __init__(self, spec: WorkloadSpec, seed: int) -> None:
        self.spec = spec
        self.rng = rng = random.Random(seed)
        n, q = spec.n_objects, spec.n_queries
        if spec.hotspots:
            #: hotspot each object belongs to (and is pulled back to).
            self.home = [i % len(HOTSPOTS) for i in range(n)]
            self.xs = [_hotspot_coordinate(rng, HOTSPOTS[h][0]) for h in self.home]
            self.ys = [_hotspot_coordinate(rng, HOTSPOTS[h][1]) for h in self.home]
            q_home = [i % len(HOTSPOTS) for i in range(q)]
            self.qxs = [_hotspot_coordinate(rng, HOTSPOTS[h][0]) for h in q_home]
            self.qys = [_hotspot_coordinate(rng, HOTSPOTS[h][1]) for h in q_home]
        else:
            self.home = None
            self.xs = [rng.random() * LIMIT for _ in range(n)]
            self.ys = [rng.random() * LIMIT for _ in range(n)]
            self.qxs = [rng.random() * LIMIT for _ in range(q)]
            self.qys = [rng.random() * LIMIT for _ in range(q)]
        self._n = n
        self._rows = int(n * spec.f_obj)
        self._moves = int(q * spec.f_qry)

    def objects(self) -> list[tuple[int, tuple[float, float]]]:
        return [(oid, (x, y)) for oid, (x, y) in enumerate(zip(self.xs, self.ys))]

    def queries(self) -> list[tuple[int, tuple[float, float]]]:
        return [(qid, (x, y)) for qid, (x, y) in enumerate(zip(self.qxs, self.qys))]

    def step(self, timestamp: int) -> CycleInput:
        """Advance one cycle: a seeded sample of objects and of queries
        each take one random-walk step (hotspot objects also drift home)."""
        rng = self.rng
        uniform = rng.uniform
        xs, ys, home = self.xs, self.ys, self.home
        oids = rng.sample(range(self._n), self._rows)
        old_xs = [xs[o] for o in oids]
        old_ys = [ys[o] for o in oids]
        new_xs: list[float] = []
        new_ys: list[float] = []
        for o, x, y in zip(oids, old_xs, old_ys):
            dx = uniform(-STEP, STEP)
            dy = uniform(-STEP, STEP)
            if home is not None:
                cx, cy = HOTSPOTS[home[o]]
                dx += HOTSPOT_PULL * (cx - x)
                dy += HOTSPOT_PULL * (cy - y)
            xs[o] = nx = _clamp(x + dx)
            ys[o] = ny = _clamp(y + dy)
            new_xs.append(nx)
            new_ys.append(ny)
        qxs, qys = self.qxs, self.qys
        moves: list[tuple[int, float, float]] = []
        for qid in sorted(rng.sample(range(len(qxs)), self._moves)):
            qxs[qid] = x = _clamp(qxs[qid] + uniform(-STEP, STEP))
            qys[qid] = y = _clamp(qys[qid] + uniform(-STEP, STEP))
            moves.append((qid, x, y))
        return CycleInput(timestamp, oids, old_xs, old_ys, new_xs, new_ys, moves)


# ----------------------------------------------------------------------
# Encodings: the three forms the program accepts a cycle in
# ----------------------------------------------------------------------


def query_updates(inp: CycleInput, k: int) -> tuple[QueryUpdate, ...]:
    move = QueryUpdateKind.MOVE
    return tuple(QueryUpdate(qid, move, (x, y), k) for qid, x, y in inp.moves)


def flat_batch(inp: CycleInput, k: int) -> FlatUpdateBatch:
    """The columnar form (``process_flat`` / ``tick_flat``)."""
    rows = len(inp.oids)
    return FlatUpdateBatch(
        inp.timestamp,
        array("q", inp.oids),
        array("d", inp.old_xs),
        array("d", inp.old_ys),
        array("d", inp.new_xs),
        array("d", inp.new_ys),
        bytearray(rows),
        bytearray(rows),
        query_updates(inp, k),
    )


def row_batch(inp: CycleInput, k: int) -> UpdateBatch:
    """The row form (``process_batch``, ``Session.tick``, the ``tick`` frame)."""
    return UpdateBatch(
        inp.timestamp,
        tuple(
            ObjectUpdate(oid, (ox, oy), (nx, ny))
            for oid, ox, oy, nx, ny in zip(
                inp.oids, inp.old_xs, inp.old_ys, inp.new_xs, inp.new_ys
            )
        ),
        query_updates(inp, k),
    )


def frame_lines(inp: CycleInput, k: int) -> list[str]:
    """The wire form, one ndjson line per frame: ``updates`` frames of
    :data:`ROWS_PER_FRAME` rows, one ``query`` frame per move, one ``tick``."""
    batch = flat_batch(inp, k)
    lines = []
    for lo in range(0, len(batch), ROWS_PER_FRAME):
        hi = lo + ROWS_PER_FRAME
        lines.append(
            wire.encode_updates_flat(
                FlatUpdateBatch(
                    inp.timestamp,
                    batch.oids[lo:hi],
                    batch.old_xs[lo:hi],
                    batch.old_ys[lo:hi],
                    batch.new_xs[lo:hi],
                    batch.new_ys[lo:hi],
                    batch.appear[lo:hi],
                    batch.disappear[lo:hi],
                )
            )
        )
    lines.extend(
        wire.encode_frame(wire.QueryOp(update=qu)) for qu in batch.query_updates
    )
    lines.append(wire.encode_frame(wire.Tick(timestamp=inp.timestamp)))
    return lines


def frame_blob(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode("utf-8")
