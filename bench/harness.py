"""Set-up timing, the measured window, verification and the result line.

The design rule (see README.md): one process, closed loop, one cycle in
flight, long windows, medians.  A run is

1. ``SETUP_BUILDS + 1`` cold builds of the system, the first discarded,
   the median of the rest reported as ``setup_s``;
2. a warm-up (at least ``WARMUP_MIN_CYCLES`` cycles and
   ``WARMUP_SHARE`` of the window), one ``gc.collect()``, then cycles
   until the window's busy time reaches ``--seconds`` — the collector
   stays on, and the next cycle's input is generated between cycles,
   outside the timed region;
3. verification against the benchmark's own shadow table, outside the
   window, every mismatch counted as a failed operation.

Between every two builds and every two measured cycles the host-speed
reference (:mod:`bench.hostref`) is timed; a build's or cycle's *host
factor* is the mean of the two readings around it, and the timing metrics
are computed from durations divided by their host factors.
"""

from __future__ import annotations

import gc
import heapq
import random
import resource
from dataclasses import dataclass, field
from itertools import count
from math import hypot
from statistics import median, quantiles
from time import perf_counter

from repro.grid.stats import GridStats

from bench.hostref import SHARE, HostReference, host_factor
from bench.runners import Runner

SETUP_BUILDS = 7
WARMUP_MIN_CYCLES = 5
WARMUP_SHARE = 0.1
VERIFY_QUERIES = 64


@dataclass(slots=True)
class PassResult:
    """What one warm-up + measured window produced."""

    #: wall-clock duration of every measured cycle, seconds.
    seconds: list[float] = field(default_factory=list)
    #: host factor of every measured cycle (1.0 throughout when the pass
    #: ran without the reference, as the passes of a traced run do).
    host: list[float] = field(default_factory=list)
    #: cell scans of every cycle from the first, warm-up included (the
    #: traced and the untraced pass must agree on these).
    scans: list[int] = field(default_factory=list)
    warmup_cycles: int = 0
    #: object-update rows and query moves applied in the window.
    rows: int = 0
    moves: int = 0
    changed: int = 0
    attempted: int = 0
    failed: int = 0
    #: the engine's access counters accumulated over the window.
    window: GridStats = field(default_factory=GridStats)

    @property
    def updates(self) -> int:
        return self.rows + self.moves

    @property
    def cycles(self) -> int:
        return len(self.seconds)

    def normalised(self) -> list[float]:
        """Every measured cycle's seconds at the nominal host speed."""
        return [s / h for s, h in zip(self.seconds, self.host)]

    def p50_ms(self) -> float:
        return median(self.normalised()) * 1e3

    def p90_ms(self) -> float:
        if self.cycles < 2:
            return self.p50_ms()
        return quantiles(self.normalised(), n=10, method="inclusive")[8] * 1e3

    def measured_scans(self) -> list[int]:
        return self.scans[self.warmup_cycles:]


def timed_setups(
    runner: Runner, href: HostReference, builds: int = SETUP_BUILDS
) -> tuple[list[float], list[float]]:
    """Build the system ``builds + 1`` times; returns every build's
    wall-clock seconds and host factor, the discarded first included.
    The last build stays up."""
    times, host = [], []
    before = href.sample(0.0)
    for i in range(builds + 1):
        if i:
            runner.close()
        gc.collect()
        t0 = perf_counter()
        runner.build()
        times.append(perf_counter() - t0)
        after = href.sample(SHARE * times[-1])
        host.append(host_factor(before, after))
        before = after
    return times, host


def run_pass(
    runner: Runner,
    seconds: float,
    min_cycles: int = 0,
    warmup_cycles: int = WARMUP_MIN_CYCLES,
    href: HostReference | None = None,
) -> PassResult:
    """Warm up, then measure until the cycles' own wall-clock time reaches
    ``seconds`` (and at least ``min_cycles`` were measured).  With
    ``href`` the reference is timed after every measured cycle."""
    out = PassResult()
    stats = runner.monitor.stats
    tracer = runner.tracer
    timestamp = 0

    def step() -> tuple[float, int, int, int] | None:
        nonlocal timestamp
        payload, rows, moves = runner.prepare(timestamp)
        scans_before = stats.cell_scans
        out.attempted += 1
        t_call = perf_counter()
        result = runner.cycle(timestamp, payload)
        if result is None:
            out.failed += 1
            return None
        if tracer is not None:
            tracer.add("cycle", t_call, t_call + result[0], None, timestamp)
        out.scans.append(stats.cell_scans - scans_before)
        timestamp += 1
        return result[0], rows, moves, result[1]

    busy = last = 0.0
    while out.warmup_cycles < warmup_cycles or busy < WARMUP_SHARE * seconds:
        done = step()
        if done is None:
            return out
        out.warmup_cycles += 1
        last = done[0]
        busy += last

    gc.collect()
    base = stats.snapshot()
    before = None if href is None else href.sample(SHARE * last)
    busy = 0.0
    while busy < seconds or out.cycles < min_cycles:
        done = step()
        if done is None:
            break
        after = None if href is None else href.sample(SHARE * done[0])
        out.seconds.append(done[0])
        out.host.append(1.0 if href is None else host_factor(before, after))
        before = after
        out.rows += done[1]
        out.moves += done[2]
        out.changed += done[3]
        busy += done[0]
    out.window = stats.snapshot().diff(base)
    return out


def cell_accesses_per_query_per_ts(runner: Runner, result: PassResult) -> float:
    """Figure 6.3b over ``counter_cycles`` cycles counted from the start of
    the run (after the ``WARMUP_MIN_CYCLES`` every run warms up for), not
    from the start of the window: how long the warm-up lasts depends on
    the clock, and this number must depend on the seed alone."""
    scans = result.scans[WARMUP_MIN_CYCLES:][: runner.spec.counter_cycles]
    return sum(scans) / (len(runner.monitor.query_ids()) * len(scans))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def verify(runner: Runner, seed: int) -> tuple[int, int]:
    """``(checks, mismatches)``: sampled queries' final results against
    a brute-force ``(hypot, oid)`` sort over the shadow position table,
    plus the workload's own end-state check."""
    pop = runner.pop
    spec = runner.spec
    xs, ys = pop.xs, pop.ys
    rng = random.Random(seed + 0x5EED)
    sample = rng.sample(range(spec.n_queries), min(VERIFY_QUERIES, spec.n_queries))
    mismatches = 0
    for qid in sample:
        qx, qy = pop.qxs[qid], pop.qys[qid]
        distances = map(hypot, [x - qx for x in xs], [y - qy for y in ys])
        expected = heapq.nsmallest(spec.k, zip(distances, count()))
        got = [tuple(entry) for entry in runner.monitor.result(qid)]
        if got != expected:
            mismatches += 1
    return len(sample) + 1, mismatches + runner.extra_mismatches()


def end_to_end_run(runner: Runner, seed: int, seconds: float):
    """One untraced run of ``runner``'s workload; returns ``(values,
    details, attempted, failed)``.  ``values`` is empty when not one cycle
    could be measured: the run has failed and there is nothing to report
    but the failure."""
    href = HostReference()
    setups, setup_host = timed_setups(runner, href)
    window = run_pass(runner, seconds, runner.spec.counter_cycles, href=href)
    rss = peak_rss_mb()
    checks, mismatches = verify(runner, seed)
    attempted = window.attempted + checks
    failed = window.failed + mismatches
    details = {
        "cycles": window.cycles,
        "warmup_cycles": window.warmup_cycles,
        "setup_builds_s": setups,
        "setup_host": [round(h, 4) for h in setup_host],
        "ops_attempted": attempted,
        "ops_failed": failed,
    }
    if not window.cycles:
        return {}, details, attempted, failed
    wall = sum(window.seconds)
    values = {
        "setup_s": median(s / h for s, h in zip(setups[1:], setup_host[1:])),
        "updates_per_s": window.updates / sum(window.normalised()),
        "cycle_ms_p50": window.p50_ms(),
        "cell_accesses_per_query_per_ts": cell_accesses_per_query_per_ts(
            runner, window
        ),
        "peak_rss_mb": rss,
    }
    details.update(
        window_s=wall,
        cycle_ms_p90=window.p90_ms(),
        cycle_ms=[round(s * 1e3, 3) for s in window.seconds],
        host=[round(h, 4) for h in window.host],
        # the same three timings as the wall clock read them
        wall={
            "setup_s": median(setups[1:]),
            "updates_per_s": window.updates / wall,
            "cycle_ms_p50": median(window.seconds) * 1e3,
        },
    )
    return values, details, attempted, failed
