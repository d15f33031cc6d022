"""Command-line entry point: ``python -m repro.perf``.

Run the suite (the default subcommand)::

    PYTHONPATH=src python -m repro.perf --scale 0.02 --out BENCH_PR1.json
    PYTHONPATH=src python -m repro.perf --suite smoke --scale 0.01 --out bench.json

The default ``--scale`` honours the ``REPRO_BENCH_SCALE`` environment
variable (as the pytest-benchmark suite does), falling back to 0.02.

Price the telemetry overhead (instrumented service tier) and keep the
run's Prometheus scrape snapshot as an artifact::

    PYTHONPATH=src python -m repro.perf --suite smoke --telemetry \
        --scrape-out scrape.txt --out bench-telemetry.json

Gate a change against a baseline::

    PYTHONPATH=src python -m repro.perf compare old.json new.json
    PYTHONPATH=src python -m repro.perf compare old.json new.json --warn-only \
        --threshold wall_sec=0.5

Time the hot loop shapes in isolation (advisory; per-object ns of the
dict scan loop versus the fused columnar kernel, plus the within-kernel
per numeric backend)::

    PYTHONPATH=src python -m repro.perf micro
    PYTHONPATH=src python -m repro.perf micro --sizes 8,64 --json

CI enforces the deterministic counters while treating wall-clock as
advisory (``--warn-noisy`` = ``--warn-metric`` for each of wall_sec,
process_sec and peak_rss_kb)::

    PYTHONPATH=src python -m repro.perf compare old.json new.json --warn-noisy

Exit codes: 0 = ok, 1 = perf regression, 2 = unusable input (schema or
scale mismatch, bad threshold spec).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.perf.compare import NOISY_METRICS, compare_reports, render_comparison
from repro.perf.micro import (
    DEFAULT_BACKEND_SIZES,
    DEFAULT_SIZES,
    render_micro,
    render_micro_backends,
    run_micro,
    run_micro_backends,
)
from repro.obs.metrics import MetricsRegistry
from repro.perf.runner import run_suite
from repro.perf.schema import SchemaError, dump_report, load_report


def _default_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.02"))


def _parse_annotations(pairs: list[str]) -> dict[str, str]:
    annotations: dict[str, str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            # Usage errors exit 2, like _parse_thresholds: exit 1 is
            # reserved for a genuine perf regression.
            print(
                f"error: --annotate expects key=value, got {pair!r}",
                file=sys.stderr,
            )
            raise SystemExit(2)
        annotations[key] = value
    return annotations


def _parse_thresholds(pairs: list[str]) -> dict[str, float]:
    thresholds: dict[str, float] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        try:
            if not sep or not key:
                raise ValueError
            thresholds[key] = float(value)
        except ValueError:
            print(
                f"error: --threshold expects metric=fraction, got {pair!r}",
                file=sys.stderr,
            )
            raise SystemExit(2) from None
    return thresholds


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Replay the canonical workload suite or gate two bench files.",
    )
    sub = parser.add_subparsers(dest="command")

    run = sub.add_parser("run", help="run the suite (the default subcommand)")
    for target in (parser, run):
        target.add_argument(
            "--scale",
            type=float,
            default=None,
            help="workload scale (default: $REPRO_BENCH_SCALE or 0.02)",
        )
        target.add_argument(
            "--suite",
            choices=("full", "smoke"),
            default="full",
            help="case selection (smoke = the cheap per-PR CI subset)",
        )
        target.add_argument(
            "--repeats",
            type=int,
            default=1,
            help="replays per case; the minimum wall-clock is kept",
        )
        target.add_argument("--out", default=None, help="write the bench JSON here")
        target.add_argument(
            "--annotate",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="attach provenance annotations (repeatable)",
        )
        target.add_argument(
            "--quiet", action="store_true", help="suppress per-case progress lines"
        )
        target.add_argument(
            "--telemetry",
            action="store_true",
            help="run the service-tier cases fully instrumented (the "
            "telemetry-overhead configuration; counters must match the "
            "plain run byte for byte)",
        )
        target.add_argument(
            "--scrape-out",
            default=None,
            metavar="PATH",
            help="write the run's accumulated metrics registry as "
            "Prometheus text here (implies --telemetry)",
        )

    cmp_parser = sub.add_parser("compare", help="diff two bench files")
    cmp_parser.add_argument("old", help="baseline bench JSON")
    cmp_parser.add_argument("new", help="candidate bench JSON")
    cmp_parser.add_argument(
        "--threshold",
        action="append",
        default=[],
        metavar="METRIC=FRACTION",
        help="override a regression threshold, e.g. wall_sec=0.5 (repeatable)",
    )
    cmp_parser.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but always exit 0 (CI bring-up mode)",
    )
    cmp_parser.add_argument(
        "--warn-metric",
        action="append",
        default=[],
        metavar="METRIC",
        help="demote one metric to advisory: its regressions are reported "
        "but do not fail the gate (repeatable)",
    )
    cmp_parser.add_argument(
        "--warn-noisy",
        action="store_true",
        help=f"demote the noisy metrics ({', '.join(NOISY_METRICS)}) to "
        "advisory, keeping the deterministic counters enforcing",
    )
    cmp_parser.add_argument(
        "--verbose", action="store_true", help="list every compared metric"
    )

    micro = sub.add_parser(
        "micro",
        help="time the scan kernels in isolation (advisory wall-clock)",
    )
    micro.add_argument(
        "--sizes",
        default=",".join(str(s) for s in DEFAULT_SIZES),
        help="comma-separated cell populations to time (scan shapes)",
    )
    micro.add_argument(
        "--backend-sizes",
        default=",".join(str(s) for s in DEFAULT_BACKEND_SIZES),
        help="comma-separated cell populations for the per-backend kernel "
        "scan (numpy crossover)",
    )
    micro.add_argument(
        "--repeats", type=int, default=5, help="samples per layout (best kept)"
    )
    micro.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    scale = args.scale if args.scale is not None else _default_scale()
    if scale <= 0:
        print("error: --scale must be positive", file=sys.stderr)
        return 2
    progress = None if args.quiet else lambda line: print(line, flush=True)
    annotations = _parse_annotations(args.annotate)
    registry = None
    if args.telemetry or args.scrape_out:
        registry = MetricsRegistry()
        annotations.setdefault("telemetry", "on")
    report = run_suite(
        scale,
        suite=args.suite,
        repeats=max(1, args.repeats),
        annotations=annotations,
        progress=progress,
        registry=registry,
    )
    total_wall = sum(c.metrics["wall_sec"] for c in report.cases)
    print(
        f"suite={report.suite} scale={report.scale} cases={len(report.cases)} "
        f"total_wall={total_wall:.2f}s"
    )
    if args.out:
        dump_report(report, args.out)
        print(f"wrote {args.out}")
    if args.scrape_out:
        with open(args.scrape_out, "w", encoding="utf-8") as fh:
            fh.write(registry.render_prometheus())
        print(f"wrote {args.scrape_out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    warn_metrics = set(args.warn_metric)
    if args.warn_noisy:
        warn_metrics.update(NOISY_METRICS)
    try:
        old = load_report(args.old)
        new = load_report(args.new)
        comparison = compare_reports(
            old, new, _parse_thresholds(args.threshold), warn_metrics=warn_metrics
        )
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_comparison(comparison, verbose=args.verbose))
    if comparison.ok:
        print("perf gate: OK")
        return 0
    if args.warn_only:
        print("perf gate: REGRESSED (warn-only mode, not failing the build)")
        return 0
    print("perf gate: REGRESSED")
    return 1


def _parse_sizes(raw: str, flag: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(s) for s in raw.split(",") if s)
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError
    except ValueError:
        print(
            f"error: {flag} expects positive integers, got {raw!r}",
            file=sys.stderr,
        )
        raise SystemExit(2) from None
    return sizes


def _cmd_micro(args: argparse.Namespace) -> int:
    sizes = _parse_sizes(args.sizes, "--sizes")
    backend_sizes = _parse_sizes(args.backend_sizes, "--backend-sizes")
    repeats = max(1, args.repeats)
    scan_rows = run_micro(sizes, repeats=repeats)
    backend_result = run_micro_backends(backend_sizes, repeats=repeats)
    if args.json:
        import json

        print(
            json.dumps(
                {"scan": scan_rows, "backends": backend_result},
                indent=1,
            )
        )
    else:
        print("cell-scan shapes (dict era vs columnar):")
        print(render_micro(scan_rows))
        print()
        print("within-kernel per numeric backend (scalar loop vs numpy):")
        print(render_micro_backends(backend_result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "micro":
        return _cmd_micro(args)
    return _cmd_run(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    try:
        code = main()
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly with the
        # conventional SIGPIPE status instead of a traceback.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)
