"""Command-line entry point: ``python -m repro.perf``.

Run the suite (the default subcommand)::

    PYTHONPATH=src python -m repro.perf --scale 0.02 --out counters.json
    PYTHONPATH=src python -m repro.perf --suite smoke --scale 0.01 --out bench.json

Run it with the service tier fully instrumented (the counters must match
the plain run byte for byte) and keep the run's Prometheus scrape
snapshot as an artifact::

    PYTHONPATH=src python -m repro.perf --suite smoke --telemetry \
        --scrape-out scrape.txt --out bench-telemetry.json

Gate a change against a baseline (exact: any counter that grew fails)::

    PYTHONPATH=src python -m repro.perf compare old.json new.json

Exit codes: 0 = ok, 1 = counter regression or missing case, 2 = unusable
input (schema, scale or suite mismatch, bad option value).  Timing is not
measured here — that is ``python3 -m bench``.
"""

from __future__ import annotations

import argparse
import sys

from repro.obs.metrics import MetricsRegistry
from repro.perf.compare import compare_reports, render_comparison
from repro.perf.runner import run_suite
from repro.perf.schema import SchemaError, dump_report, load_report


def _parse_annotations(pairs: list[str]) -> dict[str, str]:
    annotations: dict[str, str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            # Usage errors exit 2: exit 1 is reserved for a genuine
            # counter regression.
            print(
                f"error: --annotate expects key=value, got {pair!r}",
                file=sys.stderr,
            )
            raise SystemExit(2)
        annotations[key] = value
    return annotations


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
            default=0.02,
            help="workload scale (default: 0.02; 1.0 = the paper's sizes)",
        )
        target.add_argument(
            "--suite",
            choices=("full", "smoke"),
            default="full",
            help="case selection (smoke = the cheap per-PR CI subset)",
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
            help="run the service-tier cases fully instrumented (counters "
            "must match the plain run byte for byte)",
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
        "--verbose", action="store_true", help="list every compared metric"
    )
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    if args.scale <= 0:
        print("error: --scale must be positive", file=sys.stderr)
        return 2
    progress = None if args.quiet else lambda line: print(line, flush=True)
    annotations = _parse_annotations(args.annotate)
    registry = None
    if args.telemetry or args.scrape_out:
        registry = MetricsRegistry()
        annotations.setdefault("telemetry", "on")
    report = run_suite(
        args.scale,
        suite=args.suite,
        annotations=annotations,
        progress=progress,
        registry=registry,
    )
    total_scans = sum(c.metrics["cell_scans"] for c in report.cases)
    print(
        f"suite={report.suite} scale={report.scale} cases={len(report.cases)} "
        f"total_cell_scans={total_scans}"
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
    try:
        comparison = compare_reports(load_report(args.old), load_report(args.new))
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_comparison(comparison, verbose=args.verbose))
    if comparison.ok:
        print("perf gate: OK")
        return 0
    print("perf gate: REGRESSED")
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "compare":
        return _cmd_compare(args)
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
