"""Command line of the benchmark (``python3 -m bench``; see README.md)."""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = ROOT / "BENCHMARK.json"
OUT_DIR = Path(__file__).resolve().parent / "out"

#: ``--smoke``: share of every population, and the window in seconds.
SMOKE_SHARE = 0.05
SMOKE_SECONDS = 1.0


def load_contract() -> dict:
    with CONTRACT.open(encoding="utf-8") as fh:
        return json.load(fh)


def result_line(
    kind: str, values: dict, attempted: int, failed: int, idle: frozenset = frozenset()
) -> dict:
    """The result object: every ``kind`` metric ``BENCHMARK.json`` lists.

    ``idle`` names the listed metrics this workload's layers give no
    reading of; they read 0.  ``values`` must hold exactly the others: a
    reading that is missing, or one the contract does not list, is a bug
    in the benchmark and ends the run without a result.  The one
    exception is a failed run that measured nothing: it reports its
    failure and no metrics."""
    listed = {m["name"]: m["unit"] for m in load_contract()[kind]}
    if values or not failed:
        expected = listed.keys() - idle
        if values.keys() != expected:
            raise SystemExit(
                f"{kind}: missing {sorted(expected - values.keys())}, "
                f"unexpected {sorted(values.keys() - expected)}"
            )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in listed.items()
            if values
        },
    }


def run_one(args) -> int:
    """One workload in this interpreter; result object on the last line."""
    import repro

    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"measuring {repro.__file__}, not this checkout's src/")

    from bench import harness, layers
    from bench.runners import RUNNERS
    from bench.workloads import WORKLOADS

    spec = WORKLOADS[args.workload]
    if args.smoke:
        spec = spec.scaled(SMOKE_SHARE)
    if args.trace:
        values, details, attempted, failed = layers.traced_run(
            RUNNERS[spec.name], spec, args.seed, args.seconds,
            OUT_DIR / f"trace-{spec.name}.json",
        )
        kind = "per_layer"
        idle = frozenset(
            m["name"] for m in load_contract()[kind]
            if not layers.measured_on(m["name"], spec.name)
        )
    else:
        runner = RUNNERS[spec.name](spec, args.seed)
        values, details, attempted, failed = harness.end_to_end_run(
            runner, args.seed, args.seconds
        )
        runner.close()
        kind = "end_to_end"
        idle = frozenset()
    details.update(workload=spec.name, seed=args.seed, trace=args.trace)
    print("details " + json.dumps(details))
    print(json.dumps(result_line(kind, values, attempted, failed, idle)))
    return 0


# ----------------------------------------------------------------------
# Every workload, each in its own interpreter
# ----------------------------------------------------------------------


def _spawn(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    command = [
        sys.executable, "-m", "bench", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True
    )
    lines = done.stdout.strip().splitlines()
    run = json.loads(lines[-1])
    run["details"] = json.loads(lines[-2].removeprefix("details "))
    return run


def run_suite(args) -> int:
    contract = load_contract()
    seconds = SMOKE_SECONDS if args.smoke else (
        args.seconds if args.seconds is not None else contract["run_seconds"]
    )
    runs = []
    failed = 0
    for repeat in range(args.repeat):
        seed = args.seed + repeat
        for workload in (w["name"] for w in contract["workloads"]):
            for trace in (0, 1) if args.trace else (0,):
                run = _spawn(workload, seed, seconds, trace, args.smoke)
                runs.append(run)
                failed += run["failed"]
                _print_run(run)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"runs": runs}, fh, indent=1)
    print(f"ops_failed {failed}")
    return 1 if failed else 0


def _print_run(run: dict) -> None:
    d = run["details"]
    print(
        f"== {d['workload']} seed={d['seed']} trace={d['trace']} "
        f"ops_attempted={run['attempted']} ops_failed={run['failed']} "
        f"cycles={d.get('cycles')}"
    )
    for name, metric in run["metrics"].items():
        print(f"   {name:36s} {metric['value']:>16.6g} {metric['unit']}")
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from bench.compare import main as compare_main

        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", help="keep the runs as JSON (for compare)")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_suite(args)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else load_contract()["run_seconds"]
    return run_one(args)
