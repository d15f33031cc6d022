"""Smoke test of the benchmark itself: ``python -m pytest bench/tests``.

Runs every workload at 1/20 size, untraced and traced, each in its own
interpreter, and checks the output against ``BENCHMARK.json``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# as bench/__main__.py does: this checkout's program, then the benchmark
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

COUNTER = "cell_accesses_per_query_per_ts"


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )


def test_smoke_reports_every_contract_metric(tmp_path):
    from bench.layers import measured_on

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "smoke.json"
    done = bench("--smoke", "--trace", "1", "--out", str(out))
    assert done.returncode == 0, done.stdout
    runs = json.loads(out.read_text())["runs"]
    workloads = [w["name"] for w in contract["workloads"]]
    assert sorted((r["details"]["workload"], r["details"]["trace"]) for r in runs) == sorted(
        (w, trace) for w in workloads for trace in (0, 1)
    )
    for run in runs:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        listed = contract["per_layer" if run["details"]["trace"] else "end_to_end"]
        assert {n: m["unit"] for n, m in run["metrics"].items()} == {
            m["name"]: m["unit"] for m in listed
        }
        if not run["details"]["trace"]:
            assert all(m["value"] > 0 for m in run["metrics"].values())
            assert all(run["details"]["wall"][name] > 0 for name in (
                "setup_s", "updates_per_s", "cycle_ms_p50"
            ))
    # Every per-layer metric is owned by some workload, reads 0 on the
    # workloads that do not own it, and non-zero on one that does (or is
    # a count that is legitimately zero at this size).
    may_be_zero = {"server.dropped", "ingest.coalesced_share"}
    for metric in contract["per_layer"]:
        name = metric["name"]
        owned = [
            r["metrics"][name]["value"] for r in runs
            if r["details"]["trace"] and measured_on(name, r["details"]["workload"])
        ]
        idle = [
            r["metrics"][name]["value"] for r in runs
            if r["details"]["trace"] and not measured_on(name, r["details"]["workload"])
        ]
        assert owned and (name in may_be_zero or any(owned)), name
        assert not any(idle), name

    # compare: a set against itself is within every bound (the per-seed
    # counter identical), and the table carries each metric's bound.
    judged = bench("compare", str(out), str(out))
    assert judged.returncode == 0, judged.stdout
    for metric in contract["end_to_end"]:
        rows = [line for line in judged.stdout.splitlines() if f" {metric['name']} " in line]
        assert len(rows) == len(workloads)
        verdict = "identical (1 seeds)" if metric["name"] == COUNTER else "within-bound"
        assert all(f"{metric['bound']:.0%}" in row and verdict in row for row in rows)

    # ... and the same seed giving another cell-access count is a changed
    # program, however far inside the cross-seed bound the medians stay.
    kept = json.loads(out.read_text())
    victim = next(r for r in kept["runs"] if not r["details"]["trace"])
    victim["metrics"][COUNTER]["value"] *= 1.001
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps(kept))
    judged = bench("compare", str(out), str(changed))
    assert judged.returncode == 1, judged.stdout
    assert f"differs at seeds [{victim['details']['seed']}]" in judged.stdout


def test_result_line_refuses_a_missing_layer_metric():
    import pytest

    from bench.cli import load_contract, result_line

    listed = [m["name"] for m in load_contract()["per_layer"]]
    values = dict.fromkeys(listed[1:], 1.0)
    with pytest.raises(SystemExit, match=listed[0].replace(".", r"\.")):
        result_line("per_layer", values, 1, 0)
    line = result_line("per_layer", values, 1, 0, idle=frozenset(listed[:1]))
    assert line["metrics"][listed[0]]["value"] == 0.0


def test_a_run_whose_cycles_fail_reports_the_failure():
    """A cycle that is not applied in the warm-up leaves nothing to
    compute metrics from: the run must still end with a result object
    that says it failed."""
    from bench import harness
    from bench.cli import result_line
    from bench.runners import EngineMaintain
    from bench.workloads import WORKLOADS

    class Stalled(EngineMaintain):
        def cycle(self, timestamp, batch):
            return None

    runner = Stalled(WORKLOADS["engine_maintain"].scaled(0.01), seed=1)
    values, details, attempted, failed = harness.end_to_end_run(runner, 1, 0.2)
    runner.close()
    assert values == {} and details["cycles"] == 0 and failed >= 1
    line = result_line("end_to_end", values, attempted, failed)
    assert line == {
        "correct": False, "attempted": attempted, "failed": failed, "metrics": {},
    }
