"""``python3 -m bench compare A.json B.json`` — judge two sets of runs.

Each file is what ``python3 -m bench --repeat R --out FILE`` kept.  Per
workload and end-to-end metric the two medians are compared against the
metric's bound in ``BENCHMARK.json``:

* **unresolved** — the quartile spread of either set (distance between
  the first and third quartile as a share of the median, as
  ``statistics.quantiles(values, n=4)`` gives them) is wider than the
  bound, so the sets cannot tell a change of that size from noise;
* **regressed** — B's median is worse than A's by more than the bound;
* **within-bound** — otherwise.

``cell_accesses_per_query_per_ts`` is a pure function of the seed, so
where the two sets share seeds it is judged run against run instead:
**identical** when every shared ``(workload, seed)`` gave the same value
to the last digit, **differs** (with the seeds) when any did not — the
program's behaviour changed, whatever the medians say.  Only sets with no
seed in common fall back to the medians and the bound, which then covers
what different seeds do to the count.

Exit code 1 when any pair regressed or differs.
"""

from __future__ import annotations

import json
import sys
from statistics import median, quantiles

from bench.cli import load_contract

#: metrics that depend on the seed alone.
PER_SEED_EXACT = frozenset({"cell_accesses_per_query_per_ts"})


def load_runs(path: str) -> dict[tuple[str, str], dict[int, float]]:
    """``{(workload, metric): {seed: value}}`` of a file's untraced runs."""
    with open(path, encoding="utf-8") as fh:
        runs = json.load(fh)["runs"]
    values: dict[tuple[str, str], dict[int, float]] = {}
    for run in runs:
        details = run["details"]
        if details["trace"]:
            continue
        for name, metric in run["metrics"].items():
            values.setdefault((details["workload"], name), {})[details["seed"]] = (
                metric["value"]
            )
    return values


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = load_runs(argv[0]), load_runs(argv[1])
    contract = load_contract()
    bad = 0
    print(
        f"{'workload':18s} {'metric':32s} {'median A':>12s} {'median B':>12s} "
        f"{'B worse by':>10s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}  verdict"
    )
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            values_a, values_b = list(a[key].values()), list(b[key].values())
            med_a, med_b = median(values_a), median(values_b)
            worse = (med_b - med_a) / med_a
            if metric["better"] == "higher":
                worse = -worse
            spread_a, spread_b = spread(values_a), spread(values_b)
            bound = metric["bound"]
            shared = sorted(a[key].keys() & b[key].keys())
            if metric["name"] in PER_SEED_EXACT and shared:
                differing = [seed for seed in shared if a[key][seed] != b[key][seed]]
                if differing:
                    verdict = f"differs at seeds {differing}"
                    bad += 1
                else:
                    verdict = f"identical ({len(shared)} seeds)"
            elif max(spread_a, spread_b) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
                bad += 1
            else:
                verdict = "within-bound"
            print(
                f"{workload:18s} {metric['name']:32s} {med_a:12.6g} {med_b:12.6g} "
                f"{worse:+10.2%} {spread_a:9.2%} {spread_b:9.2%} {bound:6.0%}  {verdict}"
            )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
