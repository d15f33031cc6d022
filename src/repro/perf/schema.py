"""The schema-versioned counter-file format ``repro.perf`` reads and writes.

A bench file is a flat, diff-friendly JSON document::

    {
      "schema_version": 2,
      "scale": 0.02,
      "suite": "full",
      "environment": {"python": "3.11.7", "platform": "Linux-..."},
      "annotations": {"pr": "16", "note": "counter baseline"},
      "cases": [
        {
          "case_id": "scalability_n/N=2000/CPM",
          "workload": "network",
          "algorithm": "CPM",
          "params": {"n_objects": 2000, "n_queries": 100, "k": 16,
                     "grid": 16, "timestamps": 14, "seed": 2005},
          "metrics": {"cell_scans": 4985,
                      "cell_accesses_per_query_per_ts": 3.56,
                      "objects_scanned": 81230, "results_changed": 1393}
        },
        ...
      ]
    }

Every metric is a count that is deterministic for a fixed workload and
seed; nothing in the file depends on a clock or the host (timing lives in
``python3 -m bench``).  ``schema_version`` gates evolution: readers refuse
files written by an incompatible writer instead of silently
misinterpreting them — version 1 files (root ``BENCH_PR1–7.json``) carried
wall-clock metrics and are not readable here.  All loading errors raise
:class:`SchemaError` so the CLI can map them to a distinct exit code (2,
versus 1 for a genuine counter regression).
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass, field
from pathlib import Path

#: current writer version; bump on any incompatible layout change.
SCHEMA_VERSION = 2

#: metric keys every case must carry (extra keys are allowed and preserved).
REQUIRED_METRICS = ("cell_scans", "cell_accesses_per_query_per_ts")


class SchemaError(ValueError):
    """A bench document violates the BENCH_*.json schema."""


@dataclass(slots=True)
class BenchCase:
    """One (workload case, algorithm) measurement."""

    case_id: str
    workload: str
    algorithm: str
    params: dict
    metrics: dict

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "workload": self.workload,
            "algorithm": self.algorithm,
            "params": dict(self.params),
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "BenchCase":
        if not isinstance(raw, dict):
            raise SchemaError(f"case must be an object, got {type(raw).__name__}")
        for key in ("case_id", "workload", "algorithm", "params", "metrics"):
            if key not in raw:
                raise SchemaError(f"case is missing required key {key!r}: {raw!r}")
        metrics = raw["metrics"]
        if not isinstance(metrics, dict):
            raise SchemaError(f"case {raw['case_id']!r}: metrics must be an object")
        for key in REQUIRED_METRICS:
            if key not in metrics:
                raise SchemaError(
                    f"case {raw['case_id']!r} is missing required metric {key!r}"
                )
        # compare diffs every metric, so every one must be a number.
        for key, value in metrics.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise SchemaError(
                    f"case {raw['case_id']!r}: metric {key!r} must be a number"
                )
        return cls(
            case_id=str(raw["case_id"]),
            workload=str(raw["workload"]),
            algorithm=str(raw["algorithm"]),
            params=dict(raw["params"]),
            metrics=dict(metrics),
        )


@dataclass(slots=True)
class BenchReport:
    """A full bench document (one run of the suite)."""

    scale: float
    suite: str = "full"
    schema_version: int = SCHEMA_VERSION
    environment: dict = field(default_factory=dict)
    annotations: dict = field(default_factory=dict)
    cases: list[BenchCase] = field(default_factory=list)

    def case(self, case_id: str) -> BenchCase:
        for case in self.cases:
            if case.case_id == case_id:
                return case
        raise KeyError(f"no case {case_id!r} in this report")

    def case_ids(self) -> list[str]:
        return [case.case_id for case in self.cases]

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "scale": self.scale,
            "suite": self.suite,
            "environment": dict(self.environment),
            "annotations": dict(self.annotations),
            "cases": [case.to_dict() for case in self.cases],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "BenchReport":
        if not isinstance(raw, dict):
            raise SchemaError("bench document must be a JSON object")
        version = raw.get("schema_version")
        if version != SCHEMA_VERSION:
            raise SchemaError(
                f"unsupported schema_version {version!r} "
                f"(this reader supports {SCHEMA_VERSION})"
            )
        for key in ("scale", "cases"):
            if key not in raw:
                raise SchemaError(f"bench document is missing required key {key!r}")
        cases_raw = raw["cases"]
        if not isinstance(cases_raw, list):
            raise SchemaError("'cases' must be an array")
        cases = [BenchCase.from_dict(c) for c in cases_raw]
        seen: set[str] = set()
        for case in cases:
            if case.case_id in seen:
                raise SchemaError(f"duplicate case_id {case.case_id!r}")
            seen.add(case.case_id)
        return cls(
            scale=float(raw["scale"]),
            suite=str(raw.get("suite", "full")),
            schema_version=int(version),
            environment=dict(raw.get("environment", {})),
            annotations=dict(raw.get("annotations", {})),
            cases=cases,
        )


def environment_info() -> dict:
    """Host facts recorded alongside every run (provenance, not matching)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def dump_report(report: BenchReport, path: str | Path) -> None:
    """Write a report as stable, diff-friendly JSON."""
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_report(path: str | Path) -> BenchReport:
    """Read and validate a bench file (:class:`SchemaError` on any problem)."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SchemaError(f"bench file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"bench file {path} is not valid JSON: {exc}") from None
    return BenchReport.from_dict(raw)
