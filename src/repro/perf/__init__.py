"""``repro.perf`` — the deterministic-counter gate.

The paper's evaluation (Section 6) reports two kinds of number: CPU time,
and cell accesses per query per timestamp (Figure 6.3b).  This package
owns the second kind — counts that are byte-exact for a fixed workload and
seed, so any growth is an algorithmic regression and not runner noise.
Timing is ``python3 -m bench``'s job; nothing here reads a clock.

* :mod:`repro.perf.suite` — the canonical suite of scaled workloads
  (network-based scalability sweeps, k and granularity sweeps, uniform and
  skewed stress cases, the service tiers) replayed across CPM / YPK-CNN /
  SEA-CNN;
* :mod:`repro.perf.runner` — replays the suite and collects the counters
  per case, optionally with the service tier instrumented
  (``--telemetry``: the counters must not move);
* :mod:`repro.perf.schema` — the schema-versioned counter-file format;
* :mod:`repro.perf.compare` — diffs two counter files exactly (non-zero
  exit when any counter grew), the gate CI runs on every PR;
* ``python -m repro.perf`` — the command-line entry point.
"""

from repro.perf.schema import SCHEMA_VERSION, BenchCase, BenchReport, SchemaError

__all__ = ["SCHEMA_VERSION", "BenchCase", "BenchReport", "SchemaError"]
