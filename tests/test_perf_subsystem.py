"""Tests for the ``repro.perf`` subsystem and monitoring-server edges.

Covers the counter-file schema round-trips, the exact ``compare`` rule
with its exit codes, the suite/runner determinism contract, and
workload-replay (`Session.replay`) edge cases (empty workloads, zero
queries).
"""

import copy
import json

import pytest

from repro.core.cpm import CPMMonitor
from repro.api.session import replay_workload
from repro.mobility.workload import Workload, WorkloadSpec
from repro.perf.compare import compare_reports, render_comparison
from repro.perf.runner import run_case, run_suite
from repro.perf.schema import (
    SCHEMA_VERSION,
    BenchCase,
    BenchReport,
    SchemaError,
    dump_report,
    load_report,
)
from repro.perf.suite import HIGH_DENSITY_OCCUPANCY, SuiteCase, build_suite
from repro.perf.__main__ import main as perf_main
from repro.updates import UpdateBatch


def make_case(case_id="scalability_n/N=100/CPM", **metric_overrides) -> BenchCase:
    metrics = {
        "cell_scans": 10000,
        "cell_accesses_per_query_per_ts": 2.5,
        "objects_scanned": 50000,
        "results_changed": 42,
    }
    metrics.update(metric_overrides)
    return BenchCase(
        case_id=case_id,
        workload="network",
        algorithm="CPM",
        params={"n_objects": 100, "n_queries": 5, "k": 4, "grid": 8,
                "timestamps": 5, "seed": 1},
        metrics=metrics,
    )


def make_report(cases=None, scale=0.01) -> BenchReport:
    return BenchReport(scale=scale, suite="smoke", cases=cases or [make_case()])


class TestSchema:
    def test_round_trip_through_dict(self):
        report = make_report()
        clone = BenchReport.from_dict(report.to_dict())
        assert clone.scale == report.scale
        assert clone.suite == report.suite
        assert clone.schema_version == SCHEMA_VERSION
        assert clone.case_ids() == report.case_ids()
        assert clone.case(report.cases[0].case_id).metrics == report.cases[0].metrics

    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "bench.json"
        report = make_report()
        dump_report(report, path)
        clone = load_report(path)
        assert clone.to_dict() == report.to_dict()

    @pytest.mark.parametrize("version", [SCHEMA_VERSION + 1, 1])
    def test_unsupported_version_rejected(self, version):
        """Version 1 is the pre-PR-16 wall-clock schema (BENCH_PR1–7)."""
        raw = make_report().to_dict()
        raw["schema_version"] = version
        with pytest.raises(SchemaError):
            BenchReport.from_dict(raw)

    def test_missing_required_metric_rejected(self):
        raw = make_report().to_dict()
        del raw["cases"][0]["metrics"]["cell_scans"]
        with pytest.raises(SchemaError):
            BenchReport.from_dict(raw)

    def test_non_numeric_metric_rejected(self):
        raw = make_report().to_dict()
        raw["cases"][0]["metrics"]["objects_scanned"] = "many"
        with pytest.raises(SchemaError):
            BenchReport.from_dict(raw)

    def test_duplicate_case_ids_rejected(self):
        raw = make_report(cases=[make_case(), make_case()]).to_dict()
        with pytest.raises(SchemaError):
            BenchReport.from_dict(raw)

    def test_missing_file_raises_schema_error(self, tmp_path):
        with pytest.raises(SchemaError):
            load_report(tmp_path / "nope.json")

    def test_invalid_json_raises_schema_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_report(path)


class TestCompare:
    def test_identical_reports_pass(self):
        old = make_report()
        new = copy.deepcopy(old)
        comparison = compare_reports(old, new)
        assert comparison.ok
        assert not comparison.regressions

    def test_one_extra_scan_fails(self):
        """The gate is exact: +1 on 10 000 is a regression, not noise."""
        old = make_report()
        new = make_report(cases=[make_case(cell_scans=10001)])
        comparison = compare_reports(old, new)
        assert not comparison.ok
        assert [d.metric for d in comparison.regressions] == ["cell_scans"]

    @pytest.mark.parametrize(
        "metric", ["objects_scanned", "deltas_delivered", "partition_sync_rows"]
    )
    def test_every_shared_counter_is_gated(self, metric):
        old = make_report(cases=[make_case(**{metric: 7})])
        new = make_report(cases=[make_case(**{metric: 8})])
        assert [d.metric for d in compare_reports(old, new).regressions] == [metric]

    def test_improvement_is_listed_and_passes(self):
        old = make_report()
        new = make_report(cases=[make_case(cell_scans=9999)])
        comparison = compare_reports(old, new)
        assert comparison.ok
        text = render_comparison(comparison)
        assert "improved" in text and "cell_scans" in text

    def test_missing_case_fails(self):
        old = make_report(cases=[make_case(), make_case(case_id="uniform/default/CPM")])
        new = make_report()
        comparison = compare_reports(old, new)
        assert not comparison.ok
        assert comparison.missing_cases == ["uniform/default/CPM"]

    def test_scale_mismatch_raises(self):
        with pytest.raises(SchemaError):
            compare_reports(make_report(scale=0.01), make_report(scale=0.02))

    def test_render_mentions_regressions(self):
        old = make_report()
        new = make_report(cases=[make_case(cell_scans=20000)])
        text = render_comparison(compare_reports(old, new))
        assert "REGRESSION" in text
        assert "cell_scans" in text


class TestCli:
    """Exit-code contract of ``python -m repro.perf``."""

    def _write(self, path, report):
        dump_report(report, path)
        return str(path)

    def test_compare_ok_exits_zero(self, tmp_path, capsys):
        old = self._write(tmp_path / "old.json", make_report())
        new = self._write(tmp_path / "new.json", make_report())
        assert perf_main(["compare", old, new]) == 0
        assert "perf gate: OK" in capsys.readouterr().out

    def test_compare_one_extra_scan_exits_one(self, tmp_path, capsys):
        old = self._write(tmp_path / "old.json", make_report())
        new = self._write(
            tmp_path / "new.json", make_report(cases=[make_case(cell_scans=10001)])
        )
        assert perf_main(["compare", old, new]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_compare_one_fewer_scan_exits_zero_and_prints_improved(
        self, tmp_path, capsys
    ):
        old = self._write(tmp_path / "old.json", make_report())
        new = self._write(
            tmp_path / "new.json", make_report(cases=[make_case(cell_scans=9999)])
        )
        assert perf_main(["compare", old, new]) == 0
        out = capsys.readouterr().out
        assert "improved" in out and "perf gate: OK" in out

    def test_compare_missing_case_exits_one(self, tmp_path, capsys):
        old = self._write(
            tmp_path / "old.json",
            make_report(cases=[make_case(), make_case(case_id="uniform/default/CPM")]),
        )
        new = self._write(tmp_path / "new.json", make_report())
        assert perf_main(["compare", old, new]) == 1
        assert "MISSING" in capsys.readouterr().out

    def test_compare_schema_error_exits_two(self, tmp_path, capsys):
        old = self._write(tmp_path / "old.json", make_report(scale=0.01))
        new = self._write(tmp_path / "new.json", make_report(scale=0.05))
        assert perf_main(["compare", old, new]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["micro"],
            ["compare", "a.json", "b.json", "--warn-only"],
            ["compare", "a.json", "b.json", "--threshold", "cell_scans=0.5"],
            ["run", "--repeats", "2"],
        ],
    )
    def test_removed_surface_is_a_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            perf_main(argv)
        assert exc.value.code == 2

    def test_run_writes_valid_bench_file(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert (
            perf_main(
                ["run", "--scale", "0.002", "--suite", "smoke", "--quiet",
                 "--out", str(out), "--annotate", "origin=test"]
            )
            == 0
        )
        report = load_report(out)
        assert report.annotations["origin"] == "test"
        assert report.cases  # every case has validated required metrics
        # A file produced by run always passes a self-comparison.
        assert perf_main(["compare", str(out), str(out)]) == 0


class TestSuiteAndRunner:
    def test_suite_case_ids_unique_and_stable(self):
        cases = build_suite(0.01)
        keys = [c.key for c in cases]
        assert len(keys) == len(set(keys))
        assert build_suite(0.01) == cases  # deterministic construction

    def test_smoke_suite_is_subset(self):
        smoke = {c.key for c in build_suite(0.01, suite="smoke")}
        full = {c.key for c in build_suite(0.01)}
        assert smoke <= full
        assert len(smoke) < len(full)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            build_suite(0.01, suite="nightly")

    def test_unknown_workload_kind_rejected(self):
        case = SuiteCase(key="x", workload="teleporting", spec=WorkloadSpec(), grid=8)
        with pytest.raises(ValueError):
            case.materialize()

    def test_run_case_metrics_are_deterministic_counters(self):
        case = build_suite(0.002, suite="smoke")[0]
        workload = case.materialize()
        first = run_case(case, workload, "CPM")
        second = run_case(case, workload, "CPM")
        for metric in ("cell_scans", "cell_accesses_per_query_per_ts",
                       "objects_scanned", "results_changed"):
            assert first.metrics[metric] == second.metrics[metric]

    def test_run_case_records_no_clock_or_memory_reading(self):
        """``repro.perf`` counts; ``python3 -m bench`` times."""
        for row in run_suite(0.002, suite="smoke", algorithms=("CPM",)).cases:
            assert not [
                key for key in row.metrics if key.endswith(("_sec", "_kb"))
            ], row.case_id

    def test_shard_scaling_cases_present(self):
        full = build_suite(0.01)
        smoke = build_suite(0.01, suite="smoke")

        def shards_of(cases):
            return sorted(c.shards for c in cases if c.shards)

        assert shards_of(full) == [1, 2, 4, 8]
        assert shards_of(smoke) == [1, 4]
        for case in full:
            if case.shards:
                assert case.key == f"partition_scaling/S={case.shards}"
                assert case.workload == "network"
                assert case.subscribed

    def test_high_density_is_one_arm_with_or_without_numpy(self):
        """One crowded-cell case in each suite, sized by
        ``HIGH_DENSITY_OCCUPANCY`` alone: the case set must not depend on
        which packages are importable."""
        for suite in ("smoke", "full"):
            cases = build_suite(0.01, suite=suite)
            dense = [c for c in cases if c.key.startswith("high_density/")]
            assert [c.key for c in dense] == ["high_density/default"]
            assert not dense[0].shards
            # The point of the family: crowded cells, a grid much
            # coarser than the scalability cases' at the same population.
            assert dense[0].grid < cases[0].grid
            n = dense[0].spec.n_objects
            assert n / dense[0].grid**2 >= HIGH_DENSITY_OCCUPANCY

    def test_run_case_partitioned_counter_exact_with_traffic_metrics(self):
        cases = {c.key: c for c in build_suite(0.002, suite="smoke")}
        part = cases["partition_scaling/S=4"]
        single = SuiteCase(
            key="single", workload=part.workload, spec=part.spec, grid=part.grid
        )
        workload = part.materialize()
        single_row = run_case(single, workload, "CPM")
        part_row = run_case(part, workload, "CPM")
        # Counter-exact against the single engine: the partitioned tier
        # reproduces the paper metrics byte-for-byte.
        for metric in ("cell_scans", "cell_accesses_per_query_per_ts",
                       "objects_scanned", "results_changed"):
            assert part_row.metrics[metric] == single_row.metrics[metric]
        # ...plus the partition traffic counters, gated exactly too.
        for key in ("partition_fanout_rows", "partition_sync_rows",
                    "partition_pulls", "partition_pull_objects",
                    "partition_migrations"):
            assert key in part_row.metrics
        assert part_row.metrics["partition_sync_rows"] > 0
        assert part_row.params["shards"] == 4
        assert "partition_fanout_rows" not in single_row.metrics

    def test_shard_case_runs_sharded_monitor(self):
        case = next(c for c in build_suite(0.002, suite="smoke") if c.shards)
        workload = case.materialize()
        row = run_case(case, workload, "CPM")
        assert row.case_id == f"{case.key}/CPM"
        assert row.params["shards"] == case.shards
        # Deterministic counters match the plain-CPM replay of the same
        # workload: the service layer partitions the search work, it does
        # not duplicate it.
        plain = SuiteCase(
            key="plain", workload=case.workload, spec=case.spec, grid=case.grid
        )
        ref = run_case(plain, workload, "CPM")
        assert row.metrics["cell_scans"] == ref.metrics["cell_scans"]
        assert row.metrics["results_changed"] == ref.metrics["results_changed"]

    def test_subscription_routing_case_matches_plain_counters(self):
        """The delta-streaming replay must not change a single grid
        counter, and its delivered-delta count must be deterministic."""
        case = next(
            c for c in build_suite(0.002, suite="smoke") if c.subscribed
        )
        workload = case.materialize()
        row = run_case(case, workload, "CPM")
        assert row.params["subscribed"] is True
        assert row.params["watched_queries"] >= 1
        assert row.metrics["deltas_delivered"] > 0
        again = run_case(case, workload, "CPM")
        assert row.metrics["deltas_delivered"] == again.metrics["deltas_delivered"]
        plain = SuiteCase(
            key="plain", workload=case.workload, spec=case.spec, grid=case.grid
        )
        ref = run_case(plain, workload, "CPM")
        for metric in ("cell_scans", "cell_accesses_per_query_per_ts",
                       "objects_scanned", "results_changed"):
            assert row.metrics[metric] == ref.metrics[metric], metric

    def test_shard_tier_delivers_the_single_engine_deltas(self):
        """The shard cases stream deltas, so ``deltas_delivered`` gates
        the tier's merge of its shards' changes."""
        cases = {c.key: c for c in build_suite(0.002, suite="smoke")}
        routing = cases["subscription_routing/default"]
        workload = routing.materialize()
        expected = run_case(routing, workload, "CPM").metrics["deltas_delivered"]
        row = run_case(cases["partition_scaling/S=4"], workload, "CPM")
        assert row.metrics["deltas_delivered"] == expected

    def test_subscription_routing_in_both_suites(self):
        for suite in ("smoke", "full"):
            keys = [c.key for c in build_suite(0.01, suite=suite)]
            assert "subscription_routing/default" in keys

    def test_shard_cases_run_only_cpm(self):
        report = run_suite(0.002, suite="smoke")
        shard_rows = [c for c in report.cases if c.params.get("shards")]
        assert shard_rows
        assert {c.algorithm for c in shard_rows} == {"CPM"}

    def test_run_suite_covers_all_algorithms(self):
        report = run_suite(0.002, suite="smoke", algorithms=("CPM",))
        assert report.cases
        assert {c.algorithm for c in report.cases} == {"CPM"}
        # Serializes cleanly through the schema layer.
        assert BenchReport.from_dict(
            json.loads(json.dumps(report.to_dict()))
        ).case_ids() == report.case_ids()


def bare_workload(n_objects=5, n_queries=0, timestamps=0):
    spec = WorkloadSpec(
        n_objects=n_objects, n_queries=n_queries, timestamps=timestamps, seed=3
    )
    return Workload(
        spec=spec,
        initial_objects={oid: (0.15 * (oid + 1), 0.4) for oid in range(n_objects)},
        initial_queries={10**9 + i: (0.5, 0.5) for i in range(n_queries)},
        batches=[UpdateBatch(timestamp=t) for t in range(timestamps)],
    )


class TestReplayEdges:
    def test_zero_queries_zero_timestamps(self):
        """The truly empty workload: nothing to install, nothing to replay."""
        report = replay_workload(CPMMonitor(cells_per_axis=8), bare_workload())
        assert report.n_queries == 0
        assert report.timestamps == 0
        assert report.total_cell_scans == 0
        assert report.cell_accesses_per_query_per_timestamp == 0.0
        assert report.mean_cycle_sec == 0.0

    def test_zero_queries_with_batches(self):
        report = replay_workload(
            CPMMonitor(cells_per_axis=8), bare_workload(timestamps=4)
        )
        assert report.timestamps == 4
        assert report.total_results_changed == 0
        assert report.cell_accesses_per_query_per_timestamp == 0.0

    def test_zero_queries_result_log_is_empty_tables(self):
        log: list = []
        replay_workload(
            CPMMonitor(cells_per_axis=8),
            bare_workload(timestamps=2),
            collect_results=True,
            result_log=log,
        )
        assert log == [{}, {}, {}]

    def test_empty_workload_summary_keys(self):
        report = replay_workload(CPMMonitor(cells_per_axis=8), bare_workload())
        summary = report.summary()
        assert summary["cell_scans"] == 0.0
        assert summary["cpu_sec"] == 0.0
        assert set(summary) >= {"cpu_sec", "cell_scans", "install_sec"}
