"""Smoke tests: every example script runs cleanly and verifies itself."""

import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "initial 3-NN result" in out
        assert "t=4" in out

    def test_ride_hailing(self):
        out = run_example("ride_hailing.py")
        assert "0 mismatching cycles" in out
        assert "rider" in out

    def test_meeting_point(self):
        out = run_example("meeting_point.py")
        assert out.count("OK") >= 3
        assert "MISMATCH" not in out
        assert "the newcomer" in out

    def test_constrained_sector(self):
        out = run_example("constrained_sector.py")
        assert "intruder excluded" in out
        assert "brute-force verification: OK" in out

    def test_algorithm_shootout(self):
        out = run_example("algorithm_shootout.py", "--scale", "0.008")
        assert "agree with brute force on every cycle: True" in out
        assert "CPM" in out and "YPK-CNN" in out and "SEA-CNN" in out

    def test_geofencing(self):
        out = run_example("geofencing.py")
        assert "cell scans during the whole stream: 0" in out
        assert "brute-force verification: OK" in out

    def test_drone_airspace(self):
        out = run_example("drone_airspace.py")
        assert "brute-force verification (3D): OK" in out
        assert "sweep 9" in out

    def test_live_dashboard(self):
        out = run_example("live_dashboard.py")
        assert "0 mismatching deltas" in out
        assert "[install]" in out and "[t=0]" in out
        assert "+obj" in out and "-obj" in out

    def test_remote_dashboard(self):
        out = run_example("remote_dashboard.py")
        assert "leaked topics: none" in out
        assert "byte-identical: True" in out
        assert "-byte delta record Delta(" in out

    def test_streaming_feed(self):
        out = run_example("streaming_feed.py")
        assert "offline replay of the recorded stream: MATCHES" in out
        assert "cycle   0" in out
        assert "overruns=" in out

    def test_partition_gallery(self):
        out = run_example("partition_gallery.py")
        assert "Figure 3.1b" in out
        assert out.count("q") >= 1
        assert "+---------+" in out

    def test_examples_directory_complete(self):
        present = {p.name for p in EXAMPLES.glob("*.py")}
        assert {
            "quickstart.py",
            "ride_hailing.py",
            "meeting_point.py",
            "constrained_sector.py",
            "algorithm_shootout.py",
            "geofencing.py",
            "drone_airspace.py",
            "partition_gallery.py",
            "live_dashboard.py",
            "remote_dashboard.py",
            "streaming_feed.py",
        } <= present


def test_ndim_example_imports_no_engine_module():
    """``examples/ndim/`` stands alone: importing it — and running a
    search and a cycle — loads neither the 2-D engine (``repro.core``)
    nor its scan kernels, even where ``repro`` itself is importable."""
    code = (
        "import sys\n"
        "from types import SimpleNamespace\n"
        "from ndim import NdCPMMonitor\n"
        "m = NdCPMMonitor(4, dimensions=3)\n"
        "m.load_objects([(1, (0.1, 0.2, 0.3))])\n"
        "m.install_query(0, (0.5, 0.5, 0.5), 1)\n"
        "m.process([SimpleNamespace(oid=1, old=(0.1, 0.2, 0.3), new=(0.5, 0.5, 0.4))])\n"
        "assert m.result(0)[0][1] == 1\n"
        "print(sorted(name for name in sys.modules if name.startswith('repro.core')"
        " or name in ('repro.grid.kernels', 'repro.grid._numpy_kernels')))\n"
    )
    src = EXAMPLES.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(EXAMPLES), str(src)])}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_ndim_visit_list_stays_sorted():
    """Regression: the n-dimensional search once keyed slab ``l + 1`` as
    ``key + δ``; on these queries the sum overshot the slab's cells by an
    ulp and the visit list its mark reconciliation bisects came out
    unsorted."""
    from ndim import NdCPMMonitor

    for d in (2, 3):
        monitor = NdCPMMonitor(cells_per_axis=10, dimensions=d)
        monitor.load_objects([(0, (0.9, 0.1, 0.3)[:d])])
        monitor.install_query(0, (0.4, 0.1, 0.3)[:d], 1)
        keys = monitor._queries[0].visit_keys
        assert keys == sorted(keys), d
