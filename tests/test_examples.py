"""Smoke tests: every example script runs cleanly and verifies itself."""

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
