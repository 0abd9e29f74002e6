"""Smoke tests of the timing tool, which reads the training executor's and
the trainer's internals: it must still run and print its tables."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_step_timing_prints_the_factorizer_row():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "step_timing.py"), "factorizer", "--repeat", "1"],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    header, row = result.stdout.splitlines()
    assert header.split() == ["shape", "R", "B", "forward_us", "backward_us",
                              "descend_us", "np_calls"]
    name, restarts, batch, *times, calls = row.split()
    assert (name, restarts, batch) == ("factorizer", "10", "100")
    assert all(float(us) > 0 for us in times)
    assert int(calls) > 0


def test_step_timing_prints_an_exact_net_row():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "step_timing.py"), "bernstein_16", "--repeat", "1"],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    header, row, grid_row = result.stdout.splitlines()
    assert header.split() == ["net", "depth", "B", "forward_batch_us", "np_calls",
                              "to_json_us", "from_json_us"]
    name, depth, batch, forward, calls, *json_times = row.split()
    assert (name, batch) == ("bernstein_16", "4096") and int(depth) > 0
    assert float(forward) > 0 and int(calls) > 0
    assert all(float(us) > 0 for us in json_times)
    name, _, batch, forward, calls, *json_times = grid_row.split()
    assert (name, batch) == ("bernstein_16", "401") and json_times == ["-", "-"]
    assert float(forward) > 0 and int(calls) > 0
