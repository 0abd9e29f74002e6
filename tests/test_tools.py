"""Smoke tests of the tools: the timing tool reads the training executor's
and the trainer's internals, so it must still run and print its tables,
and the digest script stamps the environment the digests depend on."""

import importlib.util
import re
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
                              "descend_us", "np_calls", "faults"]
    name, restarts, batch, *times, calls, faults = row.split()
    assert (name, restarts, batch) == ("factorizer", "10", "100")
    assert all(float(us) > 0 for us in times)
    assert int(calls) > 0 and float(faults) >= 0


def test_step_timing_prints_an_exact_net_row():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "step_timing.py"), "bernstein_16", "--repeat", "1"],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    header, row, *small_rows = result.stdout.splitlines()
    assert header.split() == ["net", "depth", "B", "forward_batch_us", "cold_us", "np_calls",
                              "to_json_us", "from_json_us"]
    name, depth, batch, forward, cold, calls, *json_times = row.split()
    assert (name, batch) == ("bernstein_16", "4096") and int(depth) > 0
    assert float(forward) > 0 and float(cold) > 0 and int(calls) > 0
    assert all(float(us) > 0 for us in json_times)
    assert [row.split()[2] for row in small_rows] == ["401", "1"]
    for row in small_rows:
        name, _, batch, forward, cold, calls, *json_times = row.split()
        assert name == "bernstein_16" and json_times == ["-", "-"]
        assert float(forward) > 0 and float(cold) > 0 and int(calls) > 0


def test_step_timing_prints_the_factor_rows():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "step_timing.py"), "factor_bernstein_30",
         "factor_poly_14", "--repeat", "1"],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    header, *rows = result.stdout.splitlines()
    assert header.split() == ["polynomial", "degree", "factor_us", "outcome"]
    assert [row.split()[:2] + row.split()[3:] for row in rows] == [
        ["factor_bernstein_30", "30", "refused"], ["factor_poly_14", "14", "factored"]]
    assert all(float(row.split()[2]) > 0 for row in rows)


def test_environment_stamp_names_numpy_and_blas():
    spec = importlib.util.spec_from_file_location(
        "artifact_digests", ROOT / "tools" / "artifact_digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    import numpy as np

    stamp = digests.environment_stamp()
    match = re.fullmatch(r"numpy (\S+) simd (\S+) openblas_core (\S+) blas_threads (\S+)", stamp)
    assert match, stamp
    version, _, _, threads = match.groups()
    assert version == np.__version__
    assert threads == "unknown" or int(threads) >= 1


def test_ab_times_the_checkout_against_itself():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), "factorizer", "bernstein_16",
         "factor_bernstein_30", "--rounds", "2", "--seconds", "0.005"],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    header, *rows = result.stdout.splitlines()
    assert header.split() == ["row", "measure", "A_us", "B_us", "B/A", "B/A_iqr",
                              "C/B", "C/B_iqr"]
    assert [row.split()[:2] for row in rows] == [
        ["factorizer", "forward_us"], ["factorizer", "backward_us"],
        ["factorizer", "descend_us"], ["bernstein_16@4096", "forward_batch_us"],
        ["bernstein_16@401", "forward_batch_us"], ["bernstein_16@1", "forward_batch_us"],
        ["bernstein_16", "to_json_us"],
        ["bernstein_16", "from_json_us"], ["factor_bernstein_30", "factor_us"]]
    for row in rows:
        _, measure, *medians, spread, aa, aa_spread = row.split()
        # a descend_us sample is a difference of two descents, which noise can make negative
        assert all(float(us) > 0 for us in medians) or measure == "descend_us"
        for low, high in (spread.split(".."), aa_spread.split("..")):
            assert float(low) <= float(high)
