"""qnn benchmark: three closed-loop workloads, every outcome checked.

    python3 perfbench/run.py --workload factor-train --seed 1 --seconds 25 --trace 0

Run from a qnn checkout; qnn is imported from its ``src/``.  Times are
reported at the nominal machine speed that ``speed.py`` measures alongside
the work (the raw wall times are printed too).  With
``--trace 0`` the run measures the end-to-end metrics.  With ``--trace 1``
it runs the same operations untraced and then traced, and reports the
per-layer metrics from the spans (written to ``.perfbench_run/``).  Human
readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The exit code
is 0 only when every operation passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_run"
SETUP_REPEATS = 9
# One process and one BLAS thread, which is at or below every machine's
# core count; it must be set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_ms_p50", "ms"),
    ("nets_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["factor-train", "wide-train", "exact-build"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def setup(workload, seed: int, seconds: float):
    """Median over repeats of a fresh-interpreter import plus input generation,
    at nominal speed: each repeat is scaled by kernel samples taken around it."""
    import speed

    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        samples = [speed.kernel() for _ in range(speed.EDGE_SAMPLES)]
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import qnn.cli"], env=env, cwd=ROOT, check=True)
        ops = workload.make_ops(seed, seconds)
        elapsed = time.perf_counter() - started
        samples += [speed.kernel() for _ in range(speed.EDGE_SAMPLES)]
        times.append(elapsed / speed.factor(samples))
    return statistics.median(times), ops


def run_phase(workload, ops, work_dir: Path, tracer=None):
    """Run the operations one after another; returns (op start times, op end
    times, outcomes)."""
    starts, ends, outcomes = [], [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.set_op(i)
        starts.append(time.perf_counter())
        try:
            outcome = workload.run(op, work_dir)
        except Exception as exc:  # a raising operation is a failed one
            outcome = exc
        ends.append(time.perf_counter())
        outcomes.append(outcome)
    return starts, ends, outcomes


def check_phase(workload, ops, outcomes):
    """Returns (error messages, networks delivered, training steps, refusals)."""
    errors, nets, steps, refused = [], 0, 0, 0
    for op, outcome in zip(ops, outcomes):
        if isinstance(outcome, Exception):
            error, n, s = f"raised {type(outcome).__name__}: {outcome}", 0, 0
        else:
            try:
                error, n, s = workload.check(op, outcome)
            except Exception as exc:  # an output the check cannot read is wrong
                error, n, s = f"check raised {type(exc).__name__}: {exc}", 0, 0
        if error:
            errors.append(error)
        elif n == 0:
            refused += 1
        nets += n
        steps += s
    return errors, nets, steps, refused


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qnn" / "__init__.py").is_file():
        print(f"error: no qnn sources at {SRC / 'qnn'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import spans
    import speed
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    setup_s, ops = setup(workload, args.seed, args.seconds)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        work_dir = Path(tmp)
        with speed.Probe() as probe:
            phases = [run_phase(workload, ops, work_dir)]
            if args.trace:
                tracer = spans.Tracer()
                tracer.install()
                try:
                    phases.append(run_phase(workload, ops, work_dir, tracer))
                finally:
                    tracer.uninstall()
        checked = [check_phase(workload, ops, p[2]) for p in phases]
    # Per-operation times at nominal speed; a phase's time is their sum.
    nominal = [[probe.nominal(t0, t1) for t0, t1 in zip(p[0], p[1])] for p in phases]

    starts, ends, _ = phases[0]
    times, wall = nominal[0], sum(nominal[0])
    raw_wall = ends[-1] - starts[0]
    _, nets, steps, refused = checked[0]
    attempted = len(ops) * len(phases)
    failed = sum(len(c[0]) for c in checked)
    end_to_end = {
        "setup_s": setup_s,
        "wall_s": wall,
        "op_ms_p50": statistics.median(times) * 1e3,
        "nets_per_s": nets / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations per phase, "
          f"{len(phases)} phase(s); {refused} refused by factor_polynomial")
    print(f"speed: raw wall {raw_wall:.6g} s, speed factor {probe.factor(starts[0], ends[-1]):.4g} "
          f"over {len(probe.samples)} kernel samples ({speed.INTERVAL_S} s apart)")
    for name, unit in END_TO_END:
        print(f"{name} = {end_to_end[name]:.6g} {unit}")
    if len(times) >= 100:  # at least ten samples beyond the 90th percentile
        print(f"op_ms_p90 = {np.percentile(times, 90) * 1e3:.6g} ms")
    if steps:
        print(f"steps_per_s = {steps / wall:.6g} 1/s")
    print(f"failed_ratio = {failed}/{attempted}")
    print(f"samples: op_ms over {len(times)} operations, setup_s over {SETUP_REPEATS} set-ups")
    for error in sorted(set(e for c in checked for e in c[0]))[:20]:
        print(f"FAILED: {error}", file=sys.stderr)

    if args.trace:
        values = tracer.metrics(sum(nominal[1]), wall)
        tracer.write(OUT / f"trace-{args.workload}.npz", phases[1][0][0])
        units = spans.per_layer_names()
        for name, unit in units:
            print(f"{name} = {values[name]:.6g} {unit}")
    else:
        values, units = end_to_end, END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
