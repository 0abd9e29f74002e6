"""Self-test of the benchmark harness; never looks at timings.

    python3 perfbench/selftest.py

Runs every workload at its minimal size (one operation, or one round) with
tracing off and on, and checks the output schema and the metric names and
units against BENCHMARK.json.  Then it makes qnn deliberately wrong and
checks that the broken outputs are counted as failed, and that the
benchmark refuses to run where there are no qnn sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def bench(workload: str, trace: int) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                         "--trace", str(trace)])
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def check_schema(workload: str, trace: int) -> None:
    code, result = bench(workload, trace)
    where = f"{workload} --trace {trace}"
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{where}: keys")
    expect(code == 0 and result["correct"] is True and result["failed"] == 0,
           f"{where}: a correct qnn failed its checks")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           f"{where}: attempted")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    expect(list(got) == [m["name"] for m in wanted], f"{where}: metric names")
    for m in wanted:
        value = got[m["name"]]
        expect(sorted(value) == ["unit", "value"] and value["unit"] == m["unit"],
               f"{where}: {m['name']} unit")
        expect(isinstance(value["value"], (int, float)) and math.isfinite(value["value"]),
               f"{where}: {m['name']} value")


def check_wrong_outputs() -> None:
    """Training that returns its untrained net, and a perturbed forward pass."""
    sys.path.insert(0, str(run.SRC))
    import numpy as np
    import qnn.cli
    import qnn.network

    def untrained(net, data, cfg, parallel=False):
        return net, np.linspace(1.0, 0.5, cfg.iterations)

    forward_batch = qnn.network.forward_batch

    def perturbed(net, X):
        return forward_batch(net, X) * (1.0 + 1e-6)

    patches = [
        (qnn.cli, "train", untrained, ("factor-train", "wide-train")),
        (qnn, "forward_batch", perturbed, ("exact-build",)),
    ]
    for module, attr, fake, names in patches:
        real = getattr(module, attr)
        setattr(module, attr, fake)
        try:
            for workload in names:
                code, result = bench(workload, 0)
                expect(code != 0 and result["correct"] is False and result["failed"] >= 1,
                       f"{workload}: a wrong output was not counted as failed")
        finally:
            setattr(module, attr, real)


def check_refuses_without_program() -> None:
    """With only BENCHMARK.json and the benchmark's files, it must exit non-zero."""
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "ran without qnn sources")


def main() -> None:
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_schema(workload, trace)
            print(f"ok: {workload} --trace {trace} schema")
    check_wrong_outputs()
    print("ok: wrong outputs are counted as failed")
    check_refuses_without_program()
    print("ok: refuses to run without qnn sources")


if __name__ == "__main__":
    main()
