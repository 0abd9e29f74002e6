"""The functions the benchmark in perfbench/ hooks into must keep existing.

perfbench/spans.py wraps every function its LAYERS table names, and the
workloads call ``qnn.cli.main`` and ``qnn.cli.ball_samples``.  Deleting or
renaming one of them breaks ``perfbench/run.py --trace 1`` or the workloads
without failing any other test.
"""

from pathlib import Path

import qnn.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_hooks_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    tracer = spans.Tracer()
    try:
        tracer.install()  # looks up every name in spans.LAYERS; raises if one is gone
    finally:
        tracer.uninstall()
    assert callable(qnn.cli.main)
    assert callable(qnn.cli.ball_samples)
