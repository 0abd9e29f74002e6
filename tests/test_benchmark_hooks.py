"""The functions the benchmark in perfbench/ hooks into must keep existing,
and its trace path must read the nets the library builds.

perfbench/spans.py wraps every function its LAYERS table names, and the
workloads call ``qnn.cli.main`` and ``qnn.cli.ball_samples``.  Deleting or
renaming one of them breaks ``perfbench/run.py --trace 1`` or the workloads
without failing any other test.
"""

from pathlib import Path

import pytest

import qnn.cli
from qnn.builders import build_factorization_trainable, build_poly_net
from qnn.network import one_hidden_quadratic
from qnn.polynomials import FactoredForm

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


@pytest.mark.parametrize("net, tag", [
    # three linear factors: the odd one passes through the product layer
    (build_poly_net(FactoredForm(1.0, [0.5, -1.0, 1.5])), None),
    (build_factorization_trainable(5, 1, 2), None),  # passthrough taps
    (one_hidden_quadratic(4, 32), "quadratic_w32"),
], ids=["product-tree", "factorizer", "quadratic-w32"])
def test_trace_shapes_count_every_neuron_kind(net, tag, monkeypatch):
    """`--trace 1` describes each traced call by numpy_baseline.net_shape,
    which counts neuron kinds by class; its counts must match the net."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import numpy_baseline

    shape = numpy_baseline.net_shape(net, 100)
    batch, layers, shortcuts = shape
    assert (batch, shortcuts) == (100, len(net.shortcuts))
    fan_in = [net.input_dim] + net.layer_widths()[:-1]
    for (n, q, c, p, relu), layer, width in zip(layers, net.layers, fan_in, strict=True):
        kinds = [nr.kind for nr in layer.neurons]
        counts = tuple(kinds.count(k) for k in ("quadratic", "conventional", "passthrough"))
        assert (n, q, c, p, relu) == (width, *counts, layer.activation == "relu")
    forward = numpy_baseline.flops_bytes("network.forward_batch", shape)
    backward = numpy_baseline.flops_bytes(numpy_baseline.BACKWARD, shape)
    assert 0 < forward[0] < backward[0] and 0 < forward[1] < backward[1]
    assert numpy_baseline.wide_tag(shape) == tag
