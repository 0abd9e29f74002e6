"""Shared fixtures: random network generation and acceptance reporting."""

import tempfile
from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from qnn.network import NetworkSpec
from qnn.oracles import reference_forward_batch

# Property tests draw the same examples on every run and keep no example
# database.  Hypothesis also caches the constants it reads from the source,
# from collection on; that cache goes to a temporary directory removed at
# exit, so the suite writes no .hypothesis/ into the checkout.
settings.register_profile("qnn", derandomize=True, deadline=None, database=None)
settings.load_profile("qnn")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="qnn-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def random_network(rng, max_layers=4, max_width=3, max_input=3, allow_frozen=True) -> NetworkSpec:
    """A small random network mixing neuron kinds, activations, and masks;
    everything is trainable unless allow_frozen.  Each neuron's parameters
    are drawn in canonical order, as the rows of its block column."""
    input_dim = int(rng.integers(1, max_input + 1))
    n_layers = int(rng.integers(1, max_layers + 1))
    layers, values = [], []
    prev = input_dim
    for _ in range(n_layers):
        kinds = []
        for _ in range(int(rng.integers(1, max_width + 1))):
            kind = str(rng.choice(["quadratic", "conventional", "passthrough"]))
            if kind == "passthrough":
                kinds.append(int(rng.integers(0, prev)))
            else:
                kinds.append(kind)
                values += rng.normal(size=3 * prev + 3 if kind == "quadratic" else prev + 1).tolist()
        layers.append((str(rng.choice(["relu", "identity"])), kinds))
        prev = len(kinds)
    net = NetworkSpec.blank(input_dim, layers)
    net.params[net._layout.own] = values
    if allow_frozen:  # about one parameter in five frozen
        for layer_masks in net.masks:
            for mask in layer_masks:
                mask[:] = rng.random(size=len(mask)) >= 0.2
    return net


def loss_and_grad(packed, theta, loss):
    """One step of a PackedNetwork at theta, (R, T): theta written into
    packed.params at theta_index, forward(), loss called on a copy of the
    output as (R, B, output_dim), its gradient, of that shape, written into
    packed.upstream, backward().  loss returns (values, d values / d
    output); returns (values, the gradient w.r.t. theta, (R, T))."""
    packed.params[:, packed.theta_index] = theta
    packed.forward()
    values, upstream = loss(packed.output.swapaxes(1, 2).copy())
    packed.upstream[...] = np.swapaxes(upstream, 1, 2)
    packed.backward()
    return values, packed.grad[:, packed.theta_index]


def exact_multipoly(spec, X):
    """sum_k c_k prod_j x_j^n_j(k) of a MultiPolySpec at each row of X,
    evaluated in exact rationals and rounded once, and the scale
    1 + sum_k |c_k x^n(k)| that bounds the rounding of a float evaluation."""
    values, scales = [], []
    for x in np.asarray(X, dtype=np.float64).tolist():
        terms = [prod((Fraction(v) ** e for v, e in zip(x, row)), start=Fraction(c))
                 for row, c in zip(spec.exponents.tolist(), spec.coefficients.tolist())]
        values.append(float(sum(terms)))
        scales.append(1.0 + float(sum(map(abs, terms))))
    return np.array(values), np.array(scales)


def input_away_from_kinks(net: NetworkSpec, rng, margin=1e-3, tries=200):
    """Draw an input whose ReLU pre-activations all clear the kink by margin.

    Central differences straddle the kink otherwise and stop matching the
    one-sided analytic derivative.
    """
    for _ in range(tries):
        x = rng.normal(size=net.input_dim)
        preacts, _ = reference_forward_batch(net, x[None, :])
        ok = True
        for (activation, _), z in zip(net.structure, preacts):
            if activation == "relu" and np.min(np.abs(z)) < margin:
                ok = False
                break
        if ok:
            return x
    return None


@pytest.fixture
def net_factory():
    return random_network


@pytest.fixture
def kink_free_input():
    return input_away_from_kinks


def pytest_unconfigure(config):
    _HYPOTHESIS_HOME.cleanup()


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    status = "PASS" if report.passed else ("FAIL" if report.failed else "SKIP")
    print(f"\n[acceptance] {name}: {status}")
