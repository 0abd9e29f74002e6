"""Shared fixtures: random network generation and acceptance reporting."""

import tempfile
from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from qnn.network import LayerSpec, NetworkSpec, Shortcut
from qnn.neurons import ConventionalNeuron, PassthroughNeuron, QuadraticNeuron
from qnn.oracles import reference_forward_batch

# Property tests draw the same examples on every run and keep no example
# database.  Hypothesis also caches the constants it reads from the source,
# from collection on; that cache goes to a temporary directory removed at
# exit, so the suite writes no .hypothesis/ into the checkout.
settings.register_profile("qnn", derandomize=True, deadline=None, database=None)
settings.load_profile("qnn")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="qnn-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def random_parts(rng, max_layers=4, max_width=3, max_input=3,
                 allow_shortcuts=True, allow_frozen=True):
    """The NetworkSpec arguments (input_dim, layers, shortcuts, masks) of a
    small random network mixing neuron kinds, activations, and masks; masks
    is None, everything trainable, unless allow_frozen."""
    input_dim = int(rng.integers(1, max_input + 1))
    n_layers = int(rng.integers(1, max_layers + 1))
    layers = []
    prev = input_dim
    for _ in range(n_layers):
        width = int(rng.integers(1, max_width + 1))
        neurons = []
        for _ in range(width):
            kind = rng.choice(["quadratic", "conventional", "passthrough"])
            if kind == "quadratic":
                neurons.append(
                    QuadraticNeuron(
                        w_r=rng.normal(size=prev), b_r=rng.normal(),
                        w_g=rng.normal(size=prev), b_g=rng.normal(),
                        w_b=rng.normal(size=prev), c=rng.normal(),
                    )
                )
            elif kind == "conventional":
                neurons.append(
                    ConventionalNeuron(w=rng.normal(size=prev), b=rng.normal())
                )
            else:
                neurons.append(PassthroughNeuron(int(rng.integers(0, prev))))
        activation = str(rng.choice(["relu", "identity"]))
        layers.append(LayerSpec(neurons, activation))
        prev = width

    shortcuts = []
    if allow_shortcuts and n_layers >= 2 and rng.random() < 0.7:
        for _ in range(int(rng.integers(1, 4))):
            src_layer = int(rng.integers(0, n_layers - 1))
            dst_layer = int(rng.integers(src_layer + 1, n_layers))
            shortcuts.append(
                Shortcut(
                    src_layer=src_layer,
                    src_neuron=int(rng.integers(0, layers[src_layer].width)),
                    dst_layer=dst_layer,
                    dst_neuron=int(rng.integers(0, layers[dst_layer].width)),
                    weight=float(rng.normal()),
                    trainable=bool(rng.random() < 0.8),
                )
            )

    masks = None
    if allow_frozen:  # about one parameter in five frozen
        masks = [[rng.random(size=nr.param_count) >= 0.2 for nr in layer.neurons]
                 for layer in layers]
    return input_dim, layers, shortcuts, masks


def random_network(rng, **kwargs) -> NetworkSpec:
    """A small random network mixing neuron kinds, activations, and masks."""
    return NetworkSpec(*random_parts(rng, **kwargs))


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
        for layer, z in zip(net.layers, preacts):
            if layer.activation == "relu" and np.min(np.abs(z)) < margin:
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
