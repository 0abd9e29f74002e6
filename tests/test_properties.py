"""Property tests: compiled layer blocks and the packed executor against the
per-neuron oracle, and the trainable-parameter gather and scatter."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qnn.builders import build_factorization_trainable
from qnn.network import (
    ACTIVATIONS,
    LayerSpec,
    NetworkSpec,
    PackedNetwork,
    Shortcut,
    forward_batch,
    one_hidden_conventional,
    one_hidden_quadratic,
    set_trainable_values,
    to_json,
    trainable_count,
    trainable_values,
)
from qnn.neurons import PassthroughNeuron, neuron_from_params
from qnn.oracles import reference_backward_batch, reference_forward_batch

small = st.floats(-2.0, 2.0)
finite = st.floats(allow_nan=False, allow_infinity=False)


def vectors(size, elements=small):
    return st.lists(elements, min_size=size, max_size=size).map(np.array)


def assert_close(got, want):
    """rtol 1e-12 with an absolute floor of rtol times the largest entry of
    want, for entries that cancel to near zero."""
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(want), initial=0.0))


@st.composite
def networks(draw):
    """Up to four layers of up to three neurons of any kind, either
    activation, shortcuts and frozen mask entries."""
    input_dim = draw(st.integers(1, 3))
    layers = []
    fan_in = input_dim
    for _ in range(draw(st.integers(1, 4))):
        neurons = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["quadratic", "conventional", "passthrough"]))
            if kind == "passthrough":
                neurons.append(PassthroughNeuron(draw(st.integers(0, fan_in - 1))))
            else:
                count = 3 * fan_in + 3 if kind == "quadratic" else fan_in + 1
                neurons.append(neuron_from_params(kind, draw(vectors(count))))
        layers.append(LayerSpec(neurons, draw(st.sampled_from(ACTIVATIONS))))
        fan_in = len(neurons)
    shortcuts = []
    for _ in range(draw(st.integers(0, 3)) if len(layers) > 1 else 0):
        src = draw(st.integers(0, len(layers) - 2))
        dst = draw(st.integers(src + 1, len(layers) - 1))
        shortcuts.append(Shortcut(
            src, draw(st.integers(0, layers[src].width - 1)),
            dst, draw(st.integers(0, layers[dst].width - 1)),
            draw(small), draw(st.booleans()),
        ))
    masks = [[draw(vectors(nr.param_count, st.booleans())).astype(bool) for nr in layer.neurons]
             for layer in layers]
    return NetworkSpec(input_dim, layers, shortcuts, masks)


@given(st.data())
def test_forward_batch_matches_reference(data):
    net = data.draw(networks())
    rows = data.draw(st.integers(1, 5))
    X = data.draw(vectors(rows * net.input_dim)).reshape(rows, net.input_dim)
    assert_close(forward_batch(net, X), reference_forward_batch(net, X)[1][-1])


@given(st.data())
def test_packed_executor_rows_match_reference(data):
    """Each restart row of a two-row executor's output and gradient matches
    the per-neuron oracle at that row's trainable values."""
    net = data.draw(networks())
    rows = data.draw(st.integers(1, 5))
    X = data.draw(vectors(rows * net.input_dim)).reshape(rows, net.input_dim)
    theta = data.draw(vectors(2 * trainable_count(net))).reshape(2, -1)
    U = data.draw(vectors(2 * rows * net.output_dim)).reshape(2, rows, net.output_dim)
    outputs = []

    def loss(out):
        outputs.append(out)
        return np.sum(out * U, axis=(-2, -1)), U

    _, grad = PackedNetwork(net, restarts=2).loss_and_grad(theta, X, loss)

    for i in range(2):
        updated = set_trainable_values(net, theta[i])
        assert_close(outputs[0][i], reference_forward_batch(updated, X)[1][-1])
        assert_close(grad[i], reference_backward_batch(updated, X, U[i]))


# the width sweep's and the factorizer's (net, restarts, batch)
training_shapes = pytest.mark.parametrize("net, restarts, batch", [
    (one_hidden_quadratic(4, 8), 1, 4096),
    (one_hidden_quadratic(4, 32), 1, 4096),
    (one_hidden_conventional(4, 8), 1, 4096),
    (one_hidden_conventional(4, 32), 1, 4096),
    (build_factorization_trainable(5, 1, 2), 10, 100),
], ids=["quadratic-w8", "quadratic-w32", "conventional-w8", "conventional-w32",
        "factorizer"])


@training_shapes
def test_packed_executor_matches_reference_at_training_shapes(net, restarts, batch):
    """The width sweep's and the factorizer's shapes, far beyond the drawn
    networks: BLAS reduces over thousands of inputs in blocks, and a
    one-neuron layer makes matrix-vector products."""
    rng = np.random.default_rng(29)
    X = rng.normal(size=(batch, net.input_dim))
    theta = rng.uniform(-0.5, 0.5, size=(restarts, trainable_count(net)))
    U = rng.normal(size=(restarts, batch, net.output_dim))
    outputs = []

    def loss(out):
        outputs.append(out)
        return np.sum(out * U, axis=(-2, -1)), U

    _, grad = PackedNetwork(net, restarts).loss_and_grad(theta, X, loss)

    for i in range(restarts):
        updated = set_trainable_values(net, theta[i])
        assert_close(outputs[0][i], reference_forward_batch(updated, X)[1][-1])
        assert_close(grad[i], reference_backward_batch(updated, X, U[i]))


def assert_gradient_ignores_stale_work(net, X, theta, U):
    """A second loss_and_grad after NaN is written over the executor's work
    arrays returns the first one's gradient bit for bit: a pass reads only
    what it wrote itself (the activations' ones rows are written once, and
    kept)."""
    packed = PackedNetwork(net, restarts=len(theta))

    def loss(out):
        return None, U

    _, first = packed.loss_and_grad(theta, X, loss)
    work = packed._work
    for buf in (work.acts, work.grad_acts, packed._grad,
                *(b for layer in work.layers for b in layer if b is not None)):
        buf.fill(True if buf.dtype == bool else np.nan)
    work.acts[:, packed._ones] = 1.0
    _, second = packed.loss_and_grad(theta, X, loss)
    assert first.tobytes() == second.tobytes()


@given(st.data())
def test_gradient_ignores_stale_work_arrays(data):
    net = data.draw(networks())
    rows = data.draw(st.integers(1, 5))
    X = data.draw(vectors(rows * net.input_dim)).reshape(rows, net.input_dim)
    theta = data.draw(vectors(2 * trainable_count(net))).reshape(2, -1)
    U = data.draw(vectors(2 * rows * net.output_dim)).reshape(2, rows, net.output_dim)
    assert_gradient_ignores_stale_work(net, X, theta, U)


@training_shapes
def test_gradient_ignores_stale_work_arrays_at_training_shapes(net, restarts, batch):
    rng = np.random.default_rng(30)
    X = rng.normal(size=(batch, net.input_dim))
    theta = rng.uniform(-0.5, 0.5, size=(restarts, trainable_count(net)))
    U = rng.normal(size=(restarts, batch, net.output_dim))
    assert_gradient_ignores_stale_work(net, X, theta, U)


@given(st.data())
def test_trainable_values_round_trip(data):
    net = data.draw(networks())
    values = data.draw(vectors(trainable_count(net), finite))
    before = to_json(net)
    frozen = [[nr.param_vector()[~mask] for nr, mask in zip(layer.neurons, layer_masks)]
              for layer, layer_masks in zip(net.layers, net.masks)]

    updated = set_trainable_values(net, values)

    assert trainable_values(updated).tobytes() == values.tobytes()
    assert to_json(net) == before
    for layer, layer_masks, kept in zip(updated.layers, updated.masks, frozen):
        for nr, mask, old in zip(layer.neurons, layer_masks, kept):
            assert nr.param_vector()[~mask].tobytes() == old.tobytes()
    for new, old in zip(updated.shortcuts, net.shortcuts):
        assert new.trainable == old.trainable
        if not old.trainable:
            assert new.weight == old.weight
