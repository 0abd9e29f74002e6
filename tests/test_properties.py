"""Property tests: the stored layer blocks and the packed executor against
the per-neuron oracle, and the trainable-parameter gather and scatter."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_network
from qnn.builders import (
    RadialPartition,
    build_deep_radial,
    build_factorization_trainable,
    build_poly_net,
    build_shallow_radial,
)
from qnn.network import (
    ACTIVATIONS,
    NetworkSpec,
    PackedNetwork,
    forward_batch,
    from_json,
    one_hidden_conventional,
    one_hidden_quadratic,
    set_trainable_values,
    to_json,
    trainable_count,
    trainable_values,
)
from qnn.oracles import reference_backward_batch, reference_forward_batch
from qnn.polynomials import Polynomial, bernstein_coeffs, factor_polynomial

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
    activation and frozen mask entries."""
    input_dim = draw(st.integers(1, 3))
    layers, values = [], []
    fan_in = input_dim
    for _ in range(draw(st.integers(1, 4))):
        kinds = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["quadratic", "conventional", "passthrough"]))
            if kind == "passthrough":
                kinds.append(draw(st.integers(0, fan_in - 1)))
            else:
                kinds.append(kind)
                values.extend(draw(vectors(3 * fan_in + 3 if kind == "quadratic" else fan_in + 1)))
        layers.append((draw(st.sampled_from(ACTIVATIONS)), kinds))
        fan_in = len(kinds)
    net = NetworkSpec.blank(input_dim, layers)
    net.params[net._layout.own] = values
    for layer_masks in net.masks:
        for mask in layer_masks:
            mask[:] = draw(vectors(len(mask), st.booleans()))
    return net


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


@st.composite
def frozen_layer_networks(draw):
    """A net of two to four layers, each one of three: a layer of any
    neurons with random masks, thirds of them frozen whole; a frozen layer of quadratic neurons whose
    W_b and c are zero, and passthroughs, as the factorizer's product
    layers; or a frozen layer whose first quadratic neuron has c != 0.
    Returns the net and, per layer, whether the executor may skip its
    square term (None where the draw does not fix it)."""
    input_dim = draw(st.integers(1, 3))
    layers, values, flags, skips = [], [], [], []
    fan_in = input_dim
    for _ in range(draw(st.integers(2, 4))):
        role = draw(st.sampled_from(["trainable", "product", "square"]))
        kinds, sizes = [], []
        for j in range(draw(st.integers(1, 3))):
            choices = (["quadratic", "conventional", "passthrough"] if role == "trainable"
                       else ["quadratic", "passthrough"])
            kind = "quadratic" if j == 0 and role != "trainable" else draw(st.sampled_from(choices))
            if kind == "passthrough":
                kind, params = draw(st.integers(0, fan_in - 1)), []
            else:
                params = draw(vectors(3 * fan_in + 3 if kind == "quadratic" else fan_in + 1))
                if role == "product":
                    params[2 * fan_in + 2 :] = 0.0
                elif role == "square" and j == 0:
                    params[-1] = draw(st.floats(0.5, 2.0))
            kinds.append(kind)
            sizes.append(len(params))
            values.extend(params)
        layers.append((draw(st.sampled_from(ACTIVATIONS)), kinds))
        # a trainable layer's masks are random within the thirds of its
        # block that it does not freeze whole, so that some thirds have no
        # trainable entry
        thirds = np.repeat(draw(vectors(3, st.booleans())).astype(bool), fan_in + 1)
        for size in sizes:
            flags.extend(draw(vectors(size, st.booleans())).astype(bool) & thirds[:size]
                         if role == "trainable" else np.zeros(size, dtype=bool))
        skips.append({"trainable": None, "product": True, "square": False}[role])
        fan_in = len(kinds)
    net = NetworkSpec.blank(input_dim, layers)
    net.params[net._layout.own] = values
    net.trainable[net._layout.own] = flags
    return net, skips


@given(st.data(), st.sampled_from([1, 3]))
def test_frozen_layers_lose_no_bit(data, restarts):
    """The executor skips the gradients of frozen thirds of a block and the
    square term of a frozen layer whose [W_b; c] is zero.  Its output and
    gradient equal those of the same net with every entry trainable, where
    nothing is skipped, bit for bit apart from the sign of an exact zero
    (the skipped zero term no longer turns a -0.0 into +0.0), and match the
    per-neuron oracle to rounding."""
    net, skips = data.draw(frozen_layer_networks())
    full = copy.copy(net)
    full.trainable = net.trainable.copy()
    full.trainable[net._layout.own] = True
    learnt = net.trainable[net._layout.own]
    rows = data.draw(st.integers(1, 5))
    X = data.draw(vectors(rows * net.input_dim)).reshape(rows, net.input_dim)
    theta = data.draw(vectors(restarts * trainable_count(net))).reshape(restarts, -1)
    theta_full = np.tile(trainable_values(full), (restarts, 1))
    theta_full[:, learnt] = theta
    U = data.draw(vectors(restarts * rows * net.output_dim)).reshape(
        restarts, rows, net.output_dim)
    outputs = []

    def loss(out):
        outputs.append(out)
        return None, U

    packed = PackedNetwork(net, restarts)
    _, grad = packed.loss_and_grad(theta, X, loss)
    _, grad_full = PackedNetwork(full, restarts).loss_and_grad(theta_full, X, loss)

    for layer, skip in zip(packed._layers, skips):
        if skip is not None:
            assert layer.square is not skip
    assert (outputs[0] + 0.0).tobytes() == (outputs[1] + 0.0).tobytes()
    assert (grad + 0.0).tobytes() == (grad_full[:, learnt] + 0.0).tobytes()
    for i in range(restarts):
        updated = set_trainable_values(net, theta[i])
        assert_close(outputs[0][i], reference_forward_batch(updated, X)[1][-1])
        assert_close(grad[i], reference_backward_batch(updated, X, U[i]))


@given(st.data())
def test_trainable_values_round_trip(data):
    net = data.draw(networks())
    values = data.draw(vectors(trainable_count(net), finite))
    before = to_json(net)
    own = net._layout.own
    frozen = ~net.trainable[own]
    kept = net.params[own][frozen]

    updated = set_trainable_values(net, values)

    assert trainable_values(updated).tobytes() == values.tobytes()
    assert to_json(net) == before
    assert updated.params[own][frozen].tobytes() == kept.tobytes()


# The conftest random nets: every neuron kind, passthroughs and,
# unless everything is trainable, masks with frozen entries.
random_nets = st.tuples(st.integers(0, 2**32 - 1), st.booleans()).map(
    lambda drawn: random_network(np.random.default_rng(drawn[0]), allow_frozen=drawn[1]))


@given(random_nets)
def test_json_round_trip_of_random_nets(net):
    text = to_json(net)
    assert to_json(from_json(text)) == text


# The exact builders' nets: a product tree, the Bernstein net of |x - 1/2|
# at n = 16, a deep and a shallow radial net, and the trainable factorizer.
exact_nets = st.sampled_from([
    build_poly_net(factor_polynomial(Polynomial(np.poly([-1.5, -0.5, 0.25, 1.0, 1.75])[::-1]))),
    build_poly_net(factor_polynomial(bernstein_coeffs(lambda t: abs(t - 0.5), 16))),
    build_deep_radial(RadialPartition([0.0, 0.5, 1.25, 2.0], [1.0, -0.5, 1.5], 0.1), 3),
    build_shallow_radial(np.sin, 0.5, 2.0, 1.0, 0.25, input_dim=2),
    build_factorization_trainable(5, 1, 2),
])

# values whose repr changes form: signed zero, subnormal, small and large
# exponents, the largest finite magnitudes
repr_edges = st.sampled_from([-0.0, 5e-324, 1e-17, 1e-5, 1e16, 1.7976931348623157e308,
                              -1.7976931348623157e308])


def json_document(net) -> dict:
    """The network document to_json writes, built from the structure, the
    blocks and the masks."""
    layers, masks = [], []
    for (activation, kinds), block, layer_masks in zip(net.structure, net.blocks, net.masks,
                                                       strict=True):
        layers.append({"activation": activation, "neurons": [
            {"kind": kind, "params": block[: len(mask), j].tolist()} if isinstance(kind, str)
            else {"kind": "passthrough", "index": kind}
            for j, (kind, mask) in enumerate(zip(kinds, layer_masks, strict=True))]})
        masks.append([mask.astype(int).tolist() for mask in layer_masks])
    return {"input_dim": net.input_dim, "layers": layers, "shortcuts": [], "masks": masks}


@given(st.one_of(random_nets, exact_nets), st.lists(st.one_of(repr_edges, finite), max_size=8),
       st.data())
def test_to_json_is_json_dumps_of_the_document(net, values, data):
    """to_json writes the bytes json.dumps(sort_keys=True) writes for the
    net's document, with parameters set to values where repr changes form."""
    net = copy.copy(net)
    net.params = net.params.copy()
    own = net._layout.own
    for value in values if len(own) else []:
        net.params[own[data.draw(st.integers(0, len(own) - 1))]] = value
    assert to_json(net) == json.dumps(json_document(net), sort_keys=True, allow_nan=False)


@given(random_nets, st.data())
def test_malformed_json_of_random_nets_names_layer_and_neuron(net, data):
    """A document of a random net that gains or loses a parameter or a mask
    entry, whose passthrough index leaves its fan-in or turns negative, or
    whose input_dim becomes 10**15, raises ValueError naming the layer and
    neuron at fault, and never MemoryError.  At input_dim 10**15 that is
    the first neuron of layer 0 with parameters, or where it has none the
    first passthrough, whose column would pass 2^32 block entries."""
    doc = json.loads(to_json(net))
    fan_in = [net.input_dim] + net.layer_widths()
    first = next((j for j, kind in enumerate(net.structure[0][1]) if isinstance(kind, str)), 0)
    edits = [("input_dim", 0, first)]
    for k, (_, kinds) in enumerate(net.structure):
        for j, kind in enumerate(kinds):
            if isinstance(kind, str):
                edits += [("params", k, j), ("mask", k, j)]
            else:
                edits.append(("index", k, j))
            edits.append(("add mask entry", k, j))
    edit, k, j = data.draw(st.sampled_from(edits))
    neuron, mask = doc["layers"][k]["neurons"][j], doc["masks"][k][j]
    if edit == "input_dim":
        doc["input_dim"] = 10**15
    elif edit == "index":
        neuron["index"] = data.draw(st.sampled_from(
            [fan_in[k], fan_in[k] + 1, 10**20, -1, -(10**20)]))
    elif edit == "add mask entry":
        mask.insert(data.draw(st.integers(0, len(mask))), 1)
    else:  # drop or add a parameter or a mask entry of a neuron with parameters
        entries = neuron["params"] if edit == "params" else mask
        if data.draw(st.booleans()):
            del entries[data.draw(st.integers(0, len(entries) - 1))]
        else:
            entries.insert(data.draw(st.integers(0, len(entries))), entries[0])
    with pytest.raises(ValueError, match=f"^layer {k} neuron {j}: "):
        from_json(json.dumps(doc))


@given(random_nets)
def test_neurons_read_back_from_the_blocks(net):
    """net.layers, made from the stored blocks, gives each layer's
    activation and kinds, and each neuron's fields, laid end to end in
    canonical order, are its slice of the parameters in the order JSON and
    theta use, bit for bit; writing to its neurons leaves the net unchanged."""
    params = net.params.copy()
    canonical = params[net._layout.own]
    fields = {"quadratic": ("w_r", "b_r", "w_g", "b_g", "w_b", "c"), "conventional": ("w", "b")}
    pos = 0
    for (activation, kinds), layer in zip(net.structure, net.layers, strict=True):
        assert (layer.activation, layer.width) == (activation, len(kinds))
        for kind, got in zip(kinds, layer.neurons, strict=True):
            if kind not in fields:
                assert (got.kind, got.index) == ("passthrough", kind)
                continue
            assert got.kind == kind
            values = np.concatenate([np.atleast_1d(getattr(got, field)) for field in fields[kind]])
            assert values.tobytes() == canonical[pos : pos + len(values)].tobytes()
            pos += len(values)
            getattr(got, fields[kind][0])[:] = np.nan
    assert pos == len(canonical)
    assert net.params.tobytes() == params.tobytes()


@given(random_nets)
def test_trainable_values_in_canonical_order(net):
    """The trainable vector is each block column's masked leading entries,
    layer by layer and neuron by neuron."""
    expected = [block[: len(mask), j][mask]
                for block, layer_masks in zip(net.blocks, net.masks)
                for j, mask in enumerate(layer_masks)]
    assert trainable_values(net).tobytes() == np.concatenate(expected).tobytes()


@given(random_nets)
def test_set_trainable_values_leaves_its_input_unchanged(net):
    params, trainable = net.params.copy(), net.trainable.copy()
    masks = [[m.copy() for m in layer_masks] for layer_masks in net.masks]

    updated = set_trainable_values(net, np.arange(trainable_count(net)) + 0.5)
    updated.params[:] = np.nan
    for layer_masks in updated.masks:
        for m in layer_masks:
            m[:] = False

    assert net.params.tobytes() == params.tobytes()
    assert net.trainable.tobytes() == trainable.tobytes()
    assert [[m.tobytes() for m in lm] for lm in net.masks] == [
        [m.tobytes() for m in lm] for lm in masks]
