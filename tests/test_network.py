"""Forward/backward evaluation, shortcuts, masks, and serialization."""

import copy
import json
import tracemalloc

import numpy as np
import pytest
from conftest import random_network
from hypothesis import given
from hypothesis import strategies as st

from qnn.builders import (
    RadialPartition,
    build_deep_radial,
    build_factorization_trainable,
    build_poly_net,
)
from qnn.network import (
    _TILE_BYTES,
    LayerSpec,
    NetworkSpec,
    PackedNetwork,
    Shortcut,
    _through_fan_in,
    backward_batch,
    forward_batch,
    from_json,
    one_hidden_conventional,
    one_hidden_quadratic,
    parameter_count,
    set_trainable_values,
    single_quadratic_net,
    to_json,
    trainable_count,
    trainable_values,
)
from qnn.neurons import ConventionalNeuron, PassthroughNeuron, QuadraticNeuron
from qnn.oracles import finite_diff_grad, reference_backward_batch, reference_forward_batch
from qnn.polynomials import Polynomial, bernstein_coeffs, factor_polynomial


def norm_neuron(n=2):
    return QuadraticNeuron(
        w_r=np.zeros(n), b_r=0.0, w_g=np.zeros(n), b_g=0.0,
        w_b=np.ones(n), c=0.0,
    )


def matmul_forward_batch(net, X):
    """Reference for forward_batch: every product through a layer's fan-in a
    matmul, fan-in one included."""
    weights = net.params[net._layout.size:]
    acts = []
    current = np.asarray(X, dtype=np.float64).T
    for k, (block, (activation, kinds)) in enumerate(zip(net.blocks, net.structure)):
        n = len(current)
        Z = block[:n].T @ current
        Z += block[n][:, None]
        if "quadratic" in kinds:
            Q = block[n + 1 : 2 * n + 1].T @ current
            Q += block[2 * n + 1][:, None]
            Z *= Q
            Z += block[2 * n + 2 : 3 * n + 2].T @ (current * current)
            Z += block[3 * n + 2][:, None]
        for weight, (src, src_neuron, dst, dst_neuron) in zip(weights, net.shortcut_ends):
            if dst == k:
                Z[dst_neuron] += weight * acts[src][src_neuron]
        if activation == "relu":
            np.maximum(0.0, Z, out=Z)
        acts.append(Z)
        current = Z
    return np.ascontiguousarray(current.T)


def whole_batch_forward(net, X):
    """Reference for forward_batch's tiles: its arithmetic, layer by layer,
    on the whole batch at once, every layer's activations kept."""
    weights = net.params[net._layout.size:]
    acts = []
    current = np.asarray(X, dtype=np.float64).T
    for k, (block, (activation, kinds)) in enumerate(zip(net.blocks, net.structure)):
        n = len(current)
        Z = _through_fan_in(block[:n], current)
        Z += block[n][:, None]
        if "quadratic" in kinds:
            Q = _through_fan_in(block[n + 1 : 2 * n + 1], current)
            Q += block[2 * n + 1][:, None]
            Z *= Q
            Z += _through_fan_in(block[2 * n + 2 : 3 * n + 2], current * current, out=Q)
            Z += block[3 * n + 2][:, None]
        for weight, (src, src_neuron, dst, dst_neuron) in zip(weights, net.shortcut_ends):
            if dst == k:
                Z[dst_neuron] += weight * acts[src][src_neuron]
        if activation == "relu":
            np.maximum(0.0, Z, out=Z)
        acts.append(Z)
        current = Z
    return np.ascontiguousarray(current.T)


def fan_in_one_nets(kind, rng):
    """Nets with fan-in-one layers: the first layer of a product tree, the
    one-layer net of x, the second layer of a deep radial stack, random nets
    of input dimension one."""
    if kind == "product-tree":
        return [build_poly_net(factor_polynomial(Polynomial(
            np.poly(rng.uniform(-2.0, 2.0, size=degree))[::-1]))) for degree in range(1, 9)]
    if kind == "identity-poly":
        return [build_poly_net(factor_polynomial(Polynomial([0.0, 1.0])))]
    if kind == "deep-radial":
        breakpoints = np.sqrt([0.0, 200.0 / 3.0, 400.0 / 3.0, 200.0])
        return [build_deep_radial(RadialPartition(breakpoints, [-1.0, 1.0, -1.0], 0.1), dim)
                for dim in (2, 4)]
    return [random_network(rng, max_input=1) for _ in range(12)]


class TestFanInOne:
    """forward_batch multiplies by broadcasting where a layer's fan-in is
    one, and adds 0.0 to give the rank-1 matmul's bits: the matmul returns
    0.0 + w x, so an exact -0.0 product comes out as +0.0."""

    SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 5e-324])

    @pytest.mark.parametrize("kind",
                             ["product-tree", "identity-poly", "deep-radial", "random"])
    def test_matches_matmul_bitwise(self, kind):
        rng = np.random.default_rng(31)
        for net in fan_in_one_nets(kind, rng):
            assert 1 in [net.input_dim] + net.layer_widths()[:-1]
            d = net.input_dim
            X = np.concatenate([
                rng.normal(size=(64, d)),
                np.repeat(self.SPECIALS[:, None], d, axis=1),
                self.SPECIALS[rng.integers(0, len(self.SPECIALS), size=(64, d))],
            ])
            for zeros in (False, True):
                if zeros:  # every bias and offset, b_r, b_g and c, a signed zero
                    net = copy.deepcopy(net)
                    for block in net.blocks:
                        n = (len(block) - 3) // 3
                        rows = [n, 2 * n + 1, 3 * n + 2]
                        block[rows] = rng.choice([0.0, -0.0], size=(3, block.shape[1]))
                with np.errstate(all="ignore"):
                    got, want = forward_batch(net, X), matmul_forward_batch(net, X)
                assert got.tobytes() == want.tobytes()


SPECIAL_INPUTS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324])


def tile_rows(net) -> int:
    """forward_batch's tile size: a multiple of 64 columns whose (widest
    layer, tile) float64 slab fits _TILE_BYTES."""
    widest = max(net.input_dim, *net.layer_widths())
    return max(64, _TILE_BYTES // (8 * widest) // 64 * 64)


@st.composite
def tiled_nets(draw):
    """Nets of up to four layers up to 70 wide, mixing the three neuron
    kinds, either activation, shortcuts and fan-in-one layers, with normal
    parameters, sometimes every bias a signed zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    input_dim = draw(st.integers(1, 4))
    widths = draw(st.lists(st.sampled_from([1, 2, 3, 8, 33, 64, 70]), min_size=1, max_size=4))
    structure, fan_in = [], input_dim
    for m in widths:
        kinds = [str(kind) if kind != "passthrough" else int(rng.integers(fan_in))
                 for kind in rng.choice(["quadratic", "conventional", "passthrough"], size=m,
                                        p=draw(st.sampled_from([(1, 0, 0), (0.4, 0.4, 0.2)])))]
        structure.append((draw(st.sampled_from(["relu", "identity"])), kinds))
        fan_in = m
    shortcuts = []
    if len(widths) > 1:
        for _ in range(draw(st.integers(0, 3))):
            src = int(rng.integers(len(widths) - 1))
            dst = int(rng.integers(src + 1, len(widths)))
            shortcuts.append(Shortcut(src, int(rng.integers(widths[src])), dst,
                                      int(rng.integers(widths[dst])), rng.normal()))
    net = NetworkSpec.blank(input_dim, structure, shortcuts)
    own = net._layout.own
    net.params[own] = rng.normal(size=len(own))
    if draw(st.booleans()):  # b_r, b_g and c of every column ±0
        for block in net.blocks:
            n = (len(block) - 3) // 3
            rows = [n, 2 * n + 1, 3 * n + 2]
            block[rows] = rng.choice([0.0, -0.0], size=(3, block.shape[1]))
    return net


class TestTiles:
    """forward_batch runs the batch in tiles through one workspace; every
    output byte stays what the layer-by-layer whole-batch evaluation gives."""

    @given(tiled_nets(), st.integers(0, 2), st.sampled_from([-8, -1, 0, 1, 8, 64]),
           st.sampled_from(["C", "F", "strided"]), st.integers(0, 2**32 - 1))
    def test_matches_whole_batch_bitwise(self, net, tiles, offset, layout, seed):
        """Batches of 0 and 1 and just below, at and above one and two tile
        boundaries, with ±0, ±inf, NaN and subnormal inputs, in either
        memory order and strided."""
        batch = max(0, tiles * tile_rows(net) + offset) if tiles else max(0, offset)
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(2 * batch if layout == "strided" else batch, net.input_dim))
        special = rng.random(size=X.shape) < 0.05
        X[special] = rng.choice(SPECIAL_INPUTS, size=int(special.sum()))
        X = {"C": X, "F": np.asfortranarray(X), "strided": X[::2]}[layout]
        with np.errstate(all="ignore"):
            got, want = forward_batch(net, X), whole_batch_forward(net, X)
        assert got.shape == want.shape == (batch, net.output_dim)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("batch", [0, 1])
    def test_tiny_batches(self, batch):
        rng = np.random.default_rng(33)
        net = one_hidden_quadratic(3, 5)
        net.params[:] = rng.normal(size=len(net.params))
        X = rng.normal(size=(batch, 3))
        got = forward_batch(net, X)
        assert got.shape == (batch, 1)
        assert got.tobytes() == whole_batch_forward(net, X).tobytes()

    @pytest.mark.parametrize("case", ["one-hidden-200", "deep-radial-d4"])
    def test_memory_bounded(self, case):
        """One call holds a workspace of a few tiles and its output, not
        every layer's (width, B) activations: under 16 MiB where the
        whole-batch evaluation peaks at 613 and 32 MiB."""
        rng = np.random.default_rng(34)
        if case == "one-hidden-200":
            net, batch = one_hidden_quadratic(2, 200), 200_000
            net.params[:] = rng.uniform(-1.0, 1.0, size=len(net.params))
        else:
            breakpoints = np.sqrt([0.0, 200.0 / 3.0, 400.0 / 3.0, 200.0])
            partition = RadialPartition(breakpoints, [-1.0, 1.0, -1.0], 0.05)
            net, batch = build_deep_radial(partition, 4), 100_000
        X = rng.uniform(-10.0, 10.0, size=(batch, net.input_dim))
        tracemalloc.start()
        try:
            out = forward_batch(net, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (batch, 1)
        assert peak < 16 * 2**20


class TestForward:
    def test_single_norm_neuron(self):
        net = NetworkSpec(2, [LayerSpec([norm_neuron()], "identity")])
        np.testing.assert_array_equal(forward_batch(net, [[3.0, 4.0]])[0], [25.0])

    def test_two_layer_composition(self):
        layers = [
            LayerSpec([norm_neuron()], "identity"),
            LayerSpec([ConventionalNeuron(w=[1.0], b=-25.0)], "identity"),
        ]
        net = NetworkSpec(2, layers)
        np.testing.assert_array_equal(forward_batch(net, [[3.0, 4.0]])[0], [0.0])

    def test_deep_radial_plateau_value(self):
        """The stacked three-module network returns minus the first height
        on the first plateau (heights -1, +1, -1)."""
        partition = RadialPartition(
            np.array([0.0, np.sqrt(200.0 / 3.0), np.sqrt(400.0 / 3.0), np.sqrt(200.0)]),
            np.array([-1.0, 1.0, -1.0]),
            delta=0.05,
        )
        net = build_deep_radial(partition, 2)
        assert net.depth == 1 + 9 + 1
        out = forward_batch(net, [[np.sqrt(100.0 / 3.0), 0.0]])[0]
        assert out[0] == pytest.approx(-1.0, abs=1e-12)

    def test_input_width_checked(self):
        net = NetworkSpec(2, [LayerSpec([norm_neuron()], "identity")])
        with pytest.raises(ValueError):
            forward_batch(net, [[1.0, 2.0, 3.0]])

    @pytest.mark.parametrize("X", [[[1 + 2j, 0.5]], np.array([[1.0, 0.5 + 0j]])],
                             ids=["python-complex", "complex-array"])
    def test_complex_inputs_refused(self, X):
        """A complex batch is refused by name, not cast to its real part."""
        with pytest.raises(ValueError, match="X must be real"):
            forward_batch(one_hidden_quadratic(2, 3), X)

    def test_deterministic(self, net_factory):
        rng = np.random.default_rng(5)
        net = net_factory(rng)
        x = rng.normal(size=net.input_dim)
        first = forward_batch(net, x[None])[0]
        for _ in range(3):
            np.testing.assert_array_equal(forward_batch(net, x[None])[0], first)

    def test_batch_matches_single(self, net_factory):
        # BLAS picks different kernels for matrix and single-row products,
        # so agreement is to rounding, not bitwise
        rng = np.random.default_rng(6)
        for _ in range(10):
            net = net_factory(rng)
            X = rng.normal(size=(7, net.input_dim))
            batch = forward_batch(net, X)
            singles = np.stack([forward_batch(net, x[None])[0] for x in X])
            np.testing.assert_allclose(batch, singles, rtol=1e-12, atol=1e-12)

    def test_builder_nets_match_reference_bitwise(self):
        """On the constructed nets the compiled blocks do the per-neuron
        arithmetic in the same order: product trees, Bernstein n <= 24, deep
        radial at d = 2-4, and the factorizer with random parameters."""
        rng = np.random.default_rng(29)
        xs = np.linspace(-1.5, 1.5, 257)[:, None]
        cases = []
        for degree in range(1, 15):
            p = Polynomial(np.poly(rng.uniform(-2.0, 2.0, size=degree))[::-1])
            cases.append((build_poly_net(factor_polynomial(p)), xs))
        for n in range(2, 25):
            form = factor_polynomial(bernstein_coeffs(lambda t: abs(t - 0.5), n))
            cases.append((build_poly_net(form), xs + 1.5))
        breakpoints = np.sqrt([0.0, 200.0 / 3.0, 400.0 / 3.0, 200.0])
        for dim in (2, 3, 4):
            for delta in (0.4, 0.05):
                partition = RadialPartition(breakpoints, [-1.0, 1.0, -1.0], delta)
                cases.append((build_deep_radial(partition, dim),
                              5.0 * rng.normal(size=(257, dim))))
        net = build_factorization_trainable(5, 1, 2)
        theta = rng.uniform(-0.5, 0.5, size=trainable_count(net))
        cases.append((set_trainable_values(net, theta), xs))
        for net, X in cases:
            _, acts = reference_forward_batch(net, X)
            assert forward_batch(net, X).tobytes() == acts[-1].tobytes()


class TestShortcuts:
    def test_zero_weight_shortcut_is_inert(self, net_factory):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 20:
            net = net_factory(rng, allow_shortcuts=False)
            if net.depth < 2:
                continue
            x = rng.normal(size=net.input_dim)
            base = forward_batch(net, x[None])[0]
            src_layer = int(rng.integers(0, net.depth - 1))
            dst_layer = int(rng.integers(src_layer + 1, net.depth))
            sc = Shortcut(
                src_layer, int(rng.integers(0, net.layers[src_layer].width)),
                dst_layer, int(rng.integers(0, net.layers[dst_layer].width)),
                weight=0.0,
            )
            with_sc = NetworkSpec(net.input_dim, net.layers, [sc], net.masks)
            np.testing.assert_array_equal(forward_batch(with_sc, x[None])[0], base)
            checked += 1

    def test_shortcut_injects_before_activation(self):
        # relu(w.x + b + weight * src) with a negative sum must clip at 0
        layers = [
            LayerSpec([ConventionalNeuron(w=[1.0], b=0.0)], "identity"),
            LayerSpec([ConventionalNeuron(w=[0.0], b=1.0)], "relu"),
        ]
        sc = Shortcut(0, 0, 1, 0, weight=-2.0)
        net = NetworkSpec(1, layers, [sc])
        assert forward_batch(net, [[1.0]])[0, 0] == 0.0  # relu(1 - 2) = 0
        assert forward_batch(net, [[0.25]])[0, 0] == 0.5  # relu(1 - 0.5)

    def test_backward_only_points_forward(self):
        layers = [
            LayerSpec([ConventionalNeuron(w=[1.0], b=0.0)], "identity"),
            LayerSpec([ConventionalNeuron(w=[1.0], b=0.0)], "identity"),
        ]
        with pytest.raises(ValueError):
            NetworkSpec(1, layers, [Shortcut(1, 0, 1, 0, 1.0)])
        with pytest.raises(ValueError):
            NetworkSpec(1, layers, [Shortcut(0, 5, 1, 0, 1.0)])


class TestValidation:
    def test_dimension_chain_enforced(self):
        layers = [
            LayerSpec([norm_neuron(2)], "identity"),
            LayerSpec([ConventionalNeuron(w=[1.0, 1.0], b=0.0)], "identity"),
        ]
        with pytest.raises(ValueError):
            NetworkSpec(2, layers)

    def test_passthrough_index_checked(self):
        layers = [
            LayerSpec([norm_neuron(2)], "identity"),
            LayerSpec([PassthroughNeuron(1)], "identity"),
        ]
        with pytest.raises(ValueError):
            NetworkSpec(2, layers)

    def test_sizes_checked_before_arrays_are_made(self):
        layers = [LayerSpec([norm_neuron(2)], "identity"),
                  LayerSpec([PassthroughNeuron(10**20)], "identity")]
        with pytest.raises(ValueError, match="passthrough index"):
            NetworkSpec(2, layers)
        # a block of this fan-in would not fit in any address space
        layers = [LayerSpec([ConventionalNeuron(w=[1.0], b=0.0)], "identity")]
        with pytest.raises(ValueError, match="expects input width 1"):
            NetworkSpec(10**15, layers)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError):
            LayerSpec([norm_neuron(2)], "tanh")

    @pytest.mark.parametrize("field", ["src_neuron", "dst_neuron"])
    def test_negative_shortcut_neuron_rejected(self, field):
        layers = [
            LayerSpec([ConventionalNeuron(w=[1.0], b=0.0)] * 2, "identity"),
            LayerSpec([ConventionalNeuron(w=[1.0, 1.0], b=0.0)] * 2, "identity"),
        ]
        NetworkSpec(1, layers, [Shortcut(0, 1, 1, 1, 1.0)])
        edge = dict(src_layer=0, src_neuron=1, dst_layer=1, dst_neuron=1, weight=1.0)
        edge[field] = -1
        with pytest.raises(ValueError):
            NetworkSpec(1, layers, [Shortcut(**edge)])


class TestBackward:
    def test_constant_offset_gradient_is_one(self):
        rng = np.random.default_rng(8)
        net = NetworkSpec(2, [LayerSpec([norm_neuron()], "identity")])
        for _ in range(5):
            g = backward_batch(net, rng.normal(size=(1, 2)), np.ones((1, 1)))
            assert g[-1] == 1.0  # dh/dc

    def test_square_term_gradient_is_squared_input(self):
        net = NetworkSpec(2, [LayerSpec([norm_neuron()], "identity")])
        g = backward_batch(net, [[3.0, 4.0]], [[1.0]])
        # canonical order: w_r(2), b_r, w_g(2), b_g, w_b(2), c
        np.testing.assert_array_equal(g[6:8], [9.0, 16.0])

    def test_matches_finite_differences(self, net_factory, kink_free_input):
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 25:
            net = net_factory(rng)
            x = kink_free_input(net, rng)
            if x is None or trainable_count(net) == 0:
                continue
            upstream = rng.normal(size=net.output_dim)
            analytic = backward_batch(net, x[None], upstream[None])
            numeric = finite_diff_grad(net, x, step=1e-5, upstream=upstream)
            rel = np.abs(analytic - numeric) / (
                1.0 + np.maximum(np.abs(analytic), np.abs(numeric))
            )
            assert rel.max() < 1e-5
            checked += 1

    def test_bundle_length_equals_trainable_count(self, net_factory):
        rng = np.random.default_rng(10)
        for _ in range(10):
            net = net_factory(rng)
            x = rng.normal(size=net.input_dim)
            g = backward_batch(net, x[None], np.ones((1, net.output_dim)))
            assert len(g) == trainable_count(net)

    def test_batch_gradient_sums_per_sample(self, net_factory):
        rng = np.random.default_rng(13)
        net = net_factory(rng, allow_shortcuts=True)
        X = rng.normal(size=(4, net.input_dim))
        U = rng.normal(size=(4, net.output_dim))
        total = backward_batch(net, X, U)
        summed = sum(backward_batch(net, x[None], u[None]) for x, u in zip(X, U))
        np.testing.assert_allclose(total, summed, rtol=1e-12, atol=1e-12)

    def test_upstream_width_checked(self):
        net = NetworkSpec(2, [LayerSpec([norm_neuron()], "identity")])
        with pytest.raises(ValueError):
            backward_batch(net, np.zeros((1, 2)), np.ones((1, 2)))

    @pytest.mark.parametrize("field", ["X", "upstream"])
    def test_complex_batch_refused(self, field):
        """A complex batch or upstream is refused by name, not cast to its
        real part."""
        args = {"X": np.zeros((1, 2)), "upstream": np.ones((1, 1))}
        args[field] = args[field] + 1j
        with pytest.raises(ValueError, match=f"{field} must be real"):
            backward_batch(one_hidden_quadratic(2, 3), **args)


def assert_gradients_close(got, want, rtol):
    """Elementwise rtol, with an absolute floor of rtol times the largest entry
    so that components cancelling to near zero are not held to their own scale."""
    scale = np.max(np.abs(want), initial=0.0)
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * scale)


class TestPackedNetwork:
    """The compiled executor against the per-neuron reference forward and gradient."""

    def test_theta_index_addresses_trainable_values(self, net_factory):
        rng = np.random.default_rng(20)
        for _ in range(50):
            net = net_factory(rng)
            packed = PackedNetwork(net)
            assert len(packed.theta_index) == trainable_count(net)
            np.testing.assert_array_equal(
                packed.params[0, packed.theta_index], trainable_values(net)
            )

    def test_gradients_match_reference(self, net_factory):
        rng = np.random.default_rng(21)
        kinds = set()
        for _ in range(300):
            net = net_factory(rng)
            kinds.update(type(nr).__name__ for layer in net.layers for nr in layer.neurons)
            kinds.update(layer.activation for layer in net.layers)
            kinds.add(bool(net.shortcuts))
            theta = rng.normal(size=trainable_count(net))
            X = rng.normal(size=(9, net.input_dim))
            U = rng.normal(size=(9, net.output_dim))
            packed = PackedNetwork(net)
            out = packed.forward(theta[None], X)
            _, grad = packed.loss_and_grad(theta[None], X, lambda out: (None, U[None]))
            updated = set_trainable_values(net, theta)
            _, acts = reference_forward_batch(updated, X)
            np.testing.assert_allclose(out[0], acts[-1], rtol=1e-12, atol=1e-12)
            assert_gradients_close(grad[0], reference_backward_batch(updated, X, U), 1e-12)
        assert kinds == {"QuadraticNeuron", "ConventionalNeuron", "PassthroughNeuron",
                         "relu", "identity", True, False}

    def test_public_members(self):
        packed = PackedNetwork(single_quadratic_net(2))
        public = {name for name in {*vars(packed), *vars(PackedNetwork)}
                  if not name.startswith("_")}
        assert public == {"params", "theta_index", "forward", "loss_and_grad"}

    def test_new_batch_size_matches_a_fresh_executor(self, net_factory):
        """A pass at B=3 after one at B=2 replaces the work arrays: its loss
        and gradient equal a fresh executor's bit for bit."""
        rng = np.random.default_rng(25)
        for _ in range(20):
            net = net_factory(rng)
            theta = rng.normal(size=(1, trainable_count(net)))
            X = rng.normal(size=(3, net.input_dim))

            def loss(out):
                return np.sum(out * out, axis=(-2, -1)), 2.0 * out

            packed = PackedNetwork(net)
            packed.loss_and_grad(theta, X[:2], loss)
            value, grad = packed.loss_and_grad(theta, X, loss)
            fresh_value, fresh_grad = PackedNetwork(net).loss_and_grad(theta, X, loss)
            np.testing.assert_array_equal(value, fresh_value)
            np.testing.assert_array_equal(grad, fresh_grad)

    def test_output_survives_later_passes(self, net_factory):
        rng = np.random.default_rng(26)
        for _ in range(20):
            net = net_factory(rng)
            packed = PackedNetwork(net)
            theta = rng.normal(size=(1, trainable_count(net)))
            out = packed.forward(theta, rng.normal(size=(5, net.input_dim)))
            kept = out.copy()
            packed.forward(theta, rng.normal(size=(5, net.input_dim)))
            packed.forward(theta, rng.normal(size=(4, net.input_dim)))
            np.testing.assert_array_equal(out, kept)

    def test_warm_step_allocates_no_large_array(self):
        """Once its buffers exist, a training step allocates less than five
        length-B float64 arrays, for either kind of hidden layer: the
        output copy and the loss's temporaries, and no (B, width) array,
        not even a one-byte ReLU mask."""
        B, width = 4096, 32
        rng = np.random.default_rng(27)
        X, y = rng.normal(size=(B, 4)), rng.normal(size=B)

        def loss(out):
            err = out[..., 0] - y
            return np.mean(err * err, axis=-1), (2.0 * err / B)[..., None]

        for net in (one_hidden_quadratic(4, width), one_hidden_conventional(4, width)):
            packed = PackedNetwork(net)
            theta = rng.uniform(-0.5, 0.5, size=(1, trainable_count(net)))
            packed.loss_and_grad(theta, X, loss)
            tracemalloc.start()
            try:
                packed.loss_and_grad(theta, X, loss)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 5 * B * 8

    @pytest.mark.parametrize("X", [np.zeros(5), np.zeros((5, 2)), np.zeros((1, 5, 1))],
                             ids=["1-D", "wrong-width", "3-D"])
    def test_malformed_batch_refused(self, X):
        """X must be (B, input_dim): a 1-D batch is not read as B inputs."""
        packed = PackedNetwork(single_quadratic_net(1))
        theta = np.zeros((1, len(packed.theta_index)))
        with pytest.raises(ValueError, match="batch of shape"):
            packed.forward(theta, X)
        with pytest.raises(ValueError, match="batch of shape"):
            packed.loss_and_grad(theta, X, lambda out: (None, np.ones_like(out)))

    def test_complex_batch_refused(self):
        packed = PackedNetwork(single_quadratic_net(1))
        theta = np.zeros((1, len(packed.theta_index)))
        with pytest.raises(ValueError, match="X must be real"):
            packed.forward(theta, np.ones((5, 1), dtype=complex))

    def test_complex_loss_gradient_refused(self):
        """A loss whose gradient is complex is refused by name, not cast to
        its real part."""
        packed = PackedNetwork(single_quadratic_net(1))
        theta = np.zeros((1, len(packed.theta_index)))
        with pytest.raises(ValueError, match="loss upstream must be real"):
            packed.loss_and_grad(theta, np.ones((5, 1)),
                                 lambda out: (None, np.ones(out.shape, dtype=complex)))

    @pytest.mark.parametrize("shape", [(5, 1), (2, 5, 1), (1, 4, 1), (1, 5, 2), (1, 1, 1)],
                             ids=["no-restart-axis", "two-restarts", "short-batch",
                                  "wide-output", "broadcast"])
    def test_malformed_upstream_refused(self, shape):
        """The loss's gradient must have the output's shape (R, B, output_dim)
        exactly; none is broadcast."""
        packed = PackedNetwork(single_quadratic_net(1))
        theta = np.zeros((1, len(packed.theta_index)))
        with pytest.raises(ValueError, match="upstream of shape"):
            packed.loss_and_grad(theta, np.zeros((5, 1)), lambda out: (None, np.ones(shape)))

    def test_restart_rows_match_one_row_executors_across_steps(self, net_factory):
        """Two consecutive descent steps on the reused buffers: each row of
        an R=3 executor keeps equal to its own one-row executor."""
        rng = np.random.default_rng(28)
        for _ in range(50):
            net = net_factory(rng)
            X = rng.normal(size=(6, net.input_dim))
            Y = rng.normal(size=(6, net.output_dim))

            def loss(out):
                return np.sum((out - Y) ** 2, axis=(-2, -1)), 2.0 * (out - Y)

            theta = rng.normal(size=(3, trainable_count(net)))
            rows = theta.copy()
            stacked = PackedNetwork(net, restarts=3)
            singles = [PackedNetwork(net) for _ in range(3)]
            for _ in range(2):
                _, grad = stacked.loss_and_grad(theta, X, loss)
                for i, single in enumerate(singles):
                    _, grad_i = single.loss_and_grad(rows[i : i + 1], X, loss)
                    np.testing.assert_array_equal(grad[i], grad_i[0])
                    rows[i] -= 1e-3 * grad_i[0]
                theta -= 1e-3 * grad
                np.testing.assert_array_equal(theta, rows)

    def test_loss_matches_reference_forward(self, net_factory):
        rng = np.random.default_rng(22)
        for _ in range(50):
            net = net_factory(rng)
            X = rng.normal(size=(6, net.input_dim))
            Y = rng.normal(size=(6, net.output_dim))
            theta = rng.normal(size=trainable_count(net))

            def loss(out):
                return np.sum((out - Y) ** 2, axis=(-2, -1)), 2.0 * (out - Y)

            value, grad = PackedNetwork(net).loss_and_grad(theta[None], X, loss)
            updated = set_trainable_values(net, theta)
            expected, upstream = loss(reference_forward_batch(updated, X)[1][-1])
            assert value.shape == grad.shape[:1] == (1,)
            assert value[0] == pytest.approx(expected, rel=1e-12, abs=1e-12)
            assert_gradients_close(
                grad[0], reference_backward_batch(updated, X, upstream), 1e-12
            )

    def test_restart_rows_match_one_row_executors(self, net_factory):
        """Row i of a stacked executor gives bit for bit what a one-row
        executor gives for theta[i]: restarts never mix."""
        rng = np.random.default_rng(23)
        for _ in range(100):
            net = net_factory(rng)
            theta = rng.normal(size=(3, trainable_count(net)))
            X = rng.normal(size=(7, net.input_dim))
            U = rng.normal(size=(3, 7, net.output_dim))
            stacked = PackedNetwork(net, restarts=3)
            assert stacked.params.shape[0] == 3
            out = stacked.forward(theta, X)
            _, grad = stacked.loss_and_grad(theta, X, lambda out: (None, U))
            assert out.shape == (3, 7, net.output_dim)
            assert grad.shape == theta.shape
            for i in range(3):
                single = PackedNetwork(net)
                out_i = single.forward(theta[i : i + 1], X)
                _, grad_i = single.loss_and_grad(
                    theta[i : i + 1], X, lambda out: (None, U[i : i + 1]))
                np.testing.assert_array_equal(out[i], out_i[0])
                np.testing.assert_array_equal(grad[i], grad_i[0])

    def test_restarts_must_be_positive(self):
        with pytest.raises(ValueError):
            PackedNetwork(single_quadratic_net(2), restarts=0)


class TestParameters:
    def test_trainable_round_trip(self, net_factory):
        rng = np.random.default_rng(14)
        net = net_factory(rng)
        values = rng.normal(size=trainable_count(net))
        updated = set_trainable_values(net, values)
        np.testing.assert_array_equal(trainable_values(updated), values)

    def test_complex_values_refused(self):
        net = one_hidden_quadratic(2, 3)
        with pytest.raises(ValueError, match="values must be real"):
            set_trainable_values(net, np.zeros(trainable_count(net), dtype=complex))

    def test_frozen_entries_unchanged(self, net_factory):
        rng = np.random.default_rng(15)
        net = net_factory(rng, allow_frozen=True)
        before = [
            [nr.param_vector().copy() for nr in layer.neurons]
            for layer in net.layers
        ]
        updated = set_trainable_values(net, rng.normal(size=trainable_count(net)))
        for k, layer in enumerate(updated.layers):
            for j, neuron in enumerate(layer.neurons):
                mask = net.masks[k][j]
                frozen = ~mask
                np.testing.assert_array_equal(
                    neuron.param_vector()[frozen], before[k][j][frozen]
                )

    def test_original_network_not_mutated(self, net_factory):
        rng = np.random.default_rng(16)
        net = net_factory(rng)
        snapshot = to_json(net)
        set_trainable_values(net, rng.normal(size=trainable_count(net)))
        assert to_json(net) == snapshot


def _edit(path, *value):
    """An edit of a JSON document: the entry at path becomes value, or is
    removed when no value is given."""
    def edit(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        if value:
            doc[last] = value[0]
        else:
            del doc[last]
    return edit


class TestSerialization:
    def test_round_trip_bit_exact(self, net_factory):
        rng = np.random.default_rng(17)
        for _ in range(10):
            net = net_factory(rng)
            text = to_json(net)
            rebuilt = from_json(text)
            assert to_json(rebuilt) == text
            X = rng.normal(size=(1, net.input_dim))
            np.testing.assert_array_equal(forward_batch(rebuilt, X), forward_batch(net, X))

    def test_parameter_count_survives_round_trip(self, net_factory):
        rng = np.random.default_rng(18)
        net = net_factory(rng)
        rebuilt = from_json(to_json(net))
        assert parameter_count(rebuilt) == parameter_count(net)
        assert trainable_count(rebuilt) == trainable_count(net)

    def test_negative_zero_and_tiny_values_survive(self):
        neuron = ConventionalNeuron(w=[-0.0, 5e-324], b=1e-17)
        net = NetworkSpec(2, [LayerSpec([neuron], "identity")])
        rebuilt = from_json(to_json(net))
        w = rebuilt.layers[0].neurons[0].w
        assert np.signbit(w[0]) and w[1] == 5e-324
        assert rebuilt.layers[0].neurons[0].b == 1e-17

    def test_non_finite_neuron_parameter_rejected(self):
        neuron = QuadraticNeuron(w_r=[1.0], b_r=np.nan, w_g=[0.0], b_g=1.0,
                                 w_b=[0.0], c=0.0)
        net = NetworkSpec(1, [LayerSpec([neuron], "identity")])
        with pytest.raises(ValueError, match="not finite"):
            to_json(net)

    def test_non_finite_shortcut_weight_rejected(self):
        layers = [
            LayerSpec([ConventionalNeuron(w=[1.0], b=0.0)], "relu"),
            LayerSpec([ConventionalNeuron(w=[1.0], b=0.0)], "identity"),
            LayerSpec([ConventionalNeuron(w=[1.0], b=0.0)], "identity"),
        ]
        net = NetworkSpec(1, layers, [Shortcut(0, 0, 2, 0, weight=np.inf)])
        with pytest.raises(ValueError, match="not finite"):
            to_json(net)

    @pytest.mark.parametrize("text, problem", [
        ("[]", "object"),
        ("3", "object"),
        ("{}", "input_dim, layers, shortcuts, masks"),
        ('{"input_dim": 1, "layers": [], "shortcuts": []}', "masks"),
    ])
    def test_malformed_document_rejected(self, text, problem):
        with pytest.raises(ValueError, match=problem):
            from_json(text)

    @staticmethod
    def _valid_document() -> dict:
        layers = [
            LayerSpec([norm_neuron(1), PassthroughNeuron(0)], "relu"),
            LayerSpec([ConventionalNeuron(w=[1.0, -1.0], b=0.5)], "identity"),
        ]
        net = NetworkSpec(1, layers, [Shortcut(0, 1, 1, 0, weight=0.25)])
        return json.loads(to_json(net))

    @pytest.mark.parametrize("edit, problem", [
        (_edit(["layers", 1, "neurons"]), "layer 1: lacks 'neurons'"),
        (_edit(["layers", 0, "neurons", 0, "params"]), "layer 0: neuron 0: lacks 'params'"),
        (_edit(["layers", 0, "neurons", 0, "params"], [1.0, "2", 0, 0, 0, 0]),
         "layer 0: neuron 0: 'params' must hold numbers"),
        (_edit(["layers", 0, "neurons", 0, "params"], []), "layer 0: neuron 0: .*3n \\+ 3"),
        (_edit(["layers", 1, "neurons", 0, "params"], [1.0]), "layer 1: neuron 0: .*n \\+ 1"),
        (_edit(["layers", 0, "neurons", 1, "index"], "0"), "layer 0: neuron 1: 'index'"),
        (_edit(["layers", 0, "neurons", 1], 7), "layer 0: neuron 1: expected an object"),
        (_edit(["layers", 0, "activation"], None), "layer 0: 'activation'"),
        (_edit(["shortcuts", 0, "bogus"], 1), "shortcut 0: unknown key 'bogus'"),
        (_edit(["shortcuts", 0, "weight"]), "shortcut 0: lacks 'weight'"),
        (_edit(["shortcuts", 0, "trainable"], 1), "shortcut 0: 'trainable'"),
        (_edit(["shortcuts", 0, "src_layer"], 0.0), "shortcut 0: 'src_layer'"),
        (_edit(["input_dim"], "1"), "input_dim' must be an integer"),
        (_edit(["layers"], {}), "'layers' must be a list"),
        (_edit(["masks", 1, 0, 1], 2), "masks of layer 1: neuron 0: .*0 and 1"),
        (_edit(["masks", 0, 0, 0], 0.5), "masks of layer 0: neuron 0"),
        (_edit(["masks", 0], 1), "masks of layer 0: expected a list"),
    ])
    def test_malformed_part_named(self, edit, problem):
        doc = self._valid_document()
        from_json(json.dumps(doc))
        edit(doc)
        with pytest.raises(ValueError, match=problem):
            from_json(json.dumps(doc))

    @pytest.mark.parametrize("edit, problem", [
        (_edit(["layers", 0, "neurons", 0, "params", 4], True),
         "layer 0: neuron 0: 'params' must hold numbers"),
        (_edit(["layers", 1, "neurons", 0, "params", 2], False),
         "layer 1: neuron 0: 'params' must hold numbers"),
    ])
    def test_boolean_parameter_refused(self, edit, problem):
        """numpy reads true among numbers as 1.0; the reader refuses it."""
        doc = self._valid_document()
        edit(doc)
        with pytest.raises(ValueError, match=problem):
            from_json(json.dumps(doc))

    @pytest.mark.parametrize("edit, problem", [
        (_edit(["layers", 0, "neurons", 1, "index"], 10**20),
         f"layer 0 neuron 1: passthrough index {10**20} out of range for width 1"),
        # a block of this fan-in would not fit in any address space
        (_edit(["input_dim"], 10**15),
         f"layer 0 neuron 0: expects input width 1, previous layer has {10**15}"),
    ])
    def test_sizes_checked_before_arrays_are_made(self, edit, problem):
        doc = self._valid_document()
        edit(doc)
        with pytest.raises(ValueError, match=problem):
            from_json(json.dumps(doc))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_number_rejected(self, literal):
        text = json.dumps(self._valid_document()).replace("0.25", literal)
        with pytest.raises(ValueError, match="non-finite"):
            from_json(text)


class TestConcurrentEvaluation:
    def test_many_threads_share_one_network(self, net_factory):
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(19)
        net = net_factory(rng)
        X = rng.normal(size=(64, net.input_dim))
        expected = [forward_batch(net, x[None])[0] for x in X]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda x: forward_batch(net, x[None])[0], X))
        for got, want in zip(results, expected):
            np.testing.assert_array_equal(got, want)
