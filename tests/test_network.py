"""Forward/backward evaluation, masks, and serialization."""

import copy
import json
from concurrent.futures import ThreadPoolExecutor
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import loss_and_grad, random_network
from hypothesis import given
from hypothesis import strategies as st

from qnn.builders import (
    MultiPolySpec,
    RadialPartition,
    build_deep_radial,
    build_factorization_trainable,
    build_multipoly_net,
    build_poly_net,
    build_shallow_radial,
)
from qnn import network
from qnn.network import (
    _TILE_BYTES,
    NetworkSpec,
    PackedNetwork,
    _layout_of,
    backward_batch,
    block_rows,
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
from qnn.oracles import finite_diff_grad, reference_backward_batch, reference_forward_batch
from qnn.polynomials import Polynomial, bernstein_coeffs, factor_polynomial


def norm_net(n=2):
    """One identity quadratic neuron of fan-in n computing ||x||^2."""
    net = NetworkSpec.blank(n, [("identity", ["quadratic"])])
    net.blocks[0][block_rows(n).w_b] = 1.0
    return net


def layered_forward(net, X, keep_ones=True, dense=False):
    """forward_batch's arithmetic, layer by layer on the whole batch.  With
    X1 = [X; 1], a third [W; b] of a block is [W; b]^T X1, with X1 * X1 for
    [W_b; c]; a bias row, b_r, b_g or c, that is all ±0.0 is left out with
    X1's ones row, except at fan-in one where keep_ones (a rank-1 matmul
    otherwise).  Unless dense, a quadratic layer does no work for a dead
    third: with [W_r; b_r] and [W_g; b_g] both all ±0.0 it is
    [W_b; c]^T (X1 * X1), or [W_r; b_r]^T X1 where [W_b; c] is too; with
    [W_b; c] all ±0.0 it is P * Q.  The output has 0.0 added.  The first
    layer's X1 is [X | 1] transposed, the layout forward_batch copies X
    into."""
    X = np.asarray(X, dtype=np.float64)
    X1 = np.ones((len(X), X.shape[1] + 1))
    X1[:, :-1] = X
    X1 = X1.T
    for block, (activation, kinds) in zip(net.blocks, net.structure):
        n = len(X1) - 1
        live = [bool(np.any(block[rows] != 0.0)) for rows in (
            slice(0, n), n, slice(n + 1, 2 * n + 1), 2 * n + 1, slice(2 * n + 2, 3 * n + 2),
            3 * n + 2)]

        def third(t, A):
            rows = n + (live[2 * t + 1] or (keep_ones and n == 1))
            return block[t * (n + 1) : t * (n + 1) + rows].T @ A[:rows]

        quadratic, square = "quadratic" in kinds, dense or any(live[4:])
        if quadratic and (dense or any(live[:4])):
            Z = third(0, X1) * third(1, X1)
            if square:
                Z += third(2, X1 * X1)
        elif quadratic and square:
            Z = third(2, X1 * X1)
        else:
            Z = third(0, X1)
        if activation == "relu":
            np.maximum(Z, 0.0, out=Z)
        X1 = np.vstack([Z, np.ones((1, Z.shape[1]))])
    return np.ascontiguousarray(X1[:-1].T) + 0.0


def matmul_forward_batch(net, X):
    """Reference for forward_batch at fan-in one: a bias row that is all
    ±0.0 left out there too, so that its third is a rank-1 matmul."""
    return layered_forward(net, X, keep_ones=False)


def whole_batch_forward(net, X):
    """Reference for forward_batch's tiles: its arithmetic, layer by layer,
    on the whole batch at once."""
    return layered_forward(net, X)


def dense_forward_batch(net, X):
    """Every third of every quadratic layer evaluated, zero or not, layer by
    layer on the whole batch; a bias row of all ±0.0 is still left out, as
    forward_batch leaves it out."""
    return layered_forward(net, X, dense=True)


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
    """Where a layer's fan-in is one, forward_batch keeps the ones row under
    a bias row of all ±0.0, rather than a rank-1 matmul, which costs twice
    as much, and gets the rank-1 matmul's bits: the zero bias adds 0.0 last
    to 0.0 + w x, which already turns an exact -0.0 product into +0.0."""

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
    kinds, either activation and fan-in-one layers, with normal
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
    net = NetworkSpec.blank(input_dim, structure)
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
    output byte stays what the layer-by-layer whole-batch evaluation gives,
    whatever X's memory order."""

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

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 7, 8, 64, 257]))
    def test_memory_order_changes_no_bit(self, seed, batch):
        """The same X as a C-order, F-order or strided array gives the same
        bytes: X is copied into one input layout before any product, and
        an operand's layout picks its BLAS kernel."""
        rng = np.random.default_rng(seed)
        net = random_network(rng)
        X = rng.normal(size=(2 * batch, net.input_dim))
        outputs = {forward_batch(net, Y).tobytes()
                   for Y in (X[::2].copy(), np.asfortranarray(X[::2]), X[::2])}
        assert len(outputs) == 1

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


@st.composite
def dead_third_nets(draw):
    """A net with all-zero block thirds and the finite values its inputs
    are drawn among beside normal ones: a shallow radial net (its hidden
    layer the square term alone), a product tree (its product layers no
    square term; its roots, where a factor is exactly 0, among the inputs),
    a multivariate polynomial net, or a random net whose weight and bias
    rows are zeroed at random, whole thirds included, in ±0.0, one entry
    sometimes set back."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    specials = [0.0, -0.0, 5e-324, -5e-324]
    kind = draw(st.sampled_from(["shallow", "tree", "multipoly", "random"]))
    if kind == "shallow":
        units = draw(st.sampled_from([2, 3, 33, 200]))
        net = build_shallow_radial(np.sin, 0.5, 2.0, 1.0, 1.5 / (units - 0.5),
                                   input_dim=draw(st.integers(1, 4)))
    elif kind == "tree":
        form = factor_polynomial(Polynomial(
            np.poly(rng.uniform(-2.0, 2.0, size=draw(st.integers(1, 10))))[::-1]))
        net = build_poly_net(form)
        specials += list(form.linear_roots)
    elif kind == "multipoly":
        terms, variables = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        net = build_multipoly_net(MultiPolySpec(rng.integers(0, 5, size=(terms, variables)),
                                                rng.normal(size=terms)))
    else:
        net = draw(tiled_nets())
        for block in net.blocks:
            n = (len(block) - 3) // 3
            # W_r, b_r, W_g, b_g, W_b and c, each zeroed or not: whole
            # thirds, bias rows alone and weights alone
            groups = [slice(0, n), n, slice(n + 1, 2 * n + 1), 2 * n + 1,
                      slice(2 * n + 2, 3 * n + 2), 3 * n + 2]
            zeroed = [rows for rows in groups if draw(st.booleans())]
            for rows in zeroed:
                block[rows] = rng.choice([0.0, -0.0], size=block[rows].shape)
            if zeroed and draw(st.booleans()):  # one entry of a zeroed group set back
                rows = np.atleast_2d(block[zeroed[draw(st.integers(0, len(zeroed) - 1))]])
                rows[tuple(rng.integers(rows.shape))] = rng.normal()
    return net, np.array(specials)


class TestDeadThirds:
    """forward_batch does no work for a block third that is all ±0.0, and
    keeps the bits of evaluating every third on finite inputs whose squares
    are finite, +0.0 for an exact zero output included."""

    @given(dead_third_nets(), st.integers(0, 2), st.sampled_from([-8, -1, 0, 1, 8, 64]),
           st.integers(0, 2**32 - 1))
    def test_matches_dense_bitwise(self, case, tiles, offset, seed):
        """Batches of TestTiles' sizes, with ±0, ±5e-324 and a product
        tree's roots among the inputs; with ±inf and NaN among them too,
        forward_batch still gives the whole-batch reference's bytes."""
        net, specials = case
        batch = max(0, tiles * tile_rows(net) + offset) if tiles else max(0, offset)
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(batch, net.input_dim))
        special = rng.random(size=X.shape) < 0.1
        X[special] = rng.choice(specials, size=int(special.sum()))
        want = dense_forward_batch(net, X)
        assert np.isfinite(want).all()
        assert forward_batch(net, X).tobytes() == want.tobytes()
        X[special] = rng.choice(SPECIAL_INPUTS, size=int(special.sum()))
        with np.errstate(all="ignore"):
            assert forward_batch(net, X).tobytes() == whole_batch_forward(net, X).tobytes()


class TestForward:
    def test_single_norm_neuron(self):
        net = norm_net()
        np.testing.assert_array_equal(forward_batch(net, [[3.0, 4.0]])[0], [25.0])

    def test_two_layer_composition(self):
        net = NetworkSpec.blank(2, [("identity", ["quadratic"]), ("identity", ["conventional"])])
        net.blocks[0][block_rows(2).w_b] = 1.0
        net.blocks[1][:2, 0] = [1.0, -25.0]  # w, b
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
        net = norm_net()
        with pytest.raises(ValueError):
            forward_batch(net, [[1.0, 2.0, 3.0]])

    @pytest.mark.parametrize("X", [[[1 + 2j, 0.5]], np.array([[1.0, 0.5 + 0j]])],
                             ids=["python-complex", "complex-array"])
    def test_complex_inputs_refused(self, X):
        """A complex batch is refused by name, not cast to its real part."""
        with pytest.raises(ValueError, match="X must be real"):
            forward_batch(one_hidden_quadratic(2, 3), X)

    @pytest.mark.parametrize("X", [np.array([[None]], dtype=object), np.array([["1.0"]]),
                                   np.array([["2026-01-01"]], dtype="datetime64[D]")],
                             ids=["object", "string", "datetime"])
    def test_non_numeric_inputs_refused(self, X):
        """An object, string or date batch is refused by name, not read as
        NaN or parsed."""
        with pytest.raises(ValueError, match="X must be real numbers, got dtype"):
            forward_batch(one_hidden_quadratic(1, 2), X)

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
        radial at d = 2-4, and the factorizer with random factors, its
        product and passthrough layers, and an output that reads the triple
        product alone."""
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
        theta[19:] = 0.0  # the output's taps and bias; see the next test
        cases.append((set_trainable_values(net, theta), xs))
        for net, X in cases:
            _, acts = reference_forward_batch(net, X)
            assert forward_batch(net, X).tobytes() == acts[-1].tobytes()

    def test_factorizer_matches_reference(self):
        """With every parameter random, the factorizer's output is a dense
        sum of seven taps.  Its BLAS kernel follows the operand layout, which
        need not be the per-neuron oracle's, so the two agree to rounding."""
        rng = np.random.default_rng(30)
        xs = np.linspace(-1.5, 1.5, 257)[:, None]
        net = build_factorization_trainable(5, 1, 2)
        for _ in range(5):
            theta = rng.uniform(-0.5, 0.5, size=trainable_count(net))
            updated = set_trainable_values(net, theta)
            _, acts = reference_forward_batch(updated, xs)
            np.testing.assert_allclose(forward_batch(updated, xs), acts[-1], rtol=1e-12)


class TestValidation:
    def test_passthrough_index_checked(self):
        with pytest.raises(ValueError):
            NetworkSpec.blank(2, [("identity", ["quadratic"]), ("identity", [1])])

    def test_sizes_checked_before_arrays_are_made(self):
        with pytest.raises(ValueError, match="passthrough index"):
            NetworkSpec.blank(2, [("identity", ["quadratic"]), ("identity", [10**20])])

    @pytest.mark.parametrize("input_dim, kinds, neuron", [(10**15, [0], 0), (2**30, [0, 1, 2], 1)])
    @pytest.mark.parametrize("make", ["blank", "from_json"])
    def test_passthrough_columns_past_2_to_the_32_entries_refused(self, input_dim, kinds,
                                                                  neuron, make):
        """A passthrough column has 3n + 3 entries and costs one JSON field:
        at a huge fan-in it is refused, naming the neuron whose column takes
        the blocks past 2^32 entries, rather than handed to the allocator."""
        problem = (f"layer 0 neuron {neuron}: a column of fan-in {input_dim} takes the "
                   f"blocks past {2**32} entries")
        with pytest.raises(ValueError, match=problem):
            if make == "blank":
                NetworkSpec.blank(input_dim, [("identity", kinds)])
            else:
                doc = json.loads(to_json(NetworkSpec.blank(1, [("identity", [0] * len(kinds))])))
                doc["input_dim"] = input_dim
                from_json(json.dumps(doc))

    @pytest.mark.parametrize("input_dim", [2.0, 2.5, True, "2", np.float64(2.0)],
                             ids=["2.0", "2.5", "True", "str", "float64"])
    def test_non_integer_input_dim_refused(self, input_dim):
        with pytest.raises(ValueError, match="input_dim must be an integer"):
            single_quadratic_net(input_dim)

    def test_refused_float_input_dim_leaves_the_layout_caches_clean(self):
        """2.0 and 2 share an lru_cache key: a 2.0 that reached the cached
        layout helpers would spoil every later net of input_dim 2."""
        _layout_of.cache_clear()
        with pytest.raises(ValueError, match="input_dim must be an integer, got 2.0"):
            single_quadratic_net(2.0)
        net = single_quadratic_net(2)
        assert net.input_dim == 2 and parameter_count(net) == 9

    @pytest.mark.parametrize("width", [2.0, 2.5, True], ids=["2.0", "2.5", "True"])
    def test_non_integer_width_refused(self, width):
        for make in (one_hidden_quadratic, one_hidden_conventional):
            with pytest.raises(ValueError, match="width must be an integer"):
                make(2, width)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="unknown activation 'tanh'"):
            NetworkSpec.blank(2, [("tanh", ["quadratic"])])

class TestBackward:
    def test_constant_offset_gradient_is_one(self):
        rng = np.random.default_rng(8)
        net = norm_net()
        for _ in range(5):
            g = backward_batch(net, rng.normal(size=(1, 2)), np.ones((1, 1)))
            assert g[-1] == 1.0  # dh/dc

    def test_square_term_gradient_is_squared_input(self):
        net = norm_net()
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
        net = net_factory(rng)
        X = rng.normal(size=(4, net.input_dim))
        U = rng.normal(size=(4, net.output_dim))
        total = backward_batch(net, X, U)
        summed = sum(backward_batch(net, x[None], u[None]) for x, u in zip(X, U))
        np.testing.assert_allclose(total, summed, rtol=1e-12, atol=1e-12)

    def test_upstream_width_checked(self):
        net = norm_net()
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
            packed = PackedNetwork(net, np.zeros((1, net.input_dim)))
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
            theta = rng.normal(size=trainable_count(net))
            X = rng.normal(size=(9, net.input_dim))
            U = rng.normal(size=(9, net.output_dim))
            outputs = []

            def loss(out):
                outputs.append(out)
                return None, U[None]

            _, grad = loss_and_grad(PackedNetwork(net, X), theta[None], loss)
            updated = set_trainable_values(net, theta)
            _, acts = reference_forward_batch(updated, X)
            np.testing.assert_allclose(outputs[0][0], acts[-1], rtol=1e-12, atol=1e-12)
            assert_gradients_close(grad[0], reference_backward_batch(updated, X, U), 1e-12)
        assert kinds == {"QuadraticNeuron", "ConventionalNeuron", "PassthroughNeuron",
                         "relu", "identity"}

    def test_public_members(self):
        packed = PackedNetwork(single_quadratic_net(2), np.zeros((3, 2)))
        public = {name for name in {*vars(packed), *vars(PackedNetwork)}
                  if not name.startswith("_")}
        assert public == {"params", "grad", "theta_index", "output", "upstream",
                          "forward", "backward"}
        assert packed.output.shape == packed.upstream.shape == (1, 1, 3)

    def test_warm_step_allocates_no_large_array(self):
        """Once the executor is built, a training step allocates less than
        five length-B float64 arrays, for either kind of hidden layer: the
        output copy and the loss's temporaries, and no (B, width) array,
        not even a one-byte ReLU mask."""
        B, width = 4096, 32
        rng = np.random.default_rng(27)
        X, y = rng.normal(size=(B, 4)), rng.normal(size=B)

        def loss(out):
            err = out[..., 0] - y
            return np.mean(err * err, axis=-1), (2.0 * err / B)[..., None]

        for net in (one_hidden_quadratic(4, width), one_hidden_conventional(4, width)):
            packed = PackedNetwork(net, X)
            theta = rng.uniform(-0.5, 0.5, size=(1, trainable_count(net)))
            loss_and_grad(packed, theta, loss)
            tracemalloc.start()
            try:
                loss_and_grad(packed, theta, loss)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 5 * B * 8

    @pytest.mark.parametrize("X", [np.zeros(5), np.zeros((5, 2)), np.zeros((1, 5, 1))],
                             ids=["1-D", "wrong-width", "3-D"])
    def test_malformed_batch_refused(self, X):
        """X must be (B, input_dim): a 1-D batch is not read as B inputs."""
        with pytest.raises(ValueError, match="batch of shape"):
            PackedNetwork(single_quadratic_net(1), X)

    def test_complex_batch_refused(self):
        with pytest.raises(ValueError, match="X must be real"):
            PackedNetwork(single_quadratic_net(1), np.ones((5, 1), dtype=complex))

    @pytest.mark.parametrize("frozen", [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)],
                             ids=["W_r", "W_g", "W_b", "W_r-W_g", "W_r-W_b", "W_g-W_b"])
    def test_gradient_where_thirds_are_frozen_whole(self, frozen):
        """A third of a layer's block frozen whole gets no gradient, and the
        others keep every bit of the all-trainable net's gradient."""
        rng = np.random.default_rng(31)
        full = one_hidden_quadratic(2, 3)
        full.params[full._layout.own] = rng.normal(size=parameter_count(full))
        net = copy.copy(full)
        net.trainable = full.trainable.copy()
        for t in frozen:  # rows 3t to 3t + 2 of layer 0's (9, 3) block
            net._split(net.trainable)[0][3 * t : 3 * t + 3] = False
        learnt = net.trainable[net._layout.own]
        X = rng.normal(size=(7, 2))
        U = rng.normal(size=(1, 7, 1))
        packed = PackedNetwork(net, X)
        _, grad = loss_and_grad(packed, trainable_values(net)[None], lambda out: (None, U))
        _, want = loss_and_grad(PackedNetwork(full, X), trainable_values(full)[None],
                                lambda out: (None, U))
        assert [g is None for g in packed._layers[0].grads] == [t in frozen for t in range(3)]
        assert grad.tobytes() == want[:, learnt].tobytes()

    def test_square_term_alone(self):
        """A layer whose [W_r; b_r] and [W_g; b_g] are zero and frozen, as a
        shallow radial net's hidden layer, is its square term alone forward
        and backward, its input gradient 2 x * (W_b d) included: output and
        gradient keep the bits of the net with those thirds trainable."""
        rng = np.random.default_rng(32)
        full = NetworkSpec.blank(2, [("identity", ["conventional"] * 3),
                                     ("relu", ["quadratic"] * 2), ("identity", ["conventional"])])
        full.params[full._layout.own] = rng.normal(size=parameter_count(full))
        net = copy.copy(full)
        net.trainable = full.trainable.copy()
        for flat in (net.params, net.trainable):
            net._split(flat)[1][: 2 * 3 + 2] = 0  # W_r, b_r, W_g, b_g of fan-in 3
        full.params = net.params
        learnt = net.trainable[net._layout.own]
        X = rng.normal(size=(7, 2))
        U = rng.normal(size=(1, 7, 1))
        outputs = []

        def loss(out):
            outputs.append(out)
            return None, U

        packed = PackedNetwork(net, X)
        _, grad = loss_and_grad(packed, trainable_values(net)[None], loss)
        _, want = loss_and_grad(PackedNetwork(full, X), trainable_values(full)[None], loss)
        assert packed._layers[1].square and not packed._layers[1].gated
        assert outputs[0].tobytes() == outputs[1].tobytes()
        assert grad.tobytes() == want[:, learnt].tobytes()

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
            stacked = PackedNetwork(net, X, restarts=3)
            singles = [PackedNetwork(net, X) for _ in range(3)]
            for _ in range(2):
                _, grad = loss_and_grad(stacked, theta, loss)
                for i, single in enumerate(singles):
                    _, grad_i = loss_and_grad(single, rows[i : i + 1], loss)
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

            value, grad = loss_and_grad(PackedNetwork(net, X), theta[None], loss)
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
            outputs = []

            def loss_for(upstream):
                def loss(out):
                    outputs.append(out)
                    return None, upstream
                return loss

            stacked = PackedNetwork(net, X, restarts=3)
            assert stacked.params.shape[0] == 3
            _, grad = loss_and_grad(stacked, theta, loss_for(U))
            assert outputs[0].shape == (3, 7, net.output_dim)
            assert grad.shape == theta.shape
            for i in range(3):
                _, grad_i = loss_and_grad(PackedNetwork(net, X), theta[i : i + 1],
                                          loss_for(U[i : i + 1]))
                np.testing.assert_array_equal(outputs[0][i], outputs[-1][0])
                np.testing.assert_array_equal(grad[i], grad_i[0])

    def test_numpy_integer_sizes_are_read_as_int(self):
        """A numpy input_dim made a net whose JSON could not be written
        (TypeError: int32 is not JSON serializable) and whose layout was
        summed in int32, where a restart count's bound overflowed."""
        net = single_quadratic_net(np.int32(1))
        assert type(net.input_dim) is type(net._layout.size) is int
        assert from_json(to_json(net)).input_dim == 1
        packed = PackedNetwork(net, np.ones((2, 1)), np.int32(3))
        assert packed.params.shape == (3, net._layout.size)

    @pytest.mark.parametrize("restarts, message", [
        (0, ">= 1"), (2.0, "an integer"), (2.5, "an integer"), (True, "an integer")],
        ids=["0", "2.0", "2.5", "True"])
    def test_restarts_must_be_a_positive_integer(self, restarts, message):
        with pytest.raises(ValueError, match=f"restarts must be {message}"):
            PackedNetwork(single_quadratic_net(2), np.zeros((1, 2)), restarts=restarts)

    def test_restarts_past_the_work_arrays_refused_before_allocating(self):
        """restarts x (activation rows) x B past 2^32 entries is refused by
        name before params or any work array is made: 40 activation rows
        at B = 4096 allow 26214 restarts, where the params alone, 579
        entries a restart, would allow 7.4 million."""
        net = one_hidden_quadratic(4, 32)
        X = np.zeros((4096, 4))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="restarts must be <= 26214, got 26215"):
                PackedNetwork(net, X, restarts=26215)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _owner(array: np.ndarray) -> np.ndarray:
    """The array that owns array's memory."""
    while array.base is not None:
        array = array.base
    return array


class TestWorkMemory:
    """An evaluator's work memory is one allocation whose first part starts
    on a 64-byte boundary, its parts carved end to end, so that where a row
    is a multiple of 8 entries every row starts on one: the executor's rows
    of R x B entries, and forward_batch's rows of a tile."""

    @pytest.mark.parametrize("restarts, batch", [(1, 4096), (10, 100), (3, 7)])
    def test_executor_work_arrays_in_one_aligned_block(self, restarts, batch):
        net = NetworkSpec.blank(4, [("relu", ["quadratic"] * 5), ("relu", ["quadratic"] * 3),
                                    ("identity", ["conventional"])])
        packed = PackedNetwork(net, np.zeros((batch, 4)), restarts)
        buffers = [[b for b in field if b is not None] for field in zip(*packed._layer_buffers)]
        assert all(buffers)  # every kind of work array is there: product, X2, P, Q and T
        arrays = [packed._acts, packed._grad_acts, *sum(buffers, [])]
        assert len({id(_owner(a)) for a in arrays}) == 1
        assert packed._acts.ctypes.data % 64 == 0
        # (R, rows, B) views of (rows, R, B) memory: row i starts at data + i * strides[1]
        assert all(a.strides == (8 * batch, 8 * restarts * batch, 8) for a in arrays)
        if restarts * batch % 8 == 0:
            assert all(a.ctypes.data % 64 == 0 and a.strides[1] % 64 == 0 for a in arrays)

    @pytest.mark.parametrize("batch", [4096, 4097, 401])
    def test_forward_batch_outputs_in_one_aligned_block(self, batch, monkeypatch):
        """Every out that forward_batch's op lists write is a view of one
        array; where each tile is a multiple of 8 columns, every out and
        each of its rows starts on a 64-byte boundary (the first layer's
        X1 * X1, in [X | 1]'s (tile, d + 1) layout, at its start)."""
        outs, run = [], network._run

        def spy(program):
            outs.extend(out for *_, out in program)
            run(program)

        monkeypatch.setattr(network, "_run", spy)
        rng = np.random.default_rng(40)
        for net in (one_hidden_quadratic(3, 200), build_deep_radial(
                RadialPartition([0.0, 1.0, 2.0], [1.0, -0.5], 0.1), 3)):
            net.params[net._layout.own] = rng.normal(size=parameter_count(net))
            outs.clear()
            forward_batch(net, rng.normal(size=(batch, 3)))
            assert len({id(_owner(out)) for out in outs}) == 1
            if batch % 8:
                continue
            for out in outs:
                assert out.ctypes.data % 64 == 0
                if out.strides[-1] == out.itemsize:
                    assert out.strides[0] % 64 == 0

    def test_empty_batch(self):
        """B = 0 carves empty work arrays: forward_batch returns no rows and
        backward_batch a zero gradient."""
        net = one_hidden_quadratic(3, 4)
        assert forward_batch(net, np.zeros((0, 3))).shape == (0, 1)
        grad = backward_batch(net, np.zeros((0, 3)), np.zeros((0, 1)))
        np.testing.assert_array_equal(grad, np.zeros(trainable_count(net)))


def fresh_forward(net, X):
    """forward_batch in a new thread, which keeps no workspace or program yet."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(forward_batch, net, X).result()


def random_tree(rng, degree):
    """The product tree of a polynomial of degree real roots uniform on
    [-2, 2]: degree linear factors, so that trees of one degree share a
    structure."""
    return build_poly_net(factor_polynomial(Polynomial(
        np.poly(rng.uniform(-2.0, 2.0, size=degree))[::-1])))


class TestKeptPrograms:
    """Each thread keeps one workspace between forward_batch calls and the
    programs bound to it, one per structure, live thirds, product layers
    and tile width; whatever ran before, a call gives the bytes a call in a
    fresh thread gives."""

    def test_nets_of_one_structure_alternate(self):
        """Two nets of one structure, with different parameters, share a
        program: each call runs on its own net's parameters."""
        rng = np.random.default_rng(41)
        hidden = [one_hidden_quadratic(3, 5) for _ in range(2)]
        for net in hidden:
            net.params[:] = rng.normal(size=len(net.params))
        for pair in ([random_tree(rng, 6) for _ in range(2)], hidden):
            assert pair[0].structure == pair[1].structure
            assert not np.array_equal(pair[0].params, pair[1].params)
            for batch in (1, 401, 4096):
                X = rng.uniform(-2.0, 2.0, size=(batch, pair[0].input_dim))
                want = [fresh_forward(net, X).tobytes() for net in pair]
                for _ in range(2):
                    assert [forward_batch(net, X).tobytes() for net in pair] == want

    def test_nan_over_the_kept_workspace_changes_no_bit(self):
        """A call writes everything it reads, the ones rows and the copy
        of the parameters included: NaN over the whole kept workspace
        between two calls changes no output bit, in a single tile, in
        several and in a short last one."""
        rng = np.random.default_rng(42)
        wide = one_hidden_quadratic(2, 200)
        wide.params[:] = rng.uniform(-1.0, 1.0, size=len(wide.params))
        deep = build_deep_radial(RadialPartition([0.0, 1.0, 2.0], [1.0, -0.5], 0.1), 3)
        for net, batch in ((random_tree(rng, 9), 401), (deep, 4096), (wide, 1000), (wide, 1)):
            X = rng.uniform(-2.0, 2.0, size=(batch, net.input_dim))
            want = forward_batch(net, X).tobytes()
            network._kept.work[...] = np.nan
            assert forward_batch(net, X).tobytes() == want

    def test_threads_evaluate_different_nets_at_once(self):
        """Two threads evaluating different nets at once, over and over,
        each get the bytes of their net's single-thread outputs."""
        import threading

        rng = np.random.default_rng(43)
        wide = one_hidden_quadratic(2, 64)
        wide.params[:] = rng.uniform(-1.0, 1.0, size=len(wide.params))
        cases = [(random_tree(rng, 12), rng.uniform(-2.0, 2.0, size=(401, 1))),
                 (wide, rng.uniform(-2.0, 2.0, size=(1000, 2)))]
        want = [fresh_forward(net, X).tobytes() for net, X in cases]
        start = threading.Barrier(len(cases))

        def evaluate(net, X):
            start.wait()
            return [forward_batch(net, X).tobytes() for _ in range(200)]

        with ThreadPoolExecutor(max_workers=len(cases)) as pool:
            runs = list(pool.map(lambda case: evaluate(*case), cases))
        for got, expected in zip(runs, want):
            assert set(got) == {expected}

    def test_what_a_thread_keeps_is_bounded(self):
        """The kept workspace holds at most _KEPT_ENTRIES entries and the
        table at most _PROGRAMS programs; a call whose workspace would pass
        the bound, one_hidden_quadratic(2, 200) at B = 20,001, keeps
        nothing."""

        def kept():
            state = network._kept
            return state.work, list(state.programs)

        def run():
            net = one_hidden_quadratic(2, 200)
            X = np.ones((20_001, 2))
            forward_batch(net, X[:20_000])
            before = kept()
            forward_batch(net, X)
            after = kept()
            for width in range(1, network._PROGRAMS + 9):
                forward_batch(one_hidden_quadratic(1, width), np.ones((8, 1)))
            return before, after, len(network._kept.programs), network._kept.work.size

        with ThreadPoolExecutor(max_workers=1) as pool:
            (work, keys), (work_after, keys_after), programs, size = pool.submit(run).result()
        assert work_after is work and keys_after == keys
        assert programs == network._PROGRAMS
        assert 0 < size <= network._KEPT_ENTRIES


    def test_workspace_kept_for_life(self):
        """A call whose program needs more rows than any before it binds it
        to the same workspace, and the earlier program stays kept."""

        def run():
            forward_batch(single_quadratic_net(1), np.ones((8, 1)))
            work, (first,) = network._kept.work, list(network._kept.programs)
            forward_batch(one_hidden_quadratic(2, 200), np.ones((4096, 2)))
            return work, first, network._kept.work, list(network._kept.programs)

        with ThreadPoolExecutor(max_workers=1) as pool:
            work, first, work_after, keys = pool.submit(run).result()
        assert work_after is work and work.size == network._KEPT_ENTRIES
        assert keys[0] == first and len(keys) > 1

    def test_kept_workspace_under_the_huge_page_threshold(self):
        """_aligned's allocation for the kept workspace, _KEPT_ENTRIES + 7
        float64 entries, stays under the 4 MiB at which numpy asks the
        kernel for huge pages, which would make the whole of it resident."""
        assert (network._KEPT_ENTRIES + 7) * 8 < 4 * 2**20

    def test_deep_copy_shares_the_program(self):
        """A deep copy of a net shares its layout, and so its program: one
        program is kept for the two, each call runs on its own net's
        params, and the copy's params are its own."""
        rng = np.random.default_rng(45)
        net = random_tree(rng, 6)
        X = rng.uniform(-2.0, 2.0, size=(401, 1))

        def run():
            want = forward_batch(net, X).tobytes()
            twin = copy.deepcopy(net)
            got = forward_batch(twin, X).tobytes()
            programs = len(network._kept.programs)
            twin.params[:] = rng.uniform(-1.0, 1.0, size=len(twin.params))
            return want, got, programs, twin, forward_batch(net, X).tobytes()

        with ThreadPoolExecutor(max_workers=1) as pool:
            want, got, programs, twin, after = pool.submit(run).result()
        assert programs == 1 and got == want
        assert twin.params is not net.params and twin._layout is net._layout
        assert after == want


def ops_run(net, X, monkeypatch) -> list:
    """The ops forward_batch runs on X."""
    ops, run = [], network._run

    def spy(program):
        ops.extend(program)
        run(program)

    monkeypatch.setattr(network, "_run", spy)
    forward_batch(net, X)
    monkeypatch.undo()
    return ops


class TestProductLayers:
    """A product-tree layer, whose block is one-hot pairs W_r = e_2j,
    W_g = e_2j+1, then passthroughs, and +-0.0 elsewhere, runs as one
    multiply of its input's even rows by its odd rows and a copy with 0.0
    added per passthrough, with the matmuls' bits on finite inputs."""

    def test_rule_fires_on_product_trees_alone(self, monkeypatch):
        """A degree-7 tree does the factor layer's two matmuls alone; with
        any one entry of a product layer's block changed, that layer runs
        its matmuls, and gives the whole-batch reference's bytes; an entry
        of 0.0 set to -0.0 leaves the rule on."""
        rng = np.random.default_rng(44)
        tree = random_tree(rng, 7)
        assert tree.layer_widths() == [7, 4, 2, 1]
        X = rng.uniform(-2.0, 2.0, size=(401, 1))

        def matmuls(net):
            return sum(op[0] is np.matmul for op in ops_run(net, X, monkeypatch))

        assert matmuls(tree) == 2
        assert forward_batch(tree, X).tobytes() == dense_forward_batch(tree, X).tobytes()
        for block_index in (1, 2, 3):
            for entry in np.ndindex(tree.blocks[block_index].shape):
                for value in (0.5, -0.0):
                    if value == -0.0 and tree.blocks[block_index][entry] != 0.0:
                        continue
                    net = copy.copy(tree)  # the layout shared, as set_trainable_values shares it
                    net.params = tree.params.copy()
                    net.blocks[block_index][entry] = value
                    assert (matmuls(net) == 2) == (value == -0.0), (block_index, entry)
                    got = forward_batch(net, X)
                    assert got.tobytes() == whole_batch_forward(net, X).tobytes()

    def test_conventional_layer_between_product_layers(self, monkeypatch):
        """x0 x1 and x2 x3, a conventional ReLU layer of four, then x0 x1
        with x2 and x3 passed through: the product test flags the outer
        two layers alone, the conventional layer's matmul is the one
        matmul run, and the bytes are the whole-batch reference's."""
        rng = np.random.default_rng(46)
        net = NetworkSpec.blank(4, [("identity", ["quadratic"] * 2),
                                    ("relu", ["conventional"] * 4),
                                    ("identity", ["quadratic", 2, 3])])
        for block, pairs in ((net.blocks[0], 2), (net.blocks[2], 1)):
            rows = block_rows(4)
            for j in range(pairs):
                block[rows.w_r.start + 2 * j, j] = block[rows.w_g.start + 2 * j + 1, j] = 1.0
        rows = block_rows(2)
        net.blocks[1][rows.w_r] = rng.normal(size=(2, 4))
        net.blocks[1][rows.b_r] = rng.normal(size=4)
        flags = np.logical_and.reduceat(net.params == net._layout.pairs,
                                        net._layout.parts[::6])
        assert flags.tolist() == [True, False, True]
        X = rng.uniform(-2.0, 2.0, size=(401, 4))
        ops = ops_run(net, X, monkeypatch)
        assert sum(op[0] is np.matmul for op in ops) == 1
        assert forward_batch(net, X).tobytes() == whole_batch_forward(net, X).tobytes()

    def test_infinities_through_a_product_layer(self):
        """x0 * x1 beside a passthrough of x2: an infinite factor gives an
        infinite product and an infinite channel is copied, where the
        matmuls' 0 * inf made both NaN; -0.0 is copied as +0.0."""
        net = NetworkSpec.blank(3, [("identity", ["quadratic", 2])])
        rows = block_rows(3)
        net.blocks[0][rows.w_r.start + 0, 0] = 1.0
        net.blocks[0][rows.w_g.start + 1, 0] = 1.0
        inf = np.inf
        X = np.array([[inf, 2.0, -inf], [-inf, -0.5, 3.0], [inf, 0.0, -0.0], [-3.0, 0.5, 7.0]])
        want = np.array([[inf, -inf], [inf, 3.0], [np.nan, 0.0], [-1.5, 7.0]])
        with np.errstate(invalid="ignore"):
            got = forward_batch(net, X)
            assert np.isnan(whole_batch_forward(net, X)[:3]).all()
        np.testing.assert_array_equal(got, want)
        assert not np.signbit(got[2, 1])


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
        own = net._layout.own
        frozen = ~net.trainable[own]
        updated = set_trainable_values(net, rng.normal(size=trainable_count(net)))
        np.testing.assert_array_equal(updated.params[own][frozen], net.params[own][frozen])

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
        net = NetworkSpec.blank(2, [("identity", ["conventional"])])
        net.blocks[0][:3, 0] = [-0.0, 5e-324, 1e-17]  # w, b
        w0, w1, b = from_json(to_json(net)).blocks[0][:3, 0]
        assert np.signbit(w0) and w1 == 5e-324 and b == 1e-17

    def test_non_finite_neuron_parameter_rejected(self):
        net = single_quadratic_net(1)
        net.blocks[0][block_rows(1).b_r] = np.nan
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
        net = NetworkSpec.blank(1, [("relu", ["quadratic", 0]), ("identity", ["conventional"])])
        net.blocks[0][block_rows(1).w_b, 0] = 1.0
        net.blocks[1][:3, 0] = [1.0, -1.0, 0.25]  # w, b
        return json.loads(to_json(net))

    @pytest.mark.parametrize("edit, problem", [
        (_edit(["layers", 1, "neurons"]), "layer 1: lacks 'neurons'"),
        (_edit(["layers", 0, "neurons", 0, "params"]), "layer 0: neuron 0: lacks 'params'"),
        (_edit(["layers", 0, "neurons", 0, "params"], [1.0, "2", 0, 0, 0, 0]),
         "layer 0: neuron 0: 'params' must hold numbers"),
        (_edit(["layers", 1, "neurons", 0, "params", 0], 10**309),
         "layer 1: neuron 0: 'params' must hold numbers"),
        (_edit(["layers", 1, "neurons", 0, "params", 0], int(sys.float_info.max) + 1),
         "layer 1: neuron 0: 'params' must hold numbers"),
        (_edit(["layers", 0, "neurons", 0, "params"], []),
         "layer 0 neuron 0: a quadratic neuron of fan-in 1 takes 6 parameters and mask "
         "entries, got 0 and 6"),
        (_edit(["layers", 1, "neurons", 0, "params"], [1.0]),
         "layer 1 neuron 0: a conventional neuron of fan-in 2 takes 3 parameters and mask "
         "entries, got 1 and 3"),
        (_edit(["layers", 0, "neurons", 1, "index"], "0"), "layer 0: neuron 1: 'index'"),
        (_edit(["layers", 0, "neurons", 1], 7), "layer 0: neuron 1: expected an object"),
        (_edit(["layers", 0, "activation"], None), "layer 0: 'activation'"),
        (_edit(["layers", 0, "activation"], "tanh"), "layer 0: unknown activation 'tanh'"),
        (_edit(["layers", 0, "neurons"], []), "layer 0: layer must contain at least one neuron"),
        (_edit(["layers", 0, "neurons", 0, "kind"], "cubic"),
         "layer 0: neuron 0: unknown neuron kind 'cubic'"),
        (_edit(["input_dim"], "1"), "input_dim' must be an integer"),
        (_edit(["input_dim"], 0), "'input_dim' must be >= 1"),
        (_edit(["layers"], {}), "'layers' must be a list"),
        (_edit(["masks", 1, 0, 1], 2), "masks of layer 1: neuron 0: .*0 and 1"),
        (_edit(["masks", 0, 0, 0], 0.5), "masks of layer 0: neuron 0"),
        (_edit(["masks", 0], 1), "masks of layer 0: expected a list"),
        (_edit(["masks", 1]), "masks must parallel layers"),
        (_edit(["masks", 0, 1]), "masks for layer 0 must parallel its neurons"),
    ])
    def test_malformed_part_named(self, edit, problem):
        doc = self._valid_document()
        from_json(json.dumps(doc))
        edit(doc)
        with pytest.raises(ValueError, match=problem):
            from_json(json.dumps(doc))

    def test_mask_entries_true_false_and_floats_read_as_flags(self):
        doc = self._valid_document()
        doc["masks"][0][0] = [True, False, 1.0, 0.0, 1, -0.0]
        net = from_json(json.dumps(doc))
        assert net.masks[0][0].tolist() == [True, False, True, False, True, False]

    def test_unknown_keys_ignored(self):
        """Keys the reader does not know, in a neuron, a layer or the
        document, and a passthrough's params, are not read."""
        doc = self._valid_document()
        text = to_json(from_json(json.dumps(doc)))
        doc["layers"][0]["neurons"][0]["note"] = "extra"
        doc["layers"][0]["neurons"][1]["params"] = ["not read"]
        doc["layers"][1]["comment"] = [1, 2]
        doc["version"] = 2
        assert to_json(from_json(json.dumps(doc))) == text

    @pytest.mark.parametrize("value", [10**20, -(2**63) - 1, 2**64, -int(sys.float_info.max)],
                             ids=["1e20", "-2**63-1", "2**64", "-max_float"])
    def test_integer_parameters_read_as_floats(self, value):
        """A JSON integer within the float64 range is read as its float, as
        _field reads one, however many digits it has."""
        doc = self._valid_document()
        doc["layers"][1]["neurons"][0]["params"][0] = value
        net = from_json(json.dumps(doc))
        assert net.blocks[1][0, 0] == float(value)

    def test_saved_shortcut_edge_refused(self):
        """A document that holds an edge skipping layers, as older versions
        wrote them, is refused by name rather than read without the edge."""
        doc = self._valid_document()
        doc["shortcuts"] = [{"src_layer": 0, "src_neuron": 1, "dst_layer": 1,
                             "dst_neuron": 0, "trainable": True, "weight": 0.25}]
        with pytest.raises(ValueError, match="'shortcuts' must be empty"):
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
         f"layer 0 neuron 0: a quadratic neuron of fan-in {10**15} takes {3 * 10**15 + 3} "
         "parameters and mask entries, got 6 and 6"),
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

    def test_threads_evaluating_tiled_batches(self):
        """Four threads each evaluate batches of several tiles, the last
        one short, on one net: every result has the single-thread bytes."""
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(35)
        net = one_hidden_quadratic(2, 200)
        net.params[:] = rng.uniform(-1.0, 1.0, size=len(net.params))
        assert tile_rows(net) < 1000
        batches = [rng.uniform(-2.0, 2.0, size=(1000, 2)) for _ in range(16)]
        expected = [forward_batch(net, X).tobytes() for X in batches]
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda X: forward_batch(net, X).tobytes(), batches))
        assert results == expected
