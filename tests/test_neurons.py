"""Unit behaviour of the three neuron kinds."""

import itertools

import numpy as np
import pytest

from qnn.neurons import (
    ConventionalNeuron,
    PassthroughNeuron,
    QuadraticNeuron,
    conv_preactivation,
    preactivation,
    quad_preactivation,
    relu,
)


def quad(w_r, b_r, w_g, b_g, w_b, c):
    return QuadraticNeuron(w_r=w_r, b_r=b_r, w_g=w_g, b_g=b_g, w_b=w_b, c=c)


class TestQuadPreactivation:
    def test_product_of_projections(self):
        n = quad([1, 0], 0, [1, 0], 0, [0, 0], 0)
        assert quad_preactivation(n, [2, 3]) == 4.0

    def test_pure_norm(self):
        n = quad([0, 0], 0, [0, 0], 0, [1, 1], 0)
        assert quad_preactivation(n, [3, 4]) == 25.0

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(3)
        n = quad(rng.normal(size=3), 0.3, rng.normal(size=3), -0.1,
                 rng.normal(size=3), 0.7)
        X = rng.normal(size=(10, 3))
        batch = quad_preactivation(n, X)
        singles = [quad_preactivation(n, x) for x in X]
        np.testing.assert_allclose(batch, singles)

    def test_dimension_mismatch_rejected(self):
        n = quad([1, 0], 0, [1, 0], 0, [0, 0], 0)
        with pytest.raises(ValueError):
            quad_preactivation(n, [1, 2, 3])

    def test_weight_vectors_must_match(self):
        with pytest.raises(ValueError):
            quad([1, 0], 0, [1], 0, [0, 0], 0)

    @pytest.mark.parametrize("field", ["w_r", "w_g", "w_b"])
    def test_complex_weights_refused(self, field):
        """A complex weight is refused by name, not cast to its real part."""
        weights = {"w_r": [1.0], "w_g": [1.0], "w_b": [1.0]}
        weights[field] = np.array([1.0 + 1.0j])
        with pytest.raises(ValueError, match=f"{field} must be real"):
            QuadraticNeuron(b_r=0.0, b_g=0.0, c=0.0, **weights)


class TestConvPreactivation:
    def test_inner_product(self):
        n = ConventionalNeuron(w=[1, 1], b=0)
        assert conv_preactivation(n, [2, 3]) == 5.0

    def test_bias_only(self):
        n = ConventionalNeuron(w=[0, 0, 0], b=7)
        assert conv_preactivation(n, [9, -4, 2]) == 7.0

    def test_mixed(self):
        n = ConventionalNeuron(w=[0.5, -1.0], b=1.0)
        assert conv_preactivation(n, [2, 1]) == 1.0

    def test_dimension_mismatch_rejected(self):
        n = ConventionalNeuron(w=[1, 1], b=0)
        with pytest.raises(ValueError):
            conv_preactivation(n, [1])

    def test_complex_weights_refused(self):
        with pytest.raises(ValueError, match="w must be real"):
            ConventionalNeuron(w=np.array([1.0j]), b=0.0)


class TestRelu:
    @pytest.mark.parametrize("z,expected", [(-1.0, 0.0), (0.0, 0.0), (2.5, 2.5)])
    def test_scalar(self, z, expected):
        assert relu(z) == expected

    def test_elementwise(self):
        np.testing.assert_array_equal(relu(np.array([-2.0, 0.0, 3.0])),
                                      [0.0, 0.0, 3.0])


class TestPassthrough:
    def test_copies_coordinate(self):
        n = PassthroughNeuron(1)
        assert preactivation(n, np.array([5.0, -2.0])) == -2.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            preactivation(PassthroughNeuron(3), np.array([1.0, 2.0]))


@pytest.mark.parametrize("neuron", [quad([1.0], 0, [1.0], 0, [1.0], 0),
                                    ConventionalNeuron(w=[1.0], b=0.0), PassthroughNeuron(0)],
                         ids=["quadratic", "conventional", "passthrough"])
def test_complex_input_refused(neuron):
    """Complex input is refused by name, not cast to its real part."""
    with pytest.raises(ValueError, match="x must be real, got complex"):
        preactivation(neuron, [1.0 + 1.0j])


class TestAlgebraicStructure:
    def test_reduces_to_scaled_affine_when_second_factor_constant(self):
        """With w_g = 0 and w_b = 0 the unit is b_g * (w_r.x + b_r) + c."""
        rng = np.random.default_rng(11)
        for _ in range(50):
            w, b, b_g, c = rng.normal(size=2), rng.normal(), rng.normal(), rng.normal()
            q = quad(w, b, [0, 0], b_g, [0, 0], c)
            conv = ConventionalNeuron(w=w, b=b)
            x = rng.normal(size=2)
            expected = b_g * conv_preactivation(conv, x) + c
            assert quad_preactivation(q, x) == pytest.approx(expected, rel=1e-12)

    def test_subsumes_conventional_neuron(self):
        """(w_r=w, b_r=b, w_g=0, b_g=1, w_b=0, c=0) matches w.x + b exactly."""
        rng = np.random.default_rng(12)
        for _ in range(50):
            w, b = rng.normal(size=3), rng.normal()
            conv = ConventionalNeuron(w=w, b=b)
            q = quad(w, b, np.zeros(3), 1.0, np.zeros(3), 0.0)
            x = rng.normal(size=3)
            assert quad_preactivation(q, x) == conv_preactivation(conv, x)


def xor_search():
    """Small grid search for a single unit whose sign realises XOR on {0,1}^2."""
    corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    want_positive = np.array([False, True, True, False])
    grid = [-1.0, 0.0, 1.0]
    biases = [-1.5, -0.5, 0.5, 1.5]
    for wr1, wr2, br, wg1, wg2, bg in itertools.product(
        grid, grid, biases, grid, grid, biases
    ):
        n = quad([wr1, wr2], br, [wg1, wg2], bg, [0.0, 0.0], 0.0)
        outs = quad_preactivation(n, corners)
        if np.all((outs > 0) == want_positive):
            return n
    return None


class TestXor:
    def test_single_unit_realises_xor(self):
        neuron = xor_search()
        assert neuron is not None
        outs = quad_preactivation(
            neuron, np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        )
        assert outs[0] < 0 and outs[3] < 0
        assert outs[1] > 0 and outs[2] > 0
