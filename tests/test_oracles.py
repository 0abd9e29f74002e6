"""The brute-force references themselves."""

from math import comb

import numpy as np
import pytest

from qnn.network import NetworkSpec, backward_batch, trainable_count
from qnn.oracles import (
    GridSpec,
    bernstein_direct,
    expand_factored,
    finite_diff_grad,
    grid_l1,
    grid_sup,
    horner,
)
from qnn.polynomials import FactoredForm, Polynomial


class TestHorner:
    def test_quadratic(self):
        assert horner(Polynomial([-1.0, 0.0, 1.0]), 3.0) == 8.0

    def test_reference_quintic(self):
        g = expand_factored(FactoredForm(1.0, [1.0], [(0.0, 1.0), (1.7, 1.2)]))
        assert horner(g, -0.5) == pytest.approx(-1.125, rel=1e-14)

    def test_constant(self):
        assert horner(Polynomial([7.0]), 123.4) == 7.0

    def test_vectorized(self):
        p = Polynomial([1.0, 2.0, 3.0])
        xs = np.array([0.0, 1.0, -1.0])
        np.testing.assert_allclose(horner(p, xs), [1.0, 6.0, 2.0])

    def test_complex_points_refused(self):
        """A complex point is refused by name, not cast to its real part."""
        with pytest.raises(ValueError, match="x must be real"):
            horner(Polynomial([1.0, 2.0]), np.array([1.0j]))


class TestExpandFactored:
    def test_two_real_roots(self):
        p = expand_factored(FactoredForm(1.0, [1.0, -1.0], []))
        np.testing.assert_allclose(p.coeffs, [-1.0, 0.0, 1.0])

    def test_scaled_quadratic(self):
        p = expand_factored(FactoredForm(2.0, [], [(0.0, 1.0)]))
        np.testing.assert_allclose(p.coeffs, [2.0, 0.0, 2.0])

    def test_reference_quintic_coefficients(self):
        p = expand_factored(FactoredForm(1.0, [1.0], [(0.0, 1.0), (1.7, 1.2)]))
        np.testing.assert_allclose(
            p.coeffs, [-1.2, -0.5, -0.5, 0.5, 0.7, 1.0], atol=1e-14
        )


def conventional_net(w, b):
    """One identity conventional neuron w . x + b."""
    net = NetworkSpec.blank(len(w), [("identity", ["conventional"])])
    net.blocks[0][: len(w) + 1, 0] = [*w, b]
    return net


class TestFiniteDiff:
    def test_linear_neuron_gradient_is_input(self):
        net = conventional_net([0.1, 0.2, 0.3], 0.0)
        x = np.array([1.5, -2.0, 0.25])
        for step in (1e-3, 1e-5, 1e-7):
            g = finite_diff_grad(net, x, step=step)
            np.testing.assert_allclose(g[:3], x, rtol=1e-6, atol=1e-8)
            assert g[3] == pytest.approx(1.0)

    def test_constant_network_all_zeros(self):
        net = conventional_net([0.0, 0.0], 4.0)
        net.masks[0][0][:2] = False  # freeze the weights, keep the bias
        g = finite_diff_grad(net, np.array([1.0, 2.0]))
        assert len(g) == 1
        assert g[0] == pytest.approx(1.0)

    def test_leaves_the_net_unchanged(self, net_factory):
        """Each parameter is bumped in place in a copy and put back: the
        caller's params and trainable are never written (read-only here, so
        a write raises) and keep their bytes."""
        rng = np.random.default_rng(41)
        for _ in range(20):
            net = net_factory(rng)
            params, trainable = net.params.tobytes(), net.trainable.tobytes()
            net.params.flags.writeable = net.trainable.flags.writeable = False
            finite_diff_grad(net, rng.normal(size=net.input_dim))
            assert (net.params.tobytes(), net.trainable.tobytes()) == (params, trainable)

    def test_two_step_sizes_agree_with_backward(self, net_factory, kink_free_input):
        rng = np.random.default_rng(40)
        checked = 0
        while checked < 10:
            net = net_factory(rng)
            x = kink_free_input(net, rng)
            if x is None or trainable_count(net) == 0:
                continue
            upstream = rng.normal(size=net.output_dim)
            analytic = backward_batch(net, x[None], upstream[None])
            for step in (1e-4, 1e-5):
                numeric = finite_diff_grad(net, x, step=step, upstream=upstream)
                rel = np.abs(analytic - numeric) / (
                    1.0 + np.maximum(np.abs(analytic), np.abs(numeric))
                )
                assert rel.max() < 1e-5
            checked += 1

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            finite_diff_grad(conventional_net([1.0], 0.0), np.array([1.0]), step=0.0)

    @pytest.mark.parametrize("step", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_step_refused(self, step):
        """A NaN step gave an all-NaN gradient; it is refused by name."""
        with pytest.raises(ValueError, match=f"step must be positive and finite, got {step}"):
            finite_diff_grad(conventional_net([1.0], 0.0), np.array([1.0]), step=step)

    @pytest.mark.parametrize("step", ["1e-5", True], ids=["string", "True"])
    def test_non_number_step_refused(self, step):
        """A string step raised a bare TypeError and True stepped by 1.0."""
        with pytest.raises(ValueError, match=f"step must be a real number, got {step!r}"):
            finite_diff_grad(conventional_net([1.0], 0.0), np.array([1.0]), step=step)

    @pytest.mark.parametrize("field", ["x", "upstream"])
    def test_complex_point_or_upstream_refused(self, field):
        """Either lost its imaginary part with only a ComplexWarning."""
        args = {"x": np.array([1.0]), "upstream": np.array([1.0])}
        args[field] = args[field] + 1j
        with pytest.raises(ValueError, match=f"^{field} must be real, got complex"):
            finite_diff_grad(conventional_net([1.0], 0.0), args["x"], upstream=args["upstream"])


class TestGrids:
    def test_identical_functions_have_zero_error(self):
        grid = GridSpec(0.0, 1.0, 101)
        f = lambda t: np.sin(t)
        assert grid_l1(f, f, grid) == 0.0
        assert grid_sup(f, f, grid) == 0.0

    def test_unit_box_l1(self):
        grid = GridSpec(0.0, 1.0, 1001)
        one = lambda t: np.ones_like(t)
        zero = lambda t: np.zeros_like(t)
        assert grid_l1(one, zero, grid) == pytest.approx(1.0, abs=1e-9)

    def test_sup_of_identity_vs_zero(self):
        grid = GridSpec(0.0, 1.0, 101)
        assert grid_sup(lambda t: t, lambda t: np.zeros_like(t), grid) == 1.0

    def test_refinement_consistency(self):
        f = lambda t: np.sin(3 * t)
        g = lambda t: 0.2 * t
        coarse = grid_l1(f, g, GridSpec(0.0, 2.0, 2001))
        fine = grid_l1(f, g, GridSpec(0.0, 2.0, 4001))
        assert abs(coarse - fine) < 1e-6

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, 1.0, 10)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 1)

    @pytest.mark.parametrize("lo", [np.nan, -np.inf], ids=["nan", "-inf"])
    def test_non_finite_lo_refused(self, lo):
        with pytest.raises(ValueError, match="grid lo must be finite"):
            GridSpec(lo, 1.0, 5)

    @pytest.mark.parametrize("hi", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_hi_refused(self, hi):
        """GridSpec(0, nan, 5) passed lo < hi and made grid_l1 return nan."""
        with pytest.raises(ValueError, match="grid hi must be finite"):
            GridSpec(0.0, hi, 5)

    def test_non_integer_n_refused(self):
        """2.7 points is refused, not truncated to 2."""
        with pytest.raises(ValueError, match="grid n must be an integer, got 2.7"):
            GridSpec(0.0, 1.0, 2.7)

    def test_bool_n_refused(self):
        with pytest.raises(ValueError, match="grid n must be an integer, got True"):
            GridSpec(0.0, 1.0, True)

    @pytest.mark.parametrize("lo, hi, name", [("0", "1e0", "lo"), (0.0, "1e0", "hi"),
                                              (False, True, "lo"), (0, np.True_, "hi")],
                             ids=["strings", "string-hi", "bools", "numpy-bool-hi"])
    def test_string_or_bool_bound_refused(self, lo, hi, name):
        """Strings were parsed and bools read as 0 and 1: both built [0, 1]."""
        with pytest.raises(ValueError, match=f"grid {name} must be a real number"):
            GridSpec(lo, hi, 5)

    @pytest.mark.parametrize("values, problem", [
        (np.array([1j, 0.0, 0.0]), "must be real, got complex values"),
        (np.array(["0.5", "0", "0"]), "must be real numbers, got dtype <U3"),
    ], ids=["complex", "strings"])
    @pytest.mark.parametrize("measure", [grid_l1, grid_sup])
    def test_complex_or_string_values_refused(self, measure, values, problem):
        """Complex values lost their imaginary parts with only a
        ComplexWarning, and strings were parsed."""
        with pytest.raises(ValueError, match=f"f values {problem}"):
            measure(lambda t: values, np.zeros_like, GridSpec(0.0, 1.0, 3))

    def test_numeric_bounds_accepted(self):
        for lo, hi in ((0, 1), (np.float64(0.0), np.float64(1.0)), (np.int64(0), 1.0)):
            grid = GridSpec(lo, hi, 5)
            assert (type(grid.lo), type(grid.hi)) == (float, float)
            assert grid.points().tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]


class TestBernsteinDirect:
    def test_endpoint_interpolation(self):
        f = lambda x: x * x + 1.0
        vals = bernstein_direct(f, 7, np.array([0.0, 1.0]))
        np.testing.assert_allclose(vals, [f(0.0), f(1.0)], atol=1e-14)

    def test_partition_of_unity(self):
        vals = bernstein_direct(lambda x: 1.0, 20, np.linspace(0, 1, 23))
        np.testing.assert_allclose(vals, 1.0, atol=1e-12)

    def test_degree_must_be_positive(self):
        with pytest.raises(ValueError):
            bernstein_direct(lambda x: x, 0, np.array([0.5]))

    def test_complex_points_refused(self):
        with pytest.raises(ValueError, match="x must be real"):
            bernstein_direct(lambda x: x, 3, np.array([0.5 + 1.0j]))

    @pytest.mark.parametrize("n", [2.5, 3.0], ids=["2.5", "3.0"])
    def test_non_integer_degree_refused(self, n):
        """Refused by name, where range and comb raised a bare TypeError."""
        with pytest.raises(ValueError, match=f"Bernstein degree n must be an integer, got {n}"):
            bernstein_direct(lambda x: x, n, np.array([0.5]))

    def test_bool_degree_refused(self):
        """True is not read as degree 1."""
        with pytest.raises(ValueError, match="Bernstein degree n must be an integer, got True"):
            bernstein_direct(lambda x: x, True, np.array([0.5]))

    @pytest.mark.parametrize("f", [lambda x: abs(x - 0.5), lambda x: x * x,
                                   lambda x: np.sin(3.0 * x)],
                             ids=["absmid", "square", "sine"])
    def test_bits_match_one_line_sum(self, f):
        """The in-place sum keeps the one-line sum's operation order, bit for
        bit, inside [0, 1] and outside it."""
        xs = np.concatenate([np.linspace(0.0, 1.0, 101), [-0.0, -0.5, 1.5, 3.0]])
        for n in range(1, 65):
            want = np.zeros_like(xs)
            for m in range(n + 1):
                weight = float(f(m / n)) * float(comb(n, m))
                want = want + weight * xs**m * (1.0 - xs) ** (n - m)
            assert bernstein_direct(f, n, xs).tobytes() == want.tobytes()
