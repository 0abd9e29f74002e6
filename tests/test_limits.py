"""The numerical range of the constructions, pinned on both sides.

Inside its stated range a construction meets its tolerance; past the range
it either still meets it or refuses loudly (ValueError, FactorizationError
or, for a training run, TrainingError), never a silently wrong net.
mpmath is the high-precision oracle where values are compared.  The
README's table of ranges states the same limits.
"""

import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from conftest import exact_multipoly
from qnn.builders import (
    MultiPolySpec,
    RadialPartition,
    build_deep_radial,
    build_factorization_trainable,
    build_multipoly_net,
    build_parabola_module,
    build_poly_net,
    build_shallow_radial,
    multipoly_net_size,
    plateau_interval,
    radial_profile,
)
from qnn.cli import RADIAL_BREAKPOINTS, RADIAL_HEIGHTS, factorization_target
from qnn.network import PackedNetwork, forward_batch
from qnn.oracles import bernstein_direct, reference_forward_batch
from qnn.polynomials import FactorizationError, Polynomial, bernstein_coeffs, factor_polynomial
from qnn.trainer import TrainConfig, TrainingError, make_poly_dataset, train_restarts



def absmid(x):
    return abs(x - 0.5)


class TestDeepRadialDelta:
    @pytest.mark.parametrize("delta", [1e-10, 1e-15])
    @pytest.mark.parametrize("dim", [2, 4])
    def test_plateaus_bit_exact(self, delta, dim):
        """Every plateau returns its height exactly, in random directions."""
        rng = np.random.default_rng(dim)
        partition = RadialPartition(RADIAL_BREAKPOINTS, RADIAL_HEIGHTS, delta)
        net = build_deep_radial(partition, dim)
        for i, height in enumerate(RADIAL_HEIGHTS):
            lo, hi = plateau_interval(RADIAL_BREAKPOINTS[i], RADIAL_BREAKPOINTS[i + 1], delta)
            ts = np.linspace(lo, hi, 203)[1:-1]
            u = rng.normal(size=(ts.size, dim))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            assert np.all(forward_batch(net, ts[:, None] * u)[:, 0] == height)

    @pytest.mark.parametrize("delta", [1e-16, 1e-20, 1e-300])
    def test_refused_below_the_limit(self, delta):
        """a_lo + delta (a_hi - a_lo) rounds onto a_lo, so the ramp
        normalizer C is 0."""
        with pytest.raises(ValueError, match=f"delta {delta:g} is too small"):
            RadialPartition(RADIAL_BREAKPOINTS, RADIAL_HEIGHTS, delta)

    @pytest.mark.parametrize("height, smallest, refused", [(1.0, 1e-150, 1e-155),
                                                           (1e300, 1e-4, 1e-10)])
    def test_module_scale_within_float64(self, height, smallest, refused):
        """Past the smallest delta, C underflows to a subnormal (height 1) or
        height / C overflows (height 1e300)."""
        net = build_parabola_module(0.0, 1.0, height, smallest)
        assert radial_profile(net, np.array([0.5]))[0] == height
        with pytest.raises(ValueError, match=f"delta {refused:g} is too small"):
            build_parabola_module(0.0, 1.0, height, refused)


class TestBernsteinNets:
    """|x - 1/2| through the monomial route: bernstein_coeffs, the factorizer
    and the product tree, against the direct basis sum."""

    @staticmethod
    def _error_and_tolerance(n):
        poly = bernstein_coeffs(absmid, n)
        net = build_poly_net(factor_polynomial(poly))
        xs = np.linspace(0.0, 1.0, 257)
        error = np.max(np.abs(forward_batch(net, xs[:, None])[:, 0] - bernstein_direct(absmid, n, xs)))
        return error, 1e-12 * (1.0 + np.max(np.abs(poly.coeffs)))

    @pytest.mark.parametrize("n", range(2, 25))
    def test_accurate_up_to_24(self, n):
        error, tolerance = self._error_and_tolerance(n)
        assert error <= tolerance

    @pytest.mark.parametrize("n", range(25, 41))
    def test_accurate_or_refused_from_25_to_40(self, n):
        try:
            error, tolerance = self._error_and_tolerance(n)
        except FactorizationError:
            return
        assert error <= tolerance


def _expand(roots=(), quadratics=()):
    """Exact rational coefficients, lowest first, of prod (x - r) prod (x^2 + a x + b)."""
    coeffs = [Fraction(1)]
    for factor in [(-r, 1) for r in roots] + [(b, a, 1) for a, b in quadratics]:
        out = [Fraction(0)] * (len(coeffs) + len(factor) - 1)
        for i, c in enumerate(coeffs):
            for j, f in enumerate(factor):
                out[i + j] += c * f
        coeffs = out
    return coeffs


@pytest.mark.parametrize("coeffs, lo, hi", [
    (_expand([Fraction(3, 10)] * 3), -2.0, 2.0),
    (_expand([Fraction(-9, 10)] * 8), -2.0, 2.0),
    (_expand(quadratics=[(0, 1)] * 4), -2.0, 2.0),
    (_expand([Fraction(1, 2)] * 2), -2.0, 2.0),
    (_expand(range(1, 16)), 0.0, 16.0),
], ids=["(x-0.3)^3", "(x+0.9)^8", "(x^2+1)^4", "(x-0.5)^2", "wilkinson15"])
def test_product_tree_accurate_or_refused(coeffs, lo, hi):
    """Repeated roots and Wilkinson's polynomial: the net is within
    1e-8 (1 + |p|) of the exact polynomial, or the factorizer refuses."""
    try:
        net = build_poly_net(factor_polynomial(Polynomial([float(c) for c in coeffs])))
    except FactorizationError:
        return
    xs = np.linspace(lo, hi, 201)
    with mpmath.workdps(50):
        exact = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(coeffs)]
        want = np.array([float(mpmath.polyval(exact, mpmath.mpf(x))) for x in xs])
    got = forward_batch(net, xs[:, None])[:, 0]
    assert np.all(np.abs(got - want) <= 1e-8 * (1.0 + np.abs(want)))


class TestBernsteinDirect:
    def test_finite_and_accurate_at_1029(self):
        n = 1029
        xs = np.array([0.0, 0.37, 0.5, 1.0])
        got = bernstein_direct(absmid, n, xs)
        with mpmath.workdps(50):
            want = [
                float(mpmath.fsum(
                    abs(mpmath.mpf(m) / n - mpmath.mpf(0.5)) * mpmath.binomial(n, m)
                    * mpmath.mpf(x) ** m * (1 - mpmath.mpf(x)) ** (n - m)
                    for m in range(n + 1)))
                for x in xs
            ]
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_refused_at_1030(self):
        with pytest.raises(ValueError, match="n=1030"):
            bernstein_direct(absmid, 1030, np.array([0.5]))


class TestMultiPolyNet:
    def test_accurate_at_total_degree_300(self):
        """Within 1e-13 (1 + sum_k |c_k x^n(k)|) of exact rational
        evaluation on [-1.5, 1.5]^3, half the points near |x_j| = 1 where the
        terms are of one size; no channel passes 1.5^300 = 1.9e52."""
        spec = MultiPolySpec([[100, 100, 100], [150, 0, 149], [1, 2, 3], [0, 0, 0]],
                             [1.5, -0.75, 2.0, 0.25])
        rng = np.random.default_rng(0)
        X = rng.uniform(-1.5, 1.5, size=(200, 3))
        X[:100] = rng.uniform(0.9, 1.1, size=(100, 3)) * rng.choice([-1.0, 1.0], size=(100, 3))
        want, scale = exact_multipoly(spec, X)
        got = forward_batch(build_multipoly_net(spec), X)[:, 0]
        assert np.all(np.abs(got - want) <= 1e-13 * scale)

    def test_nan_past_the_range_without_refusal(self):
        """forward_batch squares no channel of a layer whose square weights
        are all 0, so a channel above sqrt(max float64), about 1.3e154, is
        no 0 * inf there: x^200 at 10, its channel feeding only the linear
        output, and x1^160 x2 + x1 x2 at 10, whose x1^160 channel feeds a
        product layer, are right.  x^600 at 10, past float64, gives NaN.
        The per-neuron oracle squares every channel, and gives NaN for
        x1^160 x2 + x1 x2 too."""
        net = build_multipoly_net(MultiPolySpec([[200]], [1.0]))
        assert forward_batch(net, [[10.0]])[0, 0] == pytest.approx(1e200, rel=1e-13)
        net = build_multipoly_net(MultiPolySpec([[160, 1], [1, 1]], [1.0, 1.0]))
        assert forward_batch(net, [[10.0, 10.0]])[0, 0] == pytest.approx(1e161, rel=1e-13)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(reference_forward_batch(net, np.array([[10.0, 10.0]]))[1][-1][0, 0])
            net = build_multipoly_net(MultiPolySpec([[600]], [1.0]))
            assert np.isnan(forward_batch(net, [[10.0]])[0, 0])

    def test_executor_skips_the_zero_square_term(self):
        """The training executor forms no square term in a layer whose
        [W_b; c] is frozen at zero, so x1^160 x2 + x1 x2 at 10, whose
        x1^160 channel is past 1.3e154, comes out finite there, as in
        forward_batch (see above)."""
        net = build_multipoly_net(MultiPolySpec([[160, 1], [1, 1]], [1.0, 1.0]))
        packed = PackedNetwork(net, np.array([[10.0, 10.0]]))
        packed.forward()
        assert packed.output[0, 0, 0] == pytest.approx(1e161, rel=1e-13)

    def test_power_channels_up_to_2058(self):
        """The largest exponents of the variables may sum to 2058, the d = 2
        tensor-product Bernstein net's at n = 1029 (not built here: 161 MiB)."""
        spec = MultiPolySpec([[1029, 1], [3, 1029]], [1.0, 1.0])
        assert multipoly_net_size(spec) == (2 * 2058 + 4, 1031)

    @pytest.mark.parametrize("exponents", [[[1030, 1029]], [[1e300]], [[2.0**63]]],
                             ids=["2059", "1e300", "2^63"])
    def test_refused_past_2058_power_channels(self, exponents):
        """Refused by name before any net is allocated; a float past int64
        before the int64 cast, so no RuntimeWarning escapes."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="exponents: .* more than 2058 power channels"):
                MultiPolySpec(exponents, [1.0])


class TestShallowRadialUnits:
    def test_within_delta_at_1e5_units(self):
        """sin on [1, 2] with L = 1 and delta = 1e-5: 10^5 hidden units,
        within delta of the target along a ray, flat past R."""
        net = build_shallow_radial(np.sin, 1.0, 2.0, 1.0, 1e-5, input_dim=2)
        assert net.layer_widths() == [100_000, 1]
        ts = np.linspace(0.0, 2.5, 2001)
        want = np.sin(np.clip(ts, 1.0, 2.0))
        assert np.max(np.abs(radial_profile(net, ts) - want)) < 1e-5

    def test_refused_above_1e6_units(self):
        """(R - r) L / delta = 10^6 asks for 10^6 + 1 units, refused before
        any is made (10^6 units at input_dim 2 take 92 MiB of params)."""
        with pytest.raises(ValueError, match="more than 1000000 hidden units"):
            build_shallow_radial(np.sin, 1.0, 2.0, 1e6, 1.0, input_dim=2)


class TestFactorizationLearningRate:
    """Criterion 8's run (sse, 600 iterations, 100 samples on [-1, 0], seed
    0, 10 restarts, init scale 0.5) at other learning rates: none of the
    restarts diverges up to 3e-3, some do from 4e-3, and at 8e-3 all do
    within a few steps, which is a TrainingError."""

    @staticmethod
    def run(learning_rate):
        data = make_poly_dataset(factorization_target(), -1.0, 0.0, 100)
        cfg = TrainConfig(loss="sse", learning_rate=learning_rate, iterations=600, seed=0,
                          restarts=10, init_scale=0.5)
        return train_restarts(build_factorization_trainable(5, 1, 2), data, cfg)

    @pytest.mark.parametrize("learning_rate, diverged", [
        (2e-3, 0), (3e-3, 0), (4e-3, 2), (5e-3, 6), (6e-3, 7),
    ])
    def test_diverged_restarts(self, learning_rate, diverged):
        nets, _, final = self.run(learning_rate)
        assert sum(net is None for net in nets) == np.isinf(final).sum() == diverged

    def test_every_restart_diverges_at_8e_3(self):
        match = r"all 10 restarts diverged .*\(at iterations \[[4-6]"
        with pytest.raises(TrainingError, match=match):
            self.run(8e-3)
