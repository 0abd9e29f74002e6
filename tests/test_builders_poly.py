"""Factorization, exact polynomial networks, multivariate polynomials, size formulas."""

import json
from fractions import Fraction
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import exact_multipoly
from qnn.builders import (
    MultiPolySpec,
    build_factorization_trainable,
    build_multipoly_net,
    build_poly_net,
    multipoly_net_size,
    quadratic_coefficients,
)
from qnn.network import (
    forward_batch,
    from_json,
    parameter_count,
    set_trainable_values,
    to_json,
    trainable_count,
    trainable_values,
)
from qnn.oracles import bernstein_direct, expand_factored, horner
from qnn.polynomials import (
    FactoredForm,
    FactorizationError,
    Polynomial,
    _sample_exact,
    bernstein_coeffs,
    factor_polynomial,
)

# any JSON value, huge integers and non-finite numbers included
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)


def _leaves(value):
    """The non-list values nested in value."""
    if isinstance(value, list):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


# factoring finite inputs near the float64 limit overflows on the way to a
# refusal, silently: a numpy warning fails the test
no_runtime_warning = pytest.mark.filterwarnings("error::RuntimeWarning")

G_FACTORS = FactoredForm(1.0, [1.0], [(0.0, 1.0), (1.7, 1.2)])


def poly_from_roots(rng, degree):
    """Random real polynomial whose roots lie in the disk |z| <= 2."""
    roots = []
    remaining = degree
    while remaining > 0:
        if remaining >= 2 and rng.random() < 0.5:
            radius = 2.0 * np.sqrt(rng.uniform(0.0, 1.0))
            angle = rng.uniform(0.0, np.pi)
            z = radius * np.exp(1j * angle)
            if abs(z.imag) < 1e-3:
                z = z.real + 0.2j  # keep the pair clearly non-real
            roots.extend([z, z.conjugate()])
            remaining -= 2
        else:
            roots.append(complex(rng.uniform(-2.0, 2.0)))
            remaining -= 1
    coeffs = np.array([1.0 + 0.0j])
    for root in roots:
        coeffs = np.convolve(coeffs, np.array([-root, 1.0]))
    scale = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
    return Polynomial(scale * coeffs.real)


class TestFactorPolynomial:
    def test_difference_of_squares(self):
        form = factor_polynomial(Polynomial([-1.0, 0.0, 1.0]))
        assert form.scale == pytest.approx(1.0)
        assert sorted(form.linear_roots) == pytest.approx([-1.0, 1.0])
        assert form.quadratic_factors == []

    def test_cubic_with_conjugate_pair(self):
        form = factor_polynomial(Polynomial([-1.0, 1.0, -1.0, 1.0]))
        assert form.linear_roots == pytest.approx([1.0])
        assert len(form.quadratic_factors) == 1
        a, b = form.quadratic_factors[0]
        assert a == pytest.approx(0.0, abs=1e-10)
        assert b == pytest.approx(1.0)

    def test_expanded_quintic_recovers_known_factors(self):
        """(x^2+1)(x-1)(x^2+1.7x+1.2) from its expanded coefficients."""
        g = expand_factored(G_FACTORS)
        np.testing.assert_allclose(
            g.coeffs, [-1.2, -0.5, -0.5, 0.5, 0.7, 1.0], atol=1e-12
        )
        form = factor_polynomial(g)
        assert form.linear_roots == pytest.approx([1.0])
        quads = sorted(form.quadratic_factors)
        assert quads[0][0] == pytest.approx(0.0, abs=1e-9)
        assert quads[0][1] == pytest.approx(1.0)
        assert quads[1] == pytest.approx((1.7, 1.2))

    def test_round_trip_many_random_polynomials(self):
        rng = np.random.default_rng(30)
        for _ in range(500):
            degree = int(rng.integers(1, 13))
            p = poly_from_roots(rng, degree)
            form = factor_polynomial(p)
            rebuilt = expand_factored(form).coeffs
            err = np.max(np.abs(rebuilt - p.coeffs)) / (1.0 + np.max(np.abs(p.coeffs)))
            assert err < 1e-8
            assert len(form.linear_roots) + 2 * len(form.quadratic_factors) == degree

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_polynomial(Polynomial([3.0]))

    def test_double_root_split_into_real_discriminant_pair_refused(self):
        """(x + 0.9)^2: the polished double root is a conjugate pair whose
        factor has a non-negative discriminant.  The refusal comes before
        any re-expansion, so it carries no residual and names none."""
        with pytest.raises(FactorizationError, match="discriminant") as info:
            factor_polynomial(Polynomial([0.81, 1.8, 1.0]))
        assert info.value.residual is None
        assert "residual" not in str(info.value)

    def test_pair_real_roots_flagged(self):
        form = factor_polynomial(
            Polynomial([-1.0, 0.0, 1.0]), pair_real_roots=True
        )
        assert form.linear_roots == []
        assert len(form.quadratic_factors) == 1
        assert form.paired_real == [True]
        rebuilt = expand_factored(form)
        np.testing.assert_allclose(rebuilt.coeffs, [-1.0, 0.0, 1.0], atol=1e-12)

    def test_non_finite_coefficients_rejected_before_factoring(self):
        with pytest.raises(ValueError, match="coeffs"):
            factor_polynomial(Polynomial([1.0, np.nan, 1.0]))

    @pytest.mark.parametrize("coeffs", [[1 + 1j, 2.0], np.array([1.0, 2.0 + 0j])],
                             ids=["python-complex", "complex-array"])
    def test_complex_coefficients_refused(self, coeffs):
        """Complex coefficients are refused, a zero imaginary part included,
        not cast to their real parts."""
        with pytest.raises(ValueError, match="coeffs must be real"):
            Polynomial(coeffs)

    @no_runtime_warning
    def test_monic_overflow_refused(self):
        """1e300 / 1e-10 overflows: refused before the eigenvalue solver
        sees an inf."""
        with pytest.raises(FactorizationError, match="overflow"):
            factor_polynomial(Polynomial([1e300, 0.0, 1e-10]))

    @no_runtime_warning
    @pytest.mark.parametrize("pair_real_roots", [False, True])
    def test_factor_overflow_refused(self, pair_real_roots):
        """Finite coefficients whose factors re-expand past float64: a NaN
        residual must not pass the tolerance check."""
        p = Polynomial([5.066394819407678e-220, -1.3730664693337688e+294,
                        3.9870235831189985e+182, -2.1839106305686216e-123,
                        2.150013561674411e+177, -3.5235269857334594e+269,
                        4.147004472638071e+79])
        with pytest.raises(FactorizationError, match="overflow"):
            factor_polynomial(p, pair_real_roots=pair_real_roots)

    @no_runtime_warning
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=2, max_size=8).filter(lambda c: c[-1] != 0.0),
           st.booleans())
    def test_finite_input_factors_or_refuses(self, coeffs, pair_real_roots):
        """Any finite polynomial of degree >= 1 either factors into finite
        numbers that re-expand finitely or raises FactorizationError."""
        try:
            form = factor_polynomial(Polynomial(coeffs), pair_real_roots=pair_real_roots)
        except FactorizationError:
            return
        assert np.isfinite(expand_factored(form).coeffs).all()

    def test_unflagged_real_discriminant_rejected(self):
        with pytest.raises(ValueError):
            FactoredForm(1.0, [], [(3.0, 1.0)])


def numpy_scalar_poly_val(coeffs, z):
    """Reference for polynomials._poly_val: Horner over the numpy coefficient
    array, lowest degree first, in whatever scalar arithmetic z brings."""
    acc = 0.0 + 0.0j
    for c in coeffs[::-1]:
        acc = acc * z + c
    return acc


def numpy_scalar_newton_polish(coeffs, z):
    """Reference for polynomials._newton_polish: three Newton steps on numpy
    scalars, p re-evaluated at every iterate it needs."""
    deriv = coeffs[1:] * np.arange(1, len(coeffs))
    best = z
    best_val = abs(numpy_scalar_poly_val(coeffs, z))
    for _ in range(3):
        dp = numpy_scalar_poly_val(deriv, z)
        if dp == 0:
            break
        z = z - numpy_scalar_poly_val(coeffs, z) / dp
        val = abs(numpy_scalar_poly_val(coeffs, z))
        if val < best_val:
            best, best_val = z, val
    return best


def factor_outcome(p, pair_real_roots):
    """factor_polynomial's form as JSON, or its refusal message."""
    try:
        return factor_polynomial(p, pair_real_roots=pair_real_roots).to_json()
    except FactorizationError as exc:
        return f"FactorizationError: {exc}"


def assert_polish_matches_reference(p, pair_real_roots):
    """The factorization is the same, bit for bit, with the reference polish."""
    got = factor_outcome(p, pair_real_roots)
    with mock.patch("qnn.polynomials._newton_polish",
                    lambda descending, _, z: numpy_scalar_newton_polish(
                        np.array(descending[::-1]), z)):
        want = factor_outcome(p, pair_real_roots)
    assert got == want


magnitudes = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
signed_magnitudes = st.tuples(magnitudes, st.sampled_from([-1.0, 1.0])).map(
    lambda t: t[0] * t[1])
# roots on a coarse grid, so that a multiset repeats some of them
grid_roots = st.integers(-20, 20).map(lambda k: k / 10.0)


def poly_from_factors(scale, real_roots, pairs):
    """scale * prod (x - r) * prod (x^2 - 2 Re z x + |z|^2), expanded in
    float arithmetic."""
    coeffs = np.array([scale])
    for r in real_roots:
        coeffs = np.convolve(coeffs, [-r, 1.0])
    for re, im in pairs:
        coeffs = np.convolve(coeffs, [re * re + im * im, -2.0 * re, 1.0])
    return Polynomial(coeffs)


class TestPolishReference:
    """The Newton polish runs Horner in Python complex arithmetic; the numpy
    scalar version it replaced is the reference, bit for bit.  Where the
    eigenvalues are all real, numpy returns them as float64 and the first
    step divides in Python complex arithmetic, the later ones in numpy's."""

    @given(st.lists(signed_magnitudes, min_size=2, max_size=16), st.booleans())
    def test_random_coefficients(self, coeffs, pair_real_roots):
        assert_polish_matches_reference(Polynomial(coeffs), pair_real_roots)

    @given(signed_magnitudes,
           st.lists(st.tuples(grid_roots, st.integers(1, 3)), max_size=4),
           st.lists(st.tuples(grid_roots, st.integers(1, 20).map(lambda k: k / 10.0),
                              st.integers(1, 2)), max_size=3),
           st.booleans())
    def test_repeated_roots_and_conjugate_pairs(self, scale, reals, pairs, pair_real_roots):
        real_roots = [r for r, times in reals for _ in range(times)]
        pairs = [(re, im) for re, im, times in pairs for _ in range(times)]
        if real_roots or pairs:
            assert_polish_matches_reference(
                poly_from_factors(scale, real_roots, pairs), pair_real_roots)

    @given(signed_magnitudes,
           st.lists(st.floats(-3.0, 3.0, allow_subnormal=False), min_size=1, max_size=12),
           st.booleans())
    def test_all_real_roots(self, scale, roots, pair_real_roots):
        assert_polish_matches_reference(poly_from_factors(scale, roots, []), pair_real_roots)

    @pytest.mark.parametrize("f", [lambda x: abs(x - Fraction(1, 2)), lambda x: x * x],
                             ids=["absmid", "square"])
    def test_bernstein_approximants(self, f):
        for n in range(1, 41):
            p = bernstein_coeffs(f, n)
            for pair_real_roots in (False, True):
                if p.degree >= 1:  # |x - 1/2| at n = 1 is the constant 1/2
                    assert_polish_matches_reference(p, pair_real_roots)


class TestBuildPolyNet:
    def test_square_single_factor(self):
        form = FactoredForm(1.0, [], [(0.0, 0.0)], paired_real=[True])
        net = build_poly_net(form)
        assert net.depth == 1
        assert forward_batch(net, [[2.0]])[0, 0] == 4.0

    def test_quintic_value(self):
        net = build_poly_net(G_FACTORS)
        assert forward_batch(net, [[-0.5]])[0, 0] == pytest.approx(-1.125, rel=1e-12)

    def test_four_linear_factors(self):
        form = FactoredForm(1.0, [1.0, 2.0, 3.0, 4.0], [])
        net = build_poly_net(form)
        assert net.depth <= 3
        assert max(net.layer_widths()) <= 4
        assert forward_batch(net, [[0.0]])[0, 0] == 24.0

    def test_constant_form(self):
        net = build_poly_net(FactoredForm(7.0))
        assert forward_batch(net, [[3.0]])[0, 0] == 7.0

    def test_scale_applied_once(self):
        form = FactoredForm(-2.5, [1.0, -1.0], [])
        net = build_poly_net(form)
        xs = np.linspace(-2, 2, 25)
        expected = -2.5 * (xs - 1.0) * (xs + 1.0)
        np.testing.assert_allclose(
            forward_batch(net, xs[:, None])[:, 0], expected, rtol=1e-14, atol=1e-13
        )

    def test_matches_horner_on_random_polynomials(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            degree = int(rng.integers(1, 13))
            p = poly_from_roots(rng, degree)
            form = factor_polynomial(p)
            net = build_poly_net(form)
            assert net.depth <= int(np.ceil(np.log2(max(form.factor_count, 1)))) + 1
            assert max(net.layer_widths()) <= degree
            xs = rng.uniform(-2.0, 2.0, size=200)
            vals = forward_batch(net, xs[:, None])[:, 0]
            ref = horner(p, xs)
            assert np.max(np.abs(vals - ref) / (1.0 + np.abs(ref))) < 1e-8


def binomial_bernstein_coeffs(f, n):
    """Reference for bernstein_coeffs: expand each f(m/n) C(n,m) x^m (1-x)^(n-m)
    term by term, a signed binomial double loop over exact Fractions."""
    values = [_sample_exact(f, m, n) for m in range(n + 1)]
    coeffs = [Fraction(0)] * (n + 1)
    for m, fm in enumerate(values):
        base = fm * comb(n, m)
        for j in range(n - m + 1):
            term = base * comb(n - m, j)
            coeffs[m + j] += -term if j % 2 else term
    out = np.array([float(c) for c in coeffs])
    biggest = np.max(np.abs(out))
    if biggest > 0.0:
        out[np.abs(out) < 1e-12 * biggest] = 0.0
    return Polynomial(out)


def alternating_huge(x):
    """1e307 at x = 0, 1/2, 1 and -1e307 at x = 1/4, 3/4."""
    return 1e307 if round(4 * x) % 2 == 0 else -1e307


class TestBernstein:
    def test_linear_precision(self):
        for n in (1, 4, 10, 33):
            poly = bernstein_coeffs(lambda x: x, n)
            np.testing.assert_allclose(poly.coeffs, [0.0, 1.0], atol=1e-13)

    def test_square_at_n10_matches_direct_oracle(self):
        poly = bernstein_coeffs(lambda x: x * x, 10)
        np.testing.assert_allclose(poly.coeffs, [0.0, 0.1, 0.9], atol=1e-13)
        grid = np.linspace(0.0, 1.0, 101)
        np.testing.assert_allclose(
            horner(poly, grid),
            bernstein_direct(lambda x: x * x, 10, grid),
            atol=1e-12,
        )

    def test_constant_partition_of_unity(self):
        poly = bernstein_coeffs(lambda x: 3.0, 5)
        np.testing.assert_allclose(poly.coeffs, [3.0], atol=0.0)

    def test_sup_error_decreases_for_kinked_target(self):
        f = lambda x: abs(x - 0.5)
        grid = np.linspace(0.0, 1.0, 1001)
        target = np.abs(grid - 0.5)
        sups = []
        for n in (4, 8, 16, 32, 64):
            sups.append(np.max(np.abs(bernstein_direct(f, n, grid) - target)))
        assert all(b <= a for a, b in zip(sups, sups[1:]))

    def test_invalid_degree_rejected(self):
        with pytest.raises(ValueError):
            bernstein_coeffs(lambda x: x, 0)

    @pytest.mark.parametrize("f", [
        lambda x: abs(x - 0.5),
        lambda x: x * x,
        lambda x: x,
        lambda x: float(np.sin(3.0 * float(x))),
    ], ids=["absmid", "square", "identity", "sin"])
    def test_forward_differences_match_binomial_expansion(self, f):
        for n in range(1, 65):
            want = binomial_bernstein_coeffs(f, n).coeffs
            assert bernstein_coeffs(f, n).coeffs.tobytes() == want.tobytes(), n

    def test_coefficient_beyond_float64_refused(self):
        """Samples of +-1e307 alternating in sign expand at n=4 to an x^4
        coefficient of 1.6e308 in magnitude plus 1e307 more: beyond float64."""
        with pytest.raises(ValueError, match="n=4"):
            bernstein_coeffs(alternating_huge, 4)


def assert_matches_exact(net, spec, X):
    """net's output within 1e-13 (1 + sum_k |c_k x^n(k)|) of the exact value."""
    want, scale = exact_multipoly(spec, X)
    assert np.all(np.abs(forward_batch(net, X)[:, 0] - want) <= 1e-13 * scale)


@st.composite
def multipoly_specs(draw):
    """1-4 variables, 1-6 terms, exponents 0-8, coefficients in [-2, 2]."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    row = st.lists(st.integers(0, 8), min_size=n, max_size=n)
    return MultiPolySpec(draw(st.lists(row, min_size=m, max_size=m)),
                         draw(st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m)))


class TestMultiPoly:
    def test_two_variable_product(self):
        net = build_multipoly_net(MultiPolySpec([[1, 1]], [1.0]))
        assert forward_batch(net, [[3.0, 4.0]])[0, 0] == 12.0

    def test_two_term_sum(self):
        """x1 x2 + (x1 + 1)(x2 - 1), written as monomials."""
        spec = MultiPolySpec([[1, 1], [1, 1], [1, 0], [0, 1], [0, 0]],
                             [1.0, 1.0, -1.0, 1.0, -1.0])
        net = build_multipoly_net(spec)
        assert forward_batch(net, [[1.0, 1.0], [2.0, 3.0]])[:, 0].tolist() == [1.0, 12.0]

    def test_constant_and_zero_terms(self):
        """2 x2 + 0 x1^3 x2^2 + 12: the zero term is left out, so no product
        layer is built, and the constant is the output's bias."""
        net = build_multipoly_net(MultiPolySpec([[0, 1], [3, 2], [0, 0]], [2.0, 0.0, 12.0]))
        assert net.layer_widths() == [1]
        assert forward_batch(net, [[9.0, 2.5]])[0, 0] == 17.0

    def test_random_specs_match_exact_evaluation(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            n_vars = int(rng.integers(1, 4))
            exponents = rng.integers(0, 7, size=(int(rng.integers(1, 6)), n_vars))
            spec = MultiPolySpec(exponents, rng.uniform(-2.0, 2.0, size=len(exponents)))
            X = rng.uniform(-1.5, 1.5, size=(100, n_vars))
            assert_matches_exact(build_multipoly_net(spec), spec, X)

    @given(multipoly_specs(), st.data())
    def test_within_size_formula_and_exact(self, spec, data):
        net = build_multipoly_net(spec)
        width, depth = multipoly_net_size(spec)
        assert max(net.layer_widths()) <= width
        assert net.depth <= depth
        point = st.lists(st.floats(-1.5, 1.5), min_size=spec.variables,
                         max_size=spec.variables)
        X = np.array(data.draw(st.lists(point, min_size=1, max_size=8)))
        assert_matches_exact(net, spec, X)

    @pytest.mark.parametrize("exponents, widths", [
        ([[3, 2]], [4, 5, 1, 1]),
        ([[1, 1]], [1, 1]),
        ([[4]], [2, 4, 1]),
        ([[2, 1], [1, 3]], [4, 5, 2, 1]),
    ], ids=["x1^3x2^2", "x1x2", "x^4", "x1^2x2+x1x2^3"])
    def test_layer_widths(self, exponents, widths):
        """Powers by doubling, one power multiplied in per term layer, one
        output; the net is frozen and survives a JSON round trip."""
        net = build_multipoly_net(MultiPolySpec(exponents, [1.0] * len(exponents)))
        assert net.layer_widths() == widths
        assert trainable_count(net) == 0
        assert to_json(from_json(to_json(net))) == to_json(net)

    def test_repeated_root_built_from_monomials(self):
        """(x1 + 0.9)^2 x2: the factorizer refuses (x1 + 0.9)^2, and the
        monomials need no roots."""
        with pytest.raises(FactorizationError):
            factor_polynomial(Polynomial([0.81, 1.8, 1.0]))
        spec = MultiPolySpec([[2, 1], [1, 1], [0, 1]], [1.0, 1.8, 0.81])
        X = np.random.default_rng(0).uniform(-1.5, 1.5, size=(200, 2))
        assert_matches_exact(build_multipoly_net(spec), spec, X)

    @pytest.mark.parametrize("exponents, coefficients", [
        ([], []), ([[]], [1.0]), ([[1], [1, 2]], [1.0, 1.0]),
    ], ids=["no-table", "no-variable", "ragged"])
    def test_malformed_table_refused(self, exponents, coefficients):
        with pytest.raises(ValueError):
            MultiPolySpec(exponents, coefficients)

    @pytest.mark.parametrize("exponent", [1.7, np.nan, np.inf])
    def test_non_integer_exponent_refused(self, exponent):
        """Not truncated: 1.7 used to become 1."""
        with pytest.raises(ValueError, match="exponents must be integers"):
            MultiPolySpec([[exponent]], [1.0])

    def test_complex_coefficients_refused(self):
        """Not cast to their real parts."""
        with pytest.raises(ValueError, match="coefficients must be real"):
            MultiPolySpec([[1]], [1.0 + 2.0j])


class TestSizeFormula:
    def test_two_variable_bilinear(self):
        spec = MultiPolySpec([[1, 1]], [1.0])
        assert multipoly_net_size(spec) == (6, 3)

    def test_single_variable_quartic(self):
        spec = MultiPolySpec([[4]], [1.0])
        assert multipoly_net_size(spec) == (10, 5)

    def test_two_term_mixed(self):
        spec = MultiPolySpec([[2, 1], [1, 3]], [1.0, 1.0])
        assert multipoly_net_size(spec) == (14, 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiPolySpec([[1, -1]], [1.0])
        with pytest.raises(ValueError):
            MultiPolySpec([[1, 1]], [1.0, 2.0])


class TestFactorizationTrainable:
    def test_counts_for_degree_five(self):
        net = build_factorization_trainable(5, 1, 2)
        assert net.depth == 4
        assert trainable_count(net) == 3 * 6 + 2 + 6
        assert parameter_count(net) - trainable_count(net) > 0

    def test_zero_offsets_reduce_to_exact_product(self):
        """Seeding the factor neurons with the true factors, weight 1 on the
        full product and zero elsewhere reproduces the plain product net."""
        net = build_factorization_trainable(5, 1, 2)
        values = trainable_values(net)
        # factor neurons, canonical order (w_r, b_r, w_g, b_g, w_b, c):
        values[0:6] = [1.0, -1.0, 0.0, 1.0, 0.0, 0.0]        # x - 1
        values[6:12] = [0.0, 1.0, 0.0, 1.0, 1.0, 0.0]        # x^2 + 1
        values[12:18] = [1.7, 1.2, 0.0, 1.0, 1.0, 0.0]       # x^2 + 1.7x + 1.2
        values[18:20] = [1.0, 0.0]                           # output w, b
        values[20:] = 0.0                                    # shortcut taps
        seeded = set_trainable_values(net, values)

        reference = build_poly_net(G_FACTORS)
        xs = np.linspace(-2.0, 2.0, 401)
        np.testing.assert_allclose(
            forward_batch(seeded, xs[:, None])[:, 0],
            forward_batch(reference, xs[:, None])[:, 0],
            rtol=1e-12,
            atol=1e-12,
        )

    def test_product_layers_are_frozen(self):
        net = build_factorization_trainable(5, 1, 2)
        for layer_idx in (1, 2):
            for mask in net.masks[layer_idx]:
                assert not mask.any()
        for mask in net.masks[0]:
            assert mask.all()

    def test_two_factor_variant(self):
        net = build_factorization_trainable(4, 0, 2)
        assert net.depth == 3
        assert len(net.shortcuts) == 2

    def test_single_factor_variant(self):
        net = build_factorization_trainable(2, 0, 1)
        assert net.depth == 2
        assert len(net.shortcuts) == 0

    def test_inconsistent_counts_rejected(self):
        with pytest.raises(ValueError):
            build_factorization_trainable(5, 2, 2)
        with pytest.raises(ValueError):
            build_factorization_trainable(0, 0, 0)
        with pytest.raises(ValueError):
            build_factorization_trainable(8, 4, 2)

    def test_quadratic_coefficients_helper(self):
        net = build_factorization_trainable(2, 0, 1)
        values = trainable_values(net)
        values[0:6] = [1.7, 1.2, 0.0, 1.0, 1.0, 0.0]
        seeded = set_trainable_values(net, values)
        np.testing.assert_allclose(
            quadratic_coefficients(seeded.layers[0].neurons[0]),
            [1.2, 1.7, 1.0],
        )


class TestPolynomialType:
    def test_exact_trailing_zeros_trimmed(self):
        p = Polynomial([1.0, 2.0, 0.0, 0.0])
        np.testing.assert_array_equal(p.coeffs, [1.0, 2.0])
        assert p.degree == 1

    def test_zero_polynomial_canonical(self):
        p = Polynomial([0.0, 0.0])
        np.testing.assert_array_equal(p.coeffs, [0.0])
        assert p.degree == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Polynomial([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="coeffs"):
            Polynomial([bad, 1.0])
        with pytest.raises(ValueError, match="coeffs"):
            Polynomial([1.0, bad])


class TestFactoredFormSerialization:
    def test_round_trip(self):
        form = FactoredForm(2.0, [1.0, -0.5], [(0.0, 1.0)], paired_real=[False])
        rebuilt = FactoredForm.from_json(form.to_json())
        assert rebuilt.scale == form.scale
        assert rebuilt.linear_roots == form.linear_roots
        assert rebuilt.quadratic_factors == form.quadratic_factors

    def test_polynomial_round_trip(self):
        p = Polynomial([1.5, -2.0, 0.25])
        rebuilt = Polynomial.from_json(p.to_json())
        np.testing.assert_array_equal(rebuilt.coeffs, p.coeffs)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_polynomial_json_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="coeffs"):
            Polynomial.from_json(f'{{"coeffs": [{bad}, 1.0]}}')

    @pytest.mark.parametrize("field, value", [
        ("scale", "Infinity"),
        ("scale", "NaN"),
        ("linear_roots", "[NaN]"),
        ("linear_roots", "[1.0, -Infinity]"),
        ("quadratic_factors", "[[NaN, 1.0]]"),
        ("quadratic_factors", "[[0.0, Infinity]]"),
    ])
    def test_factored_form_json_non_finite_rejected(self, field, value):
        doc = {"scale": "1.0", "linear_roots": "[0.5]",
               "quadratic_factors": "[[0.0, 1.0]]", "paired_real": "[false]"}
        doc[field] = value
        text = "{" + ", ".join(f'"{k}": {v}' for k, v in doc.items()) + "}"
        with pytest.raises(ValueError, match=field):
            FactoredForm.from_json(text)

    @pytest.mark.parametrize("reader, text, problem", [
        (Polynomial, "{}", "lacks 'coeffs'"),
        (Polynomial, "[1]", "expected an object"),
        (Polynomial, '{"coeffs": [1, null]}', "'coeffs' must hold numbers"),
        (FactoredForm, '{"scale": 1}', "lacks 'linear_roots'"),
        (FactoredForm, '{"scale": true}', "'scale' must be a number"),
        (FactoredForm, '{"scale": 1, "linear_roots": [], "quadratic_factors": [[1]], '
                       '"paired_real": [true]}', "'quadratic_factors' must hold lists of 2"),
        (FactoredForm, '{"scale": 1, "linear_roots": [], "quadratic_factors": [], '
                       '"paired_real": [0]}', "'paired_real' must hold true or false"),
    ])
    def test_malformed_json_names_the_field(self, reader, text, problem):
        with pytest.raises(ValueError, match=problem):
            reader.from_json(text)

    @given(st.data())
    def test_mutated_json_returns_or_raises_value_error(self, data):
        valid = data.draw(st.sampled_from([
            Polynomial([1.5, -2.0, 0.25]),
            FactoredForm(2.0, [1.0, -0.5], [(0.0, 1.0), (-3.0, 2.0)], [False, True]),
        ]))
        doc = json.loads(valid.to_json())
        key = data.draw(st.sampled_from(sorted(doc)))
        action = data.draw(st.sampled_from(["replace", "delete", "entry", "boolean",
                                            "document"]))
        if action == "document":
            doc = data.draw(json_values)
        elif action == "delete":
            del doc[key]
        elif action == "entry" and isinstance(doc[key], list) and doc[key]:
            doc[key][data.draw(st.integers(0, len(doc[key]) - 1))] = data.draw(json_values)
        elif action == "boolean" and isinstance(doc[key], list) and doc[key]:
            # true or false in place of a number, in a pair too
            entries = doc[key]
            i = data.draw(st.integers(0, len(entries) - 1))
            if isinstance(entries[i], list):
                entries, i = entries[i], data.draw(st.integers(0, len(entries[i]) - 1))
            entries[i] = data.draw(st.booleans())
        else:
            doc[key] = data.draw(json_values)
        try:
            type(valid).from_json(json.dumps(doc))
        except ValueError:
            return
        # numpy reads true and false among numbers as 1 and 0: a document
        # that parses holds none in its number fields
        numbers = [doc[name] for name in ("coeffs", "linear_roots", "quadratic_factors")
                   if name in doc]
        assert bool not in map(type, _leaves(numbers))

    @pytest.mark.parametrize("reader, text, field", [
        (Polynomial, '{"coeffs": [1.5, true]}', "coeffs"),
        (Polynomial, '{"coeffs": [false, 2]}', "coeffs"),
        (FactoredForm, '{"scale": 1, "linear_roots": [0.5, true], "quadratic_factors": [], '
                       '"paired_real": []}', "linear_roots"),
        (FactoredForm, '{"scale": 1, "linear_roots": [], "quadratic_factors": [[0.0, true]], '
                       '"paired_real": [false]}', "quadratic_factors"),
    ])
    def test_booleans_among_numbers_refused(self, reader, text, field):
        with pytest.raises(ValueError, match=f"'{field}' must hold"):
            reader.from_json(text)

    def test_factored_form_non_finite_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            FactoredForm(np.inf)
        with pytest.raises(ValueError, match="linear_roots"):
            FactoredForm(1.0, [np.nan])
        with pytest.raises(ValueError, match="quadratic_factors"):
            FactoredForm(1.0, [], [(np.nan, 1.0)])
