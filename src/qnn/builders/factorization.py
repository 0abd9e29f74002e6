"""Exact polynomial networks built from real factorizations.

One quadratic neuron evaluates one factor (a shifted linear term needs only
the first affine form; x^2 + a x + b additionally uses the square term), and
one quadratic neuron multiplies two channels, so a balanced pairwise tree
computes the whole product in logarithmically many identity-activation
layers.  The same layer vocabulary yields sum-of-products networks for
separable multivariate functions and the trainable factorizer whose first
layer learns offset factors and whose linear output neuron undoes the
offsets through shortcut taps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..network import NetworkSpec, Shortcut, block_rows
from ..neurons import QuadraticNeuron
from ..oracles import horner
from ..polynomials import FactoredForm, Polynomial, factor_polynomial


@dataclass
class MultiPolySpec:
    """Sum of M monomial terms over N variables with per-term exponents."""

    exponents: np.ndarray  # shape (M, N), non-negative integers
    coefficients: np.ndarray  # shape (M,)

    def __post_init__(self):
        self.exponents = np.asarray(self.exponents, dtype=np.int64)
        self.coefficients = np.asarray(self.coefficients, dtype=np.float64)
        if self.exponents.ndim != 2:
            raise ValueError("exponents must be a (terms, variables) table")
        m, n = self.exponents.shape
        if m < 1 or n < 1:
            raise ValueError("need at least one term and one variable")
        if np.any(self.exponents < 0):
            raise ValueError("exponents must be non-negative")
        if self.coefficients.shape != (m,):
            raise ValueError("need one coefficient per term")

    @property
    def terms(self) -> int:
        return self.exponents.shape[0]

    @property
    def variables(self) -> int:
        return self.exponents.shape[1]


@dataclass
class SeparableSpec:
    """f(x_1..x_n) = sum over terms of the product of one Polynomial per variable."""

    phis: list[list[Polynomial]]

    def __post_init__(self):
        if not self.phis:
            raise ValueError("need at least one term")
        n = len(self.phis[0])
        if n < 1:
            raise ValueError("need at least one variable")
        for row in self.phis:
            if len(row) != n:
                raise ValueError("every term needs one polynomial per variable")
            for phi in row:
                if not isinstance(phi, Polynomial):
                    raise ValueError("phi tables must hold Polynomial values")

    @property
    def terms(self) -> int:
        return len(self.phis)

    @property
    def variables(self) -> int:
        return len(self.phis[0])

    def evaluate(self, X) -> np.ndarray:
        """Direct reference evaluation at rows of X, shape (B, variables)."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        total = np.zeros(X.shape[0])
        for row in self.phis:
            term = np.ones(X.shape[0])
            for i, phi in enumerate(row):
                term *= horner(phi, X[:, i])
            total += term
        return total


def _frozen(net: NetworkSpec) -> NetworkSpec:
    net.trainable[:] = False
    return net


def _constant_net(input_dim: int, value: float) -> NetworkSpec:
    """The frozen net whose one conventional neuron outputs value."""
    net = NetworkSpec.blank(input_dim, [("identity", ["conventional"])])
    net.blocks[0][block_rows(input_dim).b_r] = value
    return _frozen(net)


def _factor_terms(ff: FactoredForm, coord: int, fold_scale: bool) -> list[tuple]:
    """(coord, w, b, s) per factor: s x^2 + w x + b of x = input coord, a
    linear factor with s = 0; the overall scale multiplies the first one."""
    terms = []
    scale = ff.scale if fold_scale else 1.0
    for root in ff.linear_roots:
        terms.append((coord, scale, -scale * root, 0.0))
        scale = 1.0
    for a, b in ff.quadratic_factors:
        terms.append((coord, scale * a, scale * b, scale))
        scale = 1.0
    return terms


def _write_factors(block: np.ndarray, terms: list[tuple]) -> None:
    """Column j of block evaluates terms[j] through the square term and the
    first affine form, the second being the constant 1."""
    rows = block_rows(len(block) // 3 - 1)
    for j, (coord, w, b, s) in enumerate(terms):
        block[rows.w_r, j][coord] = w
        block[rows.b_r, j] = b
        block[rows.b_g, j] = 1.0
        block[rows.w_b, j][coord] = s


def _product_layers(groups: list[list[int]]) -> tuple[list[list], list[list[int]]]:
    """The pairwise-product layers that reduce every group of channels to a
    single channel, and the groups' channels after them.  A layer is a list
    of units: (u, v) for the product neuron x[u] * x[v], or the index an odd
    channel passes through at."""
    layers = []
    while any(len(g) > 1 for g in groups):
        units: list = []
        new_groups = []
        for group in groups:
            channels = []
            for i in range(0, len(group) - 1, 2):
                channels.append(len(units))
                units.append((group[i], group[i + 1]))
            if len(group) % 2:
                channels.append(len(units))
                units.append(group[-1])
            new_groups.append(channels)
        layers.append(units)
        groups = new_groups
    return layers, groups


def _product_net(input_dim: int, factors: int, products: list[list], output: bool,
                 shortcuts=()) -> NetworkSpec:
    """A layer of `factors` zero quadratic neurons, the product layers of
    _product_layers, and with output one zero conventional neuron, all with
    identity activation; the product neurons are written."""
    layers = [("identity", ["quadratic"] * factors)]
    layers += [("identity", ["quadratic" if isinstance(u, tuple) else u for u in units])
               for units in products]
    net = NetworkSpec.blank(input_dim, layers + [("identity", ["conventional"])] * output,
                            shortcuts)
    for block, units in zip(net.blocks[1:], products):
        rows = block_rows(len(block) // 3 - 1)
        for j, unit in enumerate(units):
            if isinstance(unit, tuple):
                block[rows.w_r, j][unit[0]] = 1.0
                block[rows.w_g, j][unit[1]] = 1.0
    return net


def build_poly_net(ff: FactoredForm) -> NetworkSpec:
    """Network computing the factored polynomial exactly on scalar input.

    Layer 1 evaluates every factor (scale folded into the first one); each
    later layer multiplies channels in pairs, odd channels passing through,
    all with identity activation since factor values are signed.  Depth is
    at most ceil(log2(#factors)) + 1 layers and no layer is wider than the
    polynomial's degree.
    """
    if ff.factor_count == 0:
        return _constant_net(1, ff.scale)

    terms = _factor_terms(ff, 0, fold_scale=True)
    products, _ = _product_layers([list(range(len(terms)))])
    net = _product_net(1, len(terms), products, output=False)
    _write_factors(net.blocks[0], terms)
    return _frozen(net)


def build_separable_net(spec: SeparableSpec) -> NetworkSpec:
    """Sum-of-products network for a separable multivariate function.

    Per term, every non-constant phi is factored and its factors become
    first-layer neurons reading that variable; one product tree collapses
    each term to a single channel; a linear output neuron sums the terms.
    Constant phis fold into the output weights (or the bias when a whole
    term is constant).
    """
    n = spec.variables
    terms: list[tuple] = []
    term_groups: list[list[int]] = []
    term_weights: list[float] = []
    bias = 0.0

    for row in spec.phis:
        const = 1.0
        channels: list[int] = []
        for coord, phi in enumerate(row):
            if phi.degree == 0:
                const *= float(phi.coeffs[0])
            else:
                ff = factor_polynomial(phi)
                const *= ff.scale
                for term in _factor_terms(ff, coord, fold_scale=False):
                    terms.append(term)
                    channels.append(len(terms) - 1)
        if const == 0.0:
            continue
        if channels:
            term_groups.append(channels)
            term_weights.append(const)
        else:
            bias += const

    if not terms:
        return _constant_net(n, bias)

    products, groups = _product_layers(term_groups)
    width = len(products[-1]) if products else len(terms)
    net = _product_net(n, len(terms), products, output=True)
    blocks = net.blocks
    _write_factors(blocks[0], terms)
    for group, weight in zip(groups, term_weights):
        blocks[-1][group[0], 0] += weight
    blocks[-1][block_rows(width).b_r, 0] = bias
    return _frozen(net)


def multipoly_net_size(spec: MultiPolySpec) -> tuple[int, int]:
    """Closed-form (width, depth) sufficient to compute the polynomial exactly.

    width = sum_j 2 max_k n_j(k) + 2M and depth = max n_j(k) + N, the max
    running over every entry of the exponent table.  The depth estimate is
    conservative: the product-tree networks built here reach the same values
    in logarithmically many layers.
    """
    per_variable_max = spec.exponents.max(axis=0)
    width = int(2 * per_variable_max.sum() + 2 * spec.terms)
    depth = int(spec.exponents.max() + spec.variables)
    return width, depth


def build_factorization_trainable(degree: int, l1: int, l2: int) -> NetworkSpec:
    """Trainable factorizer: learn offset factors, multiply them, undo offsets.

    Layer 1 holds one trainable quadratic neuron per factor (l1 + l2 of
    them, each free to learn any quadratic in x).  Fixed product neurons
    form the pairwise and full products; the trainable linear output neuron
    combines the full product with shortcut taps of every proper sub-product
    and a bias, which is exactly the linear combination needed to cancel
    constant offsets in the learned factors.  Supports 1 to 3 factors.
    """
    if degree < 1 or l1 < 0 or l2 < 0:
        raise ValueError("need degree >= 1 and non-negative factor counts")
    if l1 + 2 * l2 != degree:
        raise ValueError("factor counts must satisfy l1 + 2*l2 = degree")
    k = l1 + l2
    if not 1 <= k <= 3:
        raise ValueError(
            "trainable factorizer supports 1 to 3 factor neurons; "
            f"l1={l1}, l2={l2} gives {k}"
        )

    # fixed product neurons: the pair products, then the triple
    products = {2: [[(0, 1)]], 3: [[(0, 1), (1, 2), (0, 2), 0], [(3, 1)]]}.get(k, [])
    # the output taps every factor and every pair product
    shortcuts = [Shortcut(src, j, len(products) + 1, 0, 0.0)
                 for src in range(len(products)) for j in range(k)]
    net = _product_net(1, k, products, output=True, shortcuts=shortcuts)
    for layer_masks in net.masks[1 : len(products) + 1]:
        for m in layer_masks:
            m[:] = False
    return net


def quadratic_coefficients(neuron: QuadraticNeuron) -> np.ndarray:
    """Expand a one-input quadratic neuron into [a0, a1, a2] monomial coefficients."""
    if neuron.input_dim != 1:
        raise ValueError("expected a one-input neuron")
    wr, wg, wb = neuron.w_r[0], neuron.w_g[0], neuron.w_b[0]
    a2 = wr * wg + wb
    a1 = wr * neuron.b_g + wg * neuron.b_r
    a0 = neuron.b_r * neuron.b_g + neuron.c
    return np.array([a0, a1, a2])
