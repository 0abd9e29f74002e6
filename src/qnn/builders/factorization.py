"""Exact polynomial networks built from real factorizations and monomials.

One quadratic neuron evaluates one factor (a shifted linear term needs only
the first affine form; x^2 + a x + b additionally uses the square term), and
one product neuron (u, v), a kind in the structure with no parameter,
multiplies two channels, so a balanced pairwise tree computes the whole
product in logarithmically many identity-activation layers.  The same
product neurons build a multivariate polynomial from its monomials (each
variable's powers by doubling, then each monomial's powers multiplied in
one per layer) and the trainable factorizer, whose first layer learns
offset factors and whose linear output neuron undoes the offsets through
taps of the factors and pair products, carried to it by passthrough
neurons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..network import NetworkSpec, block_rows
from ..neurons import _integer, _real
from ..polynomials import FactoredForm


# The most power channels, sum_j max_k n_j(k), a MultiPolySpec may ask for:
# the 2n channels of the one-variable Bernstein net over (x, 1 - x) at
# n = 1029, the last n whose binomial weights float64 holds (the d = 2
# tensor-product net, with its (1 - x_i) channels, needs 4n).  The net of
# x1^1029 x2^1029 alone takes 161 MiB of params and 0.24 s to build.
_MAX_POWER_CHANNELS = 2058


@dataclass
class MultiPolySpec:
    """Sum of M monomial terms over N variables with per-term exponents.

    The largest exponents of the variables, the power channels that
    build_multipoly_net makes, may sum to at most 2058; a larger spec is
    refused before any net is allocated.
    """

    exponents: np.ndarray  # shape (M, N), non-negative integers
    coefficients: np.ndarray  # shape (M,)

    def __post_init__(self):
        exponents = _real(self.exponents, "exponents")
        if not np.all(np.isfinite(exponents) & (exponents == np.floor(exponents))):
            raise ValueError("exponents must be integers")
        self.coefficients = _real(self.coefficients, "coefficients", finite=True)
        if exponents.ndim != 2:
            raise ValueError("exponents must be a (terms, variables) table")
        m, n = exponents.shape
        if m < 1 or n < 1:
            raise ValueError("need at least one term and one variable")
        if np.any(exponents < 0):
            raise ValueError("exponents must be non-negative")
        # checked on the floats, before the int64 cast, and clipped so that
        # the sum cannot overflow
        top = np.minimum(exponents.max(axis=0), _MAX_POWER_CHANNELS + 1)
        if top.sum() > _MAX_POWER_CHANNELS:
            raise ValueError("exponents: the largest exponents of the variables sum to "
                             f"more than {_MAX_POWER_CHANNELS} power channels")
        self.exponents = exponents.astype(np.int64)
        if self.coefficients.shape != (m,):
            raise ValueError("need one coefficient per term")

    @property
    def terms(self) -> int:
        return self.exponents.shape[0]

    @property
    def variables(self) -> int:
        return self.exponents.shape[1]


def _frozen(net: NetworkSpec) -> NetworkSpec:
    net.trainable[:] = False
    return net


def _constant_net(input_dim: int, value: float) -> NetworkSpec:
    """The frozen net whose one conventional neuron outputs value."""
    net = NetworkSpec.blank(input_dim, [("identity", ["conventional"])])
    net.blocks[0][block_rows(input_dim).b_r] = value
    return _frozen(net)


def _factor_terms(ff: FactoredForm) -> list[tuple]:
    """(w, b, s) per factor: s x^2 + w x + b, a linear factor with s = 0;
    the overall scale multiplies the first one."""
    terms = []
    scale = ff.scale
    for root in ff.linear_roots:
        terms.append((scale, -scale * root, 0.0))
        scale = 1.0
    for a, b in ff.quadratic_factors:
        terms.append((scale * a, scale * b, scale))
        scale = 1.0
    return terms


def _write_factors(block: np.ndarray, terms: list[tuple]) -> None:
    """Column j of the fan-in-one block evaluates terms[j] through the square
    term and the first affine form, the second being the constant 1."""
    rows = block_rows(1)
    for j, (w, b, s) in enumerate(terms):
        block[rows.w_r, j] = w
        block[rows.b_r, j] = b
        block[rows.b_g, j] = 1.0
        block[rows.w_b, j] = s


def _product_tree(count: int) -> list[list]:
    """The pairwise-product layers that reduce count channels to one.  A
    layer is a list of kinds: (u, v) for the product neuron x[u] * x[v], or
    the index an odd channel passes through at."""
    layers = []
    while count > 1:
        layers.append([(i, i + 1) for i in range(0, count - 1, 2)] + [count - 1] * (count % 2))
        count = len(layers[-1])
    return layers


def _product_net(input_dim: int, factors: int, products: list[list],
                 output: bool) -> NetworkSpec:
    """A layer of `factors` zero quadratic neurons (none when factors is 0),
    the product layers (as _product_tree gives them), and with output one
    zero conventional neuron, all with identity activation."""
    layers = [("identity", ["quadratic"] * factors)] * bool(factors)
    layers += [("identity", kinds) for kinds in products]
    return NetworkSpec.blank(input_dim, layers + [("identity", ["conventional"])] * output)


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

    terms = _factor_terms(ff)
    net = _product_net(1, len(terms), _product_tree(len(terms)), output=False)
    _write_factors(net.blocks[0], terms)
    return _frozen(net)


def multipoly_net_size(spec: MultiPolySpec) -> tuple[int, int]:
    """Closed-form (width, depth) sufficient to compute the polynomial exactly.

    width = sum_j 2 max_k n_j(k) + 2M and depth = max n_j(k) + N, the max
    running over every entry of the exponent table; build_multipoly_net
    stays within both.
    """
    per_variable_max = spec.exponents.max(axis=0)
    width = int(2 * per_variable_max.sum() + 2 * spec.terms)
    depth = int(spec.exponents.max() + spec.variables)
    return width, depth


def build_multipoly_net(spec: MultiPolySpec) -> NetworkSpec:
    """Network computing sum_k c_k prod_j x_j^n_j(k) on input (x_1..x_N).

    Power layers give each variable every power up to its largest exponent
    by doubling: the layer after powers up to h holds those, passed through,
    and x^e = x^h x^(e-h) for h < e <= 2h.  Term layers multiply each
    monomial's powers in one per layer, passing through the channels still
    needed, and a linear output neuron weights each monomial by its
    coefficient, the constant terms forming its bias; a term whose
    coefficient is 0 is left out.  A layer holds at most one channel per
    power and one per monomial, so width and depth stay within
    multipoly_net_size(spec).  No spec is refused for its range: where a
    channel passes about 1.3e154, the next product layer's square term
    overflows and the output is NaN.
    """
    keep = spec.coefficients != 0.0
    exponents, coefficients = spec.exponents[keep], spec.coefficients[keep]
    top = exponents.max(axis=0, initial=0).tolist()
    # powers[j, e]: the channel of x_j^e in the last layer built, at first the input
    powers = {(j, 1): j for j, e in enumerate(top) if e}
    layers: list[list] = []
    h = 1
    while h < max(top):
        units: dict = {}  # unit -> its channel, as _product_net reads a layer
        powers = {(j, e): units.setdefault(powers[j, e] if e <= h else
                                           (powers[j, h], powers[j, e - h]), len(units))
                  for j, top_j in enumerate(top) for e in range(1, min(top_j, 2 * h) + 1)}
        layers.append(list(units))
        h *= 2
    terms = [[powers[j, e] for j, e in enumerate(row) if e] for row in exponents.tolist()]
    while any(len(term) > 1 for term in terms):
        units = {}
        for term in terms:
            if len(term) > 1:
                term[:2] = [(term[0], term[1])]
            term[:] = [units.setdefault(unit, len(units)) for unit in term]
        layers.append(list(units))

    net = _product_net(spec.variables, 0, layers, output=True)
    out = net.blocks[-1]
    bias = 0.0
    for term, c in zip(terms, coefficients):
        if term:
            out[term[0], 0] += c
        else:
            bias += c
    out[block_rows(len(out) // 3 - 1).b_r, 0] = bias
    return _frozen(net)


def build_factorization_trainable(degree: int, l1: int, l2: int) -> NetworkSpec:
    """Trainable factorizer: learn offset factors, multiply them, undo offsets.

    Layer 1 holds one trainable quadratic neuron per factor (l1 + l2 of
    them, each free to learn any quadratic in x).  Product neurons form the
    pairwise and full products, and passthrough neurons carry every factor
    and pair product beside them to the last layer, none with a parameter;
    the trainable linear output neuron combines the full product with those
    taps of every proper sub-product and a bias, which is exactly the
    linear combination needed to cancel constant offsets in the learned
    factors.  Its weights are the full product's, then the factors', then
    the pair products' (p01, p12, p02), then the bias.  Supports 1 to 3
    factors.
    """
    for name, count, low in (("degree", degree, 1), ("l1", l1, 0), ("l2", l2, 0)):
        _integer(count, name, low)
    if l1 + 2 * l2 != degree:
        raise ValueError("factor counts must satisfy l1 + 2*l2 = degree")
    k = l1 + l2
    if not 1 <= k <= 3:
        raise ValueError(
            "trainable factorizer supports 1 to 3 factor neurons; "
            f"l1={l1}, l2={l2} gives {k}"
        )

    # product neurons, the pair products then the triple, beside
    # passthroughs that bring every factor and pair product to the output
    products = {2: [[(0, 1), 0, 1]],
                3: [[(0, 1), (1, 2), (0, 2), 0, 1, 2], [(3, 1), 3, 4, 5, 0, 1, 2]]}.get(k, [])
    return _product_net(1, k, products, output=True)


def quadratic_coefficients(column) -> np.ndarray:
    """Expand the block column of a one-input quadratic neuron, (w_r, b_r,
    w_g, b_g, w_b, c), into [a0, a1, a2] monomial coefficients."""
    column = _real(column, "column")
    if column.shape != (6,):
        raise ValueError("expected the 6-entry block column of a one-input neuron")
    wr, br, wg, bg, wb, c = column
    return np.array([br * bg + c, wr * bg + wg * br, wr * wg + wb])
