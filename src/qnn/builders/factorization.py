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

from ..network import LayerSpec, NetworkSpec, Shortcut
from ..neurons import ConventionalNeuron, PassthroughNeuron, QuadraticNeuron, neuron_from_params
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
                acc = np.zeros(X.shape[0])
                for c in phi.coeffs[::-1]:
                    acc = acc * X[:, i] + c
                term *= acc
            total += term
        return total


def _frozen(net: NetworkSpec) -> NetworkSpec:
    for layer_masks in net.masks:
        for m in layer_masks:
            m[:] = False
    for sc in net.shortcuts:
        sc.trainable = False
    return net


def _linear_factor_neuron(width: int, coord: int, root: float,
                          scale: float = 1.0) -> QuadraticNeuron:
    """h = scale * (x[coord] - root)."""
    w_r = np.zeros(width)
    w_r[coord] = scale
    return QuadraticNeuron(
        w_r=w_r, b_r=-scale * root,
        w_g=np.zeros(width), b_g=1.0,
        w_b=np.zeros(width), c=0.0,
    )


def _quadratic_factor_neuron(width: int, coord: int, a: float, b: float,
                             scale: float = 1.0) -> QuadraticNeuron:
    """h = scale * (x[coord]^2 + a x[coord] + b) via the square term plus one affine form."""
    w_r = np.zeros(width)
    w_r[coord] = scale * a
    w_b = np.zeros(width)
    w_b[coord] = scale
    return QuadraticNeuron(
        w_r=w_r, b_r=scale * b,
        w_g=np.zeros(width), b_g=1.0,
        w_b=w_b, c=0.0,
    )


def _product_neuron(width: int, u: int, v: int) -> QuadraticNeuron:
    """h = x[u] * x[v]."""
    w_r = np.zeros(width)
    w_r[u] = 1.0
    w_g = np.zeros(width)
    w_g[v] = 1.0
    return QuadraticNeuron(
        w_r=w_r, b_r=0.0, w_g=w_g, b_g=0.0, w_b=np.zeros(width), c=0.0
    )


def _factor_neurons(ff: FactoredForm, width: int, coord: int,
                    fold_scale: bool) -> list[QuadraticNeuron]:
    """One neuron per factor; the overall scale multiplies the first one."""
    neurons: list[QuadraticNeuron] = []
    scale = ff.scale if fold_scale else 1.0
    for root in ff.linear_roots:
        neurons.append(_linear_factor_neuron(width, coord, root, scale))
        scale = 1.0
    for a, b in ff.quadratic_factors:
        neurons.append(_quadratic_factor_neuron(width, coord, a, b, scale))
        scale = 1.0
    return neurons


def _reduce_products(layers: list[LayerSpec], groups: list[list[int]],
                     width: int) -> tuple[list[list[int]], int]:
    """Append pairwise-product layers until every group is a single channel."""
    while any(len(g) > 1 for g in groups):
        neurons: list = []
        new_groups: list[list[int]] = []
        for group in groups:
            ng = []
            i = 0
            while i + 1 < len(group):
                neurons.append(_product_neuron(width, group[i], group[i + 1]))
                ng.append(len(neurons) - 1)
                i += 2
            if i < len(group):
                neurons.append(PassthroughNeuron(group[i]))
                ng.append(len(neurons) - 1)
            new_groups.append(ng)
        layers.append(LayerSpec(neurons, "identity"))
        groups = new_groups
        width = len(neurons)
    return groups, width


def build_poly_net(ff: FactoredForm) -> NetworkSpec:
    """Network computing the factored polynomial exactly on scalar input.

    Layer 1 evaluates every factor (scale folded into the first one); each
    later layer multiplies channels in pairs, odd channels passing through,
    all with identity activation since factor values are signed.  Depth is
    at most ceil(log2(#factors)) + 1 layers and no layer is wider than the
    polynomial's degree.
    """
    if ff.factor_count == 0:
        out = ConventionalNeuron(w=np.zeros(1), b=ff.scale)
        return _frozen(NetworkSpec(1, [LayerSpec([out], "identity")]))

    factor_layer = _factor_neurons(ff, width=1, coord=0, fold_scale=True)
    layers = [LayerSpec(factor_layer, "identity")]
    groups = [list(range(len(factor_layer)))]
    _reduce_products(layers, groups, len(factor_layer))
    return _frozen(NetworkSpec(1, layers))


def build_separable_net(spec: SeparableSpec) -> NetworkSpec:
    """Sum-of-products network for a separable multivariate function.

    Per term, every non-constant phi is factored and its factors become
    first-layer neurons reading that variable; one product tree collapses
    each term to a single channel; a linear output neuron sums the terms.
    Constant phis fold into the output weights (or the bias when a whole
    term is constant).
    """
    n = spec.variables
    factor_layer: list = []
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
                for neuron in _factor_neurons(ff, n, coord, fold_scale=False):
                    factor_layer.append(neuron)
                    channels.append(len(factor_layer) - 1)
        if const == 0.0:
            continue
        if channels:
            term_groups.append(channels)
            term_weights.append(const)
        else:
            bias += const

    if not factor_layer:
        out = ConventionalNeuron(w=np.zeros(n), b=bias)
        return _frozen(NetworkSpec(n, [LayerSpec([out], "identity")]))

    layers = [LayerSpec(factor_layer, "identity")]
    groups, width = _reduce_products(layers, term_groups, len(factor_layer))
    w = np.zeros(width)
    for group, weight in zip(groups, term_weights):
        w[group[0]] += weight
    layers.append(LayerSpec([ConventionalNeuron(w=w, b=bias)], "identity"))
    return _frozen(NetworkSpec(n, layers))


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

    factor_layer = LayerSpec(
        [neuron_from_params("quadratic", np.zeros(6)) for _ in range(k)], "identity"
    )
    shortcuts: list[Shortcut] = []

    if k == 1:
        out = ConventionalNeuron(w=np.zeros(1), b=0.0)
        layers = [factor_layer, LayerSpec([out], "identity")]
        fixed = []
    elif k == 2:
        product = LayerSpec([_product_neuron(2, 0, 1)], "identity")
        out = ConventionalNeuron(w=np.zeros(1), b=0.0)
        layers = [factor_layer, product, LayerSpec([out], "identity")]
        fixed = [1]
        shortcuts = [
            Shortcut(0, 0, 2, 0, 0.0, trainable=True),
            Shortcut(0, 1, 2, 0, 0.0, trainable=True),
        ]
    else:
        pairs = LayerSpec(
            [
                _product_neuron(3, 0, 1),
                _product_neuron(3, 1, 2),
                _product_neuron(3, 0, 2),
                PassthroughNeuron(0),
            ],
            "identity",
        )
        triple = LayerSpec([_product_neuron(4, 3, 1)], "identity")
        out = ConventionalNeuron(w=np.zeros(1), b=0.0)
        layers = [factor_layer, pairs, triple, LayerSpec([out], "identity")]
        fixed = [1, 2]
        shortcuts = [
            Shortcut(0, 0, 3, 0, 0.0, trainable=True),
            Shortcut(0, 1, 3, 0, 0.0, trainable=True),
            Shortcut(0, 2, 3, 0, 0.0, trainable=True),
            Shortcut(1, 0, 3, 0, 0.0, trainable=True),
            Shortcut(1, 1, 3, 0, 0.0, trainable=True),
            Shortcut(1, 2, 3, 0, 0.0, trainable=True),
        ]

    net = NetworkSpec(1, layers, shortcuts)
    for layer_idx in fixed:
        for m in net.masks[layer_idx]:
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
