"""Independent brute-force references used by the test suite.

Everything here is deliberately simple and written against definitions, not
against the implementations it checks: Horner evaluation, factored-form
expansion by repeated convolution, central finite differences, a per-neuron
forward pass and chain-rule gradient, direct Bernstein basis summation, and
trapezoidal / max-over-grid error measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .network import (
    _MAX_ENTRIES,
    NetworkSpec,
    _check_batch,
    _theta_index,
    forward_batch,
    set_trainable_values,
    trainable_values,
)
from .neurons import (
    ConventionalNeuron,
    QuadraticNeuron,
    _finite,
    _integer,
    _real,
    preactivation,
    relu,
    relu_prime,
)
from .polynomials import FactoredForm, Polynomial


@dataclass
class GridSpec:
    """Uniform evaluation grid on [lo, hi] with n >= 2 points, at most
    network._MAX_ENTRIES."""

    lo: float
    hi: float
    n: int

    def __post_init__(self):
        self.lo, self.hi = _finite(self.lo, "grid lo"), _finite(self.hi, "grid hi")
        self.n = int(_integer(self.n, "grid n", 2, _MAX_ENTRIES))
        if self.lo >= self.hi:
            raise ValueError("grid requires lo < hi")

    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)


def horner(p: Polynomial, x) -> float | np.ndarray:
    """Horner-scheme evaluation; accepts a scalar or an array of points."""
    x = _real(x, "x")
    acc = np.zeros_like(x)
    for c in p.coeffs[::-1]:
        acc = acc * x + c
    return acc if acc.ndim else float(acc)

def expand_factored(ff: FactoredForm) -> Polynomial:
    """Multiply out scale * prod(x - x_i) * prod(x^2 + a x + b) by convolution."""
    coeffs = np.array([ff.scale])
    for r in ff.linear_roots:
        coeffs = np.convolve(coeffs, np.array([-r, 1.0]))
    for a, b in ff.quadratic_factors:
        coeffs = np.convolve(coeffs, np.array([b, a, 1.0]))
    return Polynomial(coeffs)


def finite_diff_grad(
    net: NetworkSpec, x, step: float = 1e-5, upstream=None
) -> np.ndarray:
    """Central differences (f(t+h) - f(t-h)) / 2h per trainable parameter.

    f(t) is upstream . forward_batch(net, x[None])[0] with the trainable
    parameter vector set to t; upstream defaults to all ones; step must be
    positive.  Each parameter is bumped in place in one copy of net and put
    back, so net itself is left unchanged.
    """
    step = _finite(step, "step", positive=True)
    x = _real(x, "x")
    upstream = np.ones(net.output_dim) if upstream is None else _real(upstream, "upstream")

    bumped = set_trainable_values(net, trainable_values(net))
    grads = []
    for position in _theta_index(net):
        value = bumped.params[position]
        bumped.params[position] = value + step
        hi = upstream @ forward_batch(bumped, x[None])[0]
        bumped.params[position] = value - step
        lo = upstream @ forward_batch(bumped, x[None])[0]
        bumped.params[position] = value
        grads.append((hi - lo) / (2.0 * step))
    return np.array(grads)


def reference_forward_batch(net: NetworkSpec, X):
    """forward_batch computed neuron by neuron, as a reference for tests.

    Returns (preactivations, activations), one (B, width) array per layer.
    """
    X, _ = _check_batch(net, X)
    preacts: list[np.ndarray] = []
    acts: list[np.ndarray] = []
    current = X
    for layer in net.layers:
        Z = np.empty((X.shape[0], layer.width))
        for j, neuron in enumerate(layer.neurons):
            Z[:, j] = preactivation(neuron, current)
        preacts.append(Z)
        current = relu(Z) if layer.activation == "relu" else Z
        acts.append(current)
    return preacts, acts


def reference_backward_batch(net: NetworkSpec, X, upstream) -> np.ndarray:
    """backward_batch computed neuron by neuron, as a reference for tests.

    Gradient of sum_b upstream[b] . output[b] w.r.t. trainable parameters.
    Returns one value per mask=true parameter, canonical order; frozen
    parameters receive no entry.  Exact chain-rule derivatives: for a
    quadratic neuron with p = w_r.x + b_r and q = w_g.x + b_g,
    dh/dw_r = q x, dh/db_r = q, dh/dw_g = p x, dh/db_g = p,
    dh/dw_b = x*x, dh/dc = 1.
    """
    X, upstream = _check_batch(net, X, upstream)

    preacts, acts = reference_forward_batch(net, X)
    layers = net.layers  # made on each read
    g_act = upstream  # the gradient of layer k's activations

    param_grads: dict[tuple[int, int], np.ndarray] = {}
    for k in range(len(layers) - 1, -1, -1):
        layer = layers[k]
        if layer.activation == "relu":
            g_pre = g_act * relu_prime(preacts[k])
        else:
            g_pre = g_act
        inp = X if k == 0 else acts[k - 1]
        g_inp = np.zeros_like(inp)
        for j, neuron in enumerate(layer.neurons):
            d = g_pre[:, j]
            if isinstance(neuron, QuadraticNeuron):
                p = inp @ neuron.w_r + neuron.b_r
                q = inp @ neuron.w_g + neuron.b_g
                dq = d * q
                dp = d * p
                grads = np.concatenate(
                    [
                        inp.T @ dq,
                        [dq.sum()],
                        inp.T @ dp,
                        [dp.sum()],
                        (inp * inp).T @ d,
                        [d.sum()],
                    ]
                )
                g_inp += (
                    dq[:, None] * neuron.w_r
                    + dp[:, None] * neuron.w_g
                    + 2.0 * d[:, None] * inp * neuron.w_b
                )
            elif isinstance(neuron, ConventionalNeuron):
                grads = np.concatenate([inp.T @ d, [d.sum()]])
                g_inp += d[:, None] * neuron.w
            else:
                grads = np.zeros(0)
                g_inp[:, neuron.index] += d
            param_grads[(k, j)] = grads
        g_act = g_inp

    parts = [
        param_grads[(k, j)][mask]
        for k, layer_masks in enumerate(net.masks)
        for j, mask in enumerate(layer_masks)
    ]
    return np.concatenate(parts)


def grid_l1(f, g, grid: GridSpec) -> float:
    """Trapezoidal approximation of the integral of |f - g| over the grid;
    complex or non-numeric values of f or g are refused by name."""
    t = grid.points()
    diff = np.abs(_real(f(t), "f values") - _real(g(t), "g values"))
    return float(np.trapezoid(diff, t))


def grid_sup(f, g, grid: GridSpec) -> float:
    """Largest |f - g| over the grid points; complex or non-numeric values
    of f or g are refused by name."""
    t = grid.points()
    diff = np.abs(_real(f(t), "f values") - _real(g(t), "g values"))
    return float(np.max(diff))


def bernstein_direct(f, n: int, x) -> np.ndarray:
    """Direct basis summation sum_m f(m/n) C(n,m) x^m (1-x)^(n-m).

    Numerically stable on [0, 1] for any n whose binomials fit float64
    (n <= 1029) since every basis term is non-negative there; serves as the
    reference for the expanded-coefficient path, which is ill-conditioned in
    the monomial basis at large n.  Raises ValueError naming n beyond that,
    and naming "f values" when f returns anything but a finite real number.
    """
    binomials = bernstein_binomials(n)
    x = _real(x, "x")
    y = 1.0 - x
    total = np.zeros_like(x)
    for m, weight in enumerate(binomials):
        # the terms' product order, (f(m/n) C(n,m)) x^m (1-x)^(n-m), in place
        term = x**m
        term *= _finite(f(m / n), "f values") * weight
        term *= y ** (n - m)
        total += term
    return total


def bernstein_binomials(n: int) -> list[float]:
    """C(n, m) for m = 0..n as floats.

    Raises ValueError naming n when n < 1 or when a binomial is beyond
    the float64 range (n >= 1030); C(n, m) overflows at a small m for a
    huge n, so the refusal comes quickly.
    """
    _integer(n, "Bernstein degree n", 1)
    try:
        return [float(comb(n, m)) for m in range(n + 1)]
    except OverflowError:
        raise ValueError(
            f"Bernstein degree n={n}: the binomial C({n}, {n // 2}) exceeds "
            "the float64 range"
        ) from None
