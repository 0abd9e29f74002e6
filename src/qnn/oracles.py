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
    NetworkSpec,
    _check_batch,
    forward_batch,
    set_trainable_values,
    trainable_values,
)
from .neurons import ConventionalNeuron, QuadraticNeuron, _real, preactivation, relu, relu_prime
from .polynomials import FactoredForm, Polynomial


@dataclass
class GridSpec:
    """Uniform evaluation grid on [lo, hi] with n >= 2 points."""

    lo: float
    hi: float
    n: int

    def __post_init__(self):
        self.lo = float(self.lo)
        self.hi = float(self.hi)
        self.n = int(self.n)
        if self.lo >= self.hi:
            raise ValueError("grid requires lo < hi")
        if self.n < 2:
            raise ValueError("grid requires n >= 2")

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
    parameter vector set to t; upstream defaults to all ones.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=np.float64)
    if upstream is None:
        upstream = np.ones(net.output_dim)
    upstream = np.asarray(upstream, dtype=np.float64)

    theta = trainable_values(net)
    grads = np.zeros_like(theta)
    for i in range(len(theta)):
        bumped = theta.copy()
        bumped[i] = theta[i] + step
        hi = upstream @ forward_batch(set_trainable_values(net, bumped), x[None])[0]
        bumped[i] = theta[i] - step
        lo = upstream @ forward_batch(set_trainable_values(net, bumped), x[None])[0]
        grads[i] = (hi - lo) / (2.0 * step)
    return grads


def reference_forward_batch(net: NetworkSpec, X):
    """forward_batch computed neuron by neuron, as a reference for tests.

    Returns (preactivations, activations), one (B, width) array per layer.
    """
    X, _ = _check_batch(net, X)
    shortcuts = net.shortcuts  # made on each read, like net.layers
    preacts: list[np.ndarray] = []
    acts: list[np.ndarray] = []
    current = X
    for k, layer in enumerate(net.layers):
        Z = np.empty((X.shape[0], layer.width))
        for j, neuron in enumerate(layer.neurons):
            z = preactivation(neuron, current)
            for sc in shortcuts:
                if (sc.dst_layer, sc.dst_neuron) == (k, j):
                    z = z + sc.weight * acts[sc.src_layer][:, sc.src_neuron]
            Z[:, j] = z
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
    layers, shortcuts = net.layers, net.shortcuts  # made on each read
    n_layers = len(layers)
    grad_act: list[np.ndarray | None] = [None] * n_layers
    grad_act[-1] = upstream.copy()

    param_grads: dict[tuple[int, int], np.ndarray] = {}
    shortcut_grads = np.zeros(len(shortcuts))
    outgoing: dict[tuple[int, int], list[int]] = {}
    for idx, sc in enumerate(shortcuts):
        outgoing.setdefault((sc.dst_layer, sc.dst_neuron), []).append(idx)

    for k in range(n_layers - 1, -1, -1):
        layer = layers[k]
        g_act = grad_act[k]
        if g_act is None:
            g_act = np.zeros_like(acts[k])
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
            for idx in outgoing.get((k, j), ()):
                sc = shortcuts[idx]
                src = acts[sc.src_layer][:, sc.src_neuron]
                shortcut_grads[idx] = float(d @ src)
                prev = grad_act[sc.src_layer]
                if prev is None:
                    prev = np.zeros_like(acts[sc.src_layer])
                    grad_act[sc.src_layer] = prev
                prev[:, sc.src_neuron] += sc.weight * d
        if k > 0:
            if grad_act[k - 1] is None:
                grad_act[k - 1] = g_inp
            else:
                grad_act[k - 1] = grad_act[k - 1] + g_inp

    parts = [
        param_grads[(k, j)][mask]
        for k, layer_masks in enumerate(net.masks)
        for j, mask in enumerate(layer_masks)
    ]
    parts.append(
        np.array(
            [shortcut_grads[i] for i, sc in enumerate(shortcuts) if sc.trainable]
        )
    )
    return np.concatenate(parts) if parts else np.zeros(0)


def grid_l1(f, g, grid: GridSpec) -> float:
    """Trapezoidal approximation of the integral of |f - g| over the grid."""
    t = grid.points()
    diff = np.abs(np.asarray(f(t), dtype=np.float64) - np.asarray(g(t), dtype=np.float64))
    return float(np.trapezoid(diff, t))


def grid_sup(f, g, grid: GridSpec) -> float:
    """Largest |f - g| over the grid points."""
    t = grid.points()
    diff = np.abs(np.asarray(f(t), dtype=np.float64) - np.asarray(g(t), dtype=np.float64))
    return float(np.max(diff))


def bernstein_direct(f, n: int, x) -> np.ndarray:
    """Direct basis summation sum_m f(m/n) C(n,m) x^m (1-x)^(n-m).

    Numerically stable on [0, 1] for any n whose binomials fit float64
    (n <= 1029) since every basis term is non-negative there; serves as the
    reference for the expanded-coefficient path, which is ill-conditioned in
    the monomial basis at large n.  Raises ValueError naming n beyond that.
    """
    binomials = bernstein_binomials(n)
    x = _real(x, "x")
    y = 1.0 - x
    total = np.zeros_like(x)
    for m, weight in enumerate(binomials):
        # the terms' product order, (f(m/n) C(n,m)) x^m (1-x)^(n-m), in place
        term = x**m
        term *= float(f(m / n)) * weight
        term *= y ** (n - m)
        total += term
    return total


def bernstein_binomials(n: int) -> list[float]:
    """C(n, m) for m = 0..n as floats.

    Raises ValueError naming n when n < 1 or a binomial is beyond the
    float64 range (n >= 1030); C(n, m) overflows at a small m for a huge n,
    so the refusal comes quickly.
    """
    if n <= 0:
        raise ValueError("Bernstein degree must be >= 1")
    try:
        return [float(comb(n, m)) for m in range(n + 1)]
    except OverflowError:
        raise ValueError(
            f"Bernstein degree n={n}: the binomial C({n}, {n // 2}) exceeds "
            "the float64 range"
        ) from None
