"""Neuron primitives: pre-activations, activations, analytic derivatives.

Three neuron kinds are supported.  A quadratic neuron computes

    h(x) = (w_r . x + b_r) * (w_g . x + b_g) + w_b . (x * x) + c

so a single unit can carve out a quadratic decision boundary (norm balls,
annuli, products of affine forms).  A conventional neuron is the usual
inner product plus bias, and a passthrough neuron copies one coordinate of
its input unchanged (used to carry channels through deep constructions).

All arithmetic is float64.  Functions accept either a single input vector
of shape (n,) or a batch of shape (B, n); scalars broadcast accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np


def relu(z):
    """max(0, z), elementwise."""
    return np.maximum(0.0, z)


def relu_prime(z):
    """Derivative of relu; the kink at 0 takes the value 0."""
    return np.where(z > 0.0, 1.0, 0.0)


def _real(values, name: str) -> np.ndarray:
    """values as a float64 array; complex values raise ValueError naming
    them, where the cast would drop their imaginary parts."""
    array = np.asarray(values)
    if array.dtype.kind == "c":
        raise ValueError(f"{name} must be real, got complex values")
    return array.astype(np.float64, copy=False)


def _as_weight(v, name: str) -> np.ndarray:
    w = _real(v, name)
    if w.ndim != 1 or w.size < 1:
        raise ValueError("weight vector must be 1-D with length >= 1")
    return w


@dataclass
class QuadraticNeuron:
    """Second-order unit with two affine factors plus a square term.

    The parameter vector, in canonical order, is
    (w_r, b_r, w_g, b_g, w_b, c): 3n + 3 entries for input length n.
    """

    kind: ClassVar[str] = "quadratic"
    w_r: np.ndarray
    b_r: float
    w_g: np.ndarray
    b_g: float
    w_b: np.ndarray
    c: float

    def __post_init__(self):
        self.w_r = _as_weight(self.w_r, "w_r")
        self.w_g = _as_weight(self.w_g, "w_g")
        self.w_b = _as_weight(self.w_b, "w_b")
        if not (len(self.w_r) == len(self.w_g) == len(self.w_b)):
            raise ValueError("w_r, w_g, w_b must have identical length")
        self.b_r = float(self.b_r)
        self.b_g = float(self.b_g)
        self.c = float(self.c)

    @property
    def input_dim(self) -> int:
        return len(self.w_r)

    @property
    def param_count(self) -> int:
        return 3 * len(self.w_r) + 3

    def param_vector(self) -> np.ndarray:
        return np.concatenate(
            [self.w_r, [self.b_r], self.w_g, [self.b_g], self.w_b, [self.c]]
        )


@dataclass
class ConventionalNeuron:
    """Inner-product unit: h(x) = w . x + b."""

    kind: ClassVar[str] = "conventional"
    w: np.ndarray
    b: float

    def __post_init__(self):
        self.w = _as_weight(self.w, "w")
        self.b = float(self.b)

    @property
    def input_dim(self) -> int:
        return len(self.w)

    @property
    def param_count(self) -> int:
        return len(self.w) + 1

    def param_vector(self) -> np.ndarray:
        return np.concatenate([self.w, [self.b]])


@dataclass
class PassthroughNeuron:
    """Copies input coordinate `index`; carries no parameters."""

    kind: ClassVar[str] = "passthrough"
    index: int

    def __post_init__(self):
        self.index = int(self.index)
        if self.index < 0:
            raise ValueError("passthrough index must be non-negative")

    @property
    def param_count(self) -> int:
        return 0

    def param_vector(self) -> np.ndarray:
        return np.zeros(0)


Neuron = QuadraticNeuron | ConventionalNeuron | PassthroughNeuron


def neuron_fan_in(kind: str, count: int) -> int:
    """The input width n of a quadratic or conventional neuron with count
    canonical parameters (3n + 3 or n + 1); ValueError if there is none."""
    if kind == "quadratic":
        if count < 6 or count % 3:
            raise ValueError("quadratic neuron parameter count must be 3n + 3, n >= 1")
        return count // 3 - 1
    if kind != "conventional":
        raise ValueError(f"unknown neuron kind {kind!r}")
    if count < 2:
        raise ValueError("conventional neuron parameter count must be n + 1, n >= 1")
    return count - 1


def neuron_from_params(kind: str, params: np.ndarray) -> QuadraticNeuron | ConventionalNeuron:
    """A quadratic or conventional neuron from its canonical parameter vector.

    The weights are views of params, so pass an array the neuron may own.
    """
    n = neuron_fan_in(kind, len(params))
    if kind == "quadratic":
        return QuadraticNeuron(
            w_r=params[0:n], b_r=params[n],
            w_g=params[n + 1 : 2 * n + 1], b_g=params[2 * n + 1],
            w_b=params[2 * n + 2 : 3 * n + 2], c=params[3 * n + 2],
        )
    return ConventionalNeuron(w=params[:-1], b=params[-1])


def _check_input(n: int, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != n:
        raise ValueError(f"input has width {x.shape[-1]}, neuron expects {n}")
    return x


def quad_preactivation(neuron: QuadraticNeuron, x) -> float | np.ndarray:
    """(w_r.x + b_r)(w_g.x + b_g) + w_b.(x*x) + c for one vector or a batch."""
    x = _check_input(neuron.input_dim, x)
    p = x @ neuron.w_r + neuron.b_r
    q = x @ neuron.w_g + neuron.b_g
    s = (x * x) @ neuron.w_b
    return p * q + s + neuron.c


def conv_preactivation(neuron: ConventionalNeuron, x) -> float | np.ndarray:
    """w.x + b for one vector or a batch."""
    x = _check_input(neuron.input_dim, x)
    return x @ neuron.w + neuron.b


def preactivation(neuron: Neuron, x) -> float | np.ndarray:
    """Dispatch on neuron kind; passthrough copies its source coordinate."""
    if isinstance(neuron, QuadraticNeuron):
        return quad_preactivation(neuron, x)
    if isinstance(neuron, ConventionalNeuron):
        return conv_preactivation(neuron, x)
    x = np.asarray(x, dtype=np.float64)
    if neuron.index >= x.shape[-1]:
        raise ValueError(
            f"passthrough index {neuron.index} out of range for width {x.shape[-1]}"
        )
    return x[..., neuron.index]
