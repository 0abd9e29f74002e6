"""Neuron objects, their pre-activations, and the activations.

Three neuron kinds are supported.  A quadratic neuron computes

    h(x) = (w_r . x + b_r) * (w_g . x + b_g) + w_b . (x * x) + c

so a single unit can carve out a quadratic decision boundary (norm balls,
annuli, products of affine forms).  A conventional neuron is the usual
inner product plus bias, and a passthrough neuron copies one coordinate of
its input unchanged (used to carry channels through deep constructions).

A net stores its neurons as the columns of its layer blocks (see network);
the objects here are a read-only view of them, made by net.layers, which
alone knows the block layout, and the per-neuron oracle evaluates them.  All
arithmetic is float64.  Functions accept either a single input vector of
shape (n,) or a batch of shape (B, n); complex input is refused by name.

The package's one rule for its arguments lives here too.  A scalar goes
through _integer(value, name, low), an integer >= low, or _finite(value,
name, positive), a finite real number, > 0 where positive is set, and so
does each value a caller's target function returns ("f values").  An
array goes through _real(values, name, finite), with finite set for every
array a construction is built from.  A bool, a string, a complex number,
a NaN, an infinity and an integer past the float64 range are refused with
a ValueError naming the argument, never read as 0 and 1, parsed or cast;
numpy's scalars pass with their values and bits unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from numbers import Integral, Real
from typing import ClassVar

import numpy as np


def relu(z):
    """max(0, z), elementwise."""
    return np.maximum(0.0, z)


def relu_prime(z):
    """Derivative of relu; the kink at 0 takes the value 0."""
    return np.where(z > 0.0, 1.0, 0.0)


def _real(values, name: str, finite: bool = False) -> np.ndarray:
    """values as a float64 array; complex values raise ValueError naming
    them, where the cast would drop their imaginary parts, and so does any
    other dtype than bool, integer and float (objects, strings, dates),
    which the cast would read as NaN or parse, and, where finite is set, a
    NaN or an infinity."""
    array = np.asarray(values)
    kind = array.dtype.kind
    if kind not in "biuf":
        if kind == "c":
            raise ValueError(f"{name} must be real, got complex values")
        raise ValueError(f"{name} must be real numbers, got dtype {array.dtype}")
    array = array.astype(np.float64, copy=False)
    if finite and not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite, got {array.tolist()}")
    return array


def _integer(value, name: str, low: int, high: int | None = None):
    """value, an integer (numpy's included) >= low, and <= high where high is
    given, else ValueError naming it: a bool, a float such as 2.0 or anything
    else.  A count sets high so that what it sizes is refused before it is
    allocated.  No numpy call, and a plain int skips the Integral test, an
    ABC check that costs about 0.6 µs."""
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be <= {high}, got {value}")
    return value


def _finite(value, name: str, positive: bool = False) -> float:
    """value, a finite real number (numpy's included), as a float, else
    ValueError naming it.  A bool or a string is refused rather than read as
    0 and 1 or parsed, and so are a NaN, an infinity, an integer past the
    float64 range and, where positive is set, a value <= 0.  A plain float
    skips the Real test, an ABC check that costs about 1 µs."""
    if type(value) is not float and (isinstance(value, bool)
                                     or not isinstance(value, Real)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    must = f"{name} must be {'positive and ' * positive}finite"
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{must}, got a number past the float64 range") from None
    if not (isfinite(number) and (number > 0 or not positive)):
        raise ValueError(f"{must}, got {value}")
    return number


def _as_weight(v, name: str) -> np.ndarray:
    w = _real(v, name)
    if w.ndim != 1 or w.size < 1:
        raise ValueError("weight vector must be 1-D with length >= 1")
    return w


@dataclass
class QuadraticNeuron:
    """Second-order unit with two affine factors plus a square term.

    Its canonical parameters, in order, are (w_r, b_r, w_g, b_g, w_b, c):
    3n + 3 entries for input length n.
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


@dataclass
class PassthroughNeuron:
    """Copies input coordinate `index`; carries no parameters."""

    kind: ClassVar[str] = "passthrough"
    index: int

    def __post_init__(self):
        self.index = _integer(self.index, "passthrough index", 0)


def _check_input(n: int, x) -> np.ndarray:
    x = _real(x, "x")
    if x.shape[-1] != n:
        raise ValueError(f"input has width {x.shape[-1]}, neuron expects {n}")
    return x


def quad_preactivation(neuron: QuadraticNeuron, x) -> float | np.ndarray:
    """(w_r.x + b_r)(w_g.x + b_g) + w_b.(x*x) + c for one vector or a batch."""
    x = _check_input(neuron.input_dim, x)
    p = x @ neuron.w_r + neuron.b_r
    q = x @ neuron.w_g + neuron.b_g
    s = (x * x) @ neuron.w_b
    return p * q + (s + neuron.c)


def conv_preactivation(neuron: ConventionalNeuron, x) -> float | np.ndarray:
    """w.x + b for one vector or a batch."""
    x = _check_input(neuron.input_dim, x)
    return x @ neuron.w + neuron.b


def preactivation(neuron, x) -> float | np.ndarray:
    """Dispatch on neuron kind; passthrough copies its source coordinate."""
    if isinstance(neuron, QuadraticNeuron):
        return quad_preactivation(neuron, x)
    if isinstance(neuron, ConventionalNeuron):
        return conv_preactivation(neuron, x)
    x = _real(x, "x")
    if neuron.index >= x.shape[-1]:
        raise ValueError(
            f"passthrough index {neuron.index} out of range for width {x.shape[-1]}"
        )
    return x[..., neuron.index]
