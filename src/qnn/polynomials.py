"""Univariate polynomials and their real factorizations.

A real polynomial of degree N splits over the reals into linear factors for
its real roots and monic quadratic factors x^2 + a x + b for each complex
conjugate pair, with l1 + 2*l2 = N.  factor_polynomial computes that split
numerically: companion-matrix eigenvalues, a few Newton polish steps, then a
re-expansion residual check that fails loudly instead of returning garbage.
The polish gives the bits that numpy complex128 scalars would, in plain
Python numbers.  Horner runs over lists of the coefficients in Python
complex arithmetic, whose * and + round as numpy's do.  A Newton step
divides by numpy's complex rule written out in floats (_quotient), since
Python's a / b rounds differently in the last bits; only a step from a
float64 eigenvalue (numpy returns real eigenvalues as float64 when all of
them are real) divides as Python does, as a float64 scalar would.  Each
conjugate pair is polished once: the root below the real axis takes the
conjugate of its partner's polish.  That is exact because LAPACK returns
the complex eigenvalues of a real matrix as conjugate pairs, and with real
coefficients Horner, the division and abs are mirror images at the
conjugate.  Both hold up to the sign of a zero, so a partner whose polish
has a zero real part is not taken (see _polish_roots).

bernstein_coeffs expands the degree-n Bernstein approximant of a function on
[0, 1] into monomial coefficients exactly, as integer forward differences
over a common denominator, so the only rounding comes from the sampled
function values and one correctly rounded division per coefficient.  Its
coefficient of x^k is C(n,k) * Delta^k f(0), the k-th forward difference of
the samples f(m/n):
expanding (1-x)^(n-m) gives sum_m f(m/n) C(n,m) C(n-m,k-m) (-1)^(k-m), and
C(n,m) C(n-m,k-m) = C(n,k) C(k,m) turns that sum into C(n,k) times
sum_m C(k,m) (-1)^(k-m) f(m/n) = Delta^k f(0).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, inf, lcm
from operator import truediv

import numpy as np

from .network import _field, _numbers
from .neurons import _finite, _integer, _real

_REL_TOL = 1e-8  # the re-expansion residual at which factor_polynomial refuses


class FactorizationError(RuntimeError):
    """Root finding failed to reproduce the input coefficients.

    Carries the relative re-expansion residual that triggered the failure,
    or None for a structural refusal made before any re-expansion.
    """

    def __init__(self, message: str, residual: float | None = None):
        if residual is not None:
            message = f"{message} (relative residual {residual:.3e})"
        super().__init__(message)
        self.residual = residual


@dataclass
class Polynomial:
    """Coefficients lowest degree first, all finite; exact trailing zeros are trimmed."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(_real(self.coeffs, "coeffs", finite=True))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a non-empty 1-D sequence")
        last = c.size - 1
        while last > 0 and c[last] == 0.0:
            last -= 1
        self.coeffs = c[: last + 1].copy()

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def to_json(self) -> str:
        return json.dumps({"coeffs": self.coeffs.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "Polynomial":
        """Parse what to_json writes; a malformed document raises ValueError."""
        return cls(_numbers(json.loads(text), "coeffs"))


@dataclass
class FactoredForm:
    """scale * prod(x - x_i) * prod(x^2 + a_j x + b_j).

    Every number is finite.  Quadratic factors normally hold complex
    conjugate root pairs (negative discriminant); a factor may instead merge
    two real roots when the corresponding paired_real flag is set.
    """

    scale: float
    linear_roots: list[float] = field(default_factory=list)
    quadratic_factors: list[tuple[float, float]] = field(default_factory=list)
    paired_real: list[bool] | None = None

    def __post_init__(self):
        self.scale = _finite(self.scale, "scale")
        self.linear_roots = [_finite(r, "linear_roots") for r in self.linear_roots]
        self.quadratic_factors = [
            (_finite(a, "quadratic_factors"), _finite(b, "quadratic_factors"))
            for a, b in self.quadratic_factors
        ]
        if self.paired_real is None:
            self.paired_real = [False] * len(self.quadratic_factors)
        if not all(isinstance(flag, (bool, np.bool_)) for flag in self.paired_real):
            raise ValueError(
                f"'paired_real' must hold true or false only, got {self.paired_real!r}")
        self.paired_real = [bool(flag) for flag in self.paired_real]
        if len(self.paired_real) != len(self.quadratic_factors):
            raise ValueError("paired_real must parallel quadratic_factors")
        for (a, b), paired in zip(self.quadratic_factors, self.paired_real):
            if not paired and a * a - 4.0 * b >= 0.0:
                raise ValueError(
                    f"quadratic factor ({a}, {b}) has non-negative discriminant "
                    "but is not flagged as a paired-real factor"
                )

    @property
    def degree(self) -> int:
        return len(self.linear_roots) + 2 * len(self.quadratic_factors)

    @property
    def factor_count(self) -> int:
        return len(self.linear_roots) + len(self.quadratic_factors)

    def to_json(self) -> str:
        return json.dumps(
            {
                "scale": self.scale,
                "linear_roots": self.linear_roots,
                "quadratic_factors": [list(q) for q in self.quadratic_factors],
                "paired_real": self.paired_real,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FactoredForm":
        """Parse what to_json writes; a malformed document raises ValueError."""
        doc = json.loads(text)
        scale = _field(doc, "scale", float)
        roots = _numbers(doc, "linear_roots")
        quadratics = _numbers(doc, "quadratic_factors", 2)
        paired = _field(doc, "paired_real", list)
        return cls(scale, list(roots), [tuple(q) for q in quadratics], paired)


def _companion_matrix(monic: np.ndarray) -> np.ndarray:
    """Companion matrix of a monic polynomial given non-leading coefficients."""
    n = len(monic)
    m = np.zeros((n, n))
    m[1:, :-1] = np.eye(n - 1)
    m[:, -1] = -monic
    return m


def _poly_val(coeffs: list[float], z: complex) -> complex:
    """p(z) by Horner, coeffs highest degree first, in Python complex
    arithmetic, whose * and + round as numpy's complex128 ones do."""
    acc = 0j
    for c in coeffs:
        acc = acc * z + c
    return acc


def _quotient(a: complex, b: complex) -> complex:
    """a / b by numpy's complex128 rule, for b != 0: Smith's division with
    one reciprocal, which rounds unlike Python's a / b.  It raises
    ZeroDivisionError at b = NaN + 0j, which no Horner sum is."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    if abs(br) >= abs(bi):
        rat = bi / br
        scl = 1.0 / (br + bi * rat)
        return complex((ar + ai * rat) * scl, (ai - ar * rat) * scl)
    rat = br / bi
    scl = 1.0 / (bi + br * rat)
    return complex((ar * rat + ai) * scl, (ai * rat - ar) * scl)


def _magnitude(z: complex) -> float:
    """abs(z), or inf where that overflows, as numpy's abs gives."""
    try:
        return abs(z)
    except OverflowError:
        return inf


def _newton_polish(coeffs: list[float], deriv: list[float], z: float | complex):
    """Up to three Newton steps from the eigenvalue z on p (coeffs) with p'
    (deriv), both highest degree first; returns the iterate with the
    smallest |p|, z itself if none is smaller.  Each iterate's p(z) is
    evaluated once and carried into the next step.  A step from a float
    divides as Python does, every other one by _quotient.  The polish stops
    at an iterate equal to the one before it, made by _quotient: each later
    step gives that number again, up to the sign of a zero, which changes
    no |p| (see _polish_roots), and its |p| is already weighed."""
    best, zc = z, complex(z)
    pz = _poly_val(coeffs, zc)
    best_val = _magnitude(pz)
    divide = truediv if isinstance(z, float) else _quotient
    for _ in range(3):
        dp = _poly_val(deriv, zc)
        if dp == 0:
            break
        step = zc - divide(pz, dp)
        if divide is _quotient and step == zc:
            break
        divide, zc = _quotient, step
        pz = _poly_val(coeffs, zc)
        val = _magnitude(pz)
        if val < best_val:
            best, best_val = zc, val
    return best


def _polish_roots(coeffs: list[float], deriv: list[float], roots: np.ndarray) -> np.ndarray:
    """The eigenvalues roots, each after _newton_polish on p (coeffs) with p'
    (deriv), both highest degree first.

    A root below the real axis whose conjugate came before it takes the
    conjugate of that root's polish, unless that polish has a zero real
    part.  This is exact.  LAPACK returns the complex eigenvalues of a real
    matrix as conjugate pairs, up to the sign of a zero real part (numpy
    gives x^2 + 1 the roots i and -0 - i).  With real coefficients, Horner,
    _quotient, abs and the comparisons are mirror images at the conjugate,
    up to the sign of a zero: x - x is +0 on both sides.  As no step
    divides by a zero, such a sign reaches no part that is not zero.  So
    the root's own polish has the same |imaginary part| and, unless it is
    zero, the same real part bit for bit, and factor_polynomial reads no
    more of it.
    """
    polished = {}
    out = []
    for z in roots.tolist():
        twin = polished.get(z.conjugate()) if z.imag < 0 else None
        if twin is not None and twin.real:
            out.append(twin.conjugate())
        else:
            out.append(_newton_polish(coeffs, deriv, z))
            polished[z] = out[-1]
    return np.array(out)


# Inputs near the float64 limit overflow in the monic division, the Newton
# polish and the residual; the checks on their outcome refuse such inputs,
# so numpy's warnings on the way are silenced.
@np.errstate(all="ignore")
def factor_polynomial(p: Polynomial, pair_real_roots: bool = False) -> FactoredForm:
    """Split a real polynomial into real linear and quadratic factors.

    Roots come from companion-matrix eigenvalues with Newton polish; a root
    counts as real when |Im z| < 1e-9 * (1 + |z|).  With pair_real_roots,
    leftover real roots are merged pairwise into real-discriminant quadratic
    factors (flagged), which balances the downstream product tree.

    Raises ValueError for degree 0 and FactorizationError when re-expanding
    the factors misses the input coefficients by 1e-8 relative or more, when
    a complex pair, as from a repeated real root, makes a factor whose
    discriminant is not negative, or when the monic coefficients or a
    factor overflow float64.
    """
    from .oracles import expand_factored

    coeffs = p.coeffs
    n = p.degree
    if n < 1:
        raise ValueError("cannot factor a polynomial of degree 0")
    scale = coeffs[-1]
    monic = coeffs[:-1] / scale
    if not np.isfinite(monic).all():
        raise FactorizationError("the monic coefficients overflow float64")
    descending = coeffs[::-1].tolist()
    deriv = (coeffs[1:] * np.arange(1, len(coeffs)))[::-1].tolist()
    roots = _polish_roots(descending, deriv, np.linalg.eigvals(_companion_matrix(monic)))

    real_tol = 1e-9 * (1.0 + np.abs(roots))
    real_roots = sorted(roots[np.abs(roots.imag) < real_tol].real)
    complex_roots = roots[np.abs(roots.imag) >= real_tol]
    upper = sorted(
        (z for z in complex_roots if z.imag > 0), key=lambda z: (z.real, z.imag)
    )
    if 2 * len(upper) != len(complex_roots):
        raise FactorizationError("complex roots did not pair into conjugates")

    quads = [(-2.0 * z.real, float(abs(z) ** 2)) for z in upper]
    for a, b in quads:
        # a repeated real root can split into such a pair
        if a * a - 4.0 * b >= 0.0:
            raise FactorizationError(
                f"complex root pair gives factor x^2 + {a:.17g} x + {b:.17g} "
                "with a non-negative discriminant")
    paired = [False] * len(quads)
    if pair_real_roots:
        while len(real_roots) >= 2:
            r1, r2 = real_roots.pop(), real_roots.pop()
            quads.append((-(r1 + r2), r1 * r2))
            paired.append(True)

    try:
        form = FactoredForm(
            scale=float(scale),
            linear_roots=list(real_roots),
            quadratic_factors=quads,
            paired_real=paired,
        )
        rebuilt = expand_factored(form).coeffs
    except ValueError:  # a factor or a coefficient of their product is not finite
        raise FactorizationError("the factors overflow float64") from None
    if form.degree != n:
        raise FactorizationError("factor degrees do not sum to the input degree")
    if len(rebuilt) != len(coeffs):
        raise FactorizationError("re-expansion changed the degree", float("inf"))
    residual = float(
        np.max(np.abs(rebuilt - coeffs)) / (1.0 + np.max(np.abs(coeffs)))
    )
    if not residual < _REL_TOL:
        raise FactorizationError("re-expansion residual too large", residual)
    return form


def _sample_exact(f, m: int, n: int) -> Fraction:
    """f(m/n) as an exact rational where the callable allows it, else by the scalar rule."""
    try:
        value = f(Fraction(m, n))
    except (TypeError, AttributeError):
        value = f(m / n)
    if isinstance(value, Fraction):
        return value
    return Fraction(_finite(value, "f values"))


def bernstein_coeffs(f, n: int) -> Polynomial:
    """Monomial coefficients of sum_m f(m/n) C(n,m) x^m (1-x)^(n-m).

    The coefficient of x^k is C(n,k) times the k-th forward difference of
    the samples at 0 (see the module docstring), taken exactly as integer
    forward differences over a common denominator; f is sampled at exact
    rationals m/n whenever it tolerates Fraction inputs, so polynomial
    targets expand without rounding at any n.  Coefficients tiny relative
    to the largest one (below 1e-12 relative) are zeroed: for float-valued
    targets they are sampling noise amplified by the binomials and would
    otherwise inflate the degree.
    Raises ValueError when an exact coefficient is beyond the float64
    range, and naming "f values" when a sample is neither a Fraction nor a
    finite real number.
    """
    _integer(n, "Bernstein degree n", 1)
    samples = [_sample_exact(f, m, n) for m in range(n + 1)]
    # the samples as integers over one common denominator
    denominator = lcm(*(s.denominator for s in samples))
    diffs = [s.numerator * (denominator // s.denominator) for s in samples]
    coeffs = []
    for k in range(n + 1):
        coeffs.append(comb(n, k) * diffs[0])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    try:
        # int / int is correctly rounded, as float(Fraction) is
        out = np.array([c / denominator for c in coeffs])
    except OverflowError:
        raise ValueError(
            f"Bernstein degree n={n}: a monomial coefficient exceeds the "
            "float64 range"
        ) from None
    biggest = np.max(np.abs(out))
    if biggest > 0.0:
        out[np.abs(out) < 1e-12 * biggest] = 0.0
    return Polynomial(out)
