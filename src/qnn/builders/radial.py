"""Constructive networks for radial targets f(||x||).

Two constructions live here.  The shallow one places ReLU knots in
u = ||x||^2 and reproduces the piecewise-linear interpolant of an
L-Lipschitz target, one quadratic neuron per knot.  The deep one stacks
three-layer "truncated parabola" modules, one per interval of a piecewise
constant profile, never exceeding four neurons per layer: a working channel,
the squared norm carried forward, and two running sums holding the positive
and negative plateau contributions, combined as their difference at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..network import NetworkSpec, block_rows, forward_batch
from ..neurons import _finite, _real
from .factorization import _constant_net, _frozen


@dataclass
class RadialPartition:
    """Strictly increasing breakpoints, one signed height per interval.

    delta in (0, 1/2) controls how sharp each module's ramps are; smaller
    delta means a wider exact plateau and a smaller L1 gap to the step
    profile.
    """

    breakpoints: np.ndarray
    heights: np.ndarray
    delta: float

    def __post_init__(self):
        self.breakpoints = _real(self.breakpoints, "breakpoints", finite=True)
        self.heights = _real(self.heights, "heights", finite=True)
        self.delta = _finite(self.delta, "delta")
        if self.breakpoints.ndim != 1 or len(self.breakpoints) < 2:
            raise ValueError("need at least two breakpoints")
        if self.breakpoints[0] < 0.0:
            raise ValueError("breakpoints must be non-negative")
        if np.any(np.diff(self.breakpoints) <= 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        if len(self.heights) != len(self.breakpoints) - 1:
            raise ValueError("need one height per interval")
        if not 0.0 < self.delta < 0.5:
            raise ValueError(f"delta must lie in (0, 1/2), got {self.delta:g}")
        for a_lo, a_hi, b in zip(self.breakpoints, self.breakpoints[1:], self.heights):
            _module_scale(float(a_lo), float(a_hi), float(b), self.delta)

    @property
    def intervals(self) -> int:
        return len(self.heights)

    def step_profile(self, t) -> np.ndarray:
        """The piecewise-constant target the construction approximates;
        complex or non-numeric t is refused by name."""
        t = _real(t, "t")
        out = np.zeros_like(t)
        for i, b in enumerate(self.heights):
            lo, hi = self.breakpoints[i], self.breakpoints[i + 1]
            out = np.where((t >= lo) & (t <= hi), b, out)
        return out


def delta_for_target_error(breakpoints, heights, eps: float = 0.1) -> float:
    """Ramp sharpness needed for an L1 error budget of eps.

    Uses the budget split delta = eps / (4 C) where C is the total mass
    sum |b_i| * (interval length); the result is clipped into (0, 1/2).
    Non-finite breakpoints or heights are refused by name.
    """
    eps = _finite(eps, "eps", positive=True)
    bp = _real(breakpoints, "breakpoints", finite=True)
    hs = _real(heights, "heights", finite=True)
    mass = float(np.sum(np.abs(hs) * np.diff(bp)))
    if mass <= 0.0:
        return 0.25
    return min(eps / (4.0 * mass), 0.499)


def radial_profile(net: NetworkSpec, ts) -> np.ndarray:
    """Evaluate a radial network along the ray x = (t, 0, ..., 0)."""
    ts = _real(ts, "ts")
    X = np.zeros((ts.size, net.input_dim))
    X[:, 0] = ts.ravel()
    return forward_batch(net, X)[:, 0].reshape(ts.shape)


# ---------------------------------------------------------------------------
# Shallow construction
# ---------------------------------------------------------------------------

# The most hidden units build_shallow_radial makes: at input_dim 2 that net
# takes 92 MiB of params, 417 MiB peak RSS and 1.1 s to build.
_MAX_SHALLOW_UNITS = 10**6


def build_shallow_radial(f, r: float, R: float, L: float, delta: float,
                         input_dim: int = 1) -> NetworkSpec:
    """One hidden layer computing a + sum_i alpha_i relu(||x||^2 - gamma_i).

    f must be L-Lipschitz on [r, R] and constant outside it.  Knots are
    placed at floor((R-r)L/delta) equal steps in t; the output weights are
    the slope differences of the interpolant in u = t^2, so the network
    passes through f at every knot, is flat outside [r, R], and stays within
    delta of f everywhere.  Hidden width is exactly floor((R-r)L/delta) + 1,
    and more than 10^6 hidden units are refused before any is made, as is a
    non-finite r or R, an L or delta that is not positive and finite, and a
    value of f that is not a finite real number ("f values").

    If (R-r)L < delta the residual is below the budget already and the
    constant network a = f(r) with zero hidden units is returned.
    """
    r, R = _finite(r, "r"), _finite(R, "R")
    L, delta = _finite(L, "L", positive=True), _finite(delta, "delta", positive=True)
    if r >= R:
        raise ValueError("need r < R")
    if r < 0.0:
        raise ValueError("need r >= 0 (knots live on t = ||x|| >= 0)")

    a = _finite(f(r), "f values")
    if (R - r) * L < delta:
        return _constant_net(input_dim, a)

    segments = (R - r) * L / delta
    if segments >= _MAX_SHALLOW_UNITS:  # floor(segments) + 1 units
        raise ValueError(f"(R - r) L / delta = {segments:.6g} asks for more than "
                         f"{_MAX_SHALLOW_UNITS} hidden units")
    segments = int(np.floor(segments))
    knots_t = np.linspace(r, R, segments + 1)
    knots_u = knots_t**2
    values = np.array([_finite(f(t), "f values") for t in knots_t])
    slopes = np.diff(values) / np.diff(knots_u)
    padded = np.concatenate([[0.0], slopes, [0.0]])
    alphas = np.diff(padded)  # one slope change per knot, flat outside [r, R]

    # hidden neuron i is ||x||^2 - u_i through the square term alone
    net = NetworkSpec.blank(input_dim, [("relu", ["quadratic"] * len(knots_u)),
                                        ("identity", ["conventional"])])
    hidden, out = net.blocks
    rows = block_rows(input_dim)
    hidden[rows.w_b] = 1.0
    hidden[rows.c] = -knots_u
    rows = block_rows(len(knots_u))
    out[rows.w_r, 0] = alphas
    out[rows.b_r, 0] = a
    return _frozen(net)


# ---------------------------------------------------------------------------
# Deep construction
# ---------------------------------------------------------------------------


def _module_scale(a_lo: float, a_hi: float, b: float, delta: float) -> float:
    """|b| / C, the working neuron's scale, C the normalizer making the
    quartic ramp reach 1 at the plateau edge.

    Raises ValueError when delta is too small for the interval: C is not a
    positive normal float (a_lo + delta (a_hi - a_lo) rounds onto a_lo, or
    C underflows) or |b| / C overflows.
    """
    edge = (a_lo + delta * (a_hi - a_lo)) ** 2
    C = (edge - a_lo**2) * (a_hi**2 - edge)
    if C >= np.finfo(np.float64).tiny:
        scale = abs(b) / C
        if np.isfinite(scale):
            return scale
    raise ValueError(
        f"delta {delta:g} is too small for the interval [{a_lo:g}, {a_hi:g}] "
        f"with height {b:g}: the ramp normalizer C = {C:g} or |b| / C is out "
        "of the float64 range"
    )


def plateau_interval(a_lo: float, a_hi: float, delta: float) -> tuple[float, float]:
    """The t-interval on which the module output equals its height exactly."""
    a_lo, a_hi, delta = _finite(a_lo, "a_lo"), _finite(a_hi, "a_hi"), _finite(delta, "delta")
    lo = a_lo + delta * (a_hi - a_lo)
    hi = float(np.sqrt(a_hi**2 + a_lo**2 - lo**2))
    return lo, hi


def _write_working_neuron(block: np.ndarray, s_index: int, a_lo: float,
                          a_hi: float, scale: float) -> None:
    """Column 0 of block becomes h = scale * (s - a_lo^2) * (a_hi^2 - s),
    s read off channel s_index."""
    rows = block_rows(len(block) // 3 - 1)
    block[rows.w_r, 0][s_index] = scale
    block[rows.b_r, 0] = -scale * a_lo**2
    block[rows.w_g, 0][s_index] = -1.0
    block[rows.b_g, 0] = a_hi**2


def build_parabola_module(a_lo: float, a_hi: float, b: float, delta: float,
                          input_dim: int = 1) -> NetworkSpec:
    """Three-layer ReLU composition producing one truncated-parabola bump.

    On t = ||x|| the output is (b/C) (t^2 - a_lo^2)(a_hi^2 - t^2) on the two
    ramps, exactly b on the plateau between them, and 0 outside [a_lo, a_hi],
    with C chosen so the ramp reaches b at the plateau edges.  For b < 0 the
    last neuron folds in the sign with identity activation (its
    pre-activation is non-negative by construction, so for b >= 0 the ReLU
    there is a no-op and the printed composition is kept verbatim).
    """
    a_lo, a_hi, b = _finite(a_lo, "a_lo"), _finite(a_hi, "a_hi"), _finite(b, "b")
    delta = _finite(delta, "delta")
    if not 0.0 <= a_lo < a_hi:
        raise ValueError("need 0 <= a_lo < a_hi")
    if not 0.0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")

    bmag = abs(b)
    scale = _module_scale(a_lo, a_hi, bmag, delta)
    last = "relu" if b >= 0 else "identity"
    net = NetworkSpec.blank(input_dim, [("relu", ["quadratic"]), ("relu", ["quadratic"]),
                                        ("relu", ["conventional"]),
                                        (last, ["conventional"])])
    norm, work, clip, out = net.blocks
    norm[block_rows(input_dim).w_b] = 1.0
    _write_working_neuron(work, 0, a_lo, a_hi, scale)
    clip[:2, 0] = -1.0, bmag
    out[:2, 0] = (-1.0, bmag) if b >= 0 else (1.0, -bmag)
    return _frozen(net)


def build_deep_radial(partition: RadialPartition, input_dim: int) -> NetworkSpec:
    """Stack one truncated-parabola module per interval, four neurons a layer.

    Channel layout inside the stack: [working, s = ||x||^2, K+, K-].  Each
    module's finished bump is folded into K+ or K- (by the sign of its
    height) at the next module's first layer; the identity-activation output
    neuron returns K+ - K-.  Depth is 3 * intervals module layers plus the
    input (squared norm) and output stages.
    """
    if not isinstance(partition, RadialPartition):
        raise ValueError("expected a RadialPartition")
    m = partition.intervals
    if m < 1:
        raise ValueError("partition must contain at least one interval")

    # a module: the working neuron, s passed through and the two sums, then
    # two layers clipping the working channel at the height, s, K+ and K-
    # passed through
    layers = [("relu", ["quadratic"])]
    for i in range(m):
        s_index = 0 if i == 0 else 1
        layers.append(("relu", ["quadratic", s_index, "conventional", "conventional"]))
        layers += [("relu", ["conventional", 1, 2, 3])] * 2
    layers.append(("identity", ["conventional"]))
    net = NetworkSpec.blank(input_dim, layers)
    blocks = net.blocks
    blocks[0][block_rows(input_dim).w_b] = 1.0
    rows = block_rows(4)  # the fan-in of every later layer
    for i in range(m):
        a_lo = float(partition.breakpoints[i])
        a_hi = float(partition.breakpoints[i + 1])
        bmag = abs(float(partition.heights[i]))
        scale = _module_scale(a_lo, a_hi, bmag, partition.delta)

        first = blocks[1 + 3 * i]
        _write_working_neuron(first, 0 if i == 0 else 1, a_lo, a_hi, scale)
        if i > 0:  # K+ and K- carry on, one of them taking the last bump
            first[rows.w_r, 2][2] = 1.0
            first[rows.w_r, 3][3] = 1.0
            first[rows.w_r, 2 if partition.heights[i - 1] >= 0 else 3][0] = 1.0
        for clip in blocks[2 + 3 * i : 4 + 3 * i]:
            clip[rows.w_r, 0][0] = -1.0
            clip[rows.b_r, 0] = bmag

    sign = 1.0 if partition.heights[-1] >= 0 else -1.0
    blocks[-1][rows.w_r, 0] = sign, 0.0, 1.0, -1.0
    return _frozen(net)
