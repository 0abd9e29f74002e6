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

from ..network import LayerSpec, NetworkSpec, forward_batch
from ..neurons import ConventionalNeuron, PassthroughNeuron, QuadraticNeuron
from .factorization import _frozen


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
        self.breakpoints = np.asarray(self.breakpoints, dtype=np.float64)
        self.heights = np.asarray(self.heights, dtype=np.float64)
        self.delta = float(self.delta)
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
        """The piecewise-constant target the construction approximates."""
        t = np.asarray(t, dtype=np.float64)
        out = np.zeros_like(t)
        for i, b in enumerate(self.heights):
            lo, hi = self.breakpoints[i], self.breakpoints[i + 1]
            out = np.where((t >= lo) & (t <= hi), b, out)
        return out


def delta_for_target_error(breakpoints, heights, eps: float = 0.1) -> float:
    """Ramp sharpness needed for an L1 error budget of eps.

    Uses the budget split delta = eps / (4 C) where C is the total mass
    sum |b_i| * (interval length); the result is clipped into (0, 1/2).
    """
    bp = np.asarray(breakpoints, dtype=np.float64)
    hs = np.asarray(heights, dtype=np.float64)
    mass = float(np.sum(np.abs(hs) * np.diff(bp)))
    if mass <= 0.0:
        return 0.25
    return min(eps / (4.0 * mass), 0.499)


def radial_profile(net: NetworkSpec, ts) -> np.ndarray:
    """Evaluate a radial network along the ray x = (t, 0, ..., 0)."""
    ts = np.asarray(ts, dtype=np.float64)
    X = np.zeros((ts.size, net.input_dim))
    X[:, 0] = ts.ravel()
    return forward_batch(net, X)[:, 0].reshape(ts.shape)


def _norm_neuron(input_dim: int, c: float = 0.0) -> QuadraticNeuron:
    """h(x) = ||x||^2 + c via the square term alone."""
    zeros = np.zeros(input_dim)
    return QuadraticNeuron(
        w_r=zeros, b_r=0.0, w_g=zeros.copy(), b_g=0.0,
        w_b=np.ones(input_dim), c=c,
    )


# ---------------------------------------------------------------------------
# Shallow construction
# ---------------------------------------------------------------------------


def build_shallow_radial(f, r: float, R: float, L: float, delta: float,
                         input_dim: int = 1) -> NetworkSpec:
    """One hidden layer computing a + sum_i alpha_i relu(||x||^2 - gamma_i).

    f must be L-Lipschitz on [r, R] and constant outside it.  Knots are
    placed at floor((R-r)L/delta) equal steps in t; the output weights are
    the slope differences of the interpolant in u = t^2, so the network
    passes through f at every knot, is flat outside [r, R], and stays within
    delta of f everywhere.  Hidden width is exactly floor((R-r)L/delta) + 1.

    If (R-r)L < delta the residual is below the budget already and the
    constant network a = f(r) with zero hidden units is returned.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if r >= R:
        raise ValueError("need r < R")
    if r < 0.0:
        raise ValueError("need r >= 0 (knots live on t = ||x|| >= 0)")
    if L <= 0.0:
        raise ValueError("Lipschitz constant must be positive")

    a = float(f(r))
    if (R - r) * L < delta:
        out = ConventionalNeuron(w=np.zeros(input_dim), b=a)
        return _frozen(NetworkSpec(input_dim, [LayerSpec([out], "identity")]))

    segments = int(np.floor((R - r) * L / delta))
    knots_t = np.linspace(r, R, segments + 1)
    knots_u = knots_t**2
    values = np.array([float(f(t)) for t in knots_t])
    slopes = np.diff(values) / np.diff(knots_u)
    padded = np.concatenate([[0.0], slopes, [0.0]])
    alphas = np.diff(padded)  # one slope change per knot, flat outside [r, R]

    hidden = [_norm_neuron(input_dim, -gamma) for gamma in knots_u]
    out = ConventionalNeuron(w=alphas, b=a)
    return _frozen(
        NetworkSpec(
            input_dim,
            [LayerSpec(hidden, "relu"), LayerSpec([out], "identity")],
        )
    )


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
    lo = a_lo + delta * (a_hi - a_lo)
    hi = float(np.sqrt(a_hi**2 + a_lo**2 - lo**2))
    return lo, hi


def _module_working_neuron(s_index: int, prev_width: int, a_lo: float,
                           a_hi: float, scale: float) -> QuadraticNeuron:
    """h = scale * (s - a_lo^2) * (a_hi^2 - s) read off channel s_index."""
    w_r = np.zeros(prev_width)
    w_r[s_index] = scale
    w_g = np.zeros(prev_width)
    w_g[s_index] = -1.0
    return QuadraticNeuron(
        w_r=w_r, b_r=-scale * a_lo**2,
        w_g=w_g, b_g=a_hi**2,
        w_b=np.zeros(prev_width), c=0.0,
    )


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
    if not 0.0 <= a_lo < a_hi:
        raise ValueError("need 0 <= a_lo < a_hi")
    if not 0.0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")

    bmag = abs(float(b))
    scale = _module_scale(a_lo, a_hi, bmag, delta)
    layers = [
        LayerSpec([_norm_neuron(input_dim)], "relu"),
        LayerSpec([_module_working_neuron(0, 1, a_lo, a_hi, scale)], "relu"),
        LayerSpec([ConventionalNeuron(w=np.array([-1.0]), b=bmag)], "relu"),
    ]
    if b >= 0:
        layers.append(LayerSpec([ConventionalNeuron(w=np.array([-1.0]), b=bmag)],
                                "relu"))
    else:
        layers.append(LayerSpec([ConventionalNeuron(w=np.array([1.0]), b=-bmag)],
                                "identity"))
    return _frozen(NetworkSpec(input_dim, layers))


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

    layers = [LayerSpec([_norm_neuron(input_dim)], "relu")]
    for i in range(m):
        a_lo = float(partition.breakpoints[i])
        a_hi = float(partition.breakpoints[i + 1])
        bmag = abs(float(partition.heights[i]))
        scale = _module_scale(a_lo, a_hi, bmag, partition.delta)

        prev_width = 1 if i == 0 else 4
        s_index = 0 if i == 0 else 1
        work = _module_working_neuron(s_index, prev_width, a_lo, a_hi, scale)

        w_plus = np.zeros(prev_width)
        w_minus = np.zeros(prev_width)
        if i > 0:
            w_plus[2] = 1.0
            w_minus[3] = 1.0
            if partition.heights[i - 1] >= 0:
                w_plus[0] = 1.0
            else:
                w_minus[0] = 1.0
        layers.append(
            LayerSpec(
                [
                    work,
                    PassthroughNeuron(s_index),
                    ConventionalNeuron(w=w_plus, b=0.0),
                    ConventionalNeuron(w=w_minus, b=0.0),
                ],
                "relu",
            )
        )
        for _ in range(2):
            clip = np.zeros(4)
            clip[0] = -1.0
            layers.append(
                LayerSpec(
                    [
                        ConventionalNeuron(w=clip, b=bmag),
                        PassthroughNeuron(1),
                        PassthroughNeuron(2),
                        PassthroughNeuron(3),
                    ],
                    "relu",
                )
            )

    w_out = np.zeros(4)
    w_out[0] = 1.0 if partition.heights[-1] >= 0 else -1.0
    w_out[2] = 1.0
    w_out[3] = -1.0
    layers.append(LayerSpec([ConventionalNeuron(w=w_out, b=0.0)], "identity"))
    return _frozen(NetworkSpec(input_dim, layers))
