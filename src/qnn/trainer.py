"""Full-batch gradient descent over masked network parameters.

Plain fixed-step descent, no momentum or minibatching: reproducibility over
speed.  Restarts draw independent initialisations from a seeded generator
and train side by side on the restart axis of one PackedNetwork: theta is an
(R, T) array updated in place, one fused forward and backward pass per step
covers every restart, and no NetworkSpec is built until the steps end.  A
restart whose loss turns non-finite is masked out; ``train`` keeps the one
with the lowest final loss, earliest on ties.  Parameters whose mask is
false are never touched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import NetworkSpec, PackedNetwork, forward_batch, set_trainable_values
from .neurons import _finite, _integer, _real
from .oracles import horner
from .polynomials import Polynomial

LOSSES = ("mse", "sse", "logistic")


class TrainingError(RuntimeError):
    """Every restart diverged to a non-finite loss."""


@dataclass
class TrainConfig:
    loss: str = "mse"
    learning_rate: float = 1e-2
    iterations: int = 100
    seed: int = 0
    init_scale: float = 0.5
    restarts: int = 1

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}")
        for name in ("learning_rate", "init_scale"):
            setattr(self, name, _finite(getattr(self, name), name, positive=True))
        for name, low in (("iterations", 1), ("restarts", 1), ("seed", 0)):
            _integer(getattr(self, name), name, low)


@dataclass
class Dataset:
    """Input rows with scalar regression targets or +-1 labels."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.inputs = np.atleast_2d(_real(self.inputs, "inputs"))
        self.targets = _real(self.targets, "targets").ravel()
        if len(self.inputs) != len(self.targets):
            raise ValueError("inputs and targets must have equal length")
        if len(self.inputs) == 0:
            raise ValueError("dataset must be non-empty")
        if not (np.all(np.isfinite(self.inputs)) and np.all(np.isfinite(self.targets))):
            raise ValueError("inputs and targets must be finite")

    def __len__(self) -> int:
        return len(self.targets)

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]


def _output_loss(kind: str, out: np.ndarray, y: np.ndarray):
    """Batch losses and their gradients w.r.t. the outputs.

    out holds one row of B predictions per restart; each loss reduces along
    the last axis, so R rows give R values.  mse averages squared errors;
    sse sums them (same descent direction, stepped batch-size times harder
    at equal learning rate); logistic is mean log(1 + exp(-y * out)) on +-1
    labels.
    """
    n = len(y)
    if kind == "mse":
        err = out - y
        return np.mean(err * err, axis=-1), 2.0 * err / n
    if kind == "sse":
        err = out - y
        return np.sum(err * err, axis=-1), 2.0 * err
    margin = y * out
    loss = np.mean(np.logaddexp(0.0, -margin), axis=-1)
    with np.errstate(over="ignore"):
        grad = -y / (1.0 + np.exp(margin)) / n
    return loss, grad


def _descend(net: NetworkSpec, data: Dataset, cfg: TrainConfig):
    """Run every restart side by side on one PackedNetwork.

    Returns (theta, history, final, stopped): theta (R, T) after the last
    step, history (iterations, R) with the loss at the parameters of each
    step's gradient, the final losses (R,), and the iteration at which each
    restart's loss turned non-finite (iterations if it never did).  A
    restart that diverged during the steps has a zero theta row; every
    diverged restart, the final evaluation included, has final loss inf.
    Once every restart has diverged the steps stop, and the history rows
    after that step are NaN.
    """
    packed = PackedNetwork(net, restarts=cfg.restarts)
    theta = np.stack([
        np.random.default_rng([cfg.seed, i]).uniform(
            -cfg.init_scale, cfg.init_scale, size=len(packed.theta_index)
        )
        for i in range(cfg.restarts)
    ])
    X, y = data.inputs, data.targets

    def loss(out):
        values, dout = _output_loss(cfg.loss, out[..., 0], y)
        return values, dout[..., None]

    history = np.full((cfg.iterations, cfg.restarts), np.nan)
    live = np.ones(cfg.restarts, dtype=bool)
    stopped = np.full(cfg.restarts, cfg.iterations)
    # overflow on a diverging restart is expected; it is caught by the
    # finiteness check and the restart is masked
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(cfg.iterations):
            values, grad = packed.loss_and_grad(theta, X, loss)
            history[it] = values
            if not np.isfinite(values).all():
                diverged = live & ~np.isfinite(values)
                stopped[diverged] = it
                live &= ~diverged
                theta[diverged] = 0.0
                if not live.any():
                    break
            np.subtract(theta, cfg.learning_rate * grad, out=theta, where=live[:, None])
        final, _ = loss(packed.forward(theta, X))
    final[~(live & np.isfinite(final))] = np.inf
    return theta, history, final, stopped


def train_restarts(
    net: NetworkSpec,
    data: Dataset,
    cfg: TrainConfig,
) -> tuple[list[NetworkSpec | None], np.ndarray, np.ndarray]:
    """Fit the masked parameters of net to data from every restart of cfg.

    Returns (nets, history, final): the trained net of each restart (None
    for a restart that diverged), history (iterations, R) with each
    restart's loss at the parameters used for step i's gradient (up to its
    divergence, for a diverged restart), and the final losses (R,), inf for
    a diverged restart.  Restart i starts from
    default_rng([seed, i]).  A restart that hits a non-finite loss is
    dropped: its theta row is zeroed and no longer stepped, so that the
    non-finite values go no further.  If every restart diverges a
    TrainingError is raised.  Deterministic for a given (net, data, cfg).
    """
    if net.output_dim != 1:
        raise ValueError("training expects a single-output network")
    if data.input_dim != net.input_dim:
        raise ValueError(
            f"dataset width {data.input_dim} does not match network input "
            f"width {net.input_dim}"
        )
    theta, history, final, stopped = _descend(net, data, cfg)
    if np.isinf(final).all():
        raise TrainingError(
            f"all {cfg.restarts} restarts diverged to non-finite loss "
            f"(at iterations {stopped.tolist()})"
        )
    nets = [None if np.isinf(loss) else set_trainable_values(net, row)
            for row, loss in zip(theta, final)]
    return nets, history, final


def train(net: NetworkSpec, data: Dataset, cfg: TrainConfig) -> tuple[NetworkSpec, np.ndarray]:
    """The restart of train_restarts with the lowest final loss, earliest on
    ties; returns (net, loss_history) with that restart's history column."""
    nets, history, final = train_restarts(net, data, cfg)
    best = int(np.argmin(final))
    return nets[best], history[:, best].copy()


def make_rings_dataset(
    n_per_class: int,
    r_inner: float = 1.0,
    r_outer: float = 2.0,
    noise: float = 0.1,
    seed: int = 0,
) -> Dataset:
    """Two concentric rings in the plane: inner labelled +1, outer -1.

    Points sit at uniformly random angles with radius drawn uniformly from
    r +- noise.  Deterministic for a given seed.
    """
    _integer(n_per_class, "n_per_class", 1)
    r_inner, r_outer = _finite(r_inner, "r_inner"), _finite(r_outer, "r_outer")
    if not 0.0 < r_inner < r_outer:
        raise ValueError("need 0 < r_inner < r_outer")
    noise = _finite(noise, "noise")
    if noise < 0.0:
        raise ValueError("noise must be non-negative")
    rng = np.random.default_rng(_integer(seed, "seed", 0))
    rows = []
    labels = []
    for radius, label in ((r_inner, 1.0), (r_outer, -1.0)):
        angles = rng.uniform(0.0, 2.0 * np.pi, size=n_per_class)
        radii = radius + noise * rng.uniform(-1.0, 1.0, size=n_per_class)
        rows.append(np.column_stack([radii * np.cos(angles), radii * np.sin(angles)]))
        labels.append(np.full(n_per_class, label))
    return Dataset(np.vstack(rows), np.concatenate(labels))


def make_poly_dataset(p: Polynomial, lo: float, hi: float, n: int) -> Dataset:
    """n >= 2 evenly spaced points of the polynomial on [lo, hi]."""
    lo, hi = _finite(lo, "lo"), _finite(hi, "hi")
    if lo >= hi:
        raise ValueError("need lo < hi")
    _integer(n, "n", 2)
    xs = np.linspace(lo, hi, n)
    return Dataset(xs[:, None], horner(p, xs))


def accuracy(net: NetworkSpec, data: Dataset) -> float:
    """Fraction of points whose output sign matches the +-1 label."""
    out = forward_batch(net, data.inputs)[:, 0]
    predicted = np.where(out >= 0.0, 1.0, -1.0)
    return float(np.mean(predicted == data.targets))
