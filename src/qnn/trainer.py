"""Full-batch gradient descent over masked network parameters.

Plain fixed-step descent, no momentum or minibatching: reproducibility over
speed.  Restarts draw independent initialisations from a seeded generator
and train side by side on the restart axis of one PackedNetwork: the data
is written into it once, each step runs its forward program, the loss on
its output rows, its backward program and an in-place update of its
params, the (R, P) rows that hold theta, and no NetworkSpec is built until
the steps end.  A restart whose loss turns non-finite is masked out;
``train`` keeps the one with the lowest final loss, earliest on ties.
Parameters whose mask is false are never touched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import _MAX_ENTRIES, NetworkSpec, PackedNetwork, forward_batch, set_trainable_values
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
        _integer(self.seed, "seed", 0)
        # the loss history holds iterations x restarts entries
        _integer(self.restarts, "restarts", 1, _MAX_ENTRIES)
        _integer(self.iterations, "iterations", 1, _MAX_ENTRIES // int(self.restarts))


@dataclass
class Dataset:
    """Input rows with scalar regression targets or +-1 labels."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.inputs = np.atleast_2d(_real(self.inputs, "inputs", finite=True))
        self.targets = _real(self.targets, "targets", finite=True).ravel()
        if len(self.inputs) != len(self.targets):
            raise ValueError("inputs and targets must have equal length")
        if len(self.inputs) == 0:
            raise ValueError("dataset must be non-empty")

    def __len__(self) -> int:
        return len(self.targets)

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]


def _output_loss(kind: str, out: np.ndarray, y: np.ndarray, grad: np.ndarray,
                 scratch: np.ndarray) -> np.ndarray:
    """Each restart's loss over the batch, with its gradient w.r.t. the
    outputs written into grad.

    out holds one row of B predictions per restart, (R, B); grad and scratch
    are (R, B) arrays the call overwrites.  Returns the R losses, each
    reduced along its row.  mse averages squared errors; sse sums them (same
    descent direction, stepped batch-size times harder at equal learning
    rate); logistic is mean log(1 + exp(-y * out)) on +-1 labels.  Every
    value is written through out=, in the order of the plain expressions
    err * err, 2.0 * err / n and -y / (1.0 + exp(y * out)) / n, and
    np.add.reduce is np.sum's sum, so the bits are theirs.
    """
    n = len(y)
    if kind == "logistic":
        neg_y = -y
        np.multiply(out, neg_y, out=grad)  # -(y * out), exactly
        values = np.add.reduce(np.logaddexp(0.0, grad, out=grad), -1)
        np.exp(np.multiply(y, out, out=scratch), out=scratch)
        np.divide(neg_y, np.add(1.0, scratch, out=scratch), out=grad)
    else:
        err = np.subtract(out, y, out=grad)
        values = np.add.reduce(np.multiply(err, err, out=scratch), -1)
        np.multiply(err, 2.0, out=grad)
    if kind != "sse":  # a mean
        np.divide(grad, n, out=grad)
        np.divide(values, n, out=values)
    return values


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

    The executor is made for the data's inputs, and each step runs
    forward(), the loss read from its output with the loss gradient written
    into its upstream, backward(), and params -= learning_rate * grad where
    the entry is trainable and its restart live, in place.
    """
    packed = PackedNetwork(net, data.inputs, cfg.restarts)
    params, grad, index = packed.params, packed.grad, packed.theta_index
    params[:, index] = [
        np.random.default_rng([cfg.seed, i]).uniform(
            -cfg.init_scale, cfg.init_scale, size=len(index)
        )
        for i in range(cfg.restarts)
    ]
    out, dout = packed.output[:, 0], packed.upstream[:, 0]
    scratch = np.empty_like(out)
    stepped = np.zeros_like(params, dtype=bool)
    stepped[:, index] = True  # trainable and live

    def forward_loss():
        packed.forward()
        return _output_loss(cfg.loss, out, data.targets, dout, scratch)

    history = np.full((cfg.iterations, cfg.restarts), np.nan)
    live = np.ones(cfg.restarts, dtype=bool)
    stopped = np.full(cfg.restarts, cfg.iterations)
    # overflow on a diverging restart is expected; it is caught by the
    # finiteness check and the restart is masked
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(cfg.iterations):
            values = forward_loss()
            history[it] = values
            if not np.isfinite(values).all():
                diverged = live & ~np.isfinite(values)
                stopped[diverged] = it
                live &= ~diverged
                params[np.ix_(diverged, index)] = 0.0
                stepped[diverged] = False
                if not live.any():
                    break
            packed.backward()
            # the next backward writes every entry of grad that is read
            np.subtract(params, np.multiply(grad, cfg.learning_rate, out=grad), out=params,
                        where=stepped)
        final = forward_loss()
    final[~(live & np.isfinite(final))] = np.inf
    return params[:, index], history, final, stopped


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
    _integer(n_per_class, "n_per_class", 1, _MAX_ENTRIES // 4)  # two rings of 2-D points
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
    """n >= 2 evenly spaced points of the polynomial on [lo, hi], at most
    network._MAX_ENTRIES."""
    lo, hi = _finite(lo, "lo"), _finite(hi, "hi")
    if lo >= hi:
        raise ValueError("need lo < hi")
    _integer(n, "n", 2, _MAX_ENTRIES)
    xs = np.linspace(lo, hi, n)
    return Dataset(xs[:, None], horner(p, xs))


def accuracy(net: NetworkSpec, data: Dataset) -> float:
    """Fraction of points whose output sign matches the +-1 label."""
    out = forward_batch(net, data.inputs)[:, 0]
    predicted = np.where(out >= 0.0, 1.0, -1.0)
    return float(np.mean(predicted == data.targets))
