"""Full-batch gradient descent over masked network parameters.

Plain fixed-step descent, no momentum or minibatching: reproducibility over
speed.  Restarts draw independent initialisations from a seeded generator,
train independently (optionally in parallel threads), and the run with the
lowest final loss wins, earliest restart on ties.  Each restart compiles the
network once into its own PackedNetwork and updates the trainable vector
theta in place: one fused forward and backward pass per step, and no
NetworkSpec is built until the winner is returned.  Parameters whose mask is
false are never touched.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .network import NetworkSpec, PackedNetwork, forward_batch, set_trainable_values
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
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be positive and finite")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if not (np.isfinite(self.init_scale) and self.init_scale > 0):
            raise ValueError("init_scale must be positive and finite")


@dataclass
class Dataset:
    """Input rows with scalar regression targets or +-1 labels."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.inputs = np.atleast_2d(np.asarray(self.inputs, dtype=np.float64))
        self.targets = np.asarray(self.targets, dtype=np.float64).ravel()
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
    """Batch loss and its gradient w.r.t. the outputs.

    mse averages squared errors; sse sums them (same descent direction,
    stepped batch-size times harder at equal learning rate); logistic is
    mean log(1 + exp(-y * out)) on +-1 labels.
    """
    n = len(y)
    if kind == "mse":
        err = out - y
        return float(np.mean(err * err)), 2.0 * err / n
    if kind == "sse":
        err = out - y
        return float(np.sum(err * err)), 2.0 * err
    margin = y * out
    loss = float(np.mean(np.logaddexp(0.0, -margin)))
    with np.errstate(over="ignore"):
        grad = -y / (1.0 + np.exp(margin)) / n
    return loss, grad


def _run_restart(net: NetworkSpec, data: Dataset, cfg: TrainConfig, index: int):
    """Returns (theta, history, final_loss); theta is None if the run diverged."""
    rng = np.random.default_rng([cfg.seed, index])
    packed = PackedNetwork(net)
    theta = rng.uniform(-cfg.init_scale, cfg.init_scale, size=packed.trainable_count)
    X, y = data.inputs, data.targets

    def loss(out):
        value, dout = _output_loss(cfg.loss, out[:, 0], y)
        return value, dout[:, None]

    history = np.empty(cfg.iterations)
    # overflow on a diverging restart is expected; it is caught by the
    # finiteness check and the restart is dropped
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(cfg.iterations):
            value, grad = packed.loss_and_grad(theta, X, loss)
            if not np.isfinite(value):
                return None, history[:it], float("inf")
            history[it] = value
            theta -= cfg.learning_rate * grad
        packed.set_theta(theta)
        final_loss, _ = loss(packed.forward(X)[0])
    if not np.isfinite(final_loss):
        return None, history, float("inf")
    return theta, history, final_loss


def train(
    net: NetworkSpec,
    data: Dataset,
    cfg: TrainConfig,
    parallel: bool = False,
) -> tuple[NetworkSpec, np.ndarray]:
    """Fit the masked parameters of net to data; returns (net, loss_history).

    history[i] is the loss at the parameters used for step i's gradient.
    Restarts that hit a non-finite loss are dropped; if all of them diverge
    a TrainingError is raised.  Deterministic for a given (net, data, cfg).
    """
    if net.output_dim != 1:
        raise ValueError("training expects a single-output network")
    if data.input_dim != net.input_dim:
        raise ValueError(
            f"dataset width {data.input_dim} does not match network input "
            f"width {net.input_dim}"
        )
    indices = range(cfg.restarts)
    if parallel and cfg.restarts > 1:
        with ThreadPoolExecutor() as pool:
            results = list(
                pool.map(lambda i: _run_restart(net, data, cfg, i), indices)
            )
    else:
        results = [_run_restart(net, data, cfg, i) for i in indices]

    best = None
    best_loss = np.inf
    for theta, history, final_loss in results:
        if theta is not None and final_loss < best_loss:
            best = (theta, history)
            best_loss = final_loss
    if best is None:
        raise TrainingError(
            f"all {cfg.restarts} restarts diverged to non-finite loss"
        )
    theta, history = best
    return set_trainable_values(net, theta), history


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
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    if not 0.0 < r_inner < r_outer:
        raise ValueError("need 0 < r_inner < r_outer")
    if noise < 0.0:
        raise ValueError("noise must be non-negative")
    rng = np.random.default_rng(seed)
    rows = []
    labels = []
    for radius, label in ((r_inner, 1.0), (r_outer, -1.0)):
        angles = rng.uniform(0.0, 2.0 * np.pi, size=n_per_class)
        radii = radius + noise * rng.uniform(-1.0, 1.0, size=n_per_class)
        rows.append(np.column_stack([radii * np.cos(angles), radii * np.sin(angles)]))
        labels.append(np.full(n_per_class, label))
    return Dataset(np.vstack(rows), np.concatenate(labels))


def make_poly_dataset(p: Polynomial, lo: float, hi: float, n: int) -> Dataset:
    """n evenly spaced points of the polynomial on [lo, hi]."""
    if lo >= hi:
        raise ValueError("need lo < hi")
    if n < 2:
        raise ValueError("need n >= 2")
    xs = np.linspace(lo, hi, n)
    return Dataset(xs[:, None], horner(p, xs))


def accuracy(net: NetworkSpec, data: Dataset) -> float:
    """Fraction of points whose output sign matches the +-1 label."""
    out = forward_batch(net, data.inputs)[:, 0]
    predicted = np.where(out >= 0.0, 1.0, -1.0)
    return float(np.mean(predicted == data.targets))
