"""Layered networks of quadratic / conventional / passthrough neurons.

A NetworkSpec is a plain value: an ordered list of layers, optional forward
shortcut edges, and per-parameter trainability masks.  It is the
construction and JSON format, and nothing here mutates it: forward/backward
are pure functions of the spec.  forward_batch evaluates neuron by neuron.
Training runs on a PackedNetwork instead, the spec compiled once into a flat
parameter buffer with one row per restart, which the trainer updates in place
so that every restart advances in the same stacked matmuls.  The executor
also owns its work arrays (activations, their gradient and the per-layer
products), made once per batch size, reused by every step and freed with
it.  backward_batch compiles a one-row executor per call and runs the same
backward.

Canonical parameter ordering (used by gradients, masks, and JSON):
layer-major, neuron-minor, within a neuron (w_r, b_r, w_g, b_g, w_b, c) for
quadratic and (w, b) for conventional, with shortcut weights appended last.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .neurons import (
    ConventionalNeuron,
    Neuron,
    PassthroughNeuron,
    QuadraticNeuron,
    preactivation,
    relu,
)

ACTIVATIONS = ("relu", "identity")


@dataclass
class LayerSpec:
    """An ordered list of neurons sharing one input vector and activation."""

    neurons: list[Neuron]
    activation: str = "relu"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not self.neurons:
            raise ValueError("layer must contain at least one neuron")

    @property
    def width(self) -> int:
        return len(self.neurons)


@dataclass
class Shortcut:
    """Forward edge injecting weight * activation[src] into a later pre-activation."""

    src_layer: int
    src_neuron: int
    dst_layer: int
    dst_neuron: int
    weight: float
    trainable: bool = True

    def __post_init__(self):
        self.weight = float(self.weight)
        if self.src_layer >= self.dst_layer:
            raise ValueError("shortcut edges must point forward")


@dataclass
class NetworkSpec:
    """Layered network with shortcuts and per-parameter trainability masks.

    masks mirrors layers: masks[k][j] is a boolean array the same length as
    neuron j's parameter vector.  A missing masks argument means everything
    is trainable.  Shortcut weights carry their own trainable flag.
    """

    input_dim: int
    layers: list[LayerSpec]
    shortcuts: list[Shortcut] = field(default_factory=list)
    masks: list[list[np.ndarray]] | None = None

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if not self.layers:
            raise ValueError("network must have at least one layer")
        if self.masks is None:
            self.masks = [
                [np.ones(nr.param_count, dtype=bool) for nr in layer.neurons]
                for layer in self.layers
            ]
        else:
            self.masks = [
                [np.asarray(m, dtype=bool) for m in layer_masks]
                for layer_masks in self.masks
            ]
        self._validate()

    def _validate(self):
        if len(self.masks) != len(self.layers):
            raise ValueError("masks must parallel layers")
        prev_width = self.input_dim
        for k, layer in enumerate(self.layers):
            if len(self.masks[k]) != layer.width:
                raise ValueError(f"masks for layer {k} must parallel its neurons")
            for j, neuron in enumerate(layer.neurons):
                if isinstance(neuron, PassthroughNeuron):
                    if neuron.index >= prev_width:
                        raise ValueError(
                            f"layer {k} neuron {j}: passthrough index "
                            f"{neuron.index} out of range for width {prev_width}"
                        )
                elif neuron.input_dim != prev_width:
                    raise ValueError(
                        f"layer {k} neuron {j}: expects input width "
                        f"{neuron.input_dim}, previous layer has {prev_width}"
                    )
                if self.masks[k][j].shape != (neuron.param_count,):
                    raise ValueError(f"mask shape mismatch at layer {k} neuron {j}")
            prev_width = layer.width
        n_layers = len(self.layers)
        for sc in self.shortcuts:
            if not (0 <= sc.src_layer < sc.dst_layer < n_layers):
                raise ValueError("shortcut layer indices out of range")
            if not 0 <= sc.src_neuron < self.layers[sc.src_layer].width:
                raise ValueError("shortcut source neuron out of range")
            if not 0 <= sc.dst_neuron < self.layers[sc.dst_layer].width:
                raise ValueError("shortcut destination neuron out of range")

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def output_dim(self) -> int:
        return self.layers[-1].width

    def layer_widths(self) -> list[int]:
        return [layer.width for layer in self.layers]


def copy_network(net: NetworkSpec) -> NetworkSpec:
    return copy.deepcopy(net)


# ---------------------------------------------------------------------------
# Forward evaluation
# ---------------------------------------------------------------------------


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    return relu(z) if activation == "relu" else z


def _forward_cached(net: NetworkSpec, X: np.ndarray):
    """Evaluate a batch, returning (preactivations, activations) per layer."""
    preacts: list[np.ndarray] = []
    acts: list[np.ndarray] = []
    incoming: dict[tuple[int, int], list[Shortcut]] = {}
    for sc in net.shortcuts:
        incoming.setdefault((sc.dst_layer, sc.dst_neuron), []).append(sc)
    current = X
    for k, layer in enumerate(net.layers):
        Z = np.empty((X.shape[0], layer.width))
        for j, neuron in enumerate(layer.neurons):
            z = preactivation(neuron, current)
            for sc in incoming.get((k, j), ()):
                z = z + sc.weight * acts[sc.src_layer][:, sc.src_neuron]
            Z[:, j] = z
        preacts.append(Z)
        current = _activate(Z, layer.activation)
        acts.append(current)
    return preacts, acts


def forward_batch(net: NetworkSpec, X) -> np.ndarray:
    """Evaluate a batch of inputs, shape (B, input_dim) -> (B, output_dim)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.input_dim:
        raise ValueError(
            f"expected batch of shape (B, {net.input_dim}), got {X.shape}"
        )
    _, acts = _forward_cached(net, X)
    return acts[-1]


def forward(net: NetworkSpec, x) -> np.ndarray:
    """Evaluate one input vector, shape (input_dim,) -> (output_dim,)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (net.input_dim,):
        raise ValueError(f"expected input of shape ({net.input_dim},), got {x.shape}")
    return forward_batch(net, x[None, :])[0]


# ---------------------------------------------------------------------------
# Parameter vector / masks
# ---------------------------------------------------------------------------


def _iter_neuron_entries(net: NetworkSpec):
    for k, layer in enumerate(net.layers):
        for j, neuron in enumerate(layer.neurons):
            yield k, j, neuron, net.masks[k][j]


def parameter_count(net: NetworkSpec) -> int:
    """Total parameter count, shortcut weights included."""
    total = sum(nr.param_count for _, _, nr, _ in _iter_neuron_entries(net))
    return total + len(net.shortcuts)


def trainable_count(net: NetworkSpec) -> int:
    total = sum(int(mask.sum()) for _, _, _, mask in _iter_neuron_entries(net))
    return total + sum(1 for sc in net.shortcuts if sc.trainable)


def trainable_values(net: NetworkSpec) -> np.ndarray:
    """Mask-selected parameters in canonical order (shortcut weights last)."""
    parts = [
        nr.param_vector()[mask] for _, _, nr, mask in _iter_neuron_entries(net)
    ]
    parts.append(np.array([sc.weight for sc in net.shortcuts if sc.trainable]))
    return np.concatenate(parts) if parts else np.zeros(0)


def set_trainable_values(net: NetworkSpec, values) -> NetworkSpec:
    """Return a copy of net with its trainable parameters replaced."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (trainable_count(net),):
        raise ValueError(
            f"expected {trainable_count(net)} trainable values, got {values.shape}"
        )
    out = copy_network(net)
    pos = 0
    for k, layer in enumerate(out.layers):
        for j, neuron in enumerate(layer.neurons):
            mask = out.masks[k][j]
            take = int(mask.sum())
            if take:
                vec = neuron.param_vector()
                vec[mask] = values[pos : pos + take]
                layer.neurons[j] = neuron.with_params(vec)
                pos += take
    for sc in out.shortcuts:
        if sc.trainable:
            sc.weight = float(values[pos])
            pos += 1
    return out


# ---------------------------------------------------------------------------
# Packed executor: forward, loss and analytic gradients on one flat buffer
# ---------------------------------------------------------------------------


class _PackedLayer(NamedTuple):
    quadratic: bool  # False: conventional and passthrough neurons only
    relu: bool
    inp: slice  # augmented input [x, 1] in the activation array
    out: slice  # this layer's activations
    thirds: tuple  # [W_r; b_r], [W_g; b_g], [W_b; c]: (R, rows, m) views of the block
    weights_t: tuple  # W_r, W_g, W_b without the bias rows, transposed: (R, m, n)
    grads: tuple  # gradient views matching thirds
    # (cells of one restart's dense matrix, the same cells over all restarts,
    # weight positions, the matrices' shape (R, rows, m))
    shortcuts: tuple | None
    overwrite_input_grad: bool  # no shortcut starts at layer k-1: its gradient is still empty


class _LayerBuffers(NamedTuple):
    # Each is a C-contiguous (R, B, width) array, n the layer's fan-in and m
    # its width.  Contiguous, not a column block of acts or grad_acts: numpy
    # runs an elementwise op on a narrow column block one row at a time.
    product: np.ndarray  # m wide, over grad_acts' memory, which the forward leaves free
    X2: np.ndarray | None  # X1 * X1, n + 1 wide; quadratic layers only
    twice: np.ndarray | None  # n wide, over X2's memory: 2 X1 once X2 is spent
    P: np.ndarray | None  # m wide; quadratic layers only
    Q: np.ndarray | None
    T: np.ndarray | None  # n wide, where the input gradient is a sum of terms


class _WorkBuffers(NamedTuple):
    acts: np.ndarray  # (R, B, act_width); the ones columns are written once
    grad_acts: np.ndarray  # same shape
    layers: list[_LayerBuffers]


def _leading(buf: np.ndarray, shape: tuple) -> np.ndarray:
    """A C-contiguous view of the given shape on the first entries of buf."""
    return buf.reshape(-1)[: int(np.prod(shape))].reshape(shape)


class PackedNetwork:
    """A NetworkSpec compiled once into flat float64 parameter buffers.

    `params` has shape (R, P): one row per restart, all compiled from the
    same spec.  In each row, layer k, with input width n and width m, owns a
    (3n+3, m) block whose rows are W_r | b_r | W_g | b_g | W_b | c, so
    column j is neuron j's canonical quadratic parameter vector.  With the
    input augmented by a column of ones, X1 = [X, 1], a layer is three
    matmuls,

        Z = (X1 [W_r; b_r]) * (X1 [W_g; b_g]) + (X1 * X1) [W_b; c]

    plus its incoming shortcuts, then the activation.  Every matmul is
    stacked over the restart axis: blocks are (R, 3n+3, m), activations
    (R, B, width), and one input batch X feeds every restart.  A
    conventional neuron fills the W_r and b_r rows (its own parameter order
    maps onto the same rows) and is stored as W_g = 0, b_g = 1, W_b = 0,
    c = 0; a passthrough neuron is the frozen one-hot column W_r = e_index,
    b_g = 1.  A layer without quadratic neurons is evaluated as its affine
    part alone.  Shortcut weights follow the blocks, and `theta_index` maps
    the canonical trainable vector (shortcut weights last) into a row of
    `params`.

    Restarts never mix: row i of every output and gradient depends on row i
    of `params` alone, and equals what a one-row executor gives for it.
    The executor agrees with the per-neuron path to rounding on finite
    values.  The zero entries of a block multiply every input, so where an
    input is inf a packed pre-activation can be NaN where forward_batch
    gives inf or an exact copy; the trainer drops a restart at its first
    non-finite loss.

    The executor owns its work arrays, one set for the batch size last
    seen: the activations (their ones columns written once), the
    activation gradient, X1 * X1, P and Q of each quadratic layer, and an
    (R, B, n) scratch for the input gradient.  The first forward pass at a
    batch size makes them and a new size replaces them; they live as long
    as the executor, and the trainer makes one executor per `train` call.
    The layer products and the input gradient are written into them
    through `out=`; a warm step still allocates the ReLU masks (one byte
    per entry), the shortcut terms of the backward and the output copy.
    Because a forward pass overwrites what the previous pass left there,
    backward takes only the tape of the latest pass, and only once, and one
    executor serves one caller at a time.  The output a forward pass
    returns is a copy that later passes leave alone.
    """

    def __init__(self, net: NetworkSpec, restarts: int = 1):
        if restarts < 1:
            raise ValueError("restarts must be >= 1")
        self.input_dim = net.input_dim
        widths = net.layer_widths()
        fan_in = [net.input_dim] + widths[:-1]
        sizes = [(3 * n + 3) * m for n, m in zip(fan_in, widths)]
        self.params = np.zeros((restarts, sum(sizes) + len(net.shortcuts)))
        self._grad = np.zeros_like(self.params)
        sc_base = sum(sizes)
        self.params[:, sc_base:] = [sc.weight for sc in net.shortcuts]

        # Columns of the per-pass activation array: the input, then each
        # layer's activations, each block followed by a column of ones.
        base = np.cumsum([0] + [n + 1 for n in fan_in] + [widths[-1] + 1])
        self._ones = base[1:] - 1
        self._act_width = int(base[-1])

        incoming: dict[int, list[int]] = {}
        for i, sc in enumerate(net.shortcuts):
            incoming.setdefault(sc.dst_layer, []).append(i)
        sources = {sc.src_layer for sc in net.shortcuts}

        index = []
        self._layers = []
        pos = 0
        for k, (layer, n, m) in enumerate(zip(net.layers, fan_in, widths)):
            shape = (restarts, 3 * n + 3, m)
            block = self.params[:, pos : pos + sizes[k]].reshape(shape)
            gblock = self._grad[:, pos : pos + sizes[k]].reshape(shape)
            quadratic = False
            for j, neuron in enumerate(layer.neurons):
                if isinstance(neuron, QuadraticNeuron):
                    block[:, :, j] = neuron.param_vector()
                    quadratic = True
                elif isinstance(neuron, ConventionalNeuron):
                    block[:, : n + 1, j] = neuron.param_vector()
                    block[:, 2 * n + 1, j] = 1.0
                else:
                    block[:, neuron.index, j] = 1.0
                    block[:, 2 * n + 1, j] = 1.0
                index.append(pos + np.flatnonzero(net.masks[k][j]) * m + j)
            shortcuts = None
            if k in incoming:
                # every earlier activation column feeds this layer through a
                # dense (base[k + 1], m) weight matrix per restart, rebuilt
                # on each pass
                rows = int(base[k + 1])
                cells = np.array([
                    (base[net.shortcuts[i].src_layer + 1]
                     + net.shortcuts[i].src_neuron) * m
                    + net.shortcuts[i].dst_neuron
                    for i in incoming[k]
                ])
                all_cells = (np.arange(restarts)[:, None] * (rows * m) + cells).ravel()
                shortcuts = (cells, all_cells, sc_base + np.array(incoming[k]),
                             (restarts, rows, m))
            thirds = (slice(0, n + 1), slice(n + 1, 2 * n + 2), slice(2 * n + 2, None))
            weights = (slice(0, n), slice(n + 1, 2 * n + 1), slice(2 * n + 2, 3 * n + 2))
            self._layers.append(_PackedLayer(
                quadratic=quadratic,
                relu=layer.activation == "relu",
                inp=slice(base[k], base[k + 1]),
                out=slice(base[k + 1], base[k + 2] - 1),
                thirds=tuple(block[:, t] for t in thirds),
                weights_t=tuple(block[:, t].swapaxes(1, 2) for t in weights),
                grads=tuple(gblock[:, t] for t in thirds),
                shortcuts=shortcuts,
                overwrite_input_grad=k - 1 not in sources,
            ))
            pos += sizes[k]

        trainable = [i for i, sc in enumerate(net.shortcuts) if sc.trainable]
        index.append(sc_base + np.array(trainable, dtype=np.intp))
        self.theta_index = np.concatenate(index).astype(np.intp)
        self._work: _WorkBuffers | None = None
        self._passes = 0  # forward passes run; a tape carries its number
        self._open_tape = 0  # number of the pass whose tape is unused, else 0

    @property
    def restarts(self) -> int:
        return len(self.params)

    @property
    def trainable_count(self) -> int:
        return len(self.theta_index)

    def set_theta(self, theta) -> None:
        """Write the (R, T) canonical trainable vectors into the buffer."""
        self.params[:, self.theta_index] = theta

    def _buffers(self, batch: int) -> _WorkBuffers:
        """The work arrays for a batch of `batch` rows, made on first use.

        A new batch size replaces the previous set, so at most one is held.
        """
        work = self._work
        if work is None or work.acts.shape[1] != batch:
            rows = (self.restarts, batch)
            acts = np.empty(rows + (self._act_width,))
            acts[..., self._ones] = 1.0
            grad_acts = np.empty_like(acts)
            # Layer k > 0 sums its input gradient from several terms unless
            # it is affine and the first to write that gradient.  The terms
            # then pass one at a time through T, and T of every layer shares
            # one scratch array.
            summed = [k > 0 and (layer.quadratic or not layer.overwrite_input_grad)
                      for k, layer in enumerate(self._layers)]
            fan_in = [layer.inp.stop - layer.inp.start - 1 for layer in self._layers]
            scratch = np.empty(self.restarts * batch * max(
                (n for n, s in zip(fan_in, summed) if s), default=0))
            per_layer = []
            for layer, n, s in zip(self._layers, fan_in, summed):
                m = layer.out.stop - layer.out.start
                X2 = twice = P = Q = None
                if layer.quadratic:
                    X2, P, Q = (np.empty(rows + (w,)) for w in (n + 1, m, m))
                    twice = _leading(X2, rows + (n,))
                per_layer.append(_LayerBuffers(
                    _leading(grad_acts, rows + (m,)), X2, twice, P, Q,
                    _leading(scratch, rows + (n,)) if s else None,
                ))
            work = _WorkBuffers(acts, grad_acts, per_layer)
            self._work = work
        return work

    def forward(self, X: np.ndarray):
        """Evaluate a (B, input_dim) float64 batch under every restart's params.

        Returns (output, tape), output of shape (R, B, output_dim), a copy
        that later passes leave alone.  The tape serves one call of
        backward, and only until the next forward pass.
        """
        work = self._buffers(X.shape[0])
        acts = work.acts
        acts[..., : self.input_dim] = X
        matrices = []
        for layer, (product, X2, _, P, Q, _) in zip(self._layers, work.layers):
            quadratic, relu, inp, out, (W, W_g, W_b), _, _, sc, _ = layer
            X1 = acts[..., inp]
            Z = acts[..., out]
            M = None
            if quadratic:
                np.multiply(X1, X1, out=X2)
                np.matmul(X1, W, out=P)
                np.matmul(X1, W_g, out=Q)
                np.multiply(P, Q, out=Z)
                Z += np.matmul(X2, W_b, out=product)
            else:
                np.matmul(X1, W, out=Z)
            if sc is not None:
                _, all_cells, wpos, shape = sc
                size = shape[0] * shape[1] * shape[2]
                M = np.bincount(all_cells, self.params[:, wpos].ravel(), size)
                M = M.reshape(shape)
                Z += np.matmul(acts[..., : shape[1]], M, out=product)
            if relu:
                np.maximum(Z, 0.0, out=Z)
            matrices.append(M)
        self._passes += 1
        self._open_tape = self._passes
        return acts[..., out].copy(), (self._passes, matrices)

    def backward(self, tape, upstream: np.ndarray) -> np.ndarray:
        """Gradient of sum_b upstream[r, b] . output[r, b] w.r.t. each
        restart's trainable parameters, shape (R, T).

        upstream has the output's shape (R, B, output_dim).  Runs from the
        work buffers as the forward pass that made `tape` left them and
        overwrites them, so a tape serves one call, and a tape older than
        the latest forward pass is refused.  For a quadratic neuron with
        p = w_r.x + b_r and q = w_g.x + b_g: dh/dw_r = q x, dh/db_r = q,
        dh/dw_g = p x, dh/db_g = p, dh/dw_b = x*x, dh/dc = 1.
        """
        number, matrices = tape
        if number != self._passes:
            raise ValueError("stale tape: a later forward pass overwrote its buffers")
        if number != self._open_tape:
            raise ValueError("a tape serves one backward pass")
        self._open_tape = 0
        work = self._work
        acts, grad_acts = work.acts, work.grad_acts
        grad_acts.fill(0.0)
        grad_acts[..., self._layers[-1].out] = upstream
        grad = self._grad
        for k in range(len(self._layers) - 1, -1, -1):
            quadratic, relu, inp, out, _, (W_t, W_gt, W_bt), (G, G_g, G_b), sc, overwrite = (
                self._layers[k]
            )
            M = matrices[k]
            _, X2, twice, P, Q, T = work.layers[k]
            X1 = acts[..., inp]
            X1_t = X1.swapaxes(1, 2)
            d = grad_acts[..., out]
            if relu:
                d *= acts[..., out] > 0.0
            if sc is not None:
                cells, _, wpos, shape = sc
                sources = acts[..., : shape[1]]
                grad[:, wpos] = (sources.swapaxes(1, 2) @ d).reshape(shape[0], -1)[:, cells]
                grad_acts[..., : shape[1]] += d @ M.swapaxes(1, 2)
            dq = d
            if quadratic:
                dq = np.multiply(d, Q, out=Q)
                dp = np.multiply(d, P, out=P)
                np.matmul(X1_t, dp, out=G_g)
                np.matmul(X2.swapaxes(1, 2), d, out=G_b)
            np.matmul(X1_t, dq, out=G)
            if not k:
                break
            g_inp = grad_acts[..., inp.start : inp.stop - 1]
            if overwrite:
                np.matmul(dq, W_t, out=g_inp)
            else:
                g_inp += np.matmul(dq, W_t, out=T)
            if quadratic:
                g_inp += np.matmul(dp, W_gt, out=T)
                np.multiply(X1[..., :-1], 2.0, out=twice)
                np.matmul(d, W_bt, out=T)
                g_inp += np.multiply(twice, T, out=T)
        return grad[:, self.theta_index]

    def loss_and_grad(self, theta, X: np.ndarray, loss):
        """Write theta (R, T), run one forward pass and the backward from its tape.

        loss maps the (R, B, output_dim) output to (values, d values / d
        output), values holding one loss per restart; returns (values,
        gradients w.r.t. theta, shape (R, T)).
        """
        self.set_theta(theta)
        out, tape = self.forward(X)
        values, upstream = loss(out)
        return values, self.backward(tape, upstream)


# ---------------------------------------------------------------------------
# Backward (analytic gradients)
# ---------------------------------------------------------------------------


def backward_batch(net: NetworkSpec, X, upstream) -> np.ndarray:
    """Gradient of sum_b upstream[b] . output[b] w.r.t. trainable parameters.

    Returns one value per mask=true parameter, canonical order; frozen
    parameters receive no entry.  Exact chain-rule derivatives, computed by
    PackedNetwork.backward.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.input_dim:
        raise ValueError(
            f"expected batch of shape (B, {net.input_dim}), got {X.shape}"
        )
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (X.shape[0], net.output_dim):
        raise ValueError(
            f"expected upstream of shape ({X.shape[0]}, {net.output_dim})"
        )
    packed = PackedNetwork(net)
    _, tape = packed.forward(X)
    return packed.backward(tape, upstream[None])[0]


def backward(net: NetworkSpec, x, upstream) -> np.ndarray:
    """Single-input gradient of upstream . output w.r.t. trainable parameters."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (net.input_dim,):
        raise ValueError(f"expected input of shape ({net.input_dim},), got {x.shape}")
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (net.output_dim,):
        raise ValueError(
            f"expected upstream of shape ({net.output_dim},), got {upstream.shape}"
        )
    return backward_batch(net, x[None, :], upstream[None, :])


# ---------------------------------------------------------------------------
# Common blank architectures
# ---------------------------------------------------------------------------


def single_quadratic_net(input_dim: int) -> NetworkSpec:
    """One trainable quadratic neuron, identity activation, zero-initialised."""
    neuron = QuadraticNeuron(
        w_r=np.zeros(input_dim), b_r=0.0,
        w_g=np.zeros(input_dim), b_g=0.0,
        w_b=np.zeros(input_dim), c=0.0,
    )
    return NetworkSpec(input_dim, [LayerSpec([neuron], activation="identity")])


def one_hidden_quadratic(input_dim: int, width: int) -> NetworkSpec:
    """width quadratic ReLU units feeding one linear output neuron."""
    if width < 1:
        raise ValueError("width must be >= 1")
    hidden = [
        QuadraticNeuron(
            w_r=np.zeros(input_dim), b_r=0.0,
            w_g=np.zeros(input_dim), b_g=0.0,
            w_b=np.zeros(input_dim), c=0.0,
        )
        for _ in range(width)
    ]
    out = ConventionalNeuron(w=np.zeros(width), b=0.0)
    return NetworkSpec(
        input_dim,
        [LayerSpec(hidden, "relu"), LayerSpec([out], "identity")],
    )


def one_hidden_conventional(input_dim: int, width: int) -> NetworkSpec:
    """width conventional ReLU units feeding one linear output neuron."""
    if width < 1:
        raise ValueError("width must be >= 1")
    hidden = [
        ConventionalNeuron(w=np.zeros(input_dim), b=0.0) for _ in range(width)
    ]
    out = ConventionalNeuron(w=np.zeros(width), b=0.0)
    return NetworkSpec(
        input_dim,
        [LayerSpec(hidden, "relu"), LayerSpec([out], "identity")],
    )


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _neuron_to_dict(neuron: Neuron) -> dict:
    if isinstance(neuron, QuadraticNeuron):
        return {"kind": "quadratic", "params": neuron.param_vector().tolist()}
    if isinstance(neuron, ConventionalNeuron):
        return {"kind": "conventional", "params": neuron.param_vector().tolist()}
    return {"kind": "passthrough", "index": neuron.index}


_JSON_TYPES = {int: "an integer", float: "a number", str: "a string",
               bool: "true or false", list: "a list"}


def _field(d, key: str, kind: type):
    """d[key], required to be of JSON type kind; a float field takes integers too."""
    if type(d) is not dict:
        raise ValueError(f"expected an object, got {d!r}")
    try:
        value = d[key]
    except KeyError:
        raise ValueError(f"lacks {key!r}") from None
    if type(value) is kind or (kind is float and type(value) is int):
        return value
    raise ValueError(f"{key!r} must be {_JSON_TYPES[kind]}, got {value!r}")


def _neuron_from_dict(d) -> Neuron:
    kind = _field(d, "kind", str)
    if kind == "passthrough":
        return PassthroughNeuron(_field(d, "index", int))
    if kind not in ("quadratic", "conventional"):
        raise ValueError(f"unknown neuron kind {kind!r}")
    values = _field(d, "params", list)
    params = np.array(values)
    if params.ndim != 1 or params.dtype.kind not in "fiu":
        raise ValueError(f"'params' must hold numbers only, got {values!r}")
    params = params.astype(np.float64, copy=False)
    if kind == "quadratic":
        if len(params) < 6 or (len(params) - 3) % 3:
            raise ValueError("quadratic neuron parameter count must be 3n + 3, n >= 1")
        n = (len(params) - 3) // 3
        return QuadraticNeuron(
            w_r=params[0:n], b_r=params[n],
            w_g=params[n + 1 : 2 * n + 1], b_g=params[2 * n + 1],
            w_b=params[2 * n + 2 : 3 * n + 2], c=params[3 * n + 2],
        )
    if len(params) < 2:
        raise ValueError("conventional neuron parameter count must be n + 1, n >= 1")
    return ConventionalNeuron(w=params[:-1], b=params[-1])


_SHORTCUT_FIELDS = {"src_layer": int, "src_neuron": int, "dst_layer": int,
                    "dst_neuron": int, "weight": float, "trainable": bool}


def _shortcut_from_dict(d) -> Shortcut:
    fields = {key: _field(d, key, kind) for key, kind in _SHORTCUT_FIELDS.items()}
    unknown = sorted(d.keys() - fields.keys())
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}")
    return Shortcut(**fields)


def _mask_from_list(m) -> np.ndarray:
    # True, False, 1.0 and 0.0 compare equal to 1 and 0 and pass too
    try:
        ok = type(m) is list and set(m) <= {0, 1}
    except TypeError:  # an entry that is itself a list or an object
        ok = False
    if not ok:
        raise ValueError(f"mask must be a list of 0 and 1 entries, got {m!r}")
    return np.asarray(m, dtype=bool)


def _layer_from_dict(d) -> LayerSpec:
    neurons = _each(_field(d, "neurons", list), "neuron", _neuron_from_dict)
    return LayerSpec(neurons, _field(d, "activation", str))


def _masks_from_list(layer_masks) -> list[np.ndarray]:
    if not isinstance(layer_masks, list):
        raise ValueError(f"expected a list of masks, got {layer_masks!r}")
    return _each(layer_masks, "neuron", _mask_from_list)


def _each(items: list, name: str, parse) -> list:
    """parse applied to each item; a ValueError gets the item's name and index."""
    out = []
    for i, item in enumerate(items):
        try:
            out.append(parse(item))
        except ValueError as exc:
            raise ValueError(f"{name} {i}: {exc}") from None
    return out


def to_json(net: NetworkSpec) -> str:
    """Serialize to JSON; round-trips bit-exactly.

    JSON has no NaN or infinity, so a non-finite neuron parameter or
    shortcut weight raises ValueError.
    """
    doc = {
        "input_dim": net.input_dim,
        "layers": [
            {
                "activation": layer.activation,
                "neurons": [_neuron_to_dict(nr) for nr in layer.neurons],
            }
            for layer in net.layers
        ],
        "shortcuts": [
            {
                "src_layer": sc.src_layer,
                "src_neuron": sc.src_neuron,
                "dst_layer": sc.dst_layer,
                "dst_neuron": sc.dst_neuron,
                "weight": sc.weight,
                "trainable": sc.trainable,
            }
            for sc in net.shortcuts
        ],
        "masks": [
            [m.astype(int).tolist() for m in layer_masks] for layer_masks in net.masks
        ],
    }
    try:
        return json.dumps(doc, sort_keys=True, allow_nan=False)
    except ValueError:
        raise ValueError(
            "cannot write network JSON: a neuron parameter or shortcut weight "
            "is not finite"
        ) from None


_JSON_KEYS = ("input_dim", "layers", "shortcuts", "masks")


def _refuse_constant(name: str):
    raise ValueError(f"network JSON holds the non-finite number {name}")


_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def from_json(text: str) -> NetworkSpec:
    """Parse a network written by to_json.

    A malformed document raises ValueError naming the layer, neuron,
    shortcut or mask at fault.
    """
    doc = _DECODER.decode(text)
    if not isinstance(doc, dict):
        raise ValueError(
            f"network JSON must be an object, got {type(doc).__name__}"
        )
    missing = [key for key in _JSON_KEYS if key not in doc]
    if missing:
        raise ValueError(f"network JSON lacks {', '.join(missing)}")
    try:
        input_dim = _field(doc, "input_dim", int)
        for key in _JSON_KEYS[1:]:
            _field(doc, key, list)
    except ValueError as exc:
        raise ValueError(f"network JSON: {exc}") from None
    return NetworkSpec(
        input_dim,
        _each(doc["layers"], "layer", _layer_from_dict),
        _each(doc["shortcuts"], "shortcut", _shortcut_from_dict),
        _each(doc["masks"], "masks of layer", _masks_from_list),
    )
