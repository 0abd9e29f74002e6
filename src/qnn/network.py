"""Layered networks of quadratic / conventional / passthrough neurons.

A NetworkSpec is a plain value: an ordered list of layers, optional forward
shortcut edges, and per-parameter trainability masks.  It is the
construction and JSON format, and nothing here mutates it: forward/backward
are pure functions of the spec.  _compile turns it into one flat array of
(3n+3, m) layer blocks, each neuron of any kind a column in quadratic form.
forward_batch evaluates those blocks layer by layer, trainable_values and
set_trainable_values gather and scatter on them, and a PackedNetwork copies
them into one row per restart so that every restart advances in the same
stacked matmuls.  The executor has two calls: forward(theta, X) writes the
(R, T) trainable values and returns the output, and loss_and_grad(theta, X,
loss) adds the backward pass right after that forward.  It owns its work
arrays (activations, their gradient and the per-layer products), held
batch-last as (R, width, B) so that each layer's slice is contiguous, made
once per batch size, reused by every step and freed with it.
backward_batch is loss_and_grad of a one-row executor at the net's own
values.  The per-neuron forward and backward are the test oracle, in
oracles.

Canonical parameter ordering (used by gradients, masks, and JSON):
layer-major, neuron-minor, within a neuron (w_r, b_r, w_g, b_g, w_b, c) for
quadratic and (w, b) for conventional, with shortcut weights appended last.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .neurons import (
    ConventionalNeuron,
    Neuron,
    PassthroughNeuron,
    neuron_from_params,
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


# ---------------------------------------------------------------------------
# Compiled layer blocks
# ---------------------------------------------------------------------------


def _compile(net: NetworkSpec):
    """net as one flat float64 array: each layer's (3n+3, m) block, n its
    fan-in and m its width, then the shortcut weights.

    Block rows are W_r | b_r | W_g | b_g | W_b | c, and column j is neuron j
    as a quadratic neuron whose canonical parameters fill the leading rows:
    a conventional neuron (w, b) fills W_r and b_r and gets b_g = 1, and a
    passthrough, which has none, is the one-hot W_r = e_index with b_g = 1.
    The zero entries multiply their inputs too, so where an input is inf a
    pre-activation can be NaN where the per-neuron oracle gives inf or an
    exact copy.  Returns (params, blocks, quadratic): blocks[k] is layer
    k's block as a view of params, quadratic[k] whether it holds a
    quadratic neuron.
    """
    fan_in = [net.input_dim] + net.layer_widths()[:-1]
    sizes = [(3 * n + 3) * layer.width for n, layer in zip(fan_in, net.layers)]
    params = np.zeros(sum(sizes) + len(net.shortcuts))
    params[sum(sizes):] = [sc.weight for sc in net.shortcuts]
    blocks, quadratic = [], []
    pos = 0
    for layer, n, size in zip(net.layers, fan_in, sizes):
        block = params[pos : pos + size].reshape(3 * n + 3, layer.width)
        pos += size
        for j, nr in enumerate(layer.neurons):
            block[: nr.param_count, j] = nr.param_vector()
            if nr.kind != "quadratic":
                block[2 * n + 1, j] = 1.0
            if nr.kind == "passthrough":
                block[nr.index, j] = 1.0
        blocks.append(block)
        quadratic.append(any(nr.kind == "quadratic" for nr in layer.neurons))
    return params, blocks, quadratic


def _theta_index(net: NetworkSpec) -> np.ndarray:
    """Position in the params of _compile of each canonical trainable value."""
    index, pos, n = [], 0, net.input_dim
    for layer, layer_masks in zip(net.layers, net.masks):
        m = layer.width
        index += [pos + np.flatnonzero(mask) * m + j for j, mask in enumerate(layer_masks)]
        pos += (3 * n + 3) * m
        n = m
    index.append(pos + np.flatnonzero([sc.trainable for sc in net.shortcuts]))
    return np.concatenate(index).astype(np.intp)


# ---------------------------------------------------------------------------
# Forward evaluation
# ---------------------------------------------------------------------------


def _check_inputs(X, input_dim: int) -> np.ndarray:
    """X as a (B, input_dim) float64 array."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != input_dim:
        raise ValueError(f"expected batch of shape (B, {input_dim}), got {X.shape}")
    return X


def _check_batch(net: NetworkSpec, X, upstream=None):
    """X as a (B, input_dim) float64 array and, when given, upstream as (B, output_dim)."""
    X = _check_inputs(X, net.input_dim)
    if upstream is not None:
        upstream = np.asarray(upstream, dtype=np.float64)
        if upstream.shape != (X.shape[0], net.output_dim):
            raise ValueError(
                f"expected upstream of shape ({X.shape[0]}, {net.output_dim})"
            )
    return X, upstream


def forward_batch(net: NetworkSpec, X) -> np.ndarray:
    """Evaluate a batch of inputs, shape (B, input_dim) -> (B, output_dim).

    Runs the compiled blocks layer by layer, Z = (X W_r + b_r) * (X W_g +
    b_g) + (X * X) W_b + c (the affine part alone where a layer holds no
    quadratic neuron), adds the incoming shortcuts in list order and applies
    the activation.  Activations are held transposed, one row per neuron,
    so that adding a bias or a shortcut runs along the batch.
    """
    X, _ = _check_batch(net, X)
    _, blocks, quadratic = _compile(net)
    acts: list[np.ndarray] = []
    current = X.T
    for k, (layer, block, quad) in enumerate(zip(net.layers, blocks, quadratic)):
        n = len(current)
        Z = block[:n].T @ current
        Z += block[n][:, None]
        if quad:
            Q = block[n + 1 : 2 * n + 1].T @ current
            Q += block[2 * n + 1][:, None]
            Z *= Q
            # the square term reuses Q, so a wide layer holds two (m, B) arrays
            Z += np.matmul(block[2 * n + 2 : 3 * n + 2].T, current * current, out=Q)
            Z += block[3 * n + 2][:, None]
        for sc in net.shortcuts:
            if sc.dst_layer == k:
                Z[sc.dst_neuron] += sc.weight * acts[sc.src_layer][sc.src_neuron]
        if layer.activation == "relu":
            np.maximum(0.0, Z, out=Z)
        acts.append(Z)
        current = Z
    return np.ascontiguousarray(current.T)


def forward(net: NetworkSpec, x) -> np.ndarray:
    """Evaluate one input vector, shape (input_dim,) -> (output_dim,)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (net.input_dim,):
        raise ValueError(f"expected input of shape ({net.input_dim},), got {x.shape}")
    return forward_batch(net, x[None, :])[0]


# ---------------------------------------------------------------------------
# Parameter vector / masks
# ---------------------------------------------------------------------------


def parameter_count(net: NetworkSpec) -> int:
    """Total parameter count, shortcut weights included."""
    total = sum(nr.param_count for layer in net.layers for nr in layer.neurons)
    return total + len(net.shortcuts)


def trainable_count(net: NetworkSpec) -> int:
    return len(_theta_index(net))


def trainable_values(net: NetworkSpec) -> np.ndarray:
    """Mask-selected parameters in canonical order (shortcut weights last)."""
    params, _, _ = _compile(net)
    return params[_theta_index(net)]


def set_trainable_values(net: NetworkSpec, values) -> NetworkSpec:
    """Return a copy of net with its trainable parameters replaced."""
    values = np.asarray(values, dtype=np.float64)
    index = _theta_index(net)
    if values.shape != index.shape:
        raise ValueError(
            f"expected {len(index)} trainable values, got {values.shape}"
        )
    params, blocks, _ = _compile(net)
    params[index] = values
    layers = []
    for layer, block in zip(net.layers, blocks):
        neurons = [PassthroughNeuron(nr.index) if nr.kind == "passthrough"
                   else neuron_from_params(nr.kind, block[: nr.param_count, j].copy())
                   for j, nr in enumerate(layer.neurons)]
        layers.append(LayerSpec(neurons, layer.activation))
    weights = params[len(params) - len(net.shortcuts) :]
    shortcuts = [replace(sc, weight=w) for sc, w in zip(net.shortcuts, weights)]
    masks = [[m.copy() for m in layer_masks] for layer_masks in net.masks]
    return NetworkSpec(net.input_dim, layers, shortcuts, masks)


# ---------------------------------------------------------------------------
# Packed executor: forward, loss and analytic gradients on one flat buffer
# ---------------------------------------------------------------------------


class _PackedLayer(NamedTuple):
    quadratic: bool  # False: conventional and passthrough neurons only
    relu: bool
    inp: slice  # augmented input [x; 1], rows of the activation array
    out: slice  # this layer's activations
    thirds_t: tuple  # [W_r; b_r], [W_g; b_g], [W_b; c] transposed: (R, m, n + 1) views
    weights: tuple  # W_r, W_g, W_b without the bias rows: (R, n, m)
    grads: tuple  # gradient views of the thirds, untransposed: (R, n + 1, m)
    # (cells of one restart's dense matrix, the same cells over all restarts,
    # weight positions, the matrices' shape (R, rows, m))
    shortcuts: tuple | None
    overwrite_input_grad: bool  # no shortcut starts at layer k-1: its gradient is still empty
    # the backward's products through the layer's width, W @ d and M @ d:
    # np.multiply, an exact broadcast, where the layer is one neuron wide
    # (a rank-1 BLAS call costs about six times as much), else np.matmul
    through_width: np.ufunc


class _LayerBuffers(NamedTuple):
    # Each is a C-contiguous (R, rows, B) array, n the layer's fan-in and m
    # its width.
    product: np.ndarray  # m rows, over grad_acts' memory, which the forward leaves free
    X2: np.ndarray | None  # X1 * X1, n + 1 rows; quadratic layers only
    P: np.ndarray | None  # m rows; quadratic layers only
    Q: np.ndarray | None
    T: np.ndarray | None  # n rows, where the input gradient is a sum of terms
    mask: np.ndarray | None  # bool, m rows: where a ReLU layer's output is positive


class _WorkBuffers(NamedTuple):
    acts: np.ndarray  # (R, act_width, B); the ones rows are written once
    grad_acts: np.ndarray  # same shape
    layers: list[_LayerBuffers]


def _leading(buf: np.ndarray, shape: tuple) -> np.ndarray:
    """A C-contiguous view of the given shape on the first entries of buf."""
    return buf.reshape(-1)[: int(np.prod(shape))].reshape(shape)


class PackedNetwork:
    """A NetworkSpec compiled once into flat float64 parameter buffers.

    `params` has shape (R, P): one row per restart, each a copy of the
    layer blocks and shortcut weights of _compile.  Activations are held
    batch-last, one row per neuron and one column per input.  With the
    input augmented by a row of ones, X1 = [X; 1], a layer is three
    matmuls,

        Z = ([W_r; b_r]^T X1) * ([W_g; b_g]^T X1) + [W_b; c]^T (X1 * X1)

    plus its incoming shortcuts, then the activation.  Every matmul is
    stacked over the restart axis: blocks are (R, 3n+3, m), activations
    (R, width, B), and one input batch X feeds every restart.  A layer
    without quadratic neurons is evaluated as its affine part alone.
    Shortcut weights follow the blocks, and `theta_index` maps the
    canonical trainable vector (shortcut weights last) into a row of
    `params`.

    Restarts never mix: row i of every output and gradient depends on row i
    of `params` alone, and equals what a one-row executor gives for it.
    The executor agrees with oracles.reference_forward_batch and
    reference_backward_batch, the per-neuron path, to rounding on finite
    values (see _compile for inf); the trainer drops a restart at its first
    non-finite loss.

    `forward(theta, X)` writes the (R, T) trainable values into `params`
    and returns the output, (R, B, output_dim); `loss_and_grad` runs the
    backward pass right after its own forward, on what that pass left in
    the work arrays.  Both take X as (B, input_dim) and transpose at that
    boundary.

    The executor owns its work arrays, one set for the batch size last
    seen: the activations (R, act_width, B), their ones rows written once,
    the activation gradient of the same shape, X1 * X1, P and Q of each
    quadratic layer, an (R, n, B) scratch for the input gradient and a
    bool (R, m, B) buffer for the ReLU masks.  Every layer's slice of the
    activations is then contiguous within a restart.  The first forward
    pass at a batch size makes them and a new size replaces them; they
    live as long as the executor, and the trainer makes one executor per
    `train` call.  The layer products, the input gradient and the ReLU
    masks are written into them through `out=`; a warm step still
    allocates the shortcut terms of the backward and the output copy.  A
    pass reads only what it wrote: the backward zeroes just the gradient
    rows of shortcut sources, which it sums into, and no row at all in a
    net without shortcuts.  Where a layer is one neuron wide, the
    backward's products through its width (W @ d, M @ d) are broadcast
    multiplies, which give the same bits as the rank-1 matmul.  One
    executor serves one caller at a time.  The output a forward pass
    returns is a copy that later passes leave alone.
    """

    def __init__(self, net: NetworkSpec, restarts: int = 1):
        if restarts < 1:
            raise ValueError("restarts must be >= 1")
        self._input_dim = net.input_dim
        params, blocks, quadratic = _compile(net)
        self.params = np.tile(params, (restarts, 1))
        self._grad = np.zeros_like(self.params)
        sc_base = len(params) - len(net.shortcuts)
        fan_in = [net.input_dim] + net.layer_widths()[:-1]

        # Rows of the per-pass activation array: the input, then each
        # layer's activations, each block followed by a row of ones.
        base = np.cumsum([0] + [n + 1 for n in fan_in] + [net.output_dim + 1])
        self._ones = base[1:] - 1
        self._act_width = int(base[-1])

        incoming: dict[int, list[int]] = {}
        for i, sc in enumerate(net.shortcuts):
            incoming.setdefault(sc.dst_layer, []).append(i)
        sources = {sc.src_layer for sc in net.shortcuts}

        self._layers = []
        pos = 0
        for k, (layer, n, quad) in enumerate(zip(net.layers, fan_in, quadratic)):
            m = layer.width
            shape = (restarts, 3 * n + 3, m)
            block = self.params[:, pos : pos + blocks[k].size].reshape(shape)
            gblock = self._grad[:, pos : pos + blocks[k].size].reshape(shape)
            shortcuts = None
            if k in incoming:
                # every earlier activation row feeds this layer through a
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
                quadratic=quad,
                relu=layer.activation == "relu",
                inp=slice(base[k], base[k + 1]),
                out=slice(base[k + 1], base[k + 2] - 1),
                thirds_t=tuple(block[:, t].swapaxes(1, 2) for t in thirds),
                weights=tuple(block[:, t] for t in weights),
                grads=tuple(gblock[:, t] for t in thirds),
                shortcuts=shortcuts,
                overwrite_input_grad=k - 1 not in sources,
                through_width=np.multiply if m == 1 else np.matmul,
            ))
            pos += blocks[k].size
        # the activation gradient rows that the backward sums into with +=:
        # those of every shortcut source.  Every other row it reads is
        # written whole first, by the upstream or by the next layer.
        self._summed_rows = [self._layers[k].out for k in sorted(sources)]

        self.theta_index = _theta_index(net)
        self._work: _WorkBuffers | None = None
        self._matrices: list = []  # the last pass's shortcut matrices, per layer

    def _buffers(self, batch: int) -> _WorkBuffers:
        """The work arrays for a batch of `batch` columns, made on first use.

        A new batch size replaces the previous set, so at most one is held.
        """
        work = self._work
        if work is None or work.acts.shape[2] != batch:
            R = len(self.params)
            acts = np.empty((R, self._act_width, batch))
            acts[:, self._ones] = 1.0
            grad_acts = np.empty_like(acts)
            widths = [layer.out.stop - layer.out.start for layer in self._layers]
            masks = np.empty(R * batch * max(
                (m for m, layer in zip(widths, self._layers) if layer.relu), default=0),
                dtype=bool)
            # Layer k > 0 sums its input gradient from several terms unless
            # it is affine and the first to write that gradient.  The terms
            # then pass one at a time through T, and T of every layer shares
            # one scratch array.
            summed = [k > 0 and (layer.quadratic or not layer.overwrite_input_grad)
                      for k, layer in enumerate(self._layers)]
            fan_in = [layer.inp.stop - layer.inp.start - 1 for layer in self._layers]
            scratch = np.empty(R * batch * max(
                (n for n, s in zip(fan_in, summed) if s), default=0))
            per_layer = []
            for layer, n, m, s in zip(self._layers, fan_in, widths, summed):
                X2 = P = Q = None
                if layer.quadratic:
                    X2, P, Q = (np.empty((R, rows, batch)) for rows in (n + 1, m, m))
                per_layer.append(_LayerBuffers(
                    _leading(grad_acts, (R, m, batch)), X2, P, Q,
                    _leading(scratch, (R, n, batch)) if s else None,
                    _leading(masks, (R, m, batch)) if layer.relu else None,
                ))
            work = _WorkBuffers(acts, grad_acts, per_layer)
            self._work = work
        return work

    def forward(self, theta, X: np.ndarray) -> np.ndarray:
        """Write theta (R, T) into params and evaluate a (B, input_dim)
        float64 batch under every restart's params.

        Returns the output, shape (R, B, output_dim), a copy that later
        passes leave alone.  Raises ValueError if X is not (B, input_dim).
        """
        X = _check_inputs(X, self._input_dim)
        self.params[:, self.theta_index] = theta
        work = self._buffers(X.shape[0])
        acts = work.acts
        acts[:, : self._input_dim] = X.T
        matrices = []
        for layer, (product, X2, P, Q, _, _) in zip(self._layers, work.layers):
            quadratic, relu, inp, out, (W, W_g, W_b), _, _, sc, _, _ = layer
            X1 = acts[:, inp]
            Z = acts[:, out]
            M = None
            if quadratic:
                np.multiply(X1, X1, out=X2)
                np.matmul(W, X1, out=P)
                np.matmul(W_g, X1, out=Q)
                np.multiply(P, Q, out=Z)
                Z += np.matmul(W_b, X2, out=product)
            else:
                np.matmul(W, X1, out=Z)
            if sc is not None:
                _, all_cells, wpos, shape = sc
                size = shape[0] * shape[1] * shape[2]
                M = np.bincount(all_cells, self.params[:, wpos].ravel(), size)
                M = M.reshape(shape)
                Z += np.matmul(M.swapaxes(1, 2), acts[:, : shape[1]], out=product)
            if relu:
                np.maximum(Z, 0.0, out=Z)
            matrices.append(M)
        self._matrices = matrices
        return acts[:, out].swapaxes(1, 2).copy()

    def _backward(self, upstream: np.ndarray) -> np.ndarray:
        """Gradient of sum_b upstream[r, b] . output[r, b] w.r.t. each
        restart's trainable parameters, shape (R, T).

        upstream has the output's shape (R, B, output_dim).  Runs from the
        work buffers and shortcut matrices as the last forward pass left
        them, and overwrites the buffers.  For a quadratic neuron with
        p = w_r.x + b_r and q = w_g.x + b_g: dh/dw_r = q x, dh/db_r = q,
        dh/dw_g = p x, dh/db_g = p, dh/dw_b = x*x, dh/dc = 1.
        """
        work = self._work
        acts, grad_acts = work.acts, work.grad_acts
        for rows in self._summed_rows:
            grad_acts[:, rows] = 0.0
        grad_acts[:, self._layers[-1].out] = upstream.swapaxes(1, 2)
        grad = self._grad
        for k in range(len(self._layers) - 1, -1, -1):
            (quadratic, relu, inp, out, _, (W, W_g, W_b), (G, G_g, G_b), sc, overwrite,
             through) = self._layers[k]
            M = self._matrices[k]
            _, X2, P, Q, T, mask = work.layers[k]
            X1 = acts[:, inp]
            d = grad_acts[:, out]
            if relu:
                d *= np.greater(acts[:, out], 0.0, out=mask)
            if sc is not None:
                cells, _, wpos, shape = sc
                sources = acts[:, : shape[1]]
                grad[:, wpos] = (sources @ d.swapaxes(1, 2)).reshape(shape[0], -1)[:, cells]
                grad_acts[:, : shape[1]] += through(M, d)
            dq = d
            if quadratic:
                dq = np.multiply(d, Q, out=Q)
                dp = np.multiply(d, P, out=P)
                np.matmul(X1, dp.swapaxes(1, 2), out=G_g)
                np.matmul(X2, d.swapaxes(1, 2), out=G_b)
            np.matmul(X1, dq.swapaxes(1, 2), out=G)
            if not k:
                break
            g_inp = grad_acts[:, inp.start : inp.stop - 1]
            if overwrite:
                through(W, dq, out=g_inp)
            else:
                g_inp += through(W, dq, out=T)
            if quadratic:
                g_inp += through(W_g, dp, out=T)
                # 2 x * (W_b d); doubling last is exact, so no buffer for 2 x
                through(W_b, d, out=T)
                T *= X1[:, :-1]
                T *= 2.0
                g_inp += T
        return grad[:, self.theta_index]

    def loss_and_grad(self, theta, X: np.ndarray, loss):
        """Run forward(theta, X) and the backward pass right after it.

        loss maps the (R, B, output_dim) output to (values, d values / d
        output), values holding one loss per restart; returns (values,
        gradients w.r.t. theta, shape (R, T)).  Raises ValueError if X is
        not (B, input_dim) or the gradient loss returns is not shaped like
        the output.
        """
        out = self.forward(theta, X)
        values, upstream = loss(out)
        upstream = np.asarray(upstream, dtype=np.float64)
        if upstream.shape != out.shape:
            raise ValueError(
                f"expected loss upstream of shape {out.shape}, got {upstream.shape}"
            )
        return values, self._backward(upstream)


# ---------------------------------------------------------------------------
# Backward (analytic gradients)
# ---------------------------------------------------------------------------


def backward_batch(net: NetworkSpec, X, upstream) -> np.ndarray:
    """Gradient of sum_b upstream[b] . output[b] w.r.t. trainable parameters.

    Returns one value per mask=true parameter, canonical order; frozen
    parameters receive no entry.  Exact chain-rule derivatives, computed by
    a one-row PackedNetwork at net's own parameters.
    """
    X, upstream = _check_batch(net, X, upstream)
    packed = PackedNetwork(net)
    theta = packed.params[:, packed.theta_index]
    return packed.loss_and_grad(theta, X, lambda out: (None, upstream[None]))[1][0]


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
    neuron = neuron_from_params("quadratic", np.zeros(3 * input_dim + 3))
    return NetworkSpec(input_dim, [LayerSpec([neuron], activation="identity")])


def one_hidden_quadratic(input_dim: int, width: int) -> NetworkSpec:
    """width quadratic ReLU units feeding one linear output neuron."""
    return _one_hidden("quadratic", 3 * input_dim + 3, input_dim, width)


def one_hidden_conventional(input_dim: int, width: int) -> NetworkSpec:
    """width conventional ReLU units feeding one linear output neuron."""
    return _one_hidden("conventional", input_dim + 1, input_dim, width)


def _one_hidden(kind: str, param_count: int, input_dim: int, width: int) -> NetworkSpec:
    """width zero-initialised ReLU units of one kind feeding one linear output neuron."""
    if width < 1:
        raise ValueError("width must be >= 1")
    hidden = [neuron_from_params(kind, np.zeros(param_count)) for _ in range(width)]
    out = ConventionalNeuron(w=np.zeros(width), b=0.0)
    return NetworkSpec(
        input_dim,
        [LayerSpec(hidden, "relu"), LayerSpec([out], "identity")],
    )


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _neuron_to_dict(neuron: Neuron) -> dict:
    if isinstance(neuron, PassthroughNeuron):
        return {"kind": "passthrough", "index": neuron.index}
    return {"kind": neuron.kind, "params": neuron.param_vector().tolist()}


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
    return neuron_from_params(kind, params.astype(np.float64, copy=False))


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
            {key: getattr(sc, key) for key in _SHORTCUT_FIELDS} for sc in net.shortcuts
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
