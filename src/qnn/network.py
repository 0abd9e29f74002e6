"""Layered networks of quadratic / conventional / passthrough neurons.

A NetworkSpec stores its parameters once, as one flat float64 array of
(3n+3, m) layer blocks, each neuron of any kind a column in quadratic form,
then the shortcut weights, with a bool array of the same layout marking the
trainable entries; beside them it keeps each layer's activation and neuron
kinds and the shortcut endpoints.  Builders write the block columns, JSON
reads and writes them directly, and neuron objects are made only where a
net is built from them or net.layers is read (by the per-neuron oracle in
oracles).  Nothing here mutates a spec: forward_batch and backward_batch
are pure functions of it, and both take a batch, (B, input_dim); a single
input is the batch x[None].  forward_batch evaluates the blocks layer by
layer on one tile of the batch at a time, through one workspace per call,
a layer of fan-in one by broadcast multiplies, trainable_values and
set_trainable_values gather and scatter on them, and a PackedNetwork, the
training executor, copies them into one row per restart so that every
restart advances in the same stacked matmuls; backward_batch is a one-row
executor at the net's own values.  Complex inputs, parameters and data
are refused by name (neurons._real), here and in neurons, trainer,
polynomials, oracles and builders, rather than cast to their real parts.

Two evaluators of the blocks remain, each for a measured reason (2-core
VM, one BLAS thread, B = 4096, best of 5):
- forward_batch is not the forward pass of a one-row executor.  On 201
  exact-build nets it took 229 ms against 326 ms for the executor, 141 ms
  of which went to building it and its work arrays.  The executor folds
  the biases into its matmuls through a ones row, so its output differed
  from the per-neuron oracle in the last bits on every deep radial net at
  d = 4 and on the factorizer, also with c added after the square term;
  forward_batch adds each bias after its product and matches the oracle
  bit for bit on the constructed nets.  Its tiles bound its memory: on
  one_hidden_quadratic(2, 200) at B = 200,000 the tracemalloc peak fell
  from 613 to 2.6 MiB and the time from 0.63 to 0.24 s, and on the d = 4
  deep radial stack at B = 100,000 from 32 to 2.9 MiB; over 20 exact-build
  rounds the process took 2.5 thousand page faults instead of 60.
- The executor keeps a dense shortcut matrix per layer.  One gather and
  scatter per shortcut made the factorizer's training step slower: median
  444 against 381 us over 8 interleaved runs (R = 10, B = 100).

Canonical parameter ordering (used by gradients, masks, and JSON):
layer-major, neuron-minor, within a neuron (w_r, b_r, w_g, b_g, w_b, c) for
quadratic and (w, b) for conventional, with shortcut weights appended last.
"""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np

from .neurons import Neuron, PassthroughNeuron, _real, neuron_fan_in, neuron_from_params

ACTIVATIONS = ("relu", "identity")


def _layer(activation: str, kinds) -> tuple[str, tuple]:
    """A layer's structure, (activation, kinds): per neuron "quadratic",
    "conventional", or for a passthrough the input index it copies."""
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    if not kinds:
        raise ValueError("layer must contain at least one neuron")
    for kind in set(kinds).difference(("quadratic", "conventional")):
        if type(kind) is not int:
            raise ValueError(f"unknown neuron kind {kind!r}")
    return activation, tuple(kinds)


def _kind(neuron: Neuron):
    return neuron.index if neuron.kind == "passthrough" else neuron.kind


class BlockRows(NamedTuple):
    """The rows of a block of fan-in n down which a column holds a neuron's
    canonical parameters; a conventional neuron's w and b are w_r and b_r."""

    w_r: slice
    b_r: int
    w_g: slice
    b_g: int
    w_b: slice
    c: int


def block_rows(n: int) -> BlockRows:
    return BlockRows(slice(0, n), n, slice(n + 1, 2 * n + 1), 2 * n + 1,
                     slice(2 * n + 2, 3 * n + 2), 3 * n + 2)


@dataclass
class LayerSpec:
    """An ordered list of neurons sharing one input vector and activation."""

    neurons: list[Neuron]
    activation: str = "relu"

    def __post_init__(self):
        _layer(self.activation, [_kind(nr) for nr in self.neurons])

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


class NetworkSpec:
    """Layered network with shortcuts and per-parameter trainability masks.

    params holds each layer's (3n+3, m) block, n its fan-in and m its width,
    then the shortcut weights; blocks[k] is a view of layer k's block.  Its
    rows are W_r | b_r | W_g | b_g | W_b | c (block_rows), and column j is
    neuron j as a quadratic neuron: a conventional neuron (w, b) fills W_r
    and b_r and has b_g = 1, and a passthrough is the one-hot W_r = e_index
    with b_g = 1.  The zero entries multiply their inputs too, so where an
    input is inf a pre-activation can be NaN where the per-neuron oracle
    gives inf or an exact copy.  trainable flags the trainable entries of
    params among the canonical parameters and shortcut weights; structure
    holds each layer's (activation, kinds) (see _layer) and shortcut_ends
    each (src_layer, src_neuron, dst_layer, dst_neuron).

    NetworkSpec(input_dim, layers, shortcuts, masks) builds a net from
    neuron objects, masks[k][j] flagging the entries of neuron j's parameter
    vector (all trainable when masks is None), and NetworkSpec.blank one for
    a builder to write the blocks of.  net.layers and net.shortcuts are made
    on each read; net.masks are views of trainable, so that writing False to
    one freezes those parameters.
    """

    def __init__(self, input_dim: int, layers, shortcuts=(), masks=None):
        neurons = [layer.neurons for layer in layers]
        vectors = [[nr.param_vector() for nr in nrs] for nrs in neurons]
        structure = tuple(_layer(layer.activation, [_kind(nr) for nr in nrs])
                          for layer, nrs in zip(layers, neurons))
        if masks is not None:
            masks = [[np.asarray(m, dtype=bool) for m in lm] for lm in masks]
        self._setup(input_dim, structure, shortcuts,
                    tuple(tuple(map(len, layer)) for layer in vectors),
                    None if masks is None else
                    tuple(tuple(len(m) if m.ndim == 1 else -1 for m in lm) for lm in masks))
        own = self._layout.own
        self.params[own] = np.concatenate(list(chain.from_iterable(vectors)))
        if masks is not None:
            self.trainable[own] = np.concatenate(list(chain.from_iterable(masks)))

    @classmethod
    def blank(cls, input_dim: int, layers, shortcuts=()) -> NetworkSpec:
        """A net of layers given as (activation, kinds), every neuron
        parameter zero and trainable, and the given shortcuts."""
        net = cls.__new__(cls)
        net._setup(input_dim, tuple(_layer(*layer) for layer in layers), shortcuts)
        return net

    def _setup(self, input_dim, structure, shortcuts, counts=None, mask_lengths=None):
        """Check the structure, and each neuron's parameter count and mask
        length where given, and allocate params and trainable."""
        if input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if not structure:
            raise ValueError("network must have at least one layer")
        sizes, fit = _sizes_of(input_dim, structure)
        if not (fit and counts in (None, sizes) and mask_lengths in (None, sizes)):
            _refuse(input_dim, structure, sizes, counts, mask_lengths)
        layout = _layout_of(input_dim, structure)  # sized only once the checks pass
        widths = [len(kinds) for _, kinds in structure]
        for sc in shortcuts:
            if not (0 <= sc.src_layer < sc.dst_layer < len(widths)):
                raise ValueError("shortcut layer indices out of range")
            if not 0 <= sc.src_neuron < widths[sc.src_layer]:
                raise ValueError("shortcut source neuron out of range")
            if not 0 <= sc.dst_neuron < widths[sc.dst_layer]:
                raise ValueError("shortcut destination neuron out of range")
        self.input_dim, self.structure, self._layout = input_dim, structure, layout
        self.shortcut_ends = tuple(
            (sc.src_layer, sc.src_neuron, sc.dst_layer, sc.dst_neuron) for sc in shortcuts)
        self.params = np.zeros(layout.size + len(shortcuts))
        self.params[layout.ones] = 1.0
        self.params[layout.size:] = [sc.weight for sc in shortcuts]
        self.trainable = np.zeros(len(self.params), dtype=bool)
        self.trainable[layout.own] = True
        self.trainable[layout.size:] = [sc.trainable for sc in shortcuts]

    def _split(self, flat: np.ndarray) -> list[np.ndarray]:
        """The layer blocks of an array laid out as params on its last axis."""
        return [flat[..., pos : pos + rows * m].reshape(*flat.shape[:-1], rows, m)
                for pos, rows, m in self._layout.blocks]

    @property
    def blocks(self) -> list[np.ndarray]:
        return self._split(self.params)

    @property
    def layers(self) -> list[LayerSpec]:
        return [LayerSpec([neuron_from_params(kind, block[:size, j].copy()) if size
                           else PassthroughNeuron(kind)
                           for j, (kind, size) in enumerate(zip(kinds, sizes))], activation)
                for (activation, kinds), sizes, block
                in zip(self.structure, self._layout.sizes, self.blocks)]

    @property
    def masks(self) -> list[list[np.ndarray]]:
        return [[block[:size, j] for j, size in enumerate(sizes)]
                for sizes, block in zip(self._layout.sizes, self._split(self.trainable))]

    @property
    def shortcuts(self) -> list[Shortcut]:
        tail = self._layout.size
        return [Shortcut(*ends, self.params[tail + i], bool(self.trainable[tail + i]))
                for i, ends in enumerate(self.shortcut_ends)]

    @property
    def depth(self) -> int:
        return len(self.structure)

    @property
    def output_dim(self) -> int:
        return len(self.structure[-1][1])

    def layer_widths(self) -> list[int]:
        return [len(kinds) for _, kinds in self.structure]


class _Layout(NamedTuple):
    """What a structure fixes of a net's params; the arrays are read-only."""

    blocks: tuple  # per layer, (position, rows, width) of its block
    sizes: tuple  # per layer, each neuron's parameter count
    size: int  # of the blocks; the shortcut weights follow
    ones: np.ndarray  # positions a passthrough or conventional column fixes at 1
    own: np.ndarray  # each neuron parameter's position, in canonical order


@lru_cache(maxsize=256)
def _sizes_of(input_dim: int, structure: tuple) -> tuple[tuple, bool]:
    """Each layer's per-neuron parameter counts, as plain tuples, and
    whether every passthrough index is below its fan-in."""
    sizes, n, fit = [], input_dim, True
    for _, kinds in structure:
        size = {"quadratic": 3 * n + 3, "conventional": n + 1}
        sizes.append(tuple(size.get(kind, 0) for kind in kinds))
        indices = set(kinds).difference(size)
        fit = fit and (not indices or 0 <= min(indices) and max(indices) < n)
        n = len(kinds)
    return tuple(sizes), fit


def _refuse(input_dim: int, structure: tuple, sizes: tuple, counts, mask_lengths):
    """Raise ValueError for the first fault, layer by layer and neuron by
    neuron: masks that do not parallel the layers or a layer's neurons, a
    passthrough index out of range, a parameter count that does not fit the
    fan-in, a mask of the wrong length."""
    if mask_lengths is not None and len(mask_lengths) != len(structure):
        raise ValueError("masks must parallel layers")
    n = input_dim
    for k, ((_, kinds), layer_sizes) in enumerate(zip(structure, sizes)):
        if mask_lengths is not None and len(mask_lengths[k]) != len(kinds):
            raise ValueError(f"masks for layer {k} must parallel its neurons")
        for j, (kind, size) in enumerate(zip(kinds, layer_sizes)):
            if not size and not 0 <= kind < n:
                raise ValueError(f"layer {k} neuron {j}: passthrough index "
                                 f"{kind} out of range for width {n}")
            if size and counts is not None and counts[k][j] != size:
                raise ValueError(f"layer {k} neuron {j}: expects input width "
                                 f"{neuron_fan_in(kind, counts[k][j])}, "
                                 f"previous layer has {n}")
            if mask_lengths is not None and mask_lengths[k][j] != size:
                raise ValueError(f"mask shape mismatch at layer {k} neuron {j}")
        n = len(kinds)


@lru_cache(maxsize=256)
def _layout_of(input_dim: int, structure: tuple) -> _Layout:
    """The _Layout of a structure, made once for all nets that share it."""
    sizes, _ = _sizes_of(input_dim, structure)
    blocks, ones, columns, strides = [], [], [], []
    pos, n = 0, input_dim
    for (_, kinds), layer_sizes in zip(structure, sizes):
        m = len(kinds)
        for j, (kind, size) in enumerate(zip(kinds, layer_sizes)):
            if not size:
                ones.append(pos + kind * m + j)
            if kind != "quadratic":
                ones.append(pos + (2 * n + 1) * m + j)
        columns += range(pos, pos + m)
        strides += [m] * m
        blocks.append((pos, 3 * n + 3, m))
        pos += (3 * n + 3) * m
        n = m
    counts = np.fromiter(chain.from_iterable(sizes), np.intp)
    rows = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    own = np.repeat(columns, counts) + rows * np.repeat(strides, counts)
    ones = np.array(ones, dtype=np.intp)
    own.flags.writeable = ones.flags.writeable = False
    return _Layout(tuple(blocks), sizes, pos, ones, own)


def _theta_index(net: NetworkSpec) -> np.ndarray:
    """Position in net.params of each canonical trainable value."""
    own, size = net._layout.own, net._layout.size
    return np.concatenate([own[net.trainable[own]],
                           size + np.flatnonzero(net.trainable[size:])])


# ---------------------------------------------------------------------------
# Forward evaluation
# ---------------------------------------------------------------------------


def _check_inputs(X, input_dim: int) -> np.ndarray:
    """X as a (B, input_dim) float64 array."""
    X = _real(X, "X")
    if X.ndim != 2 or X.shape[1] != input_dim:
        raise ValueError(f"expected batch of shape (B, {input_dim}), got {X.shape}")
    return X


def _check_batch(net: NetworkSpec, X, upstream=None):
    """X as a (B, input_dim) float64 array and, when given, upstream as (B, output_dim)."""
    X = _check_inputs(X, net.input_dim)
    if upstream is not None:
        upstream = _real(upstream, "upstream")
        if upstream.shape != (X.shape[0], net.output_dim):
            raise ValueError(
                f"expected upstream of shape ({X.shape[0]}, {net.output_dim})"
            )
    return X, upstream


def _through_fan_in(W: np.ndarray, A: np.ndarray, out=None) -> np.ndarray:
    """W^T A for (n, m) weight rows and (n, B) activations.

    Where the fan-in n is 1 this is a broadcast multiply, not a rank-1
    matmul, which costs several times as much.  The matmul sums from 0.0,
    so it returns 0.0 + w x; adding 0.0 after the multiply gives those bits,
    an exact -0.0 product turned into +0.0 included.
    """
    if len(W) > 1:
        return np.matmul(W.T, A, out=out)
    out = np.multiply(W.T, A, out=out)
    out += 0.0
    return out


_TILE_BYTES = 1 << 19  # one (widest layer, tile rows) float64 slab of the workspace


def forward_batch(net: NetworkSpec, X) -> np.ndarray:
    """Evaluate a batch of inputs, shape (B, input_dim) -> (B, output_dim).

    Runs the layer blocks one by one, Z = (X W_r + b_r) * (X W_g + b_g) +
    (X * X) W_b + c (the affine part alone where a layer holds no quadratic
    neuron), adds the incoming shortcuts in list order and applies the
    activation.  Activations are held transposed, one row per neuron, so
    that adding a bias or a shortcut runs along the batch.  A layer of
    fan-in one multiplies by broadcasting (see _through_fan_in), with the
    matmul's bits.

    The batch runs through the whole net one tile of columns at a time, and
    each column keeps the bits the whole batch gives it.  A tile has a
    multiple of 64 columns, as many as keep one (widest layer, tile) float64
    slab within _TILE_BYTES, and the last tile takes what is left; a batch
    that fits one slab is one tile.  OpenBLAS, numpy's BLAS, computes each
    column of a product in a group of 8 alike, whatever the product's size,
    so tiles that start on multiples of 64 keep those bits.  The last
    B mod 8 columns it computes with kernels that depend on the product's
    size (its small-matrix kernel up to M N K = 1e6, a matrix-vector call
    for one column), so a batch that is not a multiple of 8 is one tile, as
    before, and holds O(widest layer x B).  Each call allocates one
    workspace of (rows, tile) parts: Z of the even layers, Z of the odd
    layers, Q and X * X, each as tall as the tallest layer it serves, and Z
    of each shortcut-source layer, whose activations are the only ones read
    after the next layer.  Every product and sum writes into it with out=,
    so beside X and the output a call holds O(widest layer x tile) memory,
    and one allocation per call, rather than several per layer, keeps the
    allocator from handing pages back to the system between layers.
    """
    X, _ = _check_batch(net, X)
    batch, d = X.shape
    widths = net.layer_widths()
    widest = max(d, *widths)
    rows = max(64, _TILE_BYTES // (8 * widest) // 64 * 64)
    if batch % 8:
        rows = max(rows, batch)
    cols = min(batch, rows)
    incoming: dict[int, list] = {}
    for weight, (src, src_neuron, dst, dst_neuron) in zip(
            net.params[net._layout.size:], net.shortcut_ends):
        incoming.setdefault(dst, []).append((weight, src, src_neuron, dst_neuron))
    sources = sorted({src for src, _, _, _ in net.shortcut_ends})
    # the rows of each part of the workspace: Z of the even and of the odd
    # layers, Q, X * X, then Z of each shortcut source
    heights = [0, 0, 0, 0] + [widths[k] for k in sources]
    plan, places, n = [], [], d
    for k, (block, (activation, kinds), m) in enumerate(
            zip(net.blocks, net.structure, widths)):
        part = 4 + sources.index(k) if k in sources else k & 1
        heights[part] = max(heights[part], m)
        quadratic = "quadratic" in kinds
        if quadratic:
            heights[2], heights[3] = max(heights[2], m), max(heights[3], n)
        plan.append((block[:n], block[n, :, None], quadratic and (
            block[n + 1 : 2 * n + 1], block[2 * n + 1, :, None],
            block[2 * n + 2 : 3 * n + 2], block[3 * n + 2, :, None]),
            activation == "relu", incoming.get(k, ())))
        places.append((part, m, n))
        n = m
    starts = list(accumulate(heights, initial=0))
    work = np.empty(starts[-1] * cols)
    # X * X is laid out as numpy lays out X.T * X.T, F-order for a C-order X:
    # an operand's layout picks the BLAS kernel of its product, and so its bits
    f_order = abs(X.strides[1]) <= abs(X.strides[0])

    def views(columns: int) -> list[tuple]:
        """Each layer's Z, and for a quadratic layer Q and X * X, on the
        workspace for a tile of the given columns; layers of one width
        share the views of a part."""
        made = {}

        def view(part: int, height: int, transposed: bool = False) -> np.ndarray:
            if (part, height, transposed) not in made:
                at = starts[part] * cols
                flat = work[at : at + height * columns]
                made[part, height, transposed] = (flat.reshape(columns, height).T if transposed
                                                  else flat.reshape(height, columns))
            return made[part, height, transposed]

        return [(view(part, m), quadratic and view(2, m),
                 quadratic and view(3, n, transposed=not k and f_order))
                for k, ((_, _, quadratic, _, _), (part, m, n)) in enumerate(zip(plan, places))]

    full = views(cols)
    out = np.empty((batch, net.output_dim))
    for start in range(0, batch, rows):
        stop = min(start + rows, batch)
        tile = full if stop - start == cols else views(stop - start)
        current = X.T[:, start:stop]
        for (W, b, quadratic, relu, shortcuts), (Z, Q, square) in zip(plan, tile):
            _through_fan_in(W, current, out=Z)
            Z += b
            if quadratic:
                W_g, b_g, W_b, c = quadratic
                _through_fan_in(W_g, current, out=Q)
                Q += b_g
                Z *= Q
                Z += _through_fan_in(W_b, np.multiply(current, current, out=square), out=Q)
                Z += c
            for weight, src, src_neuron, dst_neuron in shortcuts:
                Z[dst_neuron] += weight * tile[src][0][src_neuron]
            if relu:
                np.maximum(0.0, Z, out=Z)
            current = Z
        out[start:stop] = current.T
    return out


# ---------------------------------------------------------------------------
# Parameter vector / masks
# ---------------------------------------------------------------------------


def parameter_count(net: NetworkSpec) -> int:
    """Total parameter count, shortcut weights included."""
    return len(net._layout.own) + len(net.shortcut_ends)


def trainable_count(net: NetworkSpec) -> int:
    return len(_theta_index(net))


def trainable_values(net: NetworkSpec) -> np.ndarray:
    """Mask-selected parameters in canonical order (shortcut weights last)."""
    return net.params[_theta_index(net)]


def set_trainable_values(net: NetworkSpec, values) -> NetworkSpec:
    """Return a copy of net with its trainable parameters replaced."""
    values = _real(values, "values")
    index = _theta_index(net)
    if values.shape != index.shape:
        raise ValueError(
            f"expected {len(index)} trainable values, got {values.shape}"
        )
    out = copy.copy(net)
    out.params, out.trainable = net.params.copy(), net.trainable.copy()
    out.params[index] = values
    return out


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
    # np.multiply, a broadcast, where the layer is one neuron wide (a rank-1
    # BLAS call costs about six times as much), else np.matmul.  Only an
    # exact -0.0 product differs, +0.0 from the matmul; it reaches the
    # parameter gradients through matmul reductions, so their bits agree.
    through_width: np.ufunc


class _LayerBuffers(NamedTuple):
    # Each is a C-contiguous (R, rows, B) array, n the layer's fan-in and m
    # its width.
    product: np.ndarray  # m rows, over grad_acts' memory, which the forward leaves free
    X2: np.ndarray | None  # X1 * X1, n + 1 rows; quadratic layers only
    P: np.ndarray | None  # m rows; quadratic layers only
    Q: np.ndarray | None
    T: np.ndarray | None  # n rows, where the input gradient is a sum of terms


class _WorkBuffers(NamedTuple):
    acts: np.ndarray  # (R, act_width, B); the ones rows are written once
    grad_acts: np.ndarray  # same shape
    layers: list[_LayerBuffers]


def _leading(buf: np.ndarray, shape: tuple) -> np.ndarray:
    """A C-contiguous view of the given shape on the first entries of buf."""
    return buf.reshape(-1)[: int(np.prod(shape))].reshape(shape)


class PackedNetwork:
    """The training executor: a NetworkSpec's params in one row per restart.

    `params` has shape (R, P): one row per restart, each a copy of
    net.params, its layer blocks and shortcut weights.  Activations are held
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
    values (see NetworkSpec for inf); the trainer drops a restart at its first
    non-finite loss.

    `forward(theta, X)` writes the (R, T) trainable values into `params`
    and returns the output, (R, B, output_dim); `loss_and_grad` runs the
    backward pass right after its own forward, on what that pass left in
    the work arrays.  Both take X as (B, input_dim) and transpose at that
    boundary.

    The executor owns its work arrays, one set for the batch size last
    seen: the activations (R, act_width, B), their ones rows written once,
    the activation gradient of the same shape, X1 * X1, P and Q of each
    quadratic layer and an (R, n, B) scratch for the input gradient.
    Every layer's slice of the activations is then contiguous within a
    restart.  The first forward pass at a batch size makes them and a new
    size replaces them; they live as long as the executor, and the trainer
    makes one executor per `train` call.  The layer products and the input
    gradient are written into them through `out=`, and the backward writes
    each ReLU mask, as 0.0 and 1.0, over that layer's activations, which
    are dead by then; a warm step still
    allocates the shortcut terms of the backward and the output copy.  A
    pass reads only what it wrote: the backward zeroes just the gradient
    rows of shortcut sources, which it sums into, and no row at all in a
    net without shortcuts.  Where a layer is one neuron wide, the
    backward's products through its width (W @ d, M @ d) are broadcast
    multiplies.  These give the rank-1 matmul's bits except on an exact
    -0.0 product, which the matmul, summing from 0.0, returns as +0.0; each
    such term reaches the parameter gradients through a matmul reduction,
    which sums from 0.0 again, so the gradients keep the matmul's bits.  One
    executor serves one caller at a time.  The output a forward pass
    returns is a copy that later passes leave alone.
    """

    def __init__(self, net: NetworkSpec, restarts: int = 1):
        if restarts < 1:
            raise ValueError("restarts must be >= 1")
        self._input_dim = net.input_dim
        self.params = np.tile(net.params, (restarts, 1))
        self._grad = np.zeros_like(self.params)
        ends = net.shortcut_ends
        fan_in = [net.input_dim] + net.layer_widths()[:-1]

        # Rows of the per-pass activation array: the input, then each
        # layer's activations, each block followed by a row of ones.
        base = np.cumsum([0] + [n + 1 for n in fan_in] + [net.output_dim + 1])
        self._ones = base[1:] - 1
        self._act_width = int(base[-1])

        incoming: dict[int, list[int]] = {}
        for i, (_, _, dst, _) in enumerate(ends):
            incoming.setdefault(dst, []).append(i)
        sources = {src for src, _, _, _ in ends}

        self._layers = []
        blocks = zip(net._split(self.params), net._split(self._grad))
        for k, ((block, gblock), n, (activation, kinds)) in enumerate(
                zip(blocks, fan_in, net.structure)):
            m = block.shape[2]
            shortcuts = None
            if k in incoming:
                # every earlier activation row feeds this layer through a
                # dense (base[k + 1], m) weight matrix per restart, rebuilt
                # on each pass
                rows = int(base[k + 1])
                cells = np.array([(base[ends[i][0] + 1] + ends[i][1]) * m + ends[i][3]
                                  for i in incoming[k]])
                all_cells = (np.arange(restarts)[:, None] * (rows * m) + cells).ravel()
                shortcuts = (cells, all_cells, net._layout.size + np.array(incoming[k]),
                             (restarts, rows, m))
            thirds = (slice(0, n + 1), slice(n + 1, 2 * n + 2), slice(2 * n + 2, None))
            weights = (slice(0, n), slice(n + 1, 2 * n + 1), slice(2 * n + 2, 3 * n + 2))
            self._layers.append(_PackedLayer(
                quadratic="quadratic" in kinds,
                relu=activation == "relu",
                inp=slice(base[k], base[k + 1]),
                out=slice(base[k + 1], base[k + 2] - 1),
                thirds_t=tuple(block[:, t].swapaxes(1, 2) for t in thirds),
                weights=tuple(block[:, t] for t in weights),
                grads=tuple(gblock[:, t] for t in thirds),
                shortcuts=shortcuts,
                overwrite_input_grad=k - 1 not in sources,
                through_width=np.multiply if m == 1 else np.matmul,
            ))
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
        for layer, (product, X2, P, Q, _) in zip(self._layers, work.layers):
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
            _, X2, P, Q, T = work.layers[k]
            X1 = acts[:, inp]
            d = grad_acts[:, out]
            if relu:
                # the layer's activations are dead from here on (every later
                # layer that reads them has run), so they take the mask
                d *= np.greater(acts[:, out], 0.0, out=acts[:, out])
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
        upstream = _real(upstream, "loss upstream")
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


# ---------------------------------------------------------------------------
# Common blank architectures
# ---------------------------------------------------------------------------


def single_quadratic_net(input_dim: int) -> NetworkSpec:
    """One trainable quadratic neuron, identity activation, zero-initialised."""
    return NetworkSpec.blank(input_dim, [("identity", ["quadratic"])])


def one_hidden_quadratic(input_dim: int, width: int) -> NetworkSpec:
    """width quadratic ReLU units feeding one linear output neuron."""
    return _one_hidden("quadratic", input_dim, width)


def one_hidden_conventional(input_dim: int, width: int) -> NetworkSpec:
    """width conventional ReLU units feeding one linear output neuron."""
    return _one_hidden("conventional", input_dim, width)


def _one_hidden(kind: str, input_dim: int, width: int) -> NetworkSpec:
    """width zero-initialised ReLU units of one kind feeding one linear output neuron."""
    if width < 1:
        raise ValueError("width must be >= 1")
    return NetworkSpec.blank(
        input_dim, [("relu", [kind] * width), ("identity", ["conventional"])])


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


_JSON_TYPES = {int: "an integer", float: "a number", str: "a string",
               bool: "true or false", list: "a list"}


def _field(d, key: str, kind: type):
    """d[key], required to be of JSON type kind; a float field takes integers
    within the float64 range too, as floats."""
    if type(d) is not dict:
        raise ValueError(f"expected an object, got {d!r}")
    try:
        value = d[key]
    except KeyError:
        raise ValueError(f"lacks {key!r}") from None
    if type(value) is kind:
        return value
    if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        return float(value)
    raise ValueError(f"{key!r} must be {_JSON_TYPES[kind]}, got {value!r}")


def _numbers(d, key: str, row: int = 0) -> np.ndarray:
    """d[key], a JSON list of numbers, or of lists of `row` numbers where row
    is given, as a float64 array."""
    values = _field(d, key, list)
    shape = (len(values), row) if row else (len(values),)
    try:
        array = np.array(values) if values else np.zeros(shape)
    except ValueError:  # lists of unequal lengths
        array = None
    if (array is None or array.shape != shape or array.dtype.kind not in "fiu"
            # numpy reads true and false among numbers as 1 and 0; the type
            # test runs in C, at a few per cent of the cost of the decoding
            or bool in map(type, chain.from_iterable(values) if row else values)):
        what = f"lists of {row} numbers" if row else "numbers"
        raise ValueError(f"{key!r} must hold {what} only, got {values!r}")
    return array.astype(np.float64, copy=False)


def _neuron_from_dict(d):
    """A neuron object as (kind, params): a passthrough's kind is its index
    and its params empty."""
    kind = _field(d, "kind", str)
    if kind == "passthrough":
        return PassthroughNeuron(_field(d, "index", int)).index, np.zeros(0)
    if kind not in ("quadratic", "conventional"):
        raise ValueError(f"unknown neuron kind {kind!r}")
    params = _numbers(d, "params")
    neuron_fan_in(kind, len(params))
    return kind, params


def _layer_from_dict(d) -> tuple[tuple, list]:
    """A layer object as (structure, each neuron's parameters)."""
    neurons = _each(_field(d, "neurons", list), "neuron", _neuron_from_dict)
    layer = _layer(_field(d, "activation", str), [kind for kind, _ in neurons])
    return layer, [p for _, p in neurons]


_SHORTCUT_FIELDS = {"src_layer": int, "src_neuron": int, "dst_layer": int,
                    "dst_neuron": int, "weight": float, "trainable": bool}


def _shortcut_from_dict(d) -> Shortcut:
    fields = {key: _field(d, key, kind) for key, kind in _SHORTCUT_FIELDS.items()}
    unknown = sorted(d.keys() - fields.keys())
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}")
    return Shortcut(**fields)


def _mask_from_list(m) -> list:
    # True, False, 1.0 and 0.0 compare equal to 1 and 0 and pass too
    try:
        ok = type(m) is list and set(m) <= {0, 1}
    except TypeError:  # an entry that is itself a list or an object
        ok = False
    if not ok:
        raise ValueError(f"mask must be a list of 0 and 1 entries, got {m!r}")
    return m


def _masks_from_list(layer_masks) -> list[list]:
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

    Each neuron's params list is the leading entries of its block column.
    JSON has no NaN or infinity, so a non-finite neuron parameter or
    shortcut weight raises ValueError.
    """
    own = net._layout.own
    values, flags = net.params[own].tolist(), net.trainable[own].astype(int).tolist()
    layers, masks, start = [], [], 0
    for (activation, kinds), sizes in zip(net.structure, net._layout.sizes):
        neurons, layer_masks = [], []
        for kind, size in zip(kinds, sizes):
            end = start + size
            neurons.append({"kind": kind, "params": values[start:end]} if size
                           else {"kind": "passthrough", "index": kind})
            layer_masks.append(flags[start:end])
            start = end
        layers.append({"activation": activation, "neurons": neurons})
        masks.append(layer_masks)
    doc = {
        "input_dim": net.input_dim,
        "layers": layers,
        "shortcuts": [
            {key: getattr(sc, key) for key in _SHORTCUT_FIELDS} for sc in net.shortcuts
        ],
        "masks": masks,
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
    """Parse a network written by to_json, each neuron's params straight
    into its block column.

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
    layers = _each(doc["layers"], "layer", _layer_from_dict)
    shortcuts = _each(doc["shortcuts"], "shortcut", _shortcut_from_dict)
    masks = _each(doc["masks"], "masks of layer", _masks_from_list)
    net = NetworkSpec.__new__(NetworkSpec)
    net._setup(input_dim, tuple(layer for layer, _ in layers), shortcuts,
               tuple(tuple(map(len, params)) for _, params in layers),
               tuple(tuple(map(len, layer_masks)) for layer_masks in masks))
    net.params[net._layout.own] = np.concatenate([p for _, params in layers for p in params])
    net.trainable[net._layout.own] = np.array(
        list(chain.from_iterable(chain.from_iterable(masks))), dtype=bool)
    return net
