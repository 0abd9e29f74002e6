"""Layered networks of quadratic / conventional / passthrough neurons.

A NetworkSpec stores its parameters once, as one flat float64 array of
(3n+3, m) layer blocks, each neuron of any kind a column in quadratic form,
with a bool array of the same layout marking the trainable entries; beside
them it keeps each layer's activation and neuron kinds.  A layer reads the
layer before it alone: a value a later layer needs is carried there by
passthrough neurons.  A net is made in one of two ways: NetworkSpec.blank,
whose block columns a builder or a test then writes, or from_json, which
reads them from JSON; to_json writes them.  Both pass over the whole net,
not neuron by neuron.  One cached walk of a structure, _layout_of, works
out where its rows lie and refuses a passthrough index outside its fan-in;
from_json tests the document list by list, each neuron's parameter count
and mask length against its fan-in among the tests, before any array is
made, and then makes the net through blank.  Neuron objects are a
read-only view, made only when net.layers is read (by the per-neuron
oracle in oracles) through block_rows, the one map of a block column.
Nothing here mutates a spec: forward_batch and backward_batch are pure
functions of it, and both take a batch, (B, input_dim); a single input
is the batch x[None]; trainable_values and set_trainable_values gather
and scatter on the blocks.  A PackedNetwork, the training executor, is
built for one input batch: it copies the blocks into one row per restart
so that every restart advances in the same stacked matmuls, holds its work
arrays layer-major in one 64-byte-aligned block (_carve), and runs each
pass, forward() and backward(), as a list of (ufunc, a, b, out) built with
it; the trainer steps its params in place, and backward_batch is a one-row
executor at the net's own values.  forward_batch runs the executor's forward
program, _forward_ops, tile by tile: one op order, the biases folded into
the matmuls through a row of ones, and one rule for what is left out
(_operands).  It builds the program once per structure and thread, on the
one workspace the thread keeps for its life, and runs a product tree's
layers as strided multiplies, not matmuls, where a block equals the
layout's product pattern (_Layout.pairs).  It matches the per-neuron
oracle bit for bit where the sums come out in one fixed order, as tested
(product trees, Bernstein nets, deep radial stacks, the factorizer reading
the triple product alone); a dense sum of several nonzero weights gets the
BLAS kernel its operand layout picks and agrees to rounding (100 of 200
random multivariate polynomial nets differ, by at most 7.8e-16 relative
to 1 + |value|).
Complex and non-numeric inputs, parameters and data are refused by name
(neurons._real), here and in neurons, trainer, polynomials, oracles and
builders, rather than cast to their real parts or read as NaN.

Canonical parameter ordering (used by gradients, masks, and JSON):
layer-major, neuron-minor, within a neuron (w_r, b_r, w_g, b_g, w_b, c) for
quadratic and (w, b) for conventional.
"""

from __future__ import annotations

import copy
import json
import sys
import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, repeat
from typing import NamedTuple

import numpy as np

from .neurons import ConventionalNeuron, PassthroughNeuron, QuadraticNeuron, _integer, _real

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


class BlockRows(NamedTuple):
    """The rows of a block of fan-in n down which a column holds a neuron's
    canonical parameters, in QuadraticNeuron's field order; a conventional
    neuron's w and b are w_r and b_r."""

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
    """A layer of net.layers: its neuron objects, made from the block
    columns, and its activation."""

    neurons: list
    activation: str

    @property
    def width(self) -> int:
        return len(self.neurons)


class NetworkSpec:
    """Layered network with per-parameter trainability masks.

    params holds each layer's (3n+3, m) block, n its fan-in and m its width;
    blocks[k] is a view of layer k's block.  Its
    rows are W_r | b_r | W_g | b_g | W_b | c (block_rows), and column j is
    neuron j as a quadratic neuron: a conventional neuron (w, b) fills W_r
    and b_r and has b_g = 1, and a passthrough is the one-hot W_r = e_index
    with b_g = 1.  The one forward program leaves out a third of a
    quadratic layer's block, [W_r; b_r], [W_g; b_g] or [W_b; c], and a
    bias row, b_r, b_g or c, that holds only zeros and no trainable entry
    (see _operands), but within the rest the zero entries multiply their
    inputs too, so where an input is inf a pre-activation can be NaN where
    the per-neuron oracle gives inf or an exact copy; forward_batch's
    product-tree layers (_Layout.pairs) multiply no zero entry.
    trainable flags the trainable entries of params among the canonical
    parameters; structure holds each layer's (activation, kinds) (see
    _layer).

    NetworkSpec.blank makes a net for a builder to write the blocks of, and
    from_json one from its JSON, through blank once its counts are checked;
    there is no other way to make one.  Either refuses a structure that does
    not fit, naming the layer and neuron, before any array is made.
    net.layers, the neuron objects, is made from the blocks on each read and
    writing to it changes nothing; net.masks are views of trainable, so
    that writing False to one freezes those parameters.
    """

    shortcuts = ()  # no edge skips a layer; kept for len(net.shortcuts) readers

    @classmethod
    def blank(cls, input_dim: int, layers) -> NetworkSpec:
        """A net of layers given as (activation, kinds), every neuron
        parameter zero and trainable.  input_dim is checked to be an integer
        before the layout is looked up, its cache would key 2.0 as 2, and
        taken as a Python int, so that a numpy integer neither sizes the
        layout in its own width nor reaches the JSON."""
        structure = tuple(_layer(*layer) for layer in layers)
        input_dim = int(_integer(input_dim, "input_dim", 1))
        if not structure:
            raise ValueError("network must have at least one layer")
        layout = _layout_of(input_dim, structure)
        net = cls.__new__(cls)
        net.input_dim, net.structure, net._layout = input_dim, structure, layout
        net.params = np.zeros(layout.size)
        net.params[layout.ones] = 1.0
        net.trainable = np.zeros(layout.size, dtype=bool)
        net.trainable[layout.own] = True
        return net

    def _split(self, flat: np.ndarray) -> list[np.ndarray]:
        """The layer blocks of an array laid out as params on its last axis."""
        return [flat[..., pos : pos + rows * m].reshape(*flat.shape[:-1], rows, m)
                for pos, rows, m in self._layout.blocks]

    @property
    def blocks(self) -> list[np.ndarray]:
        return self._split(self.params)

    @property
    def layers(self) -> list[LayerSpec]:
        layers = []
        for (activation, kinds), block in zip(self.structure, self.blocks):
            rows = block_rows(len(block) // 3 - 1)
            # copied once, transposed: no neuron writes the net, and its weights are contiguous
            neurons = [QuadraticNeuron(*(column[row] for row in rows)) if kind == "quadratic"
                       else ConventionalNeuron(column[rows.w_r], column[rows.b_r])
                       if kind == "conventional" else PassthroughNeuron(kind)
                       for kind, column in zip(kinds, block.T.copy())]
            layers.append(LayerSpec(neurons, activation))
        return layers

    @property
    def masks(self) -> list[list[np.ndarray]]:
        return [[block[:size, j] for j, size in enumerate(sizes)]
                for sizes, block in zip(self._layout.sizes, self._split(self.trainable))]

    @property
    def depth(self) -> int:
        return len(self.structure)

    @property
    def output_dim(self) -> int:
        return len(self.structure[-1][1])

    def layer_widths(self) -> list[int]:
        return [len(kinds) for _, kinds in self.structure]


class _Layout(NamedTuple):
    """What a structure fixes of a net's params; the arrays are read-only,
    so that a deep copy of a net shares its layout (__deepcopy__) and with
    it forward_batch's programs."""

    blocks: tuple  # per layer, (position, rows, width) of its block
    sizes: tuple  # per layer, each neuron's parameter count
    size: int  # of the blocks, and so of params
    ones: np.ndarray  # positions a passthrough or conventional column fixes at 1
    own: np.ndarray  # each neuron parameter's position, in canonical order
    parts: np.ndarray  # per layer, where its W_r, b_r, W_g, b_g, W_b and c rows start
    tile: int  # forward_batch's full tile, in batch rows
    # over params, the product-tree pattern in the block of each layer that
    # can take it (see _layout_of), NaN in every other block; None if none can
    pairs: np.ndarray | None

    def __deepcopy__(self, memo) -> _Layout:
        return self


def _param_counts(n: int) -> dict:
    """The parameter count of each neuron kind at fan-in n; a passthrough has none."""
    return {"quadratic": 3 * n + 3, "conventional": n + 1}


_TILE_BYTES = 1 << 19  # one (widest layer, tile rows) float64 slab of the workspace

# The most entries a net's blocks may hold, 32 GiB of float64: a passthrough
# column of a huge fan-in, one JSON field, is refused rather than allocated.
# A count that sizes an array is held to it too, by name and before the
# array is made: an executor's restarts times its row or its activation
# rows times B, a hidden width, grid and dataset points.
_MAX_ENTRIES = 2**32


@lru_cache(maxsize=256)
def _layout_of(input_dim: int, structure: tuple) -> _Layout:
    """The _Layout of a structure, made once for all nets that share it: the
    one walk of a structure.  A passthrough index outside its fan-in, or a
    column that takes the blocks past _MAX_ENTRIES, raises ValueError naming
    the layer and neuron before any array is made."""
    blocks, sizes, ones, columns, strides, parts, pairs = [], [], [], [], [], [], []
    pos, n = 0, input_dim
    for k, (_, kinds) in enumerate(structure):
        m, height = len(kinds), 3 * n + 3
        if pos + height * m > _MAX_ENTRIES:
            raise ValueError(f"layer {k} neuron {(_MAX_ENTRIES - pos) // height}: a column "
                             f"of fan-in {n} takes the blocks past {_MAX_ENTRIES} entries")
        size, passed = _param_counts(n), len(ones)
        for j, kind in enumerate(kinds):
            if kind not in size:
                if not 0 <= kind < n:
                    raise ValueError(f"layer {k} neuron {j}: passthrough index "
                                     f"{kind} out of range for width {n}")
                ones.append(pos + kind * m + j)
            if kind != "quadratic":
                ones.append(pos + (2 * n + 1) * m + j)
        p = next((j for j, kind in enumerate(kinds) if kind != "quadratic"), m)
        if p and 2 * p <= n and all(type(kind) is int for kind in kinds[p:]):
            # W_r's row 2j and W_g's row 2j + 1 in column j, and the passthroughs' ones
            pairs.append((slice(pos, pos + height * m), [pos + (2 * j * m + j) for j in range(p)]
                          + [pos + (n + 2 + 2 * j) * m + j for j in range(p)] + ones[passed:]))
        sizes.append(tuple(size.get(kind, 0) for kind in kinds))
        columns += range(pos, pos + m)
        strides += [m] * m
        blocks.append((pos, height, m))
        parts += (pos + row * m for row in (0, n, n + 1, 2 * n + 1, 2 * n + 2, 3 * n + 2))
        pos += height * m
        n = m
    counts = np.fromiter(chain.from_iterable(sizes), np.intp)
    rows = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    own = np.repeat(columns, counts) + rows * np.repeat(strides, counts)
    ones, parts = np.array(ones, dtype=np.intp), np.array(parts, dtype=np.intp)
    own.flags.writeable = ones.flags.writeable = parts.flags.writeable = False
    widest = max(input_dim, *(m for *_, m in blocks))
    tile = max(64, _TILE_BYTES // (8 * widest) // 64 * 64)
    pattern = None
    if pairs:
        pattern = np.full(pos, np.nan)
        for block, one in pairs:
            pattern[block] = 0.0
            pattern[one] = 1.0
        pattern.flags.writeable = False
    return _Layout(tuple(blocks), tuple(sizes), pos, ones, own, parts, tile, pattern)


def _theta_index(net: NetworkSpec) -> np.ndarray:
    """Position in net.params of each canonical trainable value."""
    return net._layout.own[net.trainable[net._layout.own]]


# ---------------------------------------------------------------------------
# Forward evaluation
# ---------------------------------------------------------------------------


def _check_batch(net: NetworkSpec, X, upstream=None):
    """X as a (B, input_dim) float64 array and, when given, upstream as (B, output_dim)."""
    X = _real(X, "X")
    if X.ndim != 2 or X.shape[1] != net.input_dim:
        raise ValueError(f"expected batch of shape (B, {net.input_dim}), got {X.shape}")
    if upstream is not None:
        upstream = _real(upstream, "upstream")
        if upstream.shape != (X.shape[0], net.output_dim):
            raise ValueError(
                f"expected upstream of shape ({X.shape[0]}, {net.output_dim})"
            )
    return X, upstream


def _live(reduced: np.ndarray) -> list[list]:
    """Per layer, whether the thirds of its block, [W_r; b_r], [W_g; b_g]
    and [W_b; c], and its b_r, b_g and c rows hold an entry of an array
    laid out as params other than +-0.0 (NaN counts): [affine, gate,
    square, b_r, b_g, c], from reduced, the array's one reduction,
    np.logical_or.reduceat over the layout's parts."""
    return [[w_r or b_r, w_g or b_g, w_b or c, b_r, b_g, c] for w_r, b_r, w_g, b_g, w_b, c
            in reduced.reshape(-1, 6).tolist()]


def _operands(n: int, quadratic: bool, kept: list) -> tuple:
    """The rows of a layer's block, of fan-in n, that the forward reads as
    [W_r; b_r], [W_g; b_g] and [W_b; c], each a slice, None for a third
    left out.  kept, the layer's _live entry, says what holds a value other
    than +-0.0 or a trainable entry; the rest is left out.  A layer without
    quadratic neurons is its affine third; a quadratic one without [W_r;
    b_r] and [W_g; b_g] its square term, or its affine third where that is
    left out too, so that it writes its zeros.  A bias row left out takes
    the ones row of X1 with it, except at fan-in one, where the matmul
    would be rank 1 and cost twice as much."""
    affine, gate, square, b_r, b_g, c = kept
    gated, square = quadratic and (affine or gate), quadratic and square
    return (slice(0, n + (b_r or n == 1)) if gated or not square else None,
            slice(n + 1, 2 * n + 1 + (b_g or n == 1)) if gated else None,
            slice(2 * n + 2, 3 * n + 2 + (c or n == 1)) if square else None)


class _Products(NamedTuple):
    """A product-tree layer, whose block equals the layout's pattern
    (_Layout.pairs), as forward_batch's program reads it: neuron j < pairs
    multiplies rows 2j and 2j + 1 of its input, and the passthroughs copy
    the rows in copies."""

    pairs: int
    copies: tuple


class _Program(NamedTuple):
    """forward_batch's program for one structure, its live thirds, product
    layers and tile width, on views of one workspace."""

    layout: _Layout  # held, so that no other layout takes its id, which keys the program
    ops: list
    params: np.ndarray  # where a call copies net.params, which the ops read
    ones: tuple  # the ones rows, which no op writes
    tile: np.ndarray  # the input rows, (columns, input_dim)
    result: np.ndarray  # the output rows, (output_dim, columns)


# The float64 entries of a thread's kept workspace: with _aligned's 7 more,
# under the 4 MiB at which numpy asks the kernel for huge pages, so that only
# the pages a call touches are resident.
_KEPT_ENTRIES = 2**19 - 8
_PROGRAMS = 64  # the most programs a thread keeps


class _Kept(threading.local):
    """What a thread keeps between forward_batch calls: one workspace, made
    when the thread first reads it and never replaced, and the programs
    bound to it by key, the oldest dropped first."""

    def __init__(self):
        self.work, self.programs = _aligned(_KEPT_ENTRIES), {}


def forward_batch(net: NetworkSpec, X) -> np.ndarray:
    """Evaluate a batch of inputs, shape (B, input_dim) -> (B, output_dim).

    Runs the executor's forward program (_forward_ops) on net.params: with
    X1 = [X; 1], a layer is Z = ([W_r; b_r]^T X1) * ([W_g; b_g]^T X1) +
    [W_b; c]^T (X1 * X1), then the activation, less what holds only +-0.0
    (_operands).  A product-tree layer, whose block equals the layout's
    product pattern (_Layout.pairs: W_r = e_2j and W_g = e_2j+1 for each
    of its p quadratic neurons, the passthroughs' ones, +-0.0 elsewhere),
    is one multiply of X1's even rows by its odd rows, and one copy
    with 0.0 added per passthrough, in place of two matmuls and a multiply:
    on finite activations the output keeps the matmuls' bits (a zero
    product's sign may differ within, which the matmuls of later layers
    and the output's added 0.0 clear), but where a factor is +-inf the
    product is +-inf (or NaN at 0 * inf), not the matmuls' NaN.
    The output is written with 0.0 added, so that an exact zero is +0.0 as
    when every third is evaluated: a layer without its square term gives
    -0.0 where P * Q is zero times a negative value, as at a product tree's
    root, and later layers read it through matmuls, which sum from 0.0.  A
    channel past sqrt(max float64) is not squared where its square weights
    are 0.

    The first layer reads [X | 1] copied into a (tile, input_dim + 1)
    buffer, seen transposed, and squares it in that layout, so the output's
    bits do not depend on X's memory order (an operand's layout picks its
    BLAS kernel).  The batch runs one tile of columns at a time: a multiple
    of 64 columns, as many as keep one (widest layer, tile) float64 slab
    within _TILE_BYTES, the last tile what is left.  OpenBLAS computes the
    columns of a product in groups of 8 alike whatever its size, so each
    column keeps the whole batch's bits; the last B mod 8 columns get
    kernels that depend on the product's size, so a batch that is not a
    multiple of 8 is one tile, and holds O(widest layer x B):
    one_hidden_quadratic(2, 200) peaks (tracemalloc) at the output's
    0.16 MiB at B = 20,000 and 20,008 once the thread has its workspace,
    and at 31.6 MiB at B = 20,001.  Pass a multiple of 8
    to bound a large batch's memory.

    The workspace is carved as the executor's work memory (_carve), in
    (rows, tile) parts, each as tall as its tallest layer: [X | 1], [Z; 1]
    of the even and of the odd layers, Q and X1 * X1; Z doubles as P, and
    Q as the square term's product.  [X | 1] and the first layer's X1 * X1
    keep their (tile, input_dim + 1) layout within their parts, and a copy
    of params, which the matmuls read, follows them.

    Each thread keeps one workspace for its life, _KEPT_ENTRIES float64
    entries made when it first reads _kept (just under 4 MiB, so that the
    pages no call touches stay unmapped), and up to _PROGRAMS programs
    bound to it, one per (structure, live thirds, product layers, tile
    width), the oldest dropped first.  A call looks its program up by the
    layout's id, the bytes of the _live reduction and of the product test
    (params == pattern, reduced to one flag per layer), and the tile width,
    then copies params and X in, writes the ones rows and runs it: no op
    list is built and no view is made.  A miss builds the program and keeps
    it.  A program whose workspace would pass the bound runs on one of its
    own, which the call drops: one_hidden_quadratic(2, 200) at B = 20,001
    keeps nothing.  The thread keeps no reference to a net, to X or to the
    output; its workspace keeps the last call's values.
    """
    X, _ = _check_batch(net, X)
    batch, layout, flat = len(X), net._layout, net.params
    pairs = layout.pairs
    products = None if pairs is None else np.logical_and.reduceat(flat == pairs, layout.parts[::6])
    live = np.logical_or.reduceat(flat, layout.parts)
    key = (id(layout), live.tobytes(), None if products is None else products.tobytes())
    rows = layout.tile if batch % 8 == 0 else max(layout.tile, batch)
    out = np.empty((batch, net.output_dim))
    programs, width = _kept.programs, None
    for start in range(0, batch, rows):
        stop = min(start + rows, batch)
        if stop - start != width:
            width = stop - start
            program = programs.get((*key, width)) or _program(net, live, products, (*key, width))
            program.params[...] = flat
            for row in program.ones:
                row.fill(1.0)
        program.tile[...] = X[start:stop]
        _run(program.ops)
        np.add(program.result.T, 0.0, out=out[start:stop])
    return out


def _program(net: NetworkSpec, live: np.ndarray, products, key: tuple) -> _Program:
    """The program at key, (layout id, live bytes, product bytes, tile
    width), which the thread does not keep yet: built on the kept workspace
    and kept, or built on a workspace of its own, and not kept, where it
    needs more than _KEPT_ENTRIES."""
    layers, heights = _layers(net, live, products)
    size = key[-1] * sum(heights) + net._layout.size
    if size > _KEPT_ENTRIES:
        return _bind(net, layers, heights, _aligned(size), key[-1])
    programs = _kept.programs
    if len(programs) >= _PROGRAMS:
        del programs[next(iter(programs))]
    program = programs[key] = _bind(net, layers, heights, _kept.work, key[-1])
    return program


def _layers(net: NetworkSpec, live: np.ndarray, products) -> tuple[list, list]:
    """Per layer of net, (rule, relu, width): its _Products where products,
    the product test's flag per layer (None where no layer can be one),
    flags it, else the rows of its thirds (_operands, from live, the
    reduction of net.params); and the rows of each part of the workspace:
    [X | 1], [Z; 1] of the even and of the odd layers (Z the rows just
    above the ones row, so that the ones row stays put), Q, X1 * X1."""
    widths = net.layer_widths()
    fan_in = [net.input_dim] + widths[:-1]
    layers, gated, squared = [], [0], [0]
    for k, (m, n, (activation, kinds), kept) in enumerate(
            zip(widths, fan_in, net.structure, _live(live))):
        if products is not None and products[k]:
            p = kinds.count("quadratic")
            rule = _Products(p, kinds[p:])
        else:
            rule = _operands(n, "quadratic" in kinds, kept)
            gated.append(m if rule[1] else 0)
            squared.append(n + 1 if rule[2] else 0)
        layers.append((rule, activation == "relu", m))
    heights = [net.input_dim + 1, max(widths[::2]) + 1, max(widths[1::2], default=-1) + 1,
               max(gated), max(squared)]
    return layers, heights


def _bind(net: NetworkSpec, layers: list, heights: list, work: np.ndarray,
          columns: int) -> _Program:
    """The _Program of layers (_layers) for a tile of columns, on the start
    of work: the parts of the given heights, then the copy of params."""
    d, end = net.input_dim, columns * sum(heights)
    inp, even, odd, Q, square = _carve(work, heights, columns)
    params = work[end : end + net._layout.size]
    inp = inp.reshape(columns, d + 1)
    parts = [even, odd]
    ops, X1 = [], inp.T
    for k, ((rule, relu, m), (pos, rows, _)) in enumerate(zip(layers, net._layout.blocks)):
        Z1 = parts[k % 2][-1 - m :]
        Z, buffers = Z1[:-1], None
        if type(rule) is tuple:
            W, W_g, W_b = rule
            block_t, X2, Qm = params[pos : pos + rows * m].reshape(rows, m).T, None, Q[:m]
            if W_b:  # the first layer's in its input's layout
                n = len(X1) - 1
                X2 = square[: n + 1] if k else square[: n + 1].reshape(columns, n + 1).T
            rule = W and block_t[:, W], W_g and block_t[:, W_g], W_b and block_t[:, W_b]
            buffers = _LayerBuffers(Qm, X2, Z, Qm, None)
        ops += _forward_ops(rule, relu, X1, Z, buffers)
        X1 = Z1
    return _Program(net._layout, ops, params, (inp[:, d], even[-1:], odd[-1:]), inp[:, :d], Z)


# ---------------------------------------------------------------------------
# Parameter vector / masks
# ---------------------------------------------------------------------------


def parameter_count(net: NetworkSpec) -> int:
    """Total parameter count."""
    return len(net._layout.own)


def trainable_count(net: NetworkSpec) -> int:
    return len(_theta_index(net))


def trainable_values(net: NetworkSpec) -> np.ndarray:
    """Mask-selected parameters in canonical order."""
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
    relu: bool
    inp: slice  # augmented input [x; 1], rows of the activation array
    out: slice  # this layer's activations
    # the forward's operands (_operands): [W_r; b_r], [W_g; b_g], [W_b; c]
    # transposed, (R, m, rows) views, None for a third not evaluated
    thirds_t: tuple
    weights: tuple  # W_r, W_g, W_b without the bias rows: (R, n, m)
    # gradient views of the thirds, untransposed, (R, n + 1, m); None for a
    # third with no trainable entry
    grads: tuple
    # the backward's products through the layer's width, W @ d:
    # np.multiply, a broadcast, where the layer is one neuron wide (a rank-1
    # BLAS call costs about six times as much), else np.matmul.  Only an
    # exact -0.0 product differs, +0.0 from the matmul; it reaches the
    # parameter gradients through matmul reductions, so their bits agree.
    through_width: np.ufunc

    @property
    def gated(self) -> bool:
        """Whether the layer forms P * Q: it is quadratic and keeps [W_r; b_r] or [W_g; b_g]."""
        return self.thirds_t[1] is not None

    @property
    def square(self) -> bool:
        return self.thirds_t[2] is not None


class _LayerBuffers(NamedTuple):
    # Each is an (R, rows, B) view of layer-major work memory (_carve), n
    # the layer's fan-in and m its width.
    product: np.ndarray  # m rows, over grad_acts' memory, which the forward leaves free
    X2: np.ndarray | None  # X1 * X1, n + 1 rows; layers with a square term only
    P: np.ndarray | None  # m rows; layers that form P * Q only
    Q: np.ndarray | None
    T: np.ndarray | None  # n rows; layers that form P * Q sum their input gradient through it


def _aligned(size: int) -> np.ndarray:
    """An uninitialised float64 array of size entries starting on a 64-byte
    boundary."""
    raw = np.empty(size + 7)
    skip = -raw.__array_interface__["data"][0] % 64 // 8
    return raw[skip : skip + size]


_kept = _Kept()  # here, below _aligned: threading.local runs __init__ in the importing thread


def _carve(block: np.ndarray, heights: list[int], width: int) -> list[np.ndarray]:
    """An evaluator's work memory: the start of block cut end to end into
    (heights[i], width) parts.  Where block starts on a 64-byte boundary
    (_aligned) the first part does, and where width is a multiple of 8
    every row does."""
    rows = block[: sum(heights) * width].reshape(sum(heights), width)
    return [rows[at : at + height] for at, height in zip(accumulate(heights, initial=0), heights)]


def _memory_order(op: tuple) -> tuple:
    """An executor op, an elementwise one on its operands seen as (rows, R,
    B), the order of their memory, where a run of rows is C-contiguous and
    numpy takes one flat loop, not its strided path for the (R, rows, B)
    views (15% of the factorizer's step at R = 10, B = 100).  The result is
    the same, element by element; a matmul (a gufunc) is left as it is."""
    f, *args = op
    if f.signature:
        return op
    return f, *(x.swapaxes(0, 1) if isinstance(x, np.ndarray) else x for x in args)


def _run(program: list[tuple]) -> None:
    for f, a, b, out in program:
        f(a, b, out=out)


def _through(W, A, out) -> tuple:
    """The op W A into out, A without its ones row where W's bias row is
    left out."""
    return np.matmul, W, A[..., : W.shape[-1], :], out


def _forward_ops(thirds: tuple, relu: bool, X1, Z, buffers: _LayerBuffers) -> list[tuple]:
    """A layer's forward pass, from its input X1 = [X; 1] into its
    activations Z, on its operands (_operands): the one forward program,
    of the executor and of forward_batch.  A product-tree layer, thirds a
    _Products (forward_batch's, on (rows, columns) views), is one multiply
    of X1's even rows by its odd rows and one copy, with 0.0 added, per
    passthrough."""
    if type(thirds) is _Products:
        p = thirds.pairs
        ops = [(np.multiply, X1[0 : 2 * p : 2], X1[1 : 2 * p : 2], Z[:p])]
        ops += [(np.add, X1[i : i + 1], 0.0, Z[j : j + 1]) for j, i in enumerate(thirds.copies, p)]
    else:
        W, W_g, W_b = thirds
        product, X2, P, Q, _ = buffers
        ops = [] if W_b is None else [(np.multiply, X1, X1, X2)]
        if W_g is not None:
            ops += [_through(W, X1, P), _through(W_g, X1, Q), (np.multiply, P, Q, Z)]
            if W_b is not None:
                ops += [_through(W_b, X2, product), (np.add, Z, product, Z)]
        else:
            ops.append(_through(W_b, X2, Z) if W is None else _through(W, X1, Z))
    if relu:
        ops.append((np.maximum, Z, 0.0, Z))
    return ops


def _backward_ops(layer: _PackedLayer, X1, Z, d, g_inp, buffers: _LayerBuffers) -> list[tuple]:
    """A layer's backward pass from the gradient d of its activations Z:
    its parameter gradients and, where g_inp is given, its input gradient.
    For a quadratic neuron with p = w_r.x + b_r and q = w_g.x + b_g:
    dh/dw_r = q x, dh/db_r = q, dh/dw_g = p x, dh/db_g = p, dh/dw_b = x*x,
    dh/dc = 1."""
    (W, W_g, W_b), (G, G_g, G_b), through = layer.weights, layer.grads, layer.through_width
    _, X2, P, Q, T = buffers
    ops = []
    if layer.relu:
        # the layer's activations are dead from here on (every later layer
        # that reads them has run), so they take the mask
        ops += [(np.greater, Z, 0.0, Z), (np.multiply, d, Z, d)]
    dq = dp = d
    if layer.gated:
        dq, dp = Q, P
        ops += [(np.multiply, d, Q, dq), (np.multiply, d, P, dp)]
        if G_g is not None:
            ops.append((np.matmul, X1, dp.swapaxes(1, 2), G_g))
    if G_b is not None:
        ops.append((np.matmul, X2, d.swapaxes(1, 2), G_b))
    if G is not None:
        ops.append((np.matmul, X1, dq.swapaxes(1, 2), G))
    if g_inp is None:
        return ops
    affine = layer.thirds_t[0] is not None
    term = T if affine else g_inp  # the square term alone writes straight to g_inp
    if affine:
        ops.append((through, W, dq, g_inp))
    if layer.gated:
        ops += [(through, W_g, dp, T), (np.add, g_inp, T, g_inp)]
    if layer.square:
        # 2 x * (W_b d); doubling last is exact, so no buffer for 2 x
        ops += [(through, W_b, d, term), (np.multiply, term, X1[:, :-1], term),
                (np.multiply, term, 2.0, term)]
        if affine:
            ops.append((np.add, g_inp, T, g_inp))
    return ops


class PackedNetwork:
    """The training executor: a NetworkSpec's params in one row per restart,
    bound to one input batch.

    `PackedNetwork(net, X, restarts=1)` checks X, (B, input_dim), and
    restarts, and makes what a step touches, once: `params`, (R, P), one
    row per restart, each a copy of net.params; `grad`, of the same shape;
    the work arrays, with X written into their input rows, which no pass
    writes; and the two passes as op lists.  `theta_index` maps the
    canonical trainable vector into a row of `params` or of `grad`.
    `forward()` writes `output`, an (R, output_dim, B) view, and
    `backward()` starts from `upstream`, the same rows of the activations'
    gradient, where the caller writes d loss / d output between the two.
    Each call is one run of its op list, with no check and no copy, and
    later passes write over both views (the backward writes its ReLU mask
    over a ReLU output layer's).

    Activations are held batch-last, one row per neuron and one column per
    input.  With the input augmented by a row of ones, X1 = [X; 1], a layer
    is three matmuls,

        Z = ([W_r; b_r]^T X1) * ([W_g; b_g]^T X1) + [W_b; c]^T (X1 * X1)

    then the activation.  Every matmul is stacked over the restart axis:
    blocks are (R, 3n+3, m), activations (R, width, B), and the one input
    batch feeds every restart.  A layer without quadratic neurons is
    evaluated as its affine part alone.

    The executor does only the work a trainable value needs, as it is made,
    from net.trainable and net.params.  A third of a layer's block with no
    trainable entry gets no parameter gradient: the backward skips its
    reduction, and the gradient, read at the trainable positions alone,
    keeps every bit.  The forward leaves out what holds only zeros and no
    trainable entry, by the rule forward_batch uses too (_operands): a
    [W_b; c] third, as in every product layer, so that neither X1 * X1's
    product nor the backward's 2 x * (W_b d) term is formed; [W_r; b_r]
    with [W_g; b_g], so that the layer is its square term alone; a bias
    row.  The frozen entries of `params` are fixed when the executor is
    made: a caller writes `params` at `theta_index` alone.  Outputs and
    gradients keep their bits on finite activations, except that an exact
    -0.0 product stays -0.0 where the skipped zero term made it +0.0;
    nothing reads that sign.  No channel past sqrt(max float64), about
    1.3e154, is squared into 0 * inf = NaN.

    Restarts never mix: row i of every output and gradient depends on row i
    of `params` alone, and equals what a one-row executor gives for it.
    The executor agrees with oracles.reference_forward_batch and
    reference_backward_batch, the per-neuron path, to rounding on finite
    values (see NetworkSpec for inf); the trainer drops a restart at its first
    non-finite loss.

    The work arrays are carved from one 64-byte-aligned block (_carve),
    sized from the layers: the activations, their gradient, the scratch T,
    then each layer's X1 * X1, P and Q (_LayerBuffers).  Each is
    layer-major, (rows, R, B) memory seen as (R, rows, B), so that a layer's
    rows are one contiguous block across restarts, not R strided pieces, and
    a one-output net's output is one contiguous (R, B) block.  The passes
    are lists of (ufunc, a, b, out) on fixed views of those arrays and of
    `params`, the elementwise ones in memory order (_memory_order), and a
    pass is a loop over its list: every product and sum is written through
    `out=`, and the backward writes each ReLU mask, as 0.0 and 1.0, over
    that layer's activations, which are dead by then.  A pass reads only
    what it wrote, the input and the ones rows aside: each layer reads the
    layer before it alone, so the backward overwrites every input gradient
    whole and zeroes no row.
    Where a layer is one neuron wide, the backward's products through its
    width (W @ d) are broadcast multiplies.  These give the rank-1 matmul's
    bits except on an exact -0.0 product, which the matmul, summing from
    0.0, returns as +0.0; each such term reaches the parameter gradients
    through a matmul reduction, which sums from 0.0 again, so the gradients
    keep the matmul's bits.  The layout changes no bit: a matmul's result
    does not depend on the row stride of its operands, as the tests of
    restart rows against one-row executors, where the two layouts coincide,
    check.  One executor serves one caller at a time, and the trainer makes
    one per `train` call.

    A restarts count whose params or activation array, R x (activation
    rows) x B entries, would pass _MAX_ENTRIES is refused by name before
    anything is allocated.
    """

    def __init__(self, net: NetworkSpec, X, restarts: int = 1):
        X, _ = _check_batch(net, X)
        batch = len(X)
        fan_in = [net.input_dim] + net.layer_widths()[:-1]
        # Rows of the activation array: the input, then each layer's
        # activations, each block followed by a row of ones.
        base = np.cumsum([0] + [n + 1 for n in fan_in] + [net.output_dim + 1])
        rows = int(base[-1])
        R = _integer(restarts, "restarts", 1,
                     _MAX_ENTRIES // max(net._layout.size, rows * batch))
        self.params = np.tile(net.params, (R, 1))
        self.grad = np.zeros_like(self.params)
        self.theta_index = _theta_index(net)

        self._layers = []
        kept, learnt = (_live(np.logical_or.reduceat(flat, net._layout.parts))
                        for flat in (np.logical_or(net.params, net.trainable), net.trainable))
        blocks = zip(net._split(self.params), net._split(self.grad), kept, learnt)
        for k, ((block, gblock, kept, learnt), n, (activation, kinds)) in enumerate(
                zip(blocks, fan_in, net.structure)):
            m = block.shape[2]
            thirds = (slice(0, n + 1), slice(n + 1, 2 * n + 2), slice(2 * n + 2, None))
            weights = (slice(0, n), slice(n + 1, 2 * n + 1), slice(2 * n + 2, 3 * n + 2))
            self._layers.append(_PackedLayer(
                relu=activation == "relu",
                inp=slice(base[k], base[k + 1]),
                out=slice(base[k + 1], base[k + 2] - 1),
                thirds_t=tuple(rows and block.swapaxes(1, 2)[..., rows]
                               for rows in _operands(n, "quadratic" in kinds, kept)),
                weights=tuple(block[:, t] for t in weights),
                grads=tuple(gblock[:, t] if some else None
                            for t, some in zip(thirds, learnt[:3])),
                through_width=np.multiply if m == 1 else np.matmul,
            ))

        # The rows of each work array: the activations, their gradient, the
        # scratch T, through which a layer k > 0 that forms P * Q sums all
        # but the first term of its input gradient, then each layer's
        # X1 * X1, P and Q, 0 rows where it has none.
        summed = [k > 0 and layer.gated for k, layer in enumerate(self._layers)]
        heights = [rows, rows, max((n for n, s in zip(fan_in, summed) if s), default=0)]
        for layer, n in zip(self._layers, fan_in):
            m = layer.out.stop - layer.out.start
            heights += [(n + 1) * layer.square, m * layer.gated, m * layer.gated]
        width = R * batch
        acts, grad_acts, scratch, *own = (
            part.reshape(len(part), R, batch).swapaxes(0, 1)
            for part in _carve(_aligned(sum(heights) * width), heights, width))
        self._acts, self._grad_acts = acts, grad_acts
        acts[:, : net.input_dim] = X.T
        acts[:, base[1:] - 1] = 1.0

        self._layer_buffers, self._forward, self._backward = [], [], []
        for k, (layer, n, s) in enumerate(zip(self._layers, fan_in, summed)):
            m = layer.out.stop - layer.out.start
            buffers = _LayerBuffers(grad_acts[:, :m],
                                    *(part if part.shape[1] else None
                                      for part in own[3 * k : 3 * k + 3]),
                                    scratch[:, :n] if s else None)
            X1, Z = acts[:, layer.inp], acts[:, layer.out]
            g_inp = grad_acts[:, layer.inp.start : layer.inp.stop - 1] if k else None
            self._layer_buffers.append(buffers)
            self._forward += _forward_ops(layer.thirds_t, layer.relu, X1, Z, buffers)
            self._backward[:0] = _backward_ops(layer, X1, Z, grad_acts[:, layer.out], g_inp,
                                               buffers)
        self.output, self.upstream = acts[:, layer.out], grad_acts[:, layer.out]
        self._forward = [_memory_order(op) for op in self._forward]
        self._backward = [_memory_order(op) for op in self._backward]

    def forward(self) -> None:
        """Evaluate the batch under every restart's params into `output`."""
        _run(self._forward)

    def backward(self) -> None:
        """Write into grad[:, theta_index] each restart's gradient of
        sum(upstream * output) w.r.t. its trainable params, at the params of
        the last forward()."""
        _run(self._backward)


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
    packed = PackedNetwork(net, X)
    packed.forward()
    packed.upstream[0] = upstream.T
    packed.backward()
    return packed.grad[0, packed.theta_index]


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
    """width zero-initialised ReLU units of one kind feeding one linear output
    neuron.  A width whose blocks, (3 input_dim + 3) width + 3 width + 3
    entries, would pass _MAX_ENTRIES is refused by name before its layer is
    listed."""
    _integer(input_dim, "input_dim", 1)
    _integer(width, "width", 1, max(1, (_MAX_ENTRIES - 3) // (3 * int(input_dim) + 6)))
    return NetworkSpec.blank(
        input_dim, [("relu", [kind] * width), ("identity", ["conventional"])])


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


_JSON_TYPES = {int: "an integer", float: "a number", str: "a string",
               bool: "true or false", list: "a list"}


def _all_numbers(values: list) -> bool:
    """Whether every entry of values is a JSON number within the float64
    range: a float, or an integer of magnitude at most sys.float_info.max,
    read as its float.  true and false are not numbers."""
    types = {*map(type, values)}
    return types <= {float} or types <= {float, int} and all(
        abs(value) <= sys.float_info.max for value in values if type(value) is int)


def _field(d, key: str, kind: type):
    """d[key], required to be of JSON type kind; a float field takes an
    integer within the float64 range too (_all_numbers), as its float."""
    if type(d) is not dict:
        raise ValueError(f"expected an object, got {d!r}")
    try:
        value = d[key]
    except KeyError:
        raise ValueError(f"lacks {key!r}") from None
    if type(value) is kind:
        return value
    if kind is float and _all_numbers([value]):
        return float(value)
    raise ValueError(f"{key!r} must be {_JSON_TYPES[kind]}, got {value!r}")


def _numbers(d, key: str, row: int = 0) -> np.ndarray:
    """d[key], a JSON list of numbers (_all_numbers), or of lists of `row`
    numbers where row is given, as a float64 array."""
    values = _field(d, key, list)
    entries = ([x for v in values if type(v) is list and len(v) == row for x in v] if row
               else values)
    if len(entries) != len(values) * max(row, 1) or not _all_numbers(entries):
        what = f"lists of {row} numbers" if row else "numbers"
        raise ValueError(f"{key!r} must hold {what} only, got {values!r}")
    array = np.array(values, dtype=np.float64)
    return array.reshape(len(values), row) if row else array


def _neuron_from_dict(d):
    """Check a neuron object; return its kind, or a passthrough's index."""
    kind = _field(d, "kind", str)
    if kind == "passthrough":
        return _field(d, "index", int)
    if kind not in ("quadratic", "conventional"):
        raise ValueError(f"unknown neuron kind {kind!r}")
    _numbers(d, "params")
    return kind


def _layer_from_dict(d) -> None:
    """Check a layer object: its neurons, then its activation."""
    kinds = _each(_field(d, "neurons", list), "neuron", _neuron_from_dict)
    _layer(_field(d, "activation", str), kinds)


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

    Each neuron's params list is the leading entries of its block column,
    and "shortcuts" is always the empty list.  The text is what
    json.dumps(sort_keys=True) writes for that document, joined in one pass
    over params[own] and trainable[own], with no per-neuron dict and no
    encoder.  A parameter's text is its float.__repr__, json.dumps's text
    for a finite float; most entries of the exact nets are 0.0, whose text
    is made once, so only the entries whose bits are not all zero (-0.0
    among them) are formatted.  JSON has no NaN or infinity, so a
    non-finite neuron parameter raises ValueError.
    """
    own = net._layout.own
    values = net.params[own]
    if not np.isfinite(values).all():
        raise ValueError(
            "cannot write network JSON: a neuron parameter is not finite"
        )
    tokens = ["0.0"] * len(values)
    nonzero = np.flatnonzero(values.view(np.int64))
    for i, value in zip(nonzero.tolist(), values[nonzero].tolist()):
        tokens[i] = repr(value)
    # every mask entry as "0, " or "1, ", so entry i starts at character 3 i
    flags = ", ".join((net.trainable[own].view(np.uint8) + ord("0")).tobytes().decode())
    layers, masks, start = [], [], 0
    for (activation, kinds), sizes in zip(net.structure, net._layout.sizes):
        neurons, layer_masks = [], []
        for kind, size in zip(kinds, sizes):
            end = start + size
            if size:
                neurons.append(f'{{"kind": "{kind}", "params": [{", ".join(tokens[start:end])}]}}')
                layer_masks.append(f'[{flags[3 * start : 3 * end - 2]}]')
            else:
                neurons.append(f'{{"index": {kind}, "kind": "passthrough"}}')
                layer_masks.append("[]")
            start = end
        layers.append(f'{{"activation": "{activation}", "neurons": [{", ".join(neurons)}]}}')
        masks.append(f'[{", ".join(layer_masks)}]')
    return (f'{{"input_dim": {net.input_dim}, "layers": [{", ".join(layers)}], '
            f'"masks": [{", ".join(masks)}], "shortcuts": []}}')


_JSON_KEYS = ("input_dim", "layers", "shortcuts", "masks")


def _refuse_constant(name: str):
    raise ValueError(f"network JSON holds the non-finite number {name}")


_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def from_json(text: str) -> NetworkSpec:
    """Parse a network written by to_json, all its parameters into
    params[own] with one assignment and all its mask entries into
    trainable[own] with another (see _read_net).

    A malformed document raises ValueError naming the layer, neuron or mask
    at fault.  A parameter is any JSON number within the float64 range
    (_all_numbers), a mask entry 0, 1, true, false, 0.0 or 1.0, and keys
    the reader does not know are ignored.  "shortcuts" must be the empty
    list: a layer reads the layer before it alone, and an edge that skips
    layers is refused rather than dropped.
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
        input_dim = _integer(_field(doc, "input_dim", int), "'input_dim'", 1)
        for key in _JSON_KEYS[1:]:
            _field(doc, key, list)
    except ValueError as exc:
        raise ValueError(f"network JSON: {exc}") from None
    if doc["shortcuts"]:
        raise ValueError("network JSON: 'shortcuts' must be empty; edges that "
                         "skip layers are not supported")
    structure, values, entries = _read_net(doc["layers"], doc["masks"], input_dim)
    net = NetworkSpec.blank(input_dim, structure)
    own = net._layout.own
    net.params[own] = np.array(values, dtype=np.float64)
    net.trainable[own] = np.array(entries, dtype=bool)
    return net


# each neuron kind with the type of the field it is read from: "params", or
# a passthrough's "index"
_NEURON_FIELDS = {("quadratic", list), ("conventional", list), ("passthrough", int)}


def _read_net(layers: list, masks: list, input_dim: int) -> tuple:
    """(structure, parameters, mask entries) of a document's layers and
    masks, from tests on whole lists: the types of the layers' neuron lists
    and activations, each neuron's kind with the type of its field, one type
    scan over all the parameters and one over all the mask entries; then,
    layer by layer, each neuron's parameter and mask count against its
    fan-in, before blank makes any array.  Only once a test has failed are
    the items walked one by one, to name the first at fault in reading
    order: each layer's neurons and then its activation, each layer's
    masks, the number of mask lists, then layer by layer the counts."""
    try:
        lists = [layer["neurons"] for layer in layers]
        activations = [layer["activation"] for layer in layers]
        neurons, flags = [*chain.from_iterable(lists)], [*chain.from_iterable(masks)]
        kinds = [neuron["kind"] for neuron in neurons]
        fields = [neuron["index" if kind == "passthrough" else "params"]
                  for neuron, kind in zip(neurons, kinds)]
        params = [[] if kind == "passthrough" else field for kind, field in zip(kinds, fields)]
        values, entries = [*chain.from_iterable(params)], [*chain.from_iterable(flags)]
        regular = ({*map(type, lists)} <= {list} and all(lists)
                   and {*activations} <= {*ACTIVATIONS}
                   and {*zip(kinds, map(type, fields))} <= _NEURON_FIELDS
                   and _all_numbers(values) and {*map(type, masks)} <= {list}
                   and {*map(type, flags)} <= {list} and {*entries} <= {0, 1}
                   and len(masks) == len(layers))
    # a layer or neuron that is no object or lacks a key, a number where a
    # list belongs, an activation, kind or mask entry that is a list or an
    # object
    except (KeyError, TypeError):
        regular = False
    if not regular:
        _each(layers, "layer", _layer_from_dict)
        _each(masks, "masks of layer", _masks_from_list)
        raise ValueError("masks must parallel layers")
    kinds = [field if kind == "passthrough" else kind for kind, field in zip(kinds, fields)]
    widths = [*map(len, lists)]
    structure, sizes, start, n = [], [], 0, input_dim
    for activation, width in zip(activations, widths):
        layer, counts = kinds[start : start + width], _param_counts(n)
        sizes += map(counts.get, layer, repeat(0))
        structure.append((activation, layer))
        start, n = start + width, width
    if [*map(len, masks)] == widths and [*map(len, params)] == sizes == [*map(len, flags)]:
        return structure, values, entries
    start, n = 0, input_dim
    for k, (width, layer_masks) in enumerate(zip(widths, masks)):
        if len(layer_masks) != width:
            raise ValueError(f"masks for layer {k} must parallel its neurons")
        for j, (kind, p, size, mask) in enumerate(zip(kinds[start:], params[start:],
                                                      sizes[start:], layer_masks)):
            if not len(p) == len(mask) == size:
                raise ValueError(f"layer {k} neuron {j}: a {kind if size else 'passthrough'} "
                                 f"neuron of fan-in {n} takes {size} parameters and mask "
                                 f"entries, got {len(p)} and {len(mask)}")
        start, n = start + width, width
