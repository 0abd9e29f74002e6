"""Flop and byte counts of a network call, and the same arithmetic in bare numpy.

A network call is described by its shape: the batch size, then per layer
(input width, quadratic, conventional and passthrough neuron counts, relu),
then the shortcut count.  The bare-numpy form stacks each layer's neurons of
one kind into matrices, so a layer costs a few matmuls instead of one
Python-level dispatch per neuron.  The ratio of measured network time to
this form's time is how far qnn sits above the arithmetic it needs.  Its
work buffers are allocated once, outside the timing, so it also avoids the
page faults of fresh large temporaries.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from qnn.neurons import ConventionalNeuron, QuadraticNeuron

BACKWARD = "network.backward_batch"


def net_shape(net, batch: int) -> tuple:
    layers = []
    n_in = net.input_dim
    for layer in net.layers:
        q = sum(isinstance(nr, QuadraticNeuron) for nr in layer.neurons)
        c = sum(isinstance(nr, ConventionalNeuron) for nr in layer.neurons)
        layers.append((n_in, q, c, layer.width - q - c, layer.activation == "relu"))
        n_in = layer.width
    return (int(batch), tuple(layers), len(net.shortcuts))


def wide_tag(shape: tuple) -> str | None:
    """'<kind>_w<width>' for a one-hidden-layer net of one neuron kind."""
    _, layers, shortcuts = shape
    if len(layers) != 2 or shortcuts or layers[1][1:4] != (0, 1, 0):
        return None
    _, q, c, p, _ = layers[0]
    if p == 0 and (q == 0 or c == 0):
        return f"{'quadratic' if q else 'conventional'}_w{q + c}"
    return None


def flops_bytes(kind: str, shape: tuple) -> tuple[int, int]:
    """Arithmetic operations and minimum bytes moved by one call.

    Bytes count each layer's input, output and parameters moved once in
    float64; the backward pass also reads the upstream gradient and writes
    the input gradient and the parameter gradients.
    """
    batch, layers, shortcuts = shape
    flops = 2 * batch * shortcuts
    nbytes = 0
    for n, q, c, p, relu in layers:
        w = q + c + p
        params = q * (3 * n + 3) + c * (n + 1)
        flops += q * (6 * batch * n + 5 * batch) + (batch * n if q else 0)
        flops += c * (2 * batch * n + batch) + (batch * w if relu else 0)
        nbytes += 8 * (batch * n + batch * w + params)
        if kind == BACKWARD:
            flops += q * (12 * batch * n + 5 * batch) + (4 * batch * n if q else 0)
            flops += c * (4 * batch * n + batch) + (batch * n if c else 0)
            flops += batch * w if relu else 0
            nbytes += 8 * (batch * n + batch * w + params)
    if kind == BACKWARD:
        flops += 4 * batch * shortcuts
    return flops, nbytes


def _stacked(shape: tuple, rng: np.random.Generator):
    """Random stacked weights plus every work buffer, allocated once."""
    batch, layers, shortcuts = shape
    stack = []
    for n, q, c, p, relu in layers:
        w = q + c + p
        stack.append({
            "Wr": rng.normal(size=(n, q)), "br": rng.normal(size=q),
            "Wg": rng.normal(size=(n, q)), "bg": rng.normal(size=q),
            "Wb": rng.normal(size=(n, q)), "cq": rng.normal(size=q),
            "W": rng.normal(size=(n, c)), "b": rng.normal(size=c),
            "idx": np.arange(p) % n, "relu": relu,
            "XX": np.empty((batch, n)), "P": np.empty((batch, q)),
            "Q": np.empty((batch, q)), "S": np.empty((batch, q)),
            "Zc": np.empty((batch, c)), "Z": np.empty((batch, w)),
            "A": np.empty((batch, w)), "M": np.empty((batch, w), dtype=bool),
            "D": np.empty((batch, w)), "dQ": np.empty((batch, q)),
            "dP": np.empty((batch, q)), "T": np.empty((batch, n)),
            "G": np.empty((batch, n)),
        })
    X = rng.normal(size=(batch, layers[0][0]))
    return X, stack, shortcuts


def _forward(X, stack, shortcuts):
    inputs = []
    for L in stack:
        inputs.append(X)
        q, c = L["P"].shape[1], L["Zc"].shape[1]
        Z = L["Z"]
        if q:
            np.multiply(X, X, out=L["XX"])
            np.matmul(X, L["Wr"], out=L["P"])
            L["P"] += L["br"]
            np.matmul(X, L["Wg"], out=L["Q"])
            L["Q"] += L["bg"]
            np.matmul(L["XX"], L["Wb"], out=L["S"])
            np.multiply(L["P"], L["Q"], out=Z[:, :q])
            Z[:, :q] += L["S"]
            Z[:, :q] += L["cq"]
        if c:
            np.matmul(X, L["W"], out=L["Zc"])
            np.add(L["Zc"], L["b"], out=Z[:, q:q + c])
        if len(L["idx"]):
            Z[:, q + c:] = X[:, L["idx"]]
        X = np.maximum(Z, 0.0, out=L["A"]) if L["relu"] else Z
    for _ in range(shortcuts):
        X[:, 0] += 0.5 * inputs[0][:, 0]
    return X, inputs


def _backward(X, stack, shortcuts):
    out, inputs = _forward(X, stack, shortcuts)
    G = np.ones_like(out)
    grads = []
    for L, Xl in zip(reversed(stack), reversed(inputs)):
        q, c = L["P"].shape[1], L["Zc"].shape[1]
        D = G
        if L["relu"]:
            np.greater(L["Z"], 0.0, out=L["M"])
            D = np.multiply(G, L["M"], out=L["D"])
        T, Gin = L["T"], L["G"]
        Gin.fill(0.0)
        if q:
            Dq = D[:, :q]
            dQ = np.multiply(Dq, L["Q"], out=L["dQ"])
            dP = np.multiply(Dq, L["P"], out=L["dP"])
            grads += [Xl.T @ dQ, dQ.sum(0), Xl.T @ dP, dP.sum(0), L["XX"].T @ Dq, Dq.sum(0)]
            Gin += np.matmul(dQ, L["Wr"].T, out=T)
            Gin += np.matmul(dP, L["Wg"].T, out=T)
            np.matmul(Dq, L["Wb"].T, out=T)
            T *= Xl
            T *= 2.0
            Gin += T
        if c:
            Dc = D[:, q:q + c]
            grads += [Xl.T @ Dc, Dc.sum(0)]
            Gin += np.matmul(Dc, L["W"].T, out=T)
        if len(L["idx"]):
            Gin[:, L["idx"]] += D[:, q + c:]
        G = Gin
    for _ in range(shortcuts):
        grads.append(float(G[:, 0] @ X[:, 0]))
    return grads


def time_bare(kind: str, shape: tuple) -> float:
    """Median seconds per call of the bare-numpy form of one network call."""
    X, stack, shortcuts = _stacked(shape, np.random.default_rng(0))
    run = _backward if kind == BACKWARD else _forward
    samples = []
    deadline = time.perf_counter() + 0.005
    while len(samples) < 3 or (len(samples) < 50 and time.perf_counter() < deadline):
        started = time.perf_counter()
        run(X, stack, shortcuts)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)
