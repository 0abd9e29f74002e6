"""Print the training executor's warm step time and forward_batch's time.

For each training shape it times ``PackedNetwork.forward`` and
``PackedNetwork.loss_and_grad`` on warm work arrays, in µs per call, the
best of ``--repeat`` runs of as many calls as fill about 0.2 s.  The loss
hands back a fixed upstream gradient, so the time is the executor's alone.
``descend_us`` is one step of ``trainer._descend``, the way the trainer
runs it: forward, mse loss, backward and parameter update, at a learning
rate too small to diverge.  It is the best time of a descent of 1 + N
steps less the best of a 1-step one, over N, so the setup and the final
evaluation drop out; N steps take about 0.2 s.  ``np_calls`` is the numpy
calls per step of that descent: each call made through the ``np`` name of
a qnn module (functions, ufuncs and ufunc methods such as np.add.reduce,
those in a prebuilt list of operations included), counted by putting a
counting stand-in for numpy in those modules.  Arithmetic operators and
array methods are not counted.
The shapes are the factorizer's (``qnn factor-train``: 10 restarts of 100
points) and the width sweep's (4 inputs, widths 8 and 32 of both neuron
kinds, one restart of 4096 points).  It then times ``forward_batch`` the
same way on the exact nets that the exact-build benchmark evaluates, at
4096 points and at every tenth of the first 4010, 401 points: the CLI's
grid size, one tile, where building the call's op list counts.  The nets
are a degree-14 product tree, the Bernstein net of |x - 1/2| at n = 16,
the deep radial stack at d = 4 and the 200-unit shallow radial net at
d = 2; ``np_calls`` is the numpy calls of one call, counted as above.
The 4096-point row also times ``to_json`` writing the net and
``from_json`` reading it back from its JSON, written once outside the
timer; the 401-point row leaves those "-".  Names given on
the command line pick some of the shapes and nets.

Runs from the ``src/`` of the checkout this script sits in, with one BLAS
thread, so that two checkouts can be compared on the same machine:

    python tools/step_timing.py
    python tools/step_timing.py shallow_200x2 product_tree_14
    python ../parent/tools/step_timing.py

A checkout that predates the script runs a copy put in its ``tools/``.
Only the standard library and numpy are used.
"""

from __future__ import annotations

import argparse
import os
import sys
import timeit
import types
from pathlib import Path

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def shapes() -> list[tuple]:
    """(name, net, restarts, batch) of each training shape."""
    from qnn.builders import build_factorization_trainable
    from qnn.network import one_hidden_conventional, one_hidden_quadratic

    return [("factorizer", build_factorization_trainable(5, 1, 2), 10, 100)] + [
        (f"{kind}_w{width}", make(4, width), 1, 4096)
        for kind, make in (("quadratic", one_hidden_quadratic),
                           ("conventional", one_hidden_conventional))
        for width in (8, 32)]


def exact_nets() -> list[tuple]:
    """(name, net, X) of each exact net forward_batch is timed on, X of 4096
    points from where exact-build evaluates it."""
    import numpy as np
    from qnn.builders import (RadialPartition, build_deep_radial, build_poly_net,
                              build_shallow_radial)
    from qnn.polynomials import Polynomial, bernstein_coeffs, factor_polynomial

    rng = np.random.default_rng(0)
    tree = build_poly_net(factor_polynomial(
        Polynomial(np.poly(rng.uniform(-2.0, 2.0, size=14))[::-1])))
    bernstein = build_poly_net(factor_polynomial(bernstein_coeffs(lambda t: abs(t - 0.5), 16)))
    breakpoints = np.concatenate([[0.0], np.cumsum(rng.uniform(0.3, 1.0, size=4))])
    deep = build_deep_radial(RadialPartition(breakpoints, [1.0, -0.5, 1.5, -1.0], 0.05), 4)
    ray = np.zeros((4096, 4))
    ray[:, 0] = np.linspace(0.0, breakpoints[-1] + 0.5, 4096)
    # 200 hidden units: floor((R - r) L / delta) + 1
    shallow = build_shallow_radial(np.sin, 0.5, 2.0, 1.0, 1.5 / 199.5, input_dim=2)
    return [("product_tree_14", tree, rng.uniform(-2.0, 2.0, size=(4096, 1))),
            ("bernstein_16", bernstein, rng.uniform(0.0, 1.0, size=(4096, 1))),
            ("deep_radial_d4", deep, ray),
            ("shallow_200x2", shallow, rng.uniform(-1.5, 1.5, size=(4096, 2)))]


def best_us(call, repeat: int) -> float:
    """The least µs per call over repeat runs, each about 0.2 s long."""
    timer = timeit.Timer(call)
    number, _ = timer.autorange()
    return min(timer.repeat(repeat=repeat, number=number)) / number * 1e6


def numpy_calls(call) -> int:
    """The numpy calls call() makes through the np name of qnn's modules."""
    import numpy as np

    count = 0

    class Counted:
        def __init__(self, target):
            self._target = target

        def __call__(self, *args, **kwargs):
            nonlocal count
            count += 1
            return self._target(*args, **kwargs)

        def __getattr__(self, name):
            return wrap(getattr(self._target, name))

    def wrap(obj):
        callable_kinds = (np.ufunc, types.FunctionType, types.BuiltinFunctionType)
        return Counted(obj) if isinstance(obj, callable_kinds) else obj

    class CountingNumpy(types.ModuleType):
        def __getattr__(self, name):
            return wrap(getattr(np, name))

    modules = [module for name, module in list(sys.modules.items())
               if name.split(".")[0] == "qnn" and getattr(module, "np", None) is np]
    for module in modules:
        module.np = CountingNumpy("numpy")
    try:
        call()
    finally:
        for module in modules:
            module.np = np
    return count


def descend_step(net, restarts: int, batch: int, repeat: int, steps: int) -> tuple:
    """(µs per step, numpy calls per step) of trainer._descend at a shape."""
    import numpy as np
    from qnn.trainer import Dataset, TrainConfig, _descend

    rng = np.random.default_rng(0)
    data = Dataset(rng.normal(size=(batch, net.input_dim)), rng.normal(size=batch))

    def descend(iterations: int):
        cfg = TrainConfig(loss="mse", learning_rate=1e-9, iterations=iterations,
                          restarts=restarts)
        return lambda: _descend(net, data, cfg)

    long = min(timeit.repeat(descend(1 + steps), number=1, repeat=repeat))
    short = best_us(descend(1), repeat) * 1e-6
    calls = numpy_calls(descend(3)) - numpy_calls(descend(2))
    return (long - short) / steps * 1e6, calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("shapes", nargs="*", metavar="shape",
                        help="time only these shapes, e.g. factorizer quadratic_w32")
    parser.add_argument("--repeat", type=int, default=7, help="runs per timing (default 7)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")

    for var in BLAS_THREADS:
        os.environ[var] = "1"  # read when numpy loads its BLAS, on the import below
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import numpy as np
    from qnn.network import PackedNetwork, forward_batch, from_json, to_json, trainable_count

    table, nets = shapes(), exact_nets()
    names = [name for name, *_ in table + nets]
    unknown = set(args.shapes).difference(names)
    if unknown:
        parser.error(f"unknown shape {sorted(unknown)[0]!r}; the shapes are {', '.join(names)}")
    picked = set(args.shapes or names)
    table = [row for row in table if row[0] in picked]
    nets = [row for row in nets if row[0] in picked]
    if table:
        print(f"{'shape':<18} {'R':>3} {'B':>5} {'forward_us':>11} {'loss_and_grad_us':>17} "
              f"{'descend_us':>11} {'np_calls':>9}")
    for name, net, restarts, batch in table:
        rng = np.random.default_rng(0)
        X = rng.normal(size=(batch, net.input_dim))
        theta = rng.uniform(-0.5, 0.5, size=(restarts, trainable_count(net)))
        upstream = rng.normal(size=(restarts, batch, net.output_dim))
        packed = PackedNetwork(net, restarts)

        def loss(out):
            return None, upstream

        packed.loss_and_grad(theta, X, loss)  # makes the work arrays
        forward = best_us(lambda: packed.forward(theta, X), args.repeat)
        step = best_us(lambda: packed.loss_and_grad(theta, X, loss), args.repeat)
        descend, calls = descend_step(net, restarts, batch, args.repeat,
                                      max(10, round(2e5 / step)))
        print(f"{name:<18} {restarts:>3} {batch:>5} {forward:>11.1f} {step:>17.1f} "
              f"{descend:>11.1f} {calls:>9}")

    if table and nets:
        print()
    if nets:
        print(f"{'net':<18} {'depth':>5} {'B':>5} {'forward_batch_us':>17} {'np_calls':>9} "
              f"{'to_json_us':>11} {'from_json_us':>13}")
    for name, net, X in nets:
        text = to_json(net)
        for points in (X, X[:4010:10]):
            us = best_us(lambda: forward_batch(net, points), args.repeat)
            calls = numpy_calls(lambda: forward_batch(net, points))
            write = read = "-"
            if points is X:
                write = f"{best_us(lambda: to_json(net), args.repeat):.1f}"
                read = f"{best_us(lambda: from_json(text), args.repeat):.1f}"
            print(f"{name:<18} {net.depth:>5} {len(points):>5} {us:>17.1f} {calls:>9} "
                  f"{write:>11} {read:>13}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
