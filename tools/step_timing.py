"""Print the training executor's warm step time and forward_batch's time.

For each training shape it times the executor's two passes apart, in µs
per call, the best of ``--repeat`` runs of as many calls as fill about
0.2 s: ``forward_us`` is ``PackedNetwork.forward()``, and ``backward_us``
``PackedNetwork.backward()``, each call timed alone right after a
``forward()``, whose activations it reads.  The upstream gradient is
written once, so the times are the executor's alone.
``descend_us`` is one step of ``trainer._descend``, the way the trainer
runs it: forward, mse loss, backward and parameter update, at a learning
rate too small to diverge.  It is the best time of a descent of 1 + N
steps less the best of a 1-step one, over N, so the setup and the final
evaluation drop out; N steps take about 0.2 s.  ``np_calls`` is the numpy
calls per step of that descent: each call made through the ``np`` name of
a qnn module (functions, ufuncs and ufunc methods such as np.add.reduce,
those in a prebuilt list of operations included), counted by putting a
counting stand-in for numpy in those modules.  Arithmetic operators and
array methods are not counted.  ``faults`` is the minor page faults
(``ru_minflt``) of the process per ``trainer.train`` call of 20 steps, the
mean of 5 calls after one warm-up: the pages a call maps afresh.
The shapes are the factorizer's (``qnn factor-train``: 10 restarts of 100
points) and the width sweep's (4 inputs, widths 8 and 32 of both neuron
kinds, one restart of 4096 points).  It then times ``forward_batch`` the
same way on the exact nets that the exact-build benchmark evaluates, at
4096 points, at every tenth of the first 4010, 401 points (the CLI's grid
size, one tile), and at the first point alone, the call of
``oracles.finite_diff_grad``, where what a call does besides its
arithmetic counts.  ``cold_us`` is the first ``forward_batch`` call at
that row's points in a fresh process that has built the nets and
evaluated none, the best of ``--repeat`` processes: the call that finds
no program for the net's structure and no workspace.  The nets are a
degree-14 product tree, the Bernstein net of |x - 1/2| at n = 16, the
deep radial stack at d = 4 and the 200-unit shallow radial net at d = 2;
``np_calls`` is the numpy calls of a call after a first, counted as
above.  The 4096-point row also times ``to_json`` writing the net and
``from_json`` reading it back from its JSON, written once outside the
timer; the other rows leave those "-".  Last, ``factor_us`` is one
``factor_polynomial`` call, timed the same way, on the Bernstein
approximant of |x - 1/2| at n = 16 and 24, at n = 30, which the residual
check refuses, so that its row times the refusal, and on the degree-14
polynomial of the product tree.  Names given on the command line pick some
of the shapes, nets and polynomials.

Runs from the ``src/`` of the checkout this script sits in, with one BLAS
thread, so that two checkouts can be compared on the same machine:

    python tools/step_timing.py
    python tools/step_timing.py shallow_200x2 product_tree_14 factor_bernstein_24
    python ../parent/tools/step_timing.py

A checkout that predates the script runs a copy put in its ``tools/``;
``tools/ab.py`` times this script's rows for two checkouts in one process.
Only the standard library and numpy are used; ``faults`` needs the
``resource`` module of Unix.
"""

from __future__ import annotations

import argparse
import itertools
import os
import resource
import subprocess
import sys
import time
import timeit
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = Path(__file__).resolve().parents[1] / "src"


def shapes(qnn) -> list[tuple]:
    """(name, net, restarts, batch) of each training shape, the nets made by
    the qnn package given."""
    return [("factorizer", qnn.build_factorization_trainable(5, 1, 2), 10, 100)] + [
        (f"{kind}_w{width}", make(4, width), 1, 4096)
        for kind, make in (("quadratic", qnn.one_hidden_quadratic),
                           ("conventional", qnn.one_hidden_conventional))
        for width in (8, 32)]


def absmid(t):
    """|t - 1/2|, the target of the Bernstein rows."""
    return abs(t - 0.5)


def tree_polynomial(qnn, rng):
    """The degree-14 polynomial of product_tree_14: 14 roots uniform on
    [-2, 2], drawn from rng."""
    import numpy as np

    return qnn.Polynomial(np.poly(rng.uniform(-2.0, 2.0, size=14))[::-1])


def exact_nets(qnn) -> list[tuple]:
    """(name, net, X) of each exact net forward_batch is timed on, made by
    the qnn package given, X of 4096 points from where exact-build
    evaluates it."""
    import numpy as np

    rng = np.random.default_rng(0)
    tree = qnn.build_poly_net(qnn.factor_polynomial(tree_polynomial(qnn, rng)))
    bernstein = qnn.build_poly_net(qnn.factor_polynomial(qnn.bernstein_coeffs(absmid, 16)))
    breakpoints = np.concatenate([[0.0], np.cumsum(rng.uniform(0.3, 1.0, size=4))])
    deep = qnn.build_deep_radial(
        qnn.RadialPartition(breakpoints, [1.0, -0.5, 1.5, -1.0], 0.05), 4)
    ray = np.zeros((4096, 4))
    ray[:, 0] = np.linspace(0.0, breakpoints[-1] + 0.5, 4096)
    # 200 hidden units: floor((R - r) L / delta) + 1
    shallow = qnn.build_shallow_radial(np.sin, 0.5, 2.0, 1.0, 1.5 / 199.5, input_dim=2)
    return [("product_tree_14", tree, rng.uniform(-2.0, 2.0, size=(4096, 1))),
            ("bernstein_16", bernstein, rng.uniform(0.0, 1.0, size=(4096, 1))),
            ("deep_radial_d4", deep, ray),
            ("shallow_200x2", shallow, rng.uniform(-1.5, 1.5, size=(4096, 2)))]


def batches(X) -> list:
    """The points of an exact net's rows: all 4096, every tenth of the
    first 4010, the first alone."""
    return [X, X[:4010:10], X[:1]]


def first_call_us(src: str, name: str, batch: int) -> float:
    """µs of the first forward_batch call of the qnn in src on exact net
    name at batch points, in this process, which must have evaluated none."""
    sys.path.insert(0, src)
    import qnn

    for row, net, X in exact_nets(qnn):
        if row == name:
            points = next(points for points in batches(X) if len(points) == batch)
            tick = time.perf_counter()
            qnn.forward_batch(net, points)
            return (time.perf_counter() - tick) * 1e6
    raise ValueError(f"no exact net {name!r}")


def cold_us(name: str, batch: int, repeat: int) -> float:
    """The least first_call_us over repeat fresh processes, each running
    the qnn of this checkout with the environment of this one."""
    code = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); import step_timing; "
            f"print(step_timing.first_call_us({str(SRC)!r}, {name!r}, {batch}))")
    return min(float(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                    check=True).stdout) for _ in range(repeat))


def polynomials(qnn) -> list[tuple]:
    """(name, polynomial) of each input factor_polynomial is timed on, made
    by the qnn package given."""
    import numpy as np

    return [(f"factor_bernstein_{n}", qnn.bernstein_coeffs(absmid, n)) for n in (16, 24, 30)] + [
        ("factor_poly_14", tree_polynomial(qnn, np.random.default_rng(0)))]


def factor(qnn, p) -> str:
    """qnn's factor_polynomial(p): "factored", or "refused" where it raises
    FactorizationError."""
    try:
        qnn.factor_polynomial(p)
    except qnn.FactorizationError:
        return "refused"
    return "factored"


def calls_for(run, seconds: float = 0.2) -> int:
    """The least of 1, 2, 5, 10, 20, 50, ... calls for which run(calls), the
    seconds that many calls take, reaches seconds, as timeit's autorange."""
    for calls in (base * 10**power for power in itertools.count() for base in (1, 2, 5)):
        if run(calls) >= seconds:
            return calls


def best_us(run, repeat: int) -> float:
    """The least µs per call over repeat runs of run(calls), each about
    0.2 s long; run(n) gives the seconds n calls take, as Timer.timeit."""
    calls = calls_for(run)
    return min(run(calls) for _ in range(repeat)) / calls * 1e6


def timed(call):
    """call's run(n): the seconds n calls of call take."""
    return timeit.Timer(call).timeit


def backward_seconds(packed, calls: int) -> float:
    """The seconds calls of packed.backward() take, each timed alone after
    a packed.forward()."""
    spent = 0.0
    for _ in range(calls):
        packed.forward()
        tick = time.perf_counter()
        packed.backward()
        spent += time.perf_counter() - tick
    return spent


def executor(qnn, net, restarts: int, batch: int):
    """A PackedNetwork of qnn for the shape, on normal inputs, its params
    and upstream gradient drawn once."""
    import numpy as np

    rng = np.random.default_rng(0)
    packed = qnn.PackedNetwork(net, rng.normal(size=(batch, net.input_dim)), restarts)
    packed.params[:, packed.theta_index] = rng.uniform(
        -0.5, 0.5, size=(restarts, len(packed.theta_index)))
    packed.upstream[...] = rng.normal(size=packed.upstream.shape)
    return packed


def training(qnn, net, restarts: int, batch: int, iterations: int, run=None):
    """A call of run, qnn.trainer._descend or qnn.train, on the shape: the
    mse of normal targets on normal inputs, at a learning rate too small to
    diverge."""
    import numpy as np

    rng = np.random.default_rng(0)
    data = qnn.Dataset(rng.normal(size=(batch, net.input_dim)), rng.normal(size=batch))
    cfg = qnn.TrainConfig(loss="mse", learning_rate=1e-9, iterations=iterations,
                          restarts=restarts)
    run = run or qnn.trainer._descend
    return lambda: run(net, data, cfg)


def page_faults(call, calls: int = 5) -> float:
    """Minor page faults of the process per call(), the mean of calls calls
    after one warm-up."""
    call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        call()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls


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


def warm_calls(call) -> int:
    """The numpy calls of a call() after a first: two calls less one, each
    pair counted in a new thread, so that what a thread keeps from its
    first call (forward_batch's program, built through the counting
    stand-in) is counted when the second runs it."""

    def counted(times: int) -> int:
        with ThreadPoolExecutor(max_workers=1) as pool:
            return pool.submit(numpy_calls, lambda: [call() for _ in range(times)]).result()

    return counted(2) - counted(1)


def descend_step(qnn, net, restarts: int, batch: int, repeat: int, steps: int) -> tuple:
    """(µs per step, numpy calls per step) of trainer._descend at a shape."""

    def descend(iterations: int):
        return training(qnn, net, restarts, batch, iterations)

    long = min(timeit.repeat(descend(1 + steps), number=1, repeat=repeat))
    short = best_us(timed(descend(1)), repeat) * 1e-6
    calls = numpy_calls(descend(3)) - numpy_calls(descend(2))
    return (long - short) / steps * 1e6, calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("shapes", nargs="*", metavar="shape",
                        help="time only these shapes, nets and polynomials, e.g. "
                             "factorizer quadratic_w32 factor_poly_14")
    parser.add_argument("--repeat", type=int, default=7, help="runs per timing (default 7)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")

    for var in BLAS_THREADS:
        os.environ[var] = "1"  # read when numpy loads its BLAS, on the import below
    sys.path.insert(0, str(SRC))
    import qnn
    from qnn.network import forward_batch, from_json, to_json

    table, nets, polys = shapes(qnn), exact_nets(qnn), polynomials(qnn)
    names = [name for name, *_ in table + nets + polys]
    unknown = set(args.shapes).difference(names)
    if unknown:
        parser.error(f"unknown shape {sorted(unknown)[0]!r}; the shapes are {', '.join(names)}")
    picked = set(args.shapes or names)
    table = [row for row in table if row[0] in picked]
    nets = [row for row in nets if row[0] in picked]
    polys = [row for row in polys if row[0] in picked]
    if table:
        print(f"{'shape':<18} {'R':>3} {'B':>5} {'forward_us':>11} {'backward_us':>12} "
              f"{'descend_us':>11} {'np_calls':>9} {'faults':>8}")
    for name, net, restarts, batch in table:
        packed = executor(qnn, net, restarts, batch)
        forward = best_us(timed(packed.forward), args.repeat)
        backward = best_us(lambda calls: backward_seconds(packed, calls), args.repeat)
        descend, calls = descend_step(qnn, net, restarts, batch, args.repeat,
                                      max(10, round(2e5 / (forward + backward))))
        faults = page_faults(training(qnn, net, restarts, batch, 20, qnn.train))
        print(f"{name:<18} {restarts:>3} {batch:>5} {forward:>11.1f} {backward:>12.1f} "
              f"{descend:>11.1f} {calls:>9} {faults:>8.1f}")

    if table and nets:
        print()
    if nets:
        print(f"{'net':<18} {'depth':>5} {'B':>5} {'forward_batch_us':>17} {'cold_us':>8} "
              f"{'np_calls':>9} {'to_json_us':>11} {'from_json_us':>13}")
    for name, net, X in nets:
        text = to_json(net)
        for points in batches(X):
            us = best_us(timed(lambda: forward_batch(net, points)), args.repeat)
            cold = cold_us(name, len(points), args.repeat)
            calls = warm_calls(lambda: forward_batch(net, points))
            write = read = "-"
            if points is X:
                write = f"{best_us(timed(lambda: to_json(net)), args.repeat):.1f}"
                read = f"{best_us(timed(lambda: from_json(text)), args.repeat):.1f}"
            print(f"{name:<18} {net.depth:>5} {len(points):>5} {us:>17.1f} {cold:>8.1f} "
                  f"{calls:>9} {write:>11} {read:>13}")

    if (table or nets) and polys:
        print()
    if polys:
        print(f"{'polynomial':<20} {'degree':>6} {'factor_us':>10} {'outcome':>9}")
    for name, p in polys:
        us = best_us(timed(lambda: factor(qnn, p)), args.repeat)
        print(f"{name:<20} {p.degree:>6} {us:>10.1f} {factor(qnn, p):>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
