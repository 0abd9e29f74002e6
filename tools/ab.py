"""Time two checkouts' qnn in one process: tools/step_timing.py's rows, in
alternating rounds, as paired ratios.

    python tools/ab.py ../parent
    python tools/ab.py ../parent factorizer quadratic_w32 --rounds 20
    python tools/ab.py .

PARENT is a checkout, or its ``src/``.  Its ``src/qnn`` is loaded as the
package ``qnn_a``, and the ``src/qnn`` of the checkout this script sits in
as ``qnn_b`` and, a second time, as ``qnn_c``: three packages in this
process, on one numpy with one BLAS thread.  Each row of step_timing (its
training shapes, exact nets, polynomials and oracles, or the ones named)
gives its measures:

- a training shape: ``forward_us``, ``backward_us`` and ``descend_us`` as
  step_timing takes them, except that one ``descend_us`` sample is one
  descent of 1 + N steps less a 1-step one, over N;
- an exact net: ``forward_batch_us`` at 4096, 401 and 1 points (rows
  ``name@4096``, ``name@401`` and ``name@1``), ``to_json_us`` and
  ``from_json_us``; a first call in a fresh process, step_timing's
  ``cold_us``, is not timed here: read it from step_timing run in each
  checkout;
- a polynomial: ``factor_us``, one ``factor_polynomial`` call, a refusal
  included;
- an oracle: ``bernstein_direct_us`` or ``horner_us``, one call on 4096
  points.

A measure's call count (steps, for ``descend_us``) is fixed once, as many
as take ``qnn_b`` ``--seconds``.  Each round then times every measure once
in each package, one measure after another, the packages' order rotating
from round to round so that heap history and the machine's drift fall on
each alike.  Per measure it prints the median µs of A and of B, the median
of the per-round ratios B/A with their interquartile range, and the same
for C/B: an A/A, the checkout against a second copy of itself.  A B/A
whose range holds 1, or does not clear the A/A's spread, is no difference.
This is per-call evidence; it does not replace perfbench's end-to-end
pairs for a speed claim.

PARENT's tree must have the names step_timing builds its rows from.  Only
the standard library and numpy are used.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(src: Path, name: str):
    """The qnn package in src, loaded as the package name."""
    init = src / "qnn" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def descend_seconds(step_timing, qnn, net, restarts: int, batch: int, steps: int) -> float:
    """The seconds steps steps of qnn's trainer._descend take at a shape: a
    descent of 1 + steps steps less a 1-step one."""
    long, short = (step_timing.timed(step_timing.training(qnn, net, restarts, batch, 1 + k))(1)
                   for k in (steps, 0))
    return long - short


def runs(step_timing, qnn, picked: set) -> dict:
    """{(row, measure): run} for qnn's picked rows, run(n) the seconds n
    calls, or n steps for descend_us, take."""
    out = {}
    for name, net, restarts, batch in step_timing.shapes(qnn):
        if name in picked:
            packed = step_timing.executor(qnn, net, restarts, batch)
            out[name, "forward_us"] = step_timing.timed(packed.forward)
            out[name, "backward_us"] = partial(step_timing.backward_seconds, packed)
            out[name, "descend_us"] = partial(descend_seconds, step_timing, qnn, net,
                                              restarts, batch)
    for name, net, X in step_timing.exact_nets(qnn):
        if name in picked:
            for points in step_timing.batches(X):
                out[f"{name}@{len(points)}", "forward_batch_us"] = step_timing.timed(
                    partial(qnn.forward_batch, net, points))
            out[name, "to_json_us"] = step_timing.timed(partial(qnn.to_json, net))
            out[name, "from_json_us"] = step_timing.timed(
                partial(qnn.from_json, qnn.to_json(net)))
    for name, p in step_timing.polynomials(qnn):
        if name in picked:
            out[name, "factor_us"] = step_timing.timed(partial(step_timing.factor, qnn, p))
    for name, measure, _, call in step_timing.oracles(qnn):
        if name in picked:
            out[name, measure] = step_timing.timed(call)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the checkout to compare with, or its src/")
    parser.add_argument("rows", nargs="*", metavar="row",
                        help="time only these rows, e.g. factorizer bernstein_16 "
                             "factor_bernstein_24")
    parser.add_argument("--rounds", type=int, default=10, help="rounds (default 10)")
    parser.add_argument("--seconds", type=float, default=0.05,
                        help="time of one measure in one package (default 0.05)")
    args = parser.parse_args(argv)
    if args.rounds < 1 or not args.seconds > 0:
        parser.error("--rounds must be >= 1 and --seconds > 0")
    src = args.parent / "src"
    if not (src / "qnn").is_dir():
        src = args.parent
    if not (src / "qnn" / "__init__.py").is_file():
        parser.error(f"no qnn package in {args.parent} or its src/")

    sys.path.insert(0, str(HERE))
    import step_timing

    for var in step_timing.BLAS_THREADS:
        os.environ[var] = "1"  # read when numpy loads its BLAS, on the import below
    import numpy as np

    packages = {"A": load(src, "qnn_a"), "B": load(HERE.parent / "src", "qnn_b"),
                "C": load(HERE.parent / "src", "qnn_c")}
    names = [row[0] for row in step_timing.shapes(packages["B"])
             + step_timing.exact_nets(packages["B"]) + step_timing.polynomials(packages["B"])
             + step_timing.oracles(packages["B"])]
    unknown = set(args.rows).difference(names)
    if unknown:
        parser.error(f"unknown row {sorted(unknown)[0]!r}; the rows are {', '.join(names)}")
    picked = set(args.rows or names)
    timers = {key: runs(step_timing, qnn, picked) for key, qnn in packages.items()}
    measures = list(timers["B"])
    calls = {measure: step_timing.calls_for(timers["B"][measure], args.seconds)
             for measure in measures}
    samples = {key: {measure: [] for measure in measures} for key in packages}
    order = list(packages)
    for round_ in range(args.rounds):
        rotated = order[round_ % 3 :] + order[: round_ % 3]
        for measure in measures:
            for key in rotated:
                us = timers[key][measure](calls[measure]) / calls[measure] * 1e6
                samples[key][measure].append(us)

    print(f"{'row':<22} {'measure':<19} {'A_us':>10} {'B_us':>10} {'B/A':>6} {'B/A_iqr':>13} "
          f"{'C/B':>6} {'C/B_iqr':>13}")
    for measure in measures:
        a, b, c = (np.array(samples[key][measure]) for key in "ABC")
        cells = []
        for ratio in (b / a, c / b):
            q1, median, q3 = np.percentile(ratio, [25, 50, 75])
            cells.append(f"{median:>6.3f} {f'{q1:.3f}..{q3:.3f}':>13}")
        row, name = measure
        print(f"{row:<22} {name:<19} {np.median(a):>10.1f} {np.median(b):>10.1f} "
              + " ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
