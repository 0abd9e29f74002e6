"""Experiment harness: desk-scale runs emitting CSV/JSON (and optional SVG).

Every command seeds all randomness from its flags.  ``main`` owns the run: a
bad flag (a degree-0 poly, a poly whose values on [-2, 2] may overflow
float64 and an overflowing Bernstein --net-n included) exits 2 before
anything is written; otherwise it makes a fresh timestamped directory,
starts the clock and hands the command a ``RunReport``, whose
``artifact(name)`` gives each output its path.  A command runs straight
through and returns None, and ``main`` writes a report.json echoing the full
configuration, so a run can be repeated bit-identically.  Commands do not
catch the library's refusals: ``main`` maps a FactorizationError or
TrainingError to an ``error: ...`` line and exit 1, and removes the run
directory; on any other exception it removes the directory too, and
re-raises.  Exit code is 0 exactly when every declared metric came out finite.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

import numpy as np

from .builders import (
    RadialPartition,
    build_deep_radial,
    build_factorization_trainable,
    build_poly_net,
    quadratic_coefficients,
    radial_profile,
)
from .network import forward_batch, one_hidden_conventional, one_hidden_quadratic, single_quadratic_net, to_json
from .neurons import _finite, _integer
from .oracles import GridSpec, bernstein_binomials, bernstein_direct, expand_factored, grid_l1, horner
from .polynomials import FactoredForm, FactorizationError, Polynomial, bernstein_coeffs, factor_polynomial
from .trainer import (Dataset, TrainConfig, TrainingError, accuracy, make_poly_dataset,
                      make_rings_dataset, train, train_restarts)

# ---------------------------------------------------------------------------
# Shared experiment definitions
# ---------------------------------------------------------------------------

# cos profile approximated by the three-module deep radial network
RADIAL_BREAKPOINTS = np.array(
    [0.0, np.sqrt(200.0 / 3.0), np.sqrt(400.0 / 3.0), np.sqrt(200.0)]
)
RADIAL_HEIGHTS = np.array([-1.0, 1.0, -1.0])


def radial_target(t):
    """cos(3 pi / 200 * t^2 + pi / 2) on the support of the deep construction."""
    t = np.asarray(t, dtype=np.float64)
    return np.cos(3.0 * np.pi / 200.0 * t * t + np.pi / 2.0)


def factorization_target() -> Polynomial:
    """The degree-5 training target (x^2+1)(x-1)(x^2+1.7x+1.2), expanded."""
    return expand_factored(
        FactoredForm(1.0, [1.0], [(0.0, 1.0), (1.7, 1.2)])
    )


def annuli_profile(rng: np.random.Generator, n_annuli: int, radius: float):
    """Random disjoint annuli with +-1 signs; returns (profile, cuts, signs)."""
    cuts = np.sort(rng.uniform(0.15 * radius, radius, size=2 * n_annuli))
    signs = rng.choice([-1.0, 1.0], size=n_annuli)

    def profile(t):
        t = np.asarray(t, dtype=np.float64)
        out = np.zeros_like(t)
        for i in range(n_annuli):
            out += signs[i] * ((t >= cuts[2 * i]) & (t <= cuts[2 * i + 1]))
        return out

    return profile, cuts, signs


def ball_samples(rng: np.random.Generator, n: int, dim: int, radius: float) -> np.ndarray:
    """n points drawn uniformly from the dim-dimensional ball."""
    dirs = rng.normal(size=(n, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = radius * rng.uniform(0.0, 1.0, size=n) ** (1.0 / dim)
    return dirs * radii[:, None]


# ---------------------------------------------------------------------------
# Reports and artifact writers
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    experiment: str
    config: dict
    run_dir: Path
    metrics: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)
    wall_time_s: float = 0.0

    def artifact(self, name: str) -> Path:
        """The path of artifact `name` in the run directory, recorded in the report."""
        path = self.run_dir / name
        self.artifacts.append(str(path))
        return path

    def finite(self) -> bool:
        return all(np.isfinite(v) for v in self.metrics.values())


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{value:.12g}"
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_svg(path: Path, width: int, height: int, shapes: list[str]) -> None:
    """A white width x height canvas holding the given SVG elements."""
    path.write_text("\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        *shapes,
        "</svg>",
    ]))


def _write_svg_lines(path: Path, series) -> None:
    """Minimal 640 x 420 polyline plot: series is a list of (xs, ys, color)."""
    width, height, margin = 640, 420, 40
    xs_all = np.concatenate([np.asarray(s[0], dtype=float) for s in series])
    ys_all = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    x0, x1 = float(xs_all.min()), float(xs_all.max())
    y0, y1 = float(ys_all.min()), float(ys_all.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)

    shapes = []
    for xs, ys, color in series:
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        shapes.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'
        )
    _write_svg(path, width, height, shapes)


def _write_svg_scatter(path: Path, points) -> None:
    """Scatter of ((x, y), color) pairs on a 480 x 480 canvas."""
    width, height, margin = 480, 480, 30
    xs = np.array([p[0][0] for p in points])
    ys = np.array([p[0][1] for p in points])
    lo = float(min(xs.min(), ys.min()))
    hi = float(max(xs.max(), ys.max()))
    span = (hi - lo) or 1.0

    def s(v):
        return margin + (v - lo) / span * (width - 2 * margin)

    _write_svg(path, width, height, [
        f'<circle cx="{s(x):.2f}" cy="{height - s(y):.2f}" r="3" fill="{color}"/>'
        for (x, y), color in points
    ])


def _make_run_dir(out_dir: str | None, name: str) -> Path:
    base = Path(out_dir or os.environ.get("QNN_OUT_DIR", "qnn-runs"))
    stamp = datetime.now().strftime("%Y%m%d-%H%M%S-%f")
    run = base / f"{name}-{stamp}"
    run.mkdir(parents=True, exist_ok=True)
    return run


def _finish(report: RunReport, started: float) -> int:
    report.wall_time_s = time.perf_counter() - started
    fields = {k: v for k, v in vars(report).items() if k != "run_dir"}
    (report.run_dir / "report.json").write_text(json.dumps(fields, indent=2, sort_keys=True))
    for key in sorted(report.metrics):
        print(f"{report.experiment} {key} = {_fmt(report.metrics[key])}")
    print(f"run directory: {report.run_dir}")
    if not report.finite():
        print("error: non-finite metric in report", file=sys.stderr)
        return 1
    return 0


def _config_echo(args: argparse.Namespace) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k not in ("func", "parser")}
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in cfg.items()}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_rings(args, report: RunReport) -> None:
    data = make_rings_dataset(
        args.n_per_class, args.r_inner, args.r_outer, args.noise, args.seed
    )
    cfg = TrainConfig(loss="logistic", learning_rate=args.learning_rate,
                      iterations=args.iterations, seed=args.seed, restarts=args.restarts)
    rows = []

    def fit(net, label):
        """Best accuracy among the restarts that did not diverge, lower loss on ties."""
        nets, history, final = train_restarts(net, data, cfg)
        losses = np.where(np.isinf(final), np.inf, history[-1])
        best_acc, best_net, best_loss = -1.0, None, np.inf
        for restart, (trained, loss) in enumerate(zip(nets, losses)):
            acc = np.nan if trained is None else accuracy(trained, data)
            rows.append((label, restart, acc, loss))
            if acc > best_acc or (acc == best_acc and loss < best_loss):  # nan never wins
                best_acc, best_net, best_loss = acc, trained, loss
        return best_acc, best_net

    quad_acc, quad_net = fit(single_quadratic_net(2), "quadratic-1")
    report.metrics["accuracy_quadratic"] = quad_acc
    for width in args.conv_widths:
        acc, _ = fit(one_hidden_conventional(2, width), f"conventional-{width}")
        report.metrics[f"accuracy_conventional_w{width}"] = acc

    _write_csv(report.artifact("accuracy.csv"),
               ["model", "restart", "accuracy", "final_loss"], rows)

    # decision scores of the best quadratic model on a square grid
    grid = np.linspace(-(args.r_outer + 0.5), args.r_outer + 0.5, args.grid_n)
    gx, gy = np.meshgrid(grid, grid)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    scores = forward_batch(quad_net, pts)[:, 0]
    _write_csv(
        report.artifact("boundary.csv"),
        ["x1", "x2", "score"],
        zip(pts[:, 0], pts[:, 1], scores),
    )
    report.artifact("quadratic_net.json").write_text(to_json(quad_net))

    if args.svg:
        preds = forward_batch(quad_net, data.inputs)[:, 0]
        pts_colored = [
            ((x[0], x[1]), "#d62728" if s >= 0 else "#1f77b4")
            for x, s in zip(data.inputs, preds)
        ]
        _write_svg_scatter(report.artifact("rings.svg"), pts_colored)


def cmd_radial_deep(args, report: RunReport) -> None:
    t_max = float(RADIAL_BREAKPOINTS[-1])
    grid = GridSpec(0.0, t_max, args.grid_n)
    ts = grid.points()

    _write_csv(
        report.artifact("partition.csv"),
        ["breakpoint_index", "breakpoint", "height"],
        [
            (i, RADIAL_BREAKPOINTS[i], RADIAL_HEIGHTS[i] if i < len(RADIAL_HEIGHTS) else "")
            for i in range(len(RADIAL_BREAKPOINTS))
        ],
    )

    sweep_rows = []
    for delta in args.deltas:
        partition = RadialPartition(RADIAL_BREAKPOINTS, RADIAL_HEIGHTS, delta)
        # read along x = (t, 0), so any input width gives the same profile
        net = build_deep_radial(partition, 2)
        # one forward pass per delta: grid_l1 samples both curves at ts
        profile = radial_profile(net, ts)
        l1_cos = grid_l1(radial_target, lambda t: profile, grid)
        l1_step = grid_l1(partition.step_profile, lambda t: profile, grid)
        sweep_rows.append((delta, l1_cos, l1_step, net.depth))
        report.metrics[f"l1_vs_cos_delta_{delta:g}"] = l1_cos
        report.metrics[f"l1_vs_step_delta_{delta:g}"] = l1_step
    # net, profile and l1_cos below are those of the last delta
    report.metrics["module_layers"] = float(3 * len(RADIAL_HEIGHTS))
    report.metrics["outside_support_value"] = float(
        radial_profile(net, np.array([t_max + 1.0]))[0]
    )

    _write_csv(report.artifact("l1_sweep.csv"),
               ["delta", "l1_vs_cos", "l1_vs_step", "total_layers"], sweep_rows)
    _write_csv(
        report.artifact("curve.csv"),
        ["t", "target", "network"],
        zip(ts, radial_target(ts), profile),
    )

    fine = grid_l1(radial_target, lambda t: radial_profile(net, t),
                   GridSpec(0.0, t_max, 2 * args.grid_n - 1))
    report.metrics["oracle_quadrature_gap"] = abs(l1_cos - fine)

    if args.svg:
        _write_svg_lines(
            report.artifact("radial.svg"),
            [(ts, radial_target(ts), "#1f77b4"), (ts, profile, "#d62728")],
        )


_POLY_X_MAX = 2.0  # cmd_poly checks the net against Horner on [-2, 2]


def cmd_poly(args, report: RunReport) -> None:
    p = Polynomial(args.coeffs)
    form = factor_polynomial(p, pair_real_roots=args.pair_real_roots)

    report.artifact("factored_form.json").write_text(form.to_json())

    net = build_poly_net(form)
    report.artifact("network.json").write_text(to_json(net))

    report.metrics["degree"] = float(p.degree)
    report.metrics["linear_factors"] = float(len(form.linear_roots))
    report.metrics["quadratic_factors"] = float(len(form.quadratic_factors))
    report.metrics["depth"] = float(net.depth)
    report.metrics["depth_bound"] = float(
        int(np.ceil(np.log2(max(form.factor_count, 1)))) + 1
    )
    report.metrics["width"] = float(max(net.layer_widths()))
    report.metrics["width_bound"] = float(p.degree)

    xs = np.random.default_rng(args.seed).uniform(
        -_POLY_X_MAX, _POLY_X_MAX, size=args.points)
    net_vals = forward_batch(net, xs[:, None])[:, 0]
    ref = horner(p, xs)
    rel = np.abs(net_vals - ref) / (1.0 + np.abs(ref))
    report.metrics["max_rel_error"] = float(np.max(rel))


def cmd_factor_train(args, report: RunReport) -> None:
    target = factorization_target()
    data = make_poly_dataset(target, args.lo, args.hi, args.samples)
    net = build_factorization_trainable(5, 1, 2)
    cfg = TrainConfig(
        loss="sse",
        learning_rate=args.learning_rate,
        iterations=args.iterations,
        seed=args.seed,
        restarts=args.restarts,
        init_scale=args.init_scale,
    )
    trained, history = train(net, data, cfg)

    out = forward_batch(trained, data.inputs)[:, 0]
    report.metrics["mean_abs_error"] = float(np.mean(np.abs(out - data.targets)))
    report.metrics["final_loss"] = float(history[-1])
    xs = np.linspace(args.lo, args.hi, 1000)
    fit = forward_batch(trained, xs[:, None])[:, 0]
    report.metrics["sup_error_grid"] = float(np.max(np.abs(fit - horner(target, xs))))

    _write_csv(
        report.artifact("learned_factors.csv"),
        ["factor", "a0", "a1", "a2"],
        [
            (j + 1, *quadratic_coefficients(column))
            for j, column in enumerate(trained.blocks[0].T)
        ],
    )

    _write_csv(report.artifact("loss_history.csv"), ["iteration", "loss"], enumerate(history))

    _write_csv(report.artifact("fit.csv"), ["x", "target", "network"],
               zip(xs, horner(target, xs), fit))

    report.artifact("trained_net.json").write_text(to_json(trained))

    if args.svg:
        _write_svg_lines(
            report.artifact("fit.svg"),
            [(xs, horner(target, xs), "#1f77b4"), (xs, fit, "#d62728")],
        )


_BERNSTEIN_TARGETS = {
    "absmid": lambda x: abs(x - 0.5),
    "square": lambda x: x * x,
    "identity": lambda x: x,
}


def cmd_bernstein(args, report: RunReport) -> None:
    f = _BERNSTEIN_TARGETS[args.target]
    grid = np.linspace(0.0, 1.0, args.grid_n)
    target_vals = np.array([f(x) for x in grid])

    sweep_rows = []
    for n in args.n_sweep:
        approx = bernstein_direct(f, n, grid)
        sup = float(np.max(np.abs(approx - target_vals)))
        sweep_rows.append((n, sup))
        report.metrics[f"sup_error_n{n}"] = sup
    _write_csv(report.artifact("sweep.csv"), ["n", "sup_error"], sweep_rows)

    # exact network for the expanded approximant at one chosen degree
    poly = bernstein_coeffs(f, args.net_n)
    report.artifact("coefficients.json").write_text(poly.to_json())
    if poly.degree >= 1:
        net = build_poly_net(factor_polynomial(poly))
        net_vals = forward_batch(net, grid[:, None])[:, 0]
        ref = horner(poly, grid)
        report.metrics["net_vs_coeffs_max_rel"] = float(
            np.max(np.abs(net_vals - ref) / (1.0 + np.abs(ref)))
        )
        direct = bernstein_direct(f, args.net_n, grid)
        report.metrics["net_vs_direct_sup"] = float(np.max(np.abs(net_vals - direct)))
        report.artifact("network.json").write_text(to_json(net))


def cmd_width_sweep(args, report: RunReport) -> None:
    rows = []
    wins_key_width = 8
    for dim in args.dims:
        wins = 0
        for seed_idx in range(args.seeds):
            rng = np.random.default_rng([args.seed, dim, seed_idx])
            profile, _, _ = annuli_profile(rng, args.annuli, args.radius)
            X = ball_samples(rng, args.samples, dim, args.radius)
            data = Dataset(X, profile(np.linalg.norm(X, axis=1)))
            per_kind = {}
            for kind, make in (
                ("quadratic", one_hidden_quadratic),
                ("conventional", one_hidden_conventional),
            ):
                for width in args.widths:
                    cfg = TrainConfig(
                        loss="mse",
                        learning_rate=args.learning_rate,
                        iterations=args.iterations,
                        seed=seed_idx,
                        restarts=args.restarts,
                    )
                    # the best restart's final loss, its mse at its returned params
                    mse = float(train_restarts(make(dim, width), data, cfg)[2].min())
                    rows.append((dim, seed_idx, kind, width, mse))
                    if width == wins_key_width:
                        per_kind[kind] = mse
            if len(per_kind) == 2 and per_kind["quadratic"] < per_kind["conventional"]:
                wins += 1
        if wins_key_width in args.widths:
            report.metrics[f"quad_wins_w{wins_key_width}_d{dim}"] = float(wins)
    _write_csv(report.artifact("width_mse.csv"), ["dim", "seed", "kind", "width", "mse"], rows)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _flag(parse, check, **bound):
    """An argparse type: the text read by parse (int or float), then held to
    the package's rule by check (_integer or _finite) with its bound.  The
    rule's ValueError becomes a usage error, so a bad flag exits 2 with its
    usage line before any run directory is made; text that parse cannot read
    is argparse's "invalid int value"."""
    def read(text: str):
        value = parse(text)
        try:
            return check(value, "value", **bound)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    read.__name__ = parse.__name__
    return read


_non_negative_int = _flag(int, _integer, low=0)
_positive_int = _flag(int, _integer, low=1)
_two_or_more = _flag(int, _integer, low=2)  # a point count where the command needs two
_finite_float = _flag(float, _finite)
_positive_float = _flag(float, _finite, positive=True)


def _positive_int_list(text: str) -> list[int]:
    return [_positive_int(v) for v in text.replace(",", " ").split()]


def _non_negative_float(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"value must be >= 0, got {value:g}")
    return value


def _delta_list(text: str) -> list[float]:
    """Ramp parameters of the deep radial modules, each in (0, 1/2) and
    large enough for the command's partition."""
    values = [_finite_float(v) for v in text.replace(",", " ").split()]
    if not values:
        raise argparse.ArgumentTypeError("expected at least one delta")
    for delta in values:
        try:
            RadialPartition(RADIAL_BREAKPOINTS, RADIAL_HEIGHTS, delta)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return values


def _bernstein_degrees(text: str) -> list[int]:
    """Degrees of direct Bernstein sums, whose binomials must fit float64."""
    values = _positive_int_list(text)
    for n in values:
        try:
            bernstein_binomials(n)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnn",
        description="Quadratic-network constructions and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, svg=False):
        p.add_argument("--out-dir", default=None,
                       help="artifact directory (default $QNN_OUT_DIR or ./qnn-runs)")
        if svg:
            p.add_argument("--svg", action="store_true", help="also emit SVG plots")
        p.set_defaults(parser=p)  # reports the cross-flag errors under its usage

    p = sub.add_parser("rings", help="separate two concentric rings")
    common(p, svg=True)
    p.add_argument("--n-per-class", type=_positive_int, default=60)
    p.add_argument("--noise", type=_non_negative_float, default=0.1)
    p.add_argument("--r-inner", type=_positive_float, default=1.0)
    p.add_argument("--r-outer", type=_positive_float, default=2.0)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--restarts", type=_positive_int, default=5)
    p.add_argument("--iterations", type=_positive_int, default=1500)
    p.add_argument("--learning-rate", type=_positive_float, default=0.1)
    p.add_argument("--conv-widths", type=_positive_int_list, default=[1, 2, 4, 6])
    p.add_argument("--grid-n", type=_positive_int, default=41)
    p.set_defaults(func=cmd_rings)

    p = sub.add_parser("radial-deep", help="stacked truncated-parabola approximator")
    common(p, svg=True)
    p.add_argument("--deltas", type=_delta_list, default=[0.4, 0.2, 0.1, 0.05])
    p.add_argument("--grid-n", type=_two_or_more, default=2001)
    p.set_defaults(func=cmd_radial_deep)

    p = sub.add_parser("poly", help="factor a polynomial and build its exact network")
    common(p)
    p.add_argument("--coeffs", type=_finite_float, nargs="+", required=True,
                   help="coefficients, lowest degree first")
    p.add_argument("--points", type=_positive_int, default=1000)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--pair-real-roots", action="store_true")
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("factor-train", help="learn a factorization by gradient descent")
    common(p, svg=True)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--restarts", type=_positive_int, default=10)
    p.add_argument("--learning-rate", type=_positive_float, default=2.0e-3)
    p.add_argument("--iterations", type=_positive_int, default=600)
    p.add_argument("--samples", type=_two_or_more, default=100)
    p.add_argument("--lo", type=_finite_float, default=-1.0)
    p.add_argument("--hi", type=_finite_float, default=0.0)
    p.add_argument("--init-scale", type=_positive_float, default=0.5)
    p.set_defaults(func=cmd_factor_train)

    p = sub.add_parser("bernstein", help="polynomial approximants of a named target")
    common(p)
    p.add_argument("--target", choices=sorted(_BERNSTEIN_TARGETS), default="absmid")
    p.add_argument("--n-sweep", type=_bernstein_degrees, default=[4, 8, 16, 32, 64])
    p.add_argument("--net-n", type=_positive_int, default=10)
    p.add_argument("--grid-n", type=_positive_int, default=1001)
    p.set_defaults(func=cmd_bernstein)

    p = sub.add_parser("width-sweep", help="quadratic vs conventional across widths")
    common(p)
    p.add_argument("--widths", type=_positive_int_list, default=[1, 2, 4, 8, 16, 32])
    p.add_argument("--dims", type=_positive_int_list, default=[2, 4])
    p.add_argument("--seeds", type=_positive_int, default=5)
    p.add_argument("--samples", type=_positive_int, default=256)
    p.add_argument("--iterations", type=_positive_int, default=400)
    p.add_argument("--learning-rate", type=_positive_float, default=0.1)
    p.add_argument("--restarts", type=_positive_int, default=3)
    p.add_argument("--annuli", type=_non_negative_int, default=3)
    p.add_argument("--radius", type=_positive_float, default=2.0)
    p.add_argument("--seed", type=_non_negative_int, default=100)
    p.set_defaults(func=cmd_width_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "factor-train" and args.lo >= args.hi:
        args.parser.error("--lo must be below --hi")
    if args.command == "rings" and args.r_inner >= args.r_outer:
        args.parser.error("--r-inner must be below --r-outer")
    if args.command == "poly":
        p = Polynomial(args.coeffs)
        if p.degree < 1:
            args.parser.error(
                f"--coeffs give a polynomial of degree {p.degree}; need degree >= 1")
        bound = 0.0  # sum |c_k| X^k, the most |p| reaches on the sampled [-X, X]
        for c in p.coeffs[::-1].tolist():
            bound = bound * _POLY_X_MAX + abs(c)
        if not np.isfinite(bound):
            args.parser.error(f"--coeffs: |p| on [-{_POLY_X_MAX:g}, {_POLY_X_MAX:g}] "
                              "may exceed the float64 range")
    if args.command == "bernstein":
        try:
            bernstein_coeffs(_BERNSTEIN_TARGETS[args.target], args.net_n)
        except ValueError as exc:
            args.parser.error(f"--net-n: {exc}")
    started = time.perf_counter()
    run_dir = _make_run_dir(args.out_dir, args.command)
    report = RunReport(args.command, _config_echo(args), run_dir)
    try:
        args.func(args, report)
    except (FactorizationError, TrainingError) as exc:
        shutil.rmtree(run_dir)
        refused = "factorization failed: " if isinstance(exc, FactorizationError) else ""
        print(f"error: {refused}{exc}", file=sys.stderr)
        return 1
    except BaseException:
        shutil.rmtree(run_dir)
        raise
    return _finish(report, started)


if __name__ == "__main__":
    sys.exit(main())
