"""Experiment harness: desk-scale runs emitting CSV/JSON (and optional SVG).

Every command seeds all randomness from its flags, writes its artifacts into
a fresh timestamped directory, and drops a report.json echoing the full
configuration, so a run can be repeated bit-identically.  Exit code is 0
exactly when every declared metric came out finite.
"""

from __future__ import annotations

import argparse
import json
import os
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
from .oracles import GridSpec, bernstein_direct, expand_factored, grid_l1, horner
from .polynomials import FactoredForm, FactorizationError, Polynomial, bernstein_coeffs, factor_polynomial
from .trainer import Dataset, TrainConfig, TrainingError, accuracy, make_poly_dataset, make_rings_dataset, train

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
    metrics: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)
    wall_time_s: float = 0.0

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


def _write_svg_lines(path: Path, series, width=640, height=420, margin=40) -> None:
    """Minimal polyline plot: series is a list of (xs, ys, color)."""
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

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for xs, ys, color in series:
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts))


def _write_svg_scatter(path: Path, points, width=480, height=480, margin=30) -> None:
    """Scatter of ((x, y), color) pairs on a square canvas."""
    xs = np.array([p[0][0] for p in points])
    ys = np.array([p[0][1] for p in points])
    lo = float(min(xs.min(), ys.min()))
    hi = float(max(xs.max(), ys.max()))
    span = (hi - lo) or 1.0

    def s(v):
        return margin + (v - lo) / span * (width - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for (x, y), color in points:
        parts.append(
            f'<circle cx="{s(x):.2f}" cy="{height - s(y):.2f}" r="3" fill="{color}"/>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts))


def _make_run_dir(out_dir: str | None, name: str) -> Path:
    base = Path(out_dir or os.environ.get("QNN_OUT_DIR", "qnn-runs"))
    stamp = datetime.now().strftime("%Y%m%d-%H%M%S-%f")
    run = base / f"{name}-{stamp}"
    run.mkdir(parents=True, exist_ok=True)
    return run


def _finish(report: RunReport, run_dir: Path, started: float) -> int:
    report.wall_time_s = time.perf_counter() - started
    (run_dir / "report.json").write_text(
        json.dumps(
            {
                "experiment": report.experiment,
                "config": report.config,
                "metrics": report.metrics,
                "artifacts": report.artifacts,
                "wall_time_s": report.wall_time_s,
            },
            indent=2,
            sort_keys=True,
        )
    )
    for key in sorted(report.metrics):
        print(f"{report.experiment} {key} = {_fmt(report.metrics[key])}")
    print(f"run directory: {run_dir}")
    if not report.finite():
        print("error: non-finite metric in report", file=sys.stderr)
        return 1
    return 0


def _config_echo(args: argparse.Namespace) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in cfg.items()}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_rings(args) -> int:
    started = time.perf_counter()
    run_dir = _make_run_dir(args.out_dir, "rings")
    report = RunReport("rings", _config_echo(args))

    data = make_rings_dataset(
        args.n_per_class, args.r_inner, args.r_outer, args.noise, args.seed
    )
    rows = []

    def fit(net, label):
        best_acc, best_net, best_loss = -1.0, None, np.inf
        for restart in range(args.restarts):
            cfg = TrainConfig(
                loss="logistic",
                learning_rate=args.learning_rate,
                iterations=args.iterations,
                seed=args.seed + restart,
                restarts=1,
            )
            trained, hist = train(net, data, cfg)
            acc = accuracy(trained, data)
            rows.append((label, restart, acc, hist[-1]))
            if acc > best_acc or (acc == best_acc and hist[-1] < best_loss):
                best_acc, best_net, best_loss = acc, trained, hist[-1]
        return best_acc, best_net

    quad_acc, quad_net = fit(single_quadratic_net(2), "quadratic-1")
    report.metrics["accuracy_quadratic"] = quad_acc
    for width in args.conv_widths:
        acc, _ = fit(one_hidden_conventional(2, width), f"conventional-{width}")
        report.metrics[f"accuracy_conventional_w{width}"] = acc

    acc_csv = run_dir / "accuracy.csv"
    _write_csv(acc_csv, ["model", "restart", "accuracy", "final_loss"], rows)
    report.artifacts.append(str(acc_csv))

    # decision scores of the best quadratic model on a square grid
    grid = np.linspace(-(args.r_outer + 0.5), args.r_outer + 0.5, args.grid_n)
    gx, gy = np.meshgrid(grid, grid)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    scores = forward_batch(quad_net, pts)[:, 0]
    boundary_csv = run_dir / "boundary.csv"
    _write_csv(
        boundary_csv,
        ["x1", "x2", "score"],
        zip(pts[:, 0], pts[:, 1], scores),
    )
    report.artifacts.append(str(boundary_csv))
    (run_dir / "quadratic_net.json").write_text(to_json(quad_net))
    report.artifacts.append(str(run_dir / "quadratic_net.json"))

    if args.svg:
        preds = forward_batch(quad_net, data.inputs)[:, 0]
        pts_colored = [
            ((x[0], x[1]), "#d62728" if s >= 0 else "#1f77b4")
            for x, s in zip(data.inputs, preds)
        ]
        svg = run_dir / "rings.svg"
        _write_svg_scatter(svg, pts_colored)
        report.artifacts.append(str(svg))
    return _finish(report, run_dir, started)


def cmd_radial_deep(args) -> int:
    started = time.perf_counter()
    run_dir = _make_run_dir(args.out_dir, "radial-deep")
    report = RunReport("radial-deep", _config_echo(args))

    t_max = float(RADIAL_BREAKPOINTS[-1])
    grid = GridSpec(0.0, t_max, args.grid_n)
    ts = grid.points()

    part_csv = run_dir / "partition.csv"
    _write_csv(
        part_csv,
        ["breakpoint_index", "breakpoint", "height"],
        [
            (i, RADIAL_BREAKPOINTS[i], RADIAL_HEIGHTS[i] if i < len(RADIAL_HEIGHTS) else "")
            for i in range(len(RADIAL_BREAKPOINTS))
        ],
    )
    report.artifacts.append(str(part_csv))

    sweep_rows = []
    finest_profile = None
    finest_net = None
    for delta in args.deltas:
        partition = RadialPartition(RADIAL_BREAKPOINTS, RADIAL_HEIGHTS, delta)
        net = build_deep_radial(partition, args.input_dim)
        profile = radial_profile(net, ts)
        l1_cos = grid_l1(radial_target, lambda t: radial_profile(net, t), grid)
        l1_step = grid_l1(partition.step_profile, lambda t: radial_profile(net, t), grid)
        sweep_rows.append((delta, l1_cos, l1_step, net.depth))
        report.metrics[f"l1_vs_cos_delta_{delta:g}"] = l1_cos
        report.metrics[f"l1_vs_step_delta_{delta:g}"] = l1_step
        finest_profile = profile
        finest_net = net
    report.metrics["module_layers"] = float(3 * len(RADIAL_HEIGHTS))
    report.metrics["outside_support_value"] = float(
        radial_profile(finest_net, np.array([t_max + 1.0]))[0]
    )

    sweep_csv = run_dir / "l1_sweep.csv"
    _write_csv(sweep_csv, ["delta", "l1_vs_cos", "l1_vs_step", "total_layers"], sweep_rows)
    report.artifacts.append(str(sweep_csv))

    curve_csv = run_dir / "curve.csv"
    _write_csv(
        curve_csv,
        ["t", "target", "network"],
        zip(ts, radial_target(ts), finest_profile),
    )
    report.artifacts.append(str(curve_csv))

    if args.oracle:
        partition = RadialPartition(RADIAL_BREAKPOINTS, RADIAL_HEIGHTS, args.deltas[-1])
        net = build_deep_radial(partition, args.input_dim)
        coarse = grid_l1(radial_target, lambda t: radial_profile(net, t), grid)
        fine = grid_l1(
            radial_target,
            lambda t: radial_profile(net, t),
            GridSpec(0.0, t_max, 2 * args.grid_n - 1),
        )
        report.metrics["oracle_quadrature_gap"] = abs(coarse - fine)

    if args.svg:
        svg = run_dir / "radial.svg"
        _write_svg_lines(
            svg,
            [(ts, radial_target(ts), "#1f77b4"), (ts, finest_profile, "#d62728")],
        )
        report.artifacts.append(str(svg))
    return _finish(report, run_dir, started)


def cmd_poly(args) -> int:
    started = time.perf_counter()
    run_dir = _make_run_dir(args.out_dir, "poly")
    report = RunReport("poly", _config_echo(args))

    p = Polynomial(np.asarray(args.coeffs, dtype=np.float64))
    if p.degree < 1:
        print("error: polynomial must have degree >= 1", file=sys.stderr)
        return 2
    try:
        form = factor_polynomial(p, pair_real_roots=args.pair_real_roots)
    except FactorizationError as exc:
        print(f"error: factorization failed: {exc}", file=sys.stderr)
        return 1

    (run_dir / "factored_form.json").write_text(form.to_json())
    report.artifacts.append(str(run_dir / "factored_form.json"))

    net = build_poly_net(form)
    (run_dir / "network.json").write_text(to_json(net))
    report.artifacts.append(str(run_dir / "network.json"))

    report.metrics["degree"] = float(p.degree)
    report.metrics["linear_factors"] = float(len(form.linear_roots))
    report.metrics["quadratic_factors"] = float(len(form.quadratic_factors))
    report.metrics["depth"] = float(net.depth)
    report.metrics["depth_bound"] = float(
        int(np.ceil(np.log2(max(form.factor_count, 1)))) + 1
    )
    report.metrics["width"] = float(max(net.layer_widths()))
    report.metrics["width_bound"] = float(p.degree)

    if args.oracle:
        rng = np.random.default_rng(args.seed)
        xs = rng.uniform(-2.0, 2.0, size=args.points)
        net_vals = forward_batch(net, xs[:, None])[:, 0]
        ref = horner(p, xs)
        rel = np.abs(net_vals - ref) / (1.0 + np.abs(ref))
        report.metrics["max_rel_error"] = float(np.max(rel))
    return _finish(report, run_dir, started)


def cmd_factor_train(args) -> int:
    started = time.perf_counter()
    run_dir = _make_run_dir(args.out_dir, "factor-train")
    report = RunReport("factor-train", _config_echo(args))

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
    try:
        trained, history = train(net, data, cfg)
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out = forward_batch(trained, data.inputs)[:, 0]
    report.metrics["mean_abs_error"] = float(np.mean(np.abs(out - data.targets)))
    report.metrics["final_loss"] = float(history[-1])
    xs = np.linspace(args.lo, args.hi, 1000)
    fit = forward_batch(trained, xs[:, None])[:, 0]
    report.metrics["sup_error_grid"] = float(np.max(np.abs(fit - horner(target, xs))))

    factors_csv = run_dir / "learned_factors.csv"
    _write_csv(
        factors_csv,
        ["factor", "a0", "a1", "a2"],
        [
            (j + 1, *quadratic_coefficients(neuron))
            for j, neuron in enumerate(trained.layers[0].neurons)
        ],
    )
    report.artifacts.append(str(factors_csv))

    loss_csv = run_dir / "loss_history.csv"
    _write_csv(loss_csv, ["iteration", "loss"], enumerate(history))
    report.artifacts.append(str(loss_csv))

    fit_csv = run_dir / "fit.csv"
    _write_csv(fit_csv, ["x", "target", "network"], zip(xs, horner(target, xs), fit))
    report.artifacts.append(str(fit_csv))

    (run_dir / "trained_net.json").write_text(to_json(trained))
    report.artifacts.append(str(run_dir / "trained_net.json"))

    if args.svg:
        svg = run_dir / "fit.svg"
        _write_svg_lines(
            svg, [(xs, horner(target, xs), "#1f77b4"), (xs, fit, "#d62728")]
        )
        report.artifacts.append(str(svg))
    return _finish(report, run_dir, started)


_BERNSTEIN_TARGETS = {
    "absmid": lambda x: abs(x - 0.5),
    "square": lambda x: x * x,
    "identity": lambda x: x,
}


def cmd_bernstein(args) -> int:
    started = time.perf_counter()
    run_dir = _make_run_dir(args.out_dir, "bernstein")
    report = RunReport("bernstein", _config_echo(args))

    f = _BERNSTEIN_TARGETS[args.target]
    grid = np.linspace(0.0, 1.0, args.grid_n)
    target_vals = np.array([f(x) for x in grid])

    sweep_rows = []
    for n in args.n_sweep:
        approx = bernstein_direct(f, n, grid)
        sup = float(np.max(np.abs(approx - target_vals)))
        sweep_rows.append((n, sup))
        report.metrics[f"sup_error_n{n}"] = sup
    sweep_csv = run_dir / "sweep.csv"
    _write_csv(sweep_csv, ["n", "sup_error"], sweep_rows)
    report.artifacts.append(str(sweep_csv))

    # exact network for the expanded approximant at one chosen degree
    poly = bernstein_coeffs(f, args.net_n)
    (run_dir / "coefficients.json").write_text(poly.to_json())
    report.artifacts.append(str(run_dir / "coefficients.json"))
    if poly.degree >= 1:
        try:
            form = factor_polynomial(poly)
        except FactorizationError as exc:
            print(f"error: factorization failed: {exc}", file=sys.stderr)
            return 1
        net = build_poly_net(form)
        net_vals = forward_batch(net, grid[:, None])[:, 0]
        ref = horner(poly, grid)
        report.metrics["net_vs_coeffs_max_rel"] = float(
            np.max(np.abs(net_vals - ref) / (1.0 + np.abs(ref)))
        )
        if args.oracle:
            direct = bernstein_direct(f, args.net_n, grid)
            report.metrics["net_vs_direct_sup"] = float(
                np.max(np.abs(net_vals - direct))
            )
        (run_dir / "network.json").write_text(to_json(net))
        report.artifacts.append(str(run_dir / "network.json"))
    return _finish(report, run_dir, started)


def cmd_width_sweep(args) -> int:
    started = time.perf_counter()
    run_dir = _make_run_dir(args.out_dir, "width-sweep")
    report = RunReport("width-sweep", _config_echo(args))

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
                    trained, _ = train(net=make(dim, width), data=data, cfg=cfg)
                    out = forward_batch(trained, data.inputs)[:, 0]
                    mse = float(np.mean((out - data.targets) ** 2))
                    rows.append((dim, seed_idx, kind, width, mse))
                    if width == wins_key_width:
                        per_kind[kind] = mse
            if len(per_kind) == 2 and per_kind["quadratic"] < per_kind["conventional"]:
                wins += 1
        if wins_key_width in args.widths:
            report.metrics[f"quad_wins_w{wins_key_width}_d{dim}"] = float(wins)
    sweep_csv = run_dir / "width_mse.csv"
    _write_csv(sweep_csv, ["dim", "seed", "kind", "width", "mse"], rows)
    report.artifacts.append(str(sweep_csv))
    return _finish(report, run_dir, started)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.replace(",", " ").split()]


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _two_or_more(text: str) -> int:
    """A point count where the command needs at least two points."""
    return _int_at_least(text, 2)


def _positive_int_list(text: str) -> list[int]:
    return [_positive_int(v) for v in text.replace(",", " ").split()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnn",
        description="Quadratic-network constructions and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out-dir", default=None,
                       help="artifact directory (default $QNN_OUT_DIR or ./qnn-runs)")
        p.add_argument("--svg", action="store_true", help="also emit SVG plots")

    p = sub.add_parser("rings", help="separate two concentric rings")
    common(p)
    p.add_argument("--n-per-class", type=_positive_int, default=60)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--r-inner", type=float, default=1.0)
    p.add_argument("--r-outer", type=float, default=2.0)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--restarts", type=_positive_int, default=5)
    p.add_argument("--iterations", type=_positive_int, default=1500)
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--conv-widths", type=_positive_int_list, default=[1, 2, 4, 6])
    p.add_argument("--grid-n", type=_positive_int, default=41)
    p.set_defaults(func=cmd_rings)

    p = sub.add_parser("radial-deep", help="stacked truncated-parabola approximator")
    common(p)
    p.add_argument("--deltas", type=_float_list, default=[0.4, 0.2, 0.1, 0.05])
    p.add_argument("--grid-n", type=_two_or_more, default=2001)
    p.add_argument("--input-dim", type=_positive_int, default=2)
    p.add_argument("--oracle", action=argparse.BooleanOptionalAction, default=True)
    p.set_defaults(func=cmd_radial_deep)

    p = sub.add_parser("poly", help="factor a polynomial and build its exact network")
    common(p)
    p.add_argument("--coeffs", type=float, nargs="+", required=True,
                   help="coefficients, lowest degree first")
    p.add_argument("--points", type=_positive_int, default=1000)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--pair-real-roots", action="store_true")
    p.add_argument("--oracle", action=argparse.BooleanOptionalAction, default=True)
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("factor-train", help="learn a factorization by gradient descent")
    common(p)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--restarts", type=_positive_int, default=10)
    p.add_argument("--learning-rate", type=float, default=2.0e-3)
    p.add_argument("--iterations", type=_positive_int, default=600)
    p.add_argument("--samples", type=_two_or_more, default=100)
    p.add_argument("--lo", type=float, default=-1.0)
    p.add_argument("--hi", type=float, default=0.0)
    p.add_argument("--init-scale", type=float, default=0.5)
    p.set_defaults(func=cmd_factor_train)

    p = sub.add_parser("bernstein", help="polynomial approximants of a named target")
    common(p)
    p.add_argument("--target", choices=sorted(_BERNSTEIN_TARGETS), default="absmid")
    p.add_argument("--n-sweep", type=_positive_int_list, default=[4, 8, 16, 32, 64])
    p.add_argument("--net-n", type=_positive_int, default=10)
    p.add_argument("--grid-n", type=_positive_int, default=1001)
    p.add_argument("--oracle", action=argparse.BooleanOptionalAction, default=True)
    p.set_defaults(func=cmd_bernstein)

    p = sub.add_parser("width-sweep", help="quadratic vs conventional across widths")
    common(p)
    p.add_argument("--widths", type=_positive_int_list, default=[1, 2, 4, 8, 16, 32])
    p.add_argument("--dims", type=_positive_int_list, default=[2, 4])
    p.add_argument("--seeds", type=_positive_int, default=5)
    p.add_argument("--samples", type=_positive_int, default=256)
    p.add_argument("--iterations", type=_positive_int, default=400)
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--restarts", type=_positive_int, default=3)
    p.add_argument("--annuli", type=_non_negative_int, default=3)
    p.add_argument("--radius", type=float, default=2.0)
    p.add_argument("--seed", type=_non_negative_int, default=100)
    p.set_defaults(func=cmd_width_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
