"""Acceptance suite: one test per exit criterion, each with its runtime budget.

Criteria with training inside are deterministic (seeded); two slow-moving
quantities (the fine-delta radial L1 error and the width-sweep MSEs) are
additionally pinned against baselines.json as regression values.  If that
file is missing the current values are recorded and the test passes, so the
suite is self-healing after an intentional baseline change: delete the file
and run once.
"""

import json
import time
from pathlib import Path

import numpy as np

from test_neurons import xor_search

from qnn.builders import (
    MultiPolySpec,
    RadialPartition,
    build_deep_radial,
    build_factorization_trainable,
    build_parabola_module,
    build_poly_net,
    build_shallow_radial,
    multipoly_net_size,
    plateau_interval,
    radial_profile,
)
from qnn.cli import annuli_profile, ball_samples, factorization_target
from qnn.network import (
    backward_batch,
    forward_batch,
    one_hidden_conventional,
    one_hidden_quadratic,
    single_quadratic_net,
    trainable_count,
)
from qnn.neurons import quad_preactivation
from qnn.oracles import GridSpec, bernstein_direct, finite_diff_grad, grid_l1, horner
from qnn.polynomials import bernstein_coeffs, factor_polynomial
from qnn.trainer import Dataset, TrainConfig, accuracy, make_poly_dataset, make_rings_dataset, train

from conftest import input_away_from_kinks, random_network
from test_builders_poly import poly_from_roots
from test_builders_radial import random_lipschitz_target

BASELINES = Path(__file__).parent / "baselines.json"


def check_baseline(key: str, value):
    """Compare against the recorded baseline, recording it on first run."""
    data = json.loads(BASELINES.read_text()) if BASELINES.exists() else {}
    if key not in data:
        data[key] = value
        BASELINES.write_text(json.dumps(data, indent=2, sort_keys=True))
        return
    recorded = np.asarray(data[key], dtype=np.float64)
    np.testing.assert_allclose(np.asarray(value), recorded, rtol=1e-6,
                               err_msg=f"regression baseline {key} moved")


def budget(started: float, seconds: float):
    elapsed = time.perf_counter() - started
    assert elapsed < seconds, f"runtime {elapsed:.1f}s exceeded budget {seconds}s"
    return elapsed


def test_criterion_01_gradients_match_finite_differences(capsys):
    """Analytic backward agrees with central differences on 100 random nets."""
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    checked = 0
    worst = 0.0
    while checked < 100:
        net = random_network(rng)
        x = input_away_from_kinks(net, rng)
        if x is None or trainable_count(net) == 0:
            continue
        upstream = rng.normal(size=net.output_dim)
        analytic = backward_batch(net, x[None], upstream[None])
        numeric = finite_diff_grad(net, x, step=1e-5, upstream=upstream)
        rel = np.abs(analytic - numeric) / (
            1.0 + np.maximum(np.abs(analytic), np.abs(numeric))
        )
        worst = max(worst, float(rel.max()))
        assert rel.max() < 1e-5
        checked += 1
    elapsed = budget(started, 10.0)
    print(f"\ncriterion 1: max rel gradient error {worst:.2e} over 100 nets "
          f"({elapsed:.1f}s)")


def test_criterion_02_single_unit_xor():
    """Grid search finds one quadratic unit computing XOR on {0,1}^2."""
    started = time.perf_counter()
    neuron = xor_search()
    assert neuron is not None, "no XOR unit found in the search grid"
    corners = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
    outs = quad_preactivation(neuron, corners)
    predictions = outs > 0
    assert list(predictions) == [False, True, True, False]
    budget(started, 5.0)


def test_criterion_03_rings_separation():
    """One quadratic neuron separates the rings; width-2 conventional never
    does; width-6 conventional succeeds at least once.  The minimal
    conventional width is protocol dependent and only reported here."""
    started = time.perf_counter()
    data = make_rings_dataset(60, r_inner=1.0, r_outer=2.0, noise=0.1, seed=0)

    def restart_accuracies(net, restarts=5):
        accs = []
        for restart in range(restarts):
            cfg = TrainConfig(loss="logistic", learning_rate=0.1,
                              iterations=1500, seed=restart, restarts=1)
            trained, _ = train(net, data, cfg)
            accs.append(accuracy(trained, data))
        return accs

    quad_accs = restart_accuracies(single_quadratic_net(2))
    assert max(quad_accs) == 1.0

    w2_accs = restart_accuracies(one_hidden_conventional(2, 2))
    assert max(w2_accs) < 1.0

    w6_accs = restart_accuracies(one_hidden_conventional(2, 6))
    assert max(w6_accs) == 1.0

    elapsed = budget(started, 60.0)
    print(f"\ncriterion 3: quad {quad_accs}, conv-2 {w2_accs}, conv-6 {w6_accs} "
          f"({elapsed:.1f}s); the width-6 threshold is protocol dependent")


def test_criterion_04_exact_polynomial_networks():
    """200 random polynomials of degree 1..12: the product-tree network
    matches Horner within 1e-8 relative at 1000 points, with the depth and
    width bounds holding."""
    started = time.perf_counter()
    rng = np.random.default_rng(1004)
    for _ in range(200):
        degree = int(rng.integers(1, 13))
        p = poly_from_roots(rng, degree)
        form = factor_polynomial(p)
        net = build_poly_net(form)
        assert net.depth <= int(np.ceil(np.log2(max(form.factor_count, 1)))) + 1
        assert max(net.layer_widths()) <= degree
        xs = rng.uniform(-2.0, 2.0, size=1000)
        vals = forward_batch(net, xs[:, None])[:, 0]
        ref = horner(p, xs)
        assert np.max(np.abs(vals - ref)) <= np.max(1e-8 * (1.0 + np.abs(ref)))
    budget(started, 30.0)


def test_criterion_05_truncated_parabola_module():
    """Plateau equals the height to 1e-9, output is 0 outside the interval,
    and the plateau-gap inequality holds on 1000 random triples."""
    started = time.perf_counter()
    rng = np.random.default_rng(1005)
    for _ in range(25):
        a_lo = rng.uniform(0.0, 2.0)
        a_hi = a_lo + rng.uniform(0.2, 2.0)
        b = rng.uniform(-2.0, 2.0)
        delta = rng.uniform(0.02, 0.45)
        net = build_parabola_module(a_lo, a_hi, b, delta)
        lo, hi = plateau_interval(a_lo, a_hi, delta)
        plateau = np.linspace(lo, hi, 64)
        np.testing.assert_allclose(radial_profile(net, plateau), b, atol=1e-9)
        outside = np.array([0.5 * a_lo, a_hi + 0.1, a_hi + 2.0])
        np.testing.assert_allclose(radial_profile(net, outside), 0.0, atol=1e-12)

    for _ in range(1000):
        a_lo = rng.uniform(0.0, 4.0)
        a_hi = a_lo + rng.uniform(1e-3, 4.0)
        delta = rng.uniform(1e-4, 0.4999)
        _, hi = plateau_interval(a_lo, a_hi, delta)
        assert a_hi - hi < delta * (a_hi - a_lo)
    budget(started, 5.0)


def test_criterion_06_deep_radial_refinement():
    """Three modules in nine module layers; the L1 gap to the step profile
    is non-increasing over the delta sweep; the finest-delta errors are
    pinned as regression baselines."""
    started = time.perf_counter()
    breakpoints = np.array(
        [0.0, np.sqrt(200.0 / 3.0), np.sqrt(400.0 / 3.0), np.sqrt(200.0)]
    )
    heights = np.array([-1.0, 1.0, -1.0])
    cos_target = lambda t: np.cos(3.0 * np.pi / 200.0 * t * t + np.pi / 2.0)
    grid = GridSpec(0.0, float(breakpoints[-1]), 4001)

    step_errors = {}
    cos_errors = {}
    for delta in (0.4, 0.2, 0.1, 0.05):
        partition = RadialPartition(breakpoints, heights, delta)
        net = build_deep_radial(partition, 2)
        assert net.depth == 1 + 9 + 1
        assert all(w <= 4 for w in net.layer_widths())
        profile = lambda t: radial_profile(net, t)
        step_errors[delta] = grid_l1(partition.step_profile, profile, grid)
        cos_errors[delta] = grid_l1(cos_target, profile, grid)

    sweep = [step_errors[d] for d in (0.4, 0.2, 0.1, 0.05)]
    assert all(b <= a for a, b in zip(sweep, sweep[1:]))
    check_baseline("radial_l1_vs_step_delta_0.05", step_errors[0.05])
    check_baseline("radial_l1_vs_cos_delta_0.05", cos_errors[0.05])

    # three modules beat the best single module on the full support
    single_errors = []
    for i in range(3):
        module = build_parabola_module(
            float(breakpoints[i]), float(breakpoints[i + 1]),
            float(heights[i]), 0.05, input_dim=2,
        )
        single_errors.append(
            grid_l1(cos_target, lambda t: radial_profile(module, t), grid)
        )
    assert cos_errors[0.05] < min(single_errors)

    elapsed = budget(started, 10.0)
    print(f"\ncriterion 6: step-L1 sweep {sweep}, cos-L1 at 0.05 = "
          f"{cos_errors[0.05]:.6f} ({elapsed:.1f}s)")


def test_criterion_07_shallow_radial_budget():
    """200 random Lipschitz targets: sup error below delta at the stated
    width bound."""
    started = time.perf_counter()
    rng = np.random.default_rng(1007)
    for _ in range(200):
        r = rng.uniform(0.0, 2.0)
        R = r + rng.uniform(0.3, 3.0)
        L = rng.uniform(0.5, 4.0)
        delta = rng.uniform(0.05, 0.5)
        f = random_lipschitz_target(rng, r, R, L)
        net = build_shallow_radial(f, r, R, L, delta, input_dim=2)
        hidden = net.layers[0].width if net.depth == 2 else 0
        assert hidden <= int(np.floor((R - r) * L / delta)) + 1
        grid = np.linspace(0.0, R + 1.0, 10_000)
        err = np.abs(radial_profile(net, grid) - [f(t) for t in grid])
        assert err.max() < delta
    budget(started, 20.0)


def test_criterion_08_factorization_training():
    """Learning rate 2.0e-3, 600 iterations, 100 samples on [-1, 0]: the
    best of at most 10 restarts fits with mean absolute error below 0.0051
    (the protocol allows up to 20 restarts before failing)."""
    started = time.perf_counter()
    target = factorization_target()
    data = make_poly_dataset(target, -1.0, 0.0, 100)
    net = build_factorization_trainable(5, 1, 2)

    mae = np.inf
    trained = None
    for restarts in (10, 20):
        cfg = TrainConfig(loss="sse", learning_rate=2.0e-3, iterations=600,
                          seed=0, restarts=restarts, init_scale=0.5)
        trained, _ = train(net, data, cfg)
        out = forward_batch(trained, data.inputs)[:, 0]
        mae = float(np.mean(np.abs(out - data.targets)))
        if mae < 0.0051:
            break
    assert mae < 0.0051

    xs = np.linspace(-1.0, 0.0, 1000)
    fit = forward_batch(trained, xs[:, None])[:, 0]
    sup = float(np.max(np.abs(fit - horner(target, xs))))
    assert sup < 0.05

    elapsed = budget(started, 60.0)
    print(f"\ncriterion 8: mean absolute error {mae:.5f}, grid sup {sup:.4f} "
          f"({elapsed:.1f}s)")


def test_criterion_09_bernstein_approximants():
    """Linear targets expand exactly; the degree-10 approximant of x^2
    matches the direct-summation oracle coefficientwise; the sup error for
    the kinked target never increases along the degree sweep."""
    started = time.perf_counter()
    for n in (1, 5, 10, 32, 64):
        poly = bernstein_coeffs(lambda x: x, n)
        assert poly.degree == 1
        np.testing.assert_allclose(poly.coeffs, [0.0, 1.0], atol=1e-12)

    poly = bernstein_coeffs(lambda x: x * x, 10)
    grid = np.linspace(0.0, 1.0, 513)
    direct = bernstein_direct(lambda x: x * x, 10, grid)
    # expected monomial form from the oracle: fit the three coefficients
    vander = np.vander(grid, 3, increasing=True)
    oracle_coeffs, *_ = np.linalg.lstsq(vander, direct, rcond=None)
    np.testing.assert_allclose(poly.coeffs, oracle_coeffs, atol=1e-12)
    np.testing.assert_allclose(poly.coeffs, [0.0, 0.1, 0.9], atol=1e-12)

    f = lambda x: abs(x - 0.5)
    target = np.abs(grid - 0.5)
    sups = [
        float(np.max(np.abs(bernstein_direct(f, n, grid) - target)))
        for n in (4, 8, 16, 32, 64)
    ]
    assert all(b <= a for a, b in zip(sups, sups[1:]))
    budget(started, 5.0)


def test_criterion_10_size_formula_values():
    """The closed-form width/depth values for the three worked examples."""
    started = time.perf_counter()
    assert multipoly_net_size(MultiPolySpec([[1, 1]], [1.0])) == (6, 3)
    assert multipoly_net_size(MultiPolySpec([[4]], [1.0])) == (10, 5)
    assert multipoly_net_size(MultiPolySpec([[2, 1], [1, 3]], [1.0, 1.0])) == (14, 5)
    budget(started, 1.0)


def test_criterion_11_width_eight_gap():
    """At equal width 8 on the 4-dimensional radial target, the quadratic
    network reaches lower MSE than the conventional one for at least 4 of 5
    seeds.  Per-seed MSEs are pinned as regression baselines.  (The
    exponential-separation statement itself is not re-provable numerically;
    this experiment plus criterion 7 stand in for it.)"""
    started = time.perf_counter()
    dim, width = 4, 8
    wins = 0
    quad_mses, conv_mses = [], []
    for seed_idx in range(5):
        rng = np.random.default_rng([100, dim, seed_idx])
        profile, _, _ = annuli_profile(rng, 3, 2.0)
        X = ball_samples(rng, 256, dim, 2.0)
        data = Dataset(X, profile(np.linalg.norm(X, axis=1)))
        mses = {}
        for kind, make in (
            ("quad", one_hidden_quadratic),
            ("conv", one_hidden_conventional),
        ):
            cfg = TrainConfig(loss="mse", learning_rate=0.1, iterations=400,
                              seed=seed_idx, restarts=3)
            trained, _ = train(make(dim, width), data, cfg)
            out = forward_batch(trained, data.inputs)[:, 0]
            mses[kind] = float(np.mean((out - data.targets) ** 2))
        quad_mses.append(mses["quad"])
        conv_mses.append(mses["conv"])
        wins += mses["quad"] < mses["conv"]

    assert wins >= 4
    check_baseline("width_sweep_d4_w8_quadratic", quad_mses)
    check_baseline("width_sweep_d4_w8_conventional", conv_mses)
    elapsed = budget(started, 300.0)
    print(f"\ncriterion 11: wins {wins}/5, quad {np.round(quad_mses, 4)}, "
          f"conv {np.round(conv_mses, 4)} ({elapsed:.1f}s)")
