"""Radial constructions: shallow knotted interpolant and deep module stacks."""

import numpy as np
import pytest

from qnn.builders import (
    RadialPartition,
    build_deep_radial,
    build_parabola_module,
    build_shallow_radial,
    delta_for_target_error,
    plateau_interval,
    radial_profile,
)
from qnn.network import forward_batch
from qnn.oracles import GridSpec, grid_l1


def clamp_to_interval(f, r, R):
    """Extend f from [r, R] to all of t >= 0 by holding the boundary values."""
    def g(t):
        return f(min(max(t, r), R))
    return g


def random_lipschitz_target(rng, r, R, L, pieces=5):
    """Piecewise-linear function on [r, R] with slopes within 0.9 L."""
    knots = np.sort(np.concatenate([[r, R], rng.uniform(r, R, size=pieces - 1)]))
    values = [rng.uniform(-1.0, 1.0)]
    for width in np.diff(knots):
        slope = rng.uniform(-0.9 * L, 0.9 * L)
        values.append(values[-1] + slope * width)
    values = np.array(values)

    def f(t):
        return float(np.interp(t, knots, values))

    return clamp_to_interval(f, r, R)


class TestShallowRadial:
    def test_constant_target_needs_no_hidden_units(self):
        net = build_shallow_radial(lambda t: 5.0, 1.0, 2.0, 1e-9, 0.1, input_dim=2)
        assert net.depth == 1
        ts = np.linspace(0.0, 3.0, 50)
        np.testing.assert_array_equal(radial_profile(net, ts), np.full(50, 5.0))

    def test_complex_ray_refused(self):
        """A complex ray parameter is refused by name, not cast to its real part."""
        net = build_shallow_radial(lambda t: 5.0, 1.0, 2.0, 1e-9, 0.1, input_dim=2)
        with pytest.raises(ValueError, match="ts must be real"):
            radial_profile(net, np.array([1.0 + 1.0j]))

    def test_identity_target_three_units(self):
        f = clamp_to_interval(lambda t: t, 1.0, 2.0)
        net = build_shallow_radial(f, 1.0, 2.0, 1.0, 0.5, input_dim=2)
        assert net.layers[0].width <= 3
        grid = np.linspace(0.0, 3.0, 10_000)
        err = np.abs(radial_profile(net, grid) - np.clip(grid, 1.0, 2.0))
        assert err.max() < 0.5

    def test_exact_at_knots(self):
        f = clamp_to_interval(lambda t: np.sin(t), 1.0, 2.0)
        net = build_shallow_radial(f, 1.0, 2.0, 1.0, 0.25, input_dim=1)
        gammas = np.array([-n.c for n in net.layers[0].neurons])
        knots = np.sqrt(gammas)
        prof = radial_profile(net, knots)
        np.testing.assert_allclose(prof, [f(t) for t in knots], atol=1e-12)

    def test_flat_outside_support(self):
        f = clamp_to_interval(lambda t: t * t, 1.0, 2.0)
        net = build_shallow_radial(f, 1.0, 2.0, 4.0, 0.3)
        assert radial_profile(net, np.array([0.0]))[0] == pytest.approx(f(1.0))
        assert radial_profile(net, np.array([5.0]))[0] == pytest.approx(f(2.0), rel=1e-12)

    def test_sup_error_below_budget_random_targets(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            r = rng.uniform(0.0, 2.0)
            R = r + rng.uniform(0.5, 3.0)
            L = rng.uniform(0.5, 4.0)
            delta = rng.uniform(0.05, 0.5)
            f = random_lipschitz_target(rng, r, R, L)
            net = build_shallow_radial(f, r, R, L, delta, input_dim=2)
            width = net.layers[0].width if net.depth == 2 else 0
            assert width <= int(np.floor((R - r) * L / delta)) + 1
            grid = np.linspace(0.0, R + 1.0, 10_000)
            err = np.abs(radial_profile(net, grid) - [f(t) for t in grid])
            assert err.max() < delta

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            build_shallow_radial(lambda t: t, 1.0, 2.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            build_shallow_radial(lambda t: t, 2.0, 1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            build_shallow_radial(lambda t: t, -1.0, 1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            build_shallow_radial(lambda t: t, 1.0, 2.0, -1.0, 0.1)


class TestParabolaModule:
    def test_zero_at_interval_ends_and_outside(self):
        net = build_parabola_module(1.0, 2.0, 1.5, 0.2)
        ts = np.array([1.0, 2.0, 0.5, 2.5, 0.0])
        np.testing.assert_allclose(radial_profile(net, ts), 0.0, atol=1e-12)

    def test_plateau_value_exact(self):
        for b in (1.5, 0.7, -2.0):
            net = build_parabola_module(1.0, 2.0, b, 0.2)
            lo, hi = plateau_interval(1.0, 2.0, 0.2)
            ts = np.linspace(lo, hi, 101)
            np.testing.assert_allclose(radial_profile(net, ts), b, atol=1e-9)

    def test_ramp_follows_quartic(self):
        a_lo, a_hi, b, delta = 1.0, 2.0, 1.5, 0.2
        net = build_parabola_module(a_lo, a_hi, b, delta)
        lo, _ = plateau_interval(a_lo, a_hi, delta)
        edge = (a_lo + delta * (a_hi - a_lo)) ** 2
        C = (edge - a_lo**2) * (a_hi**2 - edge)
        ts = np.linspace(a_lo, lo, 50)
        expected = (b / C) * (ts**2 - a_lo**2) * (a_hi**2 - ts**2)
        np.testing.assert_allclose(radial_profile(net, ts), expected, atol=1e-12)

    def test_l1_gap_shrinks_with_delta(self):
        a_lo, a_hi, b = 0.5, 2.0, 1.0
        errors = []
        for delta in (0.4, 0.2, 0.1, 0.05):
            net = build_parabola_module(a_lo, a_hi, b, delta)
            grid = GridSpec(a_lo, a_hi, 4001)
            errors.append(
                grid_l1(lambda t: np.full_like(t, b),
                        lambda t: radial_profile(net, t), grid)
            )
        assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))

    def test_plateau_gap_inequality(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            a_lo = rng.uniform(0.0, 3.0)
            a_hi = a_lo + rng.uniform(0.1, 3.0)
            delta = rng.uniform(1e-3, 0.499)
            _, hi = plateau_interval(a_lo, a_hi, delta)
            assert a_hi - hi < delta * (a_hi - a_lo)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            build_parabola_module(2.0, 1.0, 1.0, 0.2)
        with pytest.raises(ValueError):
            build_parabola_module(-0.5, 1.0, 1.0, 0.2)
        with pytest.raises(ValueError):
            build_parabola_module(1.0, 2.0, 1.0, 0.6)


class TestDeepRadial:
    def test_single_interval_matches_module(self):
        partition = RadialPartition([1.0, 2.0], [1.0], 0.2)
        deep = build_deep_radial(partition, 2)
        module = build_parabola_module(1.0, 2.0, 1.0, 0.2, input_dim=2)
        ts = np.linspace(0.0, 3.0, 500)
        np.testing.assert_allclose(
            radial_profile(deep, ts), radial_profile(module, ts), atol=1e-12
        )

    def test_zero_beyond_last_breakpoint(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            bps = np.sort(rng.uniform(0.0, 4.0, size=rng.integers(2, 6)))
            bps = np.unique(bps)
            if len(bps) < 2:
                continue
            heights = rng.uniform(-2.0, 2.0, size=len(bps) - 1)
            partition = RadialPartition(bps, heights, 0.1)
            net = build_deep_radial(partition, 3)
            ts = bps[-1] + np.array([0.5, 1.0, 2.0])
            np.testing.assert_allclose(radial_profile(net, ts), 0.0, atol=1e-12)

    def test_width_bound_and_depth(self):
        partition = RadialPartition([0.0, 1.0, 2.0, 3.0], [1.0, -0.5, 2.0], 0.1)
        net = build_deep_radial(partition, 4)
        assert max(net.layer_widths()) <= 4
        assert net.depth == 1 + 3 * 3 + 1

    def test_signed_heights_accumulate(self):
        partition = RadialPartition([0.5, 1.5, 2.5], [1.0, -2.0], 0.1)
        net = build_deep_radial(partition, 1)
        lo1, hi1 = plateau_interval(0.5, 1.5, 0.1)
        lo2, hi2 = plateau_interval(1.5, 2.5, 0.1)
        mid1 = 0.5 * (lo1 + hi1)
        mid2 = 0.5 * (lo2 + hi2)
        assert forward_batch(net, [[mid1]])[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert forward_batch(net, [[mid2]])[0, 0] == pytest.approx(-2.0, abs=1e-12)

    def test_monotone_refinement_against_step_target(self):
        bps = np.array([0.0, 1.0, 2.0, 3.0])
        heights = np.array([1.0, -1.0, 0.5])
        deltas = [0.4, 0.2, 0.1, 0.05, 0.025]
        errors = []
        for delta in deltas:
            partition = RadialPartition(bps, heights, delta)
            net = build_deep_radial(partition, 2)
            grid = GridSpec(0.0, 3.0, 3001)
            errors.append(
                grid_l1(partition.step_profile,
                        lambda t: radial_profile(net, t), grid)
            )
        assert all(e2 <= e1 for e1, e2 in zip(errors, errors[1:]))

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            RadialPartition([1.0], [], 0.1)
        with pytest.raises(ValueError):
            RadialPartition([2.0, 1.0], [1.0], 0.1)
        with pytest.raises(ValueError):
            RadialPartition([0.0, 1.0], [1.0], 0.7)
        with pytest.raises(ValueError):
            RadialPartition([0.0, 1.0], [1.0, 2.0], 0.1)
        with pytest.raises(ValueError):
            build_deep_radial("not a partition", 2)

    @pytest.mark.parametrize("field", ["breakpoints", "heights", "delta"])
    def test_complex_partition_refused(self, field):
        """A complex breakpoint, height or delta is refused by name, not
        cast to its real part."""
        parts = {"breakpoints": np.array([0.0, 1.0]), "heights": np.array([1.0]),
                 "delta": np.float64(0.1)}
        parts[field] = parts[field] + 0j
        with pytest.raises(ValueError, match=f"{field} must be real"):
            RadialPartition(**parts)


class TestDeltaBudget:
    def test_budget_scales_inversely_with_mass(self):
        small = delta_for_target_error([0.0, 1.0], [1.0], eps=0.1)
        large = delta_for_target_error([0.0, 4.0], [2.0], eps=0.1)
        assert small == pytest.approx(0.025)
        assert large < small

    def test_clipped_into_valid_range(self):
        assert 0.0 < delta_for_target_error([0.0, 0.1], [0.01], eps=10.0) < 0.5

    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.02])
    def test_budget_is_met(self, eps):
        """The deep radial net built at the returned delta is within eps in
        L1 of its step profile, on random four-step profiles."""
        rng = np.random.default_rng(31)
        for _ in range(20):
            bps = rng.uniform(0.0, 1.0) + np.cumsum(np.r_[0.0, rng.uniform(0.2, 1.5, 4)])
            heights = rng.uniform(-2.0, 2.0, 4)
            partition = RadialPartition(bps, heights, delta_for_target_error(bps, heights, eps))
            net = build_deep_radial(partition, int(rng.integers(1, 5)))
            # fine enough that the trapezoid's error at the jumps stays
            # far below eps
            grid = GridSpec(0.0, bps[-1] + 1.0, 40001)
            error = grid_l1(partition.step_profile, lambda t: radial_profile(net, t), grid)
            assert error <= eps
