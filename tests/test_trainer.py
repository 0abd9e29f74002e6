"""Gradient-descent trainer: fitting, masks, determinism, datasets."""

import numpy as np
import pytest

import qnn.trainer
from qnn.builders import build_factorization_trainable
from qnn.network import (
    PackedNetwork,
    forward_batch,
    one_hidden_quadratic,
    set_trainable_values,
    single_quadratic_net,
    trainable_count,
    trainable_values,
)
from qnn.neurons import QuadraticNeuron, quad_preactivation
from qnn.oracles import horner, reference_backward_batch, reference_forward_batch
from qnn.polynomials import Polynomial
from qnn.trainer import (
    Dataset,
    TrainConfig,
    TrainingError,
    _descend,
    accuracy,
    make_poly_dataset,
    make_rings_dataset,
    train,
    train_restarts,
)


def quad_teacher_data(seed=0, n=50, scale=0.5):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-scale, scale, size=9)
    teacher = QuadraticNeuron(
        w_r=vals[0:2], b_r=vals[2], w_g=vals[3:5], b_g=vals[5],
        w_b=vals[6:8], c=vals[8],
    )
    X = rng.uniform(-1.0, 1.0, size=(n, 2))
    return Dataset(X, quad_preactivation(teacher, X))


def one_at_a_time(net, data, cfg):
    """Each restart of cfg on its own one-row PackedNetwork, in the trainer's
    arithmetic (mse or sse).  Returns (theta, history, final_loss) per
    restart, theta None when the restart's loss turned non-finite."""
    assert cfg.loss in ("mse", "sse")
    X, y = data.inputs, data.targets

    def loss(out):
        err = out[..., 0] - y
        if cfg.loss == "mse":
            return np.mean(err * err, axis=-1), (2.0 * err / len(y))[..., None]
        return np.sum(err * err, axis=-1), (2.0 * err)[..., None]

    runs = []
    for i in range(cfg.restarts):
        packed = PackedNetwork(net)
        theta = np.random.default_rng([cfg.seed, i]).uniform(
            -cfg.init_scale, cfg.init_scale, size=(1, len(packed.theta_index)))
        history = []
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(cfg.iterations):
                value, grad = packed.loss_and_grad(theta, X, loss)
                if not np.isfinite(value[0]):
                    break
                history.append(value[0])
                theta = theta - cfg.learning_rate * grad
            final = loss(packed.forward(theta, X))[0][0]
        if len(history) < cfg.iterations or not np.isfinite(final):
            runs.append((None, np.array(history), np.inf))
        else:
            runs.append((theta[0], np.array(history), final))
    return runs


def winner(runs):
    """Lowest finite final loss, earliest restart on ties: (theta, history)."""
    best = None
    for theta, history, final in runs:
        if theta is not None and (best is None or final < best[2]):
            best = (theta, history, final)
    return best[:2]


class TestTrain:
    def test_recovers_quadratic_teacher(self):
        data = quad_teacher_data(seed=0)
        cfg = TrainConfig(loss="mse", learning_rate=1e-2, iterations=2000,
                          seed=0, restarts=5)
        trained, history = train(single_quadratic_net(2), data, cfg)
        out = forward_batch(trained, data.inputs)[:, 0]
        assert np.mean((out - data.targets) ** 2) < 1e-6
        assert len(history) == 2000

    def test_single_iteration_history(self):
        data = quad_teacher_data(seed=1, n=10)
        cfg = TrainConfig(iterations=1, seed=0)
        _, history = train(single_quadratic_net(2), data, cfg)
        assert len(history) == 1

    def test_zero_iterations_forbidden(self):
        with pytest.raises(ValueError):
            TrainConfig(iterations=0)

    def test_frozen_parameters_bit_identical(self):
        net = build_factorization_trainable(5, 1, 2)
        target = Polynomial([0.5, -1.0, 0.0, 0.0, 0.0, 1.0])
        data = make_poly_dataset(target, -1.0, 0.0, 20)
        frozen_before = [
            [nr.param_vector().copy() for nr in layer.neurons]
            for layer in net.layers
        ]
        cfg = TrainConfig(loss="mse", learning_rate=1e-3, iterations=50, seed=3)
        trained, _ = train(net, data, cfg)
        for k, layer in enumerate(trained.layers):
            for j, neuron in enumerate(layer.neurons):
                mask = net.masks[k][j]
                np.testing.assert_array_equal(
                    neuron.param_vector()[~mask], frozen_before[k][j][~mask]
                )

    def test_deterministic_given_config(self):
        data = quad_teacher_data(seed=2, n=30)
        cfg = TrainConfig(loss="mse", learning_rate=5e-3, iterations=100,
                          seed=9, restarts=3)
        first, hist1 = train(single_quadratic_net(2), data, cfg)
        second, hist2 = train(single_quadratic_net(2), data, cfg)
        np.testing.assert_array_equal(
            trainable_values(first), trainable_values(second)
        )
        np.testing.assert_array_equal(hist1, hist2)

    def test_batched_restarts_match_one_at_a_time(self):
        data = quad_teacher_data(seed=4, n=30)
        cfg = TrainConfig(loss="mse", learning_rate=5e-3, iterations=60,
                          seed=2, restarts=4)
        net = single_quadratic_net(2)
        runs = one_at_a_time(net, data, cfg)
        assert all(theta is not None for theta, _, _ in runs)
        trained, history = train(net, data, cfg)
        theta, expected = winner(runs)
        np.testing.assert_array_equal(trainable_values(trained), theta)
        np.testing.assert_array_equal(history, expected)

    def test_winner_is_lowest_final_loss_earliest_on_ties(self, monkeypatch):
        net = single_quadratic_net(2)
        theta = np.arange(4.0)[:, None] * np.ones(trainable_count(net))
        history = np.arange(12.0).reshape(3, 4)
        final = np.array([np.inf, 0.5, 0.25, 0.25])
        monkeypatch.setattr(qnn.trainer, "_descend",
                            lambda net, data, cfg: (theta, history, final, np.full(4, 3)))
        cfg = TrainConfig(iterations=3, restarts=4)
        trained, hist = train(net, quad_teacher_data(n=5), cfg)
        np.testing.assert_array_equal(trainable_values(trained), theta[2])
        np.testing.assert_array_equal(hist, history[:, 2])

    @pytest.mark.parametrize("learning_rate, seed, survivors", [
        (3e-3, 6, [0, 1, 3]),  # restart 2 diverges
        (1e-2, 0, [3]),        # only the last restart survives
        (1e-2, 7, []),         # every restart diverges
    ])
    def test_partial_divergence_masks_only_diverged_restarts(
        self, learning_rate, seed, survivors
    ):
        net = build_factorization_trainable(5, 1, 2)
        target = Polynomial([0.5, -1.0, 0.0, 0.0, 0.0, 1.0])
        data = make_poly_dataset(target, -1.0, 0.0, 40)
        cfg = TrainConfig(loss="sse", learning_rate=learning_rate, iterations=60,
                          seed=seed, restarts=4, init_scale=1.0)
        runs = one_at_a_time(net, data, cfg)
        assert [i for i, run in enumerate(runs) if run[0] is not None] == survivors

        theta, history, final, stopped = _descend(net, data, cfg)
        for i, (ref_theta, ref_history, ref_final) in enumerate(runs):
            if ref_theta is None:
                assert stopped[i] == len(ref_history) < cfg.iterations
                assert final[i] == np.inf
                np.testing.assert_array_equal(theta[i], 0.0)
            else:
                assert stopped[i] == cfg.iterations
                np.testing.assert_array_equal(theta[i], ref_theta)
                np.testing.assert_array_equal(history[:, i], ref_history)
                assert final[i] == ref_final
            np.testing.assert_array_equal(history[: stopped[i], i], ref_history[: stopped[i]])

        if not survivors:
            with pytest.raises(TrainingError):
                train(net, data, cfg)
            with pytest.raises(TrainingError):
                train_restarts(net, data, cfg)
            return
        nets, history, final = train_restarts(net, data, cfg)
        for i, (ref_theta, ref_history, ref_final) in enumerate(runs):
            assert (nets[i] is None) == (ref_theta is None)
            if ref_theta is not None:
                np.testing.assert_array_equal(trainable_values(nets[i]), ref_theta)
            np.testing.assert_array_equal(history[: len(ref_history), i], ref_history)
            assert final[i] == ref_final

        trained, history = train(net, data, cfg)
        ref_theta, ref_history = winner(runs)
        assert len(history) == cfg.iterations
        np.testing.assert_array_equal(trainable_values(trained), ref_theta)
        np.testing.assert_array_equal(history, ref_history)

    def test_history_after_every_restart_diverged_is_nan(self):
        """The steps stop at the last divergence and the history rows after
        it are NaN, so two calls return equal histories."""
        net = build_factorization_trainable(5, 1, 2)
        data = make_poly_dataset(Polynomial([0.5, -1.0, 0.0, 0.0, 0.0, 1.0]), -1.0, 0.0, 40)
        cfg = TrainConfig(loss="sse", learning_rate=1e-2, iterations=60,
                          seed=7, restarts=4, init_scale=1.0)
        _, history, final, stopped = _descend(net, data, cfg)
        _, again, _, _ = _descend(net, data, cfg)
        assert np.isinf(final).all()
        last = stopped.max()
        assert last < cfg.iterations - 1
        assert np.isnan(history[last + 1 :]).all()
        np.testing.assert_array_equal(history, again)

    @pytest.mark.parametrize("case", ["factorizer", "relu"])
    def test_matches_per_neuron_reference_loop(self, case):
        """One restart of train against plain descent written with the
        per-neuron reference_forward_batch and reference_backward_batch."""
        if case == "factorizer":  # shortcuts, frozen products, a passthrough
            net = build_factorization_trainable(5, 1, 2)
            target = Polynomial([0.5, -1.0, 0.0, 0.0, 0.0, 1.0])
            data = make_poly_dataset(target, -1.0, 0.0, 40)
            cfg = TrainConfig(loss="sse", learning_rate=2e-3, iterations=150, seed=1)
        else:
            net = one_hidden_quadratic(2, 4)
            data = quad_teacher_data(seed=10, n=40)
            cfg = TrainConfig(loss="mse", learning_rate=5e-2, iterations=150, seed=2)
        trained, history = train(net, data, cfg)

        rng = np.random.default_rng([cfg.seed, 0])
        theta = rng.uniform(-cfg.init_scale, cfg.init_scale, size=trainable_count(net))
        expected = []
        for _ in range(cfg.iterations):
            current = set_trainable_values(net, theta)
            err = reference_forward_batch(current, data.inputs)[1][-1][:, 0] - data.targets
            scale = 1.0 / len(err) if cfg.loss == "mse" else 1.0
            expected.append(scale * float(np.sum(err * err)))
            grad = reference_backward_batch(current, data.inputs, 2.0 * scale * err[:, None])
            theta = theta - cfg.learning_rate * grad
        np.testing.assert_allclose(history, expected, rtol=1e-9)
        np.testing.assert_allclose(trainable_values(trained), theta, rtol=1e-9, atol=1e-12)

    def test_descent_with_small_rate(self):
        """A small step on a smooth quadratic-teacher problem should not
        increase the loss early on, for nearly every seed."""
        data = quad_teacher_data(seed=5, n=40)
        good = 0
        for seed in range(10):
            cfg = TrainConfig(loss="mse", learning_rate=1e-4, iterations=10, seed=seed)
            _, history = train(single_quadratic_net(2), data, cfg)
            if np.all(np.diff(history) <= 1e-12):
                good += 1
        assert good >= 9

    def test_all_restarts_diverging_raises(self):
        data = quad_teacher_data(seed=6, n=20, scale=2.0)
        cfg = TrainConfig(loss="mse", learning_rate=1e6, iterations=200,
                          seed=0, restarts=3, init_scale=5.0)
        with pytest.raises(TrainingError):
            train(single_quadratic_net(2), data, cfg)

    def test_input_width_mismatch_rejected(self):
        data = quad_teacher_data(seed=7, n=10)
        with pytest.raises(ValueError):
            train(single_quadratic_net(3), data, TrainConfig())

    def test_multi_output_rejected(self):
        from qnn.network import LayerSpec, NetworkSpec
        from qnn.neurons import ConventionalNeuron
        net = NetworkSpec(2, [LayerSpec(
            [ConventionalNeuron(w=[1.0, 0.0], b=0.0),
             ConventionalNeuron(w=[0.0, 1.0], b=0.0)], "identity")])
        data = quad_teacher_data(seed=8, n=10)
        with pytest.raises(ValueError):
            train(net, data, TrainConfig())


class TestRingsDataset:
    def test_counts(self):
        data = make_rings_dataset(60, seed=0)
        assert len(data) == 120
        assert data.input_dim == 2

    def test_zero_noise_exact_radii(self):
        data = make_rings_dataset(25, r_inner=1.0, r_outer=2.0, noise=0.0, seed=3)
        radii = np.linalg.norm(data.inputs, axis=1)
        inner = radii[data.targets == 1.0]
        outer = radii[data.targets == -1.0]
        np.testing.assert_allclose(inner, 1.0, rtol=1e-12)
        np.testing.assert_allclose(outer, 2.0, rtol=1e-12)

    def test_same_seed_identical(self):
        a = make_rings_dataset(10, seed=5)
        b = make_rings_dataset(10, seed=5)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_invalid_radii_rejected(self):
        with pytest.raises(ValueError):
            make_rings_dataset(10, r_inner=2.0, r_outer=1.0)
        with pytest.raises(ValueError):
            make_rings_dataset(10, r_inner=0.0, r_outer=1.0)
        with pytest.raises(ValueError):
            make_rings_dataset(0)


class TestPolyDataset:
    def test_hundred_points_on_unit_interval(self):
        g = Polynomial([-1.2, -0.5, -0.5, 0.5, 0.7, 1.0])
        data = make_poly_dataset(g, -1.0, 0.0, 100)
        assert len(data) == 100
        assert data.inputs[0, 0] == -1.0
        assert data.inputs[-1, 0] == 0.0

    def test_two_points_are_endpoints(self):
        p = Polynomial([0.0, 1.0])
        data = make_poly_dataset(p, 2.0, 5.0, 2)
        np.testing.assert_array_equal(data.inputs[:, 0], [2.0, 5.0])

    def test_targets_match_horner(self):
        p = Polynomial([1.0, -3.0, 0.5, 2.0])
        data = make_poly_dataset(p, -1.0, 1.0, 17)
        np.testing.assert_array_equal(
            data.targets, horner(p, data.inputs[:, 0])
        )

    def test_invalid_ranges_rejected(self):
        p = Polynomial([0.0, 1.0])
        with pytest.raises(ValueError):
            make_poly_dataset(p, 1.0, 1.0, 10)
        with pytest.raises(ValueError):
            make_poly_dataset(p, 0.0, 1.0, 1)


class TestAccuracy:
    def test_perfect_separator(self):
        data = make_rings_dataset(30, noise=0.0, seed=1)
        net = single_quadratic_net(2)
        values = trainable_values(net)
        # h = -(||x||^2 - 2.25): positive inside radius 1.5, negative outside
        values[:] = [0, 0, 0, 0, 0, 0, -1.0, -1.0, 2.25]
        from qnn.network import set_trainable_values
        net = set_trainable_values(net, values)
        assert accuracy(net, data) == 1.0

    def test_constant_net_on_balanced_data(self):
        data = make_rings_dataset(30, seed=2)
        net = single_quadratic_net(2)  # all zeros: output 0 -> predicts +1
        assert accuracy(net, data) == 0.5


class TestDatasetValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((0, 2)), np.zeros(0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(loss="huber")
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(restarts=0)

    @pytest.mark.parametrize("kwargs", [
        {"iterations": 2.5}, {"restarts": 2.5}, {"seed": 1.5},
        {"iterations": True}, {"restarts": False}, {"seed": "3"}, {"seed": -1},
    ])
    def test_config_counts_must_be_integers(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_config_accepts_numpy_integers(self):
        cfg = TrainConfig(iterations=np.int64(3), restarts=np.int32(2), seed=np.int64(0))
        _, history = train(single_quadratic_net(2), quad_teacher_data(n=5), cfg)
        assert len(history) == 3

    @pytest.mark.parametrize("field", ["learning_rate", "init_scale"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_config_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, value):
        X = np.zeros((3, 2))
        y = np.zeros(3)
        X[1, 0] = value
        with pytest.raises(ValueError):
            Dataset(X, np.zeros(3))
        y[2] = value
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), y)

    @pytest.mark.parametrize("field", ["inputs", "targets"])
    def test_complex_data_refused(self, field):
        """Complex inputs or targets are refused by name, not cast to their
        real parts."""
        data = {"inputs": np.zeros((3, 2)), "targets": np.zeros(3)}
        data[field] = data[field] + 1j
        with pytest.raises(ValueError, match=f"{field} must be real"):
            Dataset(**data)
