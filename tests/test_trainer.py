"""Gradient-descent trainer: fitting, masks, determinism, datasets."""

import numpy as np
import pytest

from qnn.builders import build_factorization_trainable
from qnn.network import (
    forward_batch,
    one_hidden_quadratic,
    set_trainable_values,
    single_quadratic_net,
    trainable_count,
    trainable_values,
)
from qnn.neurons import QuadraticNeuron, quad_preactivation
from qnn.oracles import horner, reference_backward_batch
from qnn.polynomials import Polynomial
from qnn.trainer import (
    Dataset,
    TrainConfig,
    TrainingError,
    accuracy,
    make_poly_dataset,
    make_rings_dataset,
    train,
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

    def test_parallel_restarts_match_serial(self):
        data = quad_teacher_data(seed=4, n=30)
        cfg = TrainConfig(loss="mse", learning_rate=5e-3, iterations=60,
                          seed=2, restarts=4)
        serial, hist_s = train(single_quadratic_net(2), data, cfg, parallel=False)
        threaded, hist_t = train(single_quadratic_net(2), data, cfg, parallel=True)
        np.testing.assert_array_equal(
            trainable_values(serial), trainable_values(threaded)
        )
        np.testing.assert_array_equal(hist_s, hist_t)

    @pytest.mark.parametrize("case", ["factorizer", "relu"])
    def test_matches_per_neuron_reference_loop(self, case):
        """One restart of train against plain descent written with the
        per-neuron forward_batch and reference_backward_batch."""
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
            err = forward_batch(current, data.inputs)[:, 0] - data.targets
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
