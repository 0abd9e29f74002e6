"""Gradient-descent trainer: fitting, masks, determinism, datasets."""

import numpy as np
import pytest
from conftest import loss_and_grad

import qnn.trainer
from qnn.builders import build_factorization_trainable
from qnn.network import (
    NetworkSpec,
    PackedNetwork,
    block_rows,
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
    """Each restart of cfg on its own one-row PackedNetwork, with each loss
    and its gradient written as plain numpy expressions (np.mean, np.sum,
    operators), which the trainer's in-place arithmetic must match bit for
    bit.  Returns (theta, history, final_loss) per restart, theta None when
    the restart's loss turned non-finite."""
    X, y = data.inputs, data.targets

    def loss(out):
        if cfg.loss == "logistic":
            margin = y * out[..., 0]
            grad = -y / (1.0 + np.exp(margin)) / len(y)
            return np.mean(np.logaddexp(0.0, -margin), axis=-1), grad[..., None]
        err = out[..., 0] - y
        if cfg.loss == "mse":
            return np.mean(err * err, axis=-1), (2.0 * err / len(y))[..., None]
        return np.sum(err * err, axis=-1), (2.0 * err)[..., None]

    runs = []
    for i in range(cfg.restarts):
        packed = PackedNetwork(net, X)
        theta = np.random.default_rng([cfg.seed, i]).uniform(
            -cfg.init_scale, cfg.init_scale, size=(1, len(packed.theta_index)))
        history = []
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(cfg.iterations):
                value, grad = loss_and_grad(packed, theta, loss)
                if not np.isfinite(value[0]):
                    break
                history.append(value[0])
                theta = theta - cfg.learning_rate * grad
            final = loss_and_grad(packed, theta, loss)[0][0]
        if len(history) < cfg.iterations or not np.isfinite(final):
            runs.append((None, np.array(history), np.inf))
        else:
            runs.append((theta[0], np.array(history), final))
    return runs


def factorizer_data(loss):
    """The factorizer's target on [-1, 0] at 40 points; for the logistic
    loss, labelled +1 where it is at least 0.6 and -1 elsewhere."""
    data = make_poly_dataset(Polynomial([0.5, -1.0, 0.0, 0.0, 0.0, 1.0]), -1.0, 0.0, 40)
    if loss == "logistic":
        return Dataset(data.inputs, np.where(data.targets >= 0.6, 1.0, -1.0))
    return data


def assert_descend_matches(net, data, cfg, runs):
    """_descend's theta, history, final losses and stop iterations equal
    the one-at-a-time runs bit for bit: a diverged restart stops where its
    own run did, with a zero theta row and final loss inf."""
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
        own = net._layout.own
        frozen = ~net.trainable[own]
        cfg = TrainConfig(loss="mse", learning_rate=1e-3, iterations=50, seed=3)
        trained, _ = train(net, data, cfg)
        assert trained.params[own][frozen].tobytes() == net.params[own][frozen].tobytes()

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
        (1e-2, 6, [3]),        # only the last restart survives
        (1e-2, 7, []),         # every restart diverges
    ])
    def test_partial_divergence_masks_only_diverged_restarts(
        self, learning_rate, seed, survivors
    ):
        net = build_factorization_trainable(5, 1, 2)
        data = factorizer_data("sse")
        cfg = TrainConfig(loss="sse", learning_rate=learning_rate, iterations=60,
                          seed=seed, restarts=4, init_scale=1.0)
        runs = one_at_a_time(net, data, cfg)
        assert [i for i, run in enumerate(runs) if run[0] is not None] == survivors
        assert_descend_matches(net, data, cfg, runs)

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

    @pytest.mark.parametrize("loss, learning_rate, seed, survivors, last", [
        ("mse", 0.3, 4, [0, 3], 8),
        ("mse", 0.3, 3, [0], 6),
        ("logistic", 1.0, 0, [0, 2, 3], 38),
        ("logistic", 1.0, 4, [0], 49),
        ("sse", 3e-3, 0, [1, 2, 3], 6),
    ], ids=["mse", "mse-one-survivor", "logistic", "logistic-one-survivor", "sse"])
    def test_partial_divergence_matches_one_at_a_time_per_loss(
        self, loss, learning_rate, seed, survivors, last
    ):
        """Every loss, some restarts diverging and some surviving: _descend
        against one-row runs of the plain-expression loss, bit for bit.  last
        is the latest divergence, so that a run which stops no restart, or
        stops them all at once, cannot pass for a partial one."""
        net = build_factorization_trainable(5, 1, 2)
        data = factorizer_data(loss)
        cfg = TrainConfig(loss=loss, learning_rate=learning_rate, iterations=60,
                          seed=seed, restarts=4, init_scale=1.0)
        runs = one_at_a_time(net, data, cfg)
        assert [i for i, run in enumerate(runs) if run[0] is not None] == survivors
        assert max(len(h) for theta, h, _ in runs if theta is None) == last
        assert_descend_matches(net, data, cfg, runs)

    def test_batched_restarts_match_one_at_a_time_logistic(self):
        """The logistic loss on the rings, no restart diverging."""
        data = make_rings_dataset(15, seed=3)
        cfg = TrainConfig(loss="logistic", learning_rate=5e-2, iterations=60,
                          seed=1, restarts=4)
        net = one_hidden_quadratic(2, 3)
        runs = one_at_a_time(net, data, cfg)
        assert all(theta is not None for theta, _, _ in runs)
        assert_descend_matches(net, data, cfg, runs)
        trained, history = train(net, data, cfg)
        theta, expected = winner(runs)
        np.testing.assert_array_equal(trainable_values(trained), theta)
        np.testing.assert_array_equal(history, expected)

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

    @pytest.mark.parametrize("seed, finite", [(0, [True, False]), (4, [False, False])])
    def test_nan_only_at_the_final_evaluation_is_divergence(self, seed, finite):
        """A restart whose loss stays finite through its last step and whose
        final forward gives NaN has final loss inf, not NaN: one ReLU unit
        under a frozen identity output, where the one step's learning rate
        of 1e308 takes a live unit's w and b to +inf, so that w * 0 is NaN,
        and leaves a dead unit's (b < 0, w + b < 0) as they were."""
        net = NetworkSpec.blank(1, [("relu", ["conventional"]), ("identity", ["conventional"])])
        net.blocks[1][block_rows(1).w_r, 0] = 1.0
        net.masks[1][0][:] = False
        data = Dataset(np.array([[0.0], [1.0]]), np.array([10.0, 10.0]))
        cfg = TrainConfig(learning_rate=1e308, iterations=1, seed=seed, restarts=2)
        theta, history, final, stopped = _descend(net, data, cfg)
        assert np.isfinite(history).all() and stopped.tolist() == [1, 1]
        for row, loss, ok in zip(theta, final, finite):
            assert np.isfinite(loss) == ok
            if not ok:
                assert loss == np.inf
                with np.errstate(invalid="ignore"):
                    out = forward_batch(set_trainable_values(net, row), data.inputs)
                assert np.isnan(out).any()
        if any(finite):
            nets, _, final = train_restarts(net, data, cfg)
            assert [trained is not None for trained in nets] == finite
        else:
            with pytest.raises(TrainingError):
                train_restarts(net, data, cfg)

    @pytest.mark.parametrize("case", ["factorizer", "relu"])
    def test_matches_per_neuron_reference_loop(self, case):
        """One restart of train against plain descent written with the
        per-neuron reference_forward_batch and reference_backward_batch."""
        if case == "factorizer":  # frozen products and passthroughs
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
        from qnn.network import NetworkSpec
        net = NetworkSpec.blank(2, [("identity", ["conventional", "conventional"])])
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

    @pytest.mark.parametrize("count", [2.5, 3.0, True], ids=["2.5", "3.0", "True"])
    def test_non_integer_count_refused(self, count):
        """2.5 raised a bare numpy TypeError and True made one point a ring."""
        with pytest.raises(ValueError, match=f"n_per_class must be an integer, got {count}"):
            make_rings_dataset(count)

    @pytest.mark.parametrize("kwargs, problem", [
        ({"noise": True}, "noise must be a real number, got True"),
        ({"r_inner": "1"}, "r_inner must be a real number, got '1'"),
        ({"r_outer": np.inf}, "r_outer must be finite, got inf"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ], ids=["bool-noise", "string-radius", "inf-radius", "float-seed"])
    def test_bad_scalar_refused(self, kwargs, problem):
        """noise=True was read as 1.0, an infinite outer radius made an
        infinite ring, and seed=1.5 raised a bare TypeError."""
        with pytest.raises(ValueError, match=problem):
            make_rings_dataset(5, **kwargs)


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

    @pytest.mark.parametrize("count", [2.5, 3.0, True], ids=["2.5", "3.0", "True"])
    def test_non_integer_count_refused(self, count):
        """2.5 raised a bare numpy TypeError and True failed as "need n >= 2"."""
        with pytest.raises(ValueError, match=f"n must be an integer, got {count}"):
            make_poly_dataset(Polynomial([0.0, 1.0]), 0.0, 1.0, count)

    @pytest.mark.parametrize("lo, hi, problem", [
        (False, True, "lo must be a real number, got False"),
        (0.0, "1", "hi must be a real number, got '1'"),
        (0.0, np.nan, "hi must be finite, got nan"),
    ], ids=["bools", "string-hi", "nan-hi"])
    def test_bad_bound_refused(self, lo, hi, problem):
        """Bools built the inputs [0, 0.5, 1], a string bound raised a bare
        numpy error and a NaN bound made NaN inputs."""
        with pytest.raises(ValueError, match=problem):
            make_poly_dataset(Polynomial([0.0, 1.0]), lo, hi, 3)


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
        with pytest.raises(ValueError,
                           match=rf"^inputs must be finite, got {value} at index \(1, 0\)$"):
            Dataset(X, np.zeros(3))
        y[2] = value
        with pytest.raises(ValueError, match=f"^targets must be finite, got {value} at index 2$"):
            Dataset(np.zeros((3, 2)), y)

    @pytest.mark.parametrize("field", ["inputs", "targets"])
    def test_non_numeric_data_refused(self, field):
        """Object inputs or targets are refused by name, not read as NaN."""
        data = {"inputs": np.zeros((3, 2)), "targets": np.zeros(3)}
        data[field] = data[field].astype(object)
        data[field].flat[0] = None
        with pytest.raises(ValueError, match=f"{field} must be real numbers, got dtype object"):
            Dataset(**data)

    @pytest.mark.parametrize("field", ["inputs", "targets"])
    def test_complex_data_refused(self, field):
        """Complex inputs or targets are refused by name, not cast to their
        real parts."""
        data = {"inputs": np.zeros((3, 2)), "targets": np.zeros(3)}
        data[field] = data[field] + 1j
        with pytest.raises(ValueError, match=f"{field} must be real"):
            Dataset(**data)
