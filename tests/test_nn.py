import math

import numpy as np
import pytest

from devoc import nn
from devoc.nn import (
    BadDimensionsError,
    EmptyBatchError,
    LabelOutOfRangeError,
    MalformedModelFileError,
    Mlp,
    NonFiniteInputError,
    StopReason,
    TrainConfig,
    VersionMismatchError,
)


def toy_batch(seed=0, n=8, n_in=32, n_out=5):
    rng = np.random.default_rng(seed)
    x = rng.random((n, n_in))
    y = np.zeros((n, n_out))
    y[np.arange(n), rng.integers(0, n_out, n)] = 1.0
    return x, y


def separable_batch():
    """Two clusters a softmax layer can pull apart quickly."""
    rng = np.random.default_rng(9)
    a = rng.normal(0.2, 0.05, size=(10, 32))
    b = rng.normal(0.8, 0.05, size=(10, 32))
    x = np.vstack([a, b])
    y = np.zeros((20, 2))
    y[:10, 0] = 1.0
    y[10:, 1] = 1.0
    return x, y


class TestInit:
    def test_deterministic(self):
        a = nn.init_mlp(40, 5, seed=7)
        b = nn.init_mlp(40, 5, seed=7)
        assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)

    def test_seed_changes_weights(self):
        a = nn.init_mlp(40, 5, seed=7)
        b = nn.init_mlp(40, 5, seed=8)
        assert not np.array_equal(a.w1, b.w1)

    def test_bounds_and_zero_biases(self):
        net = nn.init_mlp(40, 5, seed=0)
        r1 = math.sqrt(6.0 / (32 + 40))
        r2 = math.sqrt(6.0 / (40 + 5))
        assert np.all(np.abs(net.w1) <= r1) and np.all(np.abs(net.w2) <= r2)
        assert not net.b1.any() and not net.b2.any()

    def test_shapes(self):
        net = nn.init_mlp(40, 5, seed=0)
        assert net.n_in == 32 and net.n_hidden == 40 and net.n_out == 5
        assert nn.flatten_params(net).size == 40 * 32 + 40 + 5 * 40 + 5

    def test_bad_dimensions(self):
        with pytest.raises(BadDimensionsError):
            nn.init_mlp(40, 1, seed=0)
        with pytest.raises(BadDimensionsError):
            nn.init_mlp(0, 5, seed=0)


class TestForward:
    def test_probabilities_sum_to_one(self):
        net = nn.init_mlp(40, 5, seed=1)
        p = nn.forward(net, np.random.default_rng(0).random(32))
        assert p.shape == (5,)
        assert p.sum() == pytest.approx(1.0)
        assert np.all(p > 0)

    def test_zero_weights_give_uniform(self):
        net = Mlp(np.zeros((4, 32)), np.zeros(4), np.zeros((5, 4)), np.zeros(5))
        p = nn.forward(net, np.ones(32))
        assert np.allclose(p, 0.2)

    def test_output_bias_shift_invariance(self):
        net = nn.init_mlp(8, 3, seed=2)
        shifted = Mlp(net.w1, net.b1, net.w2, net.b2 + 100.0)
        x = np.random.default_rng(1).random(32)
        assert np.allclose(nn.forward(net, x), nn.forward(shifted, x))

    def test_extreme_logits_stay_finite(self):
        net = Mlp(np.zeros((2, 32)), np.zeros(2), np.zeros((2, 2)), np.array([1000.0, -1000.0]))
        p = nn.forward(net, np.zeros(32))
        assert np.all(np.isfinite(p)) and p.sum() == pytest.approx(1.0)

    def test_non_finite_input(self):
        net = nn.init_mlp(4, 2, seed=0)
        with pytest.raises(NonFiniteInputError):
            nn.forward(net, [np.nan] + [0.0] * 31)


    def test_sigmoid_is_bit_identical_to_the_two_branch_form(self):
        z = np.concatenate([np.random.default_rng(2).normal(0, 30, 4000), [0.0, -0.0, 745.0, -745.0, np.inf, -np.inf]])
        pos = z >= 0
        expected = np.empty_like(z)
        expected[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        expected[~pos] = np.exp(z[~pos]) / (1.0 + np.exp(z[~pos]))
        assert nn._sigmoid(z).tobytes() == expected.tobytes()


class TestParams:
    def test_flatten_round_trip(self):
        net = nn.init_mlp(40, 5, seed=3)
        theta = nn.flatten_params(net)
        back = nn.unflatten_params(theta, 32, 40, 5)
        for a, b in ((net.w1, back.w1), (net.b1, back.b1), (net.w2, back.w2), (net.b2, back.b2)):
            assert np.array_equal(a, b)

    def test_layout_order(self):
        # W1 first: perturbing theta[0] must only change w1[0, 0]
        net = nn.init_mlp(3, 2, n_in=4, seed=0)
        theta = nn.flatten_params(net)
        theta[0] += 1.0
        back = nn.unflatten_params(theta, 4, 3, 2)
        assert back.w1[0, 0] == net.w1[0, 0] + 1.0
        assert np.array_equal(back.b1, net.b1)


class TestLossGradient:
    def test_batch_validation(self):
        net = nn.init_mlp(4, 3, seed=0)
        x, y = toy_batch(n_out=3)
        with pytest.raises(EmptyBatchError):
            nn.loss_and_gradient(net, np.zeros((0, 32)), np.zeros((0, 3)))
        with pytest.raises(LabelOutOfRangeError):
            nn.loss_and_gradient(net, x, np.zeros((8, 3)))  # all-zero rows
        with pytest.raises(LabelOutOfRangeError):
            nn.loss_and_gradient(net, x, np.full((8, 3), 0.5))
        with pytest.raises(BadDimensionsError):
            nn.loss_and_gradient(net, x[:, :10], y)

    def test_duplicating_the_batch_preserves_mean_loss(self):
        net = nn.init_mlp(8, 4, seed=4)
        x, y = toy_batch(seed=5, n_out=4)
        loss1, grad1 = nn.loss_and_gradient(net, x, y)
        loss2, grad2 = nn.loss_and_gradient(net, np.vstack([x, x]), np.vstack([y, y]))
        assert loss1 == pytest.approx(loss2)
        assert np.allclose(grad1, grad2)

    def test_uniform_prediction_loss_is_log_k(self):
        net = Mlp(np.zeros((4, 32)), np.zeros(4), np.zeros((5, 4)), np.zeros(5))
        x, y = toy_batch(n_out=5)
        loss, _ = nn.loss_and_gradient(net, x, y)
        assert loss == pytest.approx(math.log(5))

    def test_output_bias_gradient_sums_to_zero(self):
        # softmax probabilities and one-hot targets each sum to 1 per row
        net = nn.init_mlp(10, 4, seed=6)
        x, y = toy_batch(seed=7, n_out=4)
        _, grad = nn.loss_and_gradient(net, x, y)
        gb2 = grad[-4:]
        assert gb2.sum() == pytest.approx(0.0, abs=1e-12)

    def test_gradient_matches_central_finite_differences(self):
        for seed in range(3):
            net = nn.init_mlp(10, 4, seed=seed)
            x, y = toy_batch(seed=seed + 50, n_out=4)
            _, grad = nn.loss_and_gradient(net, x, y)
            theta = nn.flatten_params(net)
            h = 1e-5
            idx = np.random.default_rng(seed).choice(theta.size, 40, replace=False)
            for i in idx:
                tp, tm = theta.copy(), theta.copy()
                tp[i] += h
                tm[i] -= h
                lp, _ = nn.loss_and_gradient(nn.unflatten_params(tp, 32, 10, 4), x, y)
                lm, _ = nn.loss_and_gradient(nn.unflatten_params(tm, 32, 10, 4), x, y)
                numeric = (lp - lm) / (2 * h)
                assert abs(grad[i] - numeric) <= 1e-7 + 1e-4 * abs(numeric)


class TestMomentumTrainer:
    def test_first_step_is_plain_gradient_descent(self):
        net = nn.init_mlp(6, 3, seed=8)
        x, y = toy_batch(seed=9, n_out=3)
        cfg = TrainConfig(trainer="momentum", max_epochs=1, learning_rate=0.1)
        _, grad = nn.loss_and_gradient(net, x, y)
        trained, report = nn.train_momentum(net, x, y, cfg)
        expect = nn.flatten_params(net) - 0.1 * grad
        assert np.allclose(nn.flatten_params(trained), expect)
        assert report.epochs_run == 1 and report.stop_reason == StopReason.MAX_EPOCHS

    def test_two_steps_apply_momentum(self):
        net = nn.init_mlp(6, 3, seed=8)
        x, y = toy_batch(seed=9, n_out=3)
        cfg = TrainConfig(trainer="momentum", max_epochs=2, learning_rate=0.1, momentum=0.5)
        trained, _ = nn.train_momentum(net, x, y, cfg)
        # replay by hand
        theta = nn.flatten_params(net)
        v = np.zeros_like(theta)
        for _ in range(2):
            _, g = nn.loss_and_gradient(nn.unflatten_params(theta, 32, 6, 3), x, y)
            v = 0.5 * v - 0.1 * g
            theta = theta + v
        assert np.allclose(nn.flatten_params(trained), theta)

    def test_zero_epochs_is_identity(self):
        net = nn.init_mlp(6, 3, seed=8)
        x, y = toy_batch(seed=9, n_out=3)
        trained, report = nn.train_momentum(net, x, y, TrainConfig(trainer="momentum", max_epochs=0))
        assert np.array_equal(nn.flatten_params(trained), nn.flatten_params(net))
        assert report.epochs_run == 0

    def test_loss_decreases_on_separable_data(self):
        x, y = separable_batch()
        net = nn.init_mlp(8, 2, seed=0)
        cfg = TrainConfig(trainer="momentum", max_epochs=200)
        trained, report = nn.train_momentum(net, x, y, cfg)
        assert report.final_loss < report.loss_history[0]


class TestScgTrainer:
    def test_accepted_losses_never_increase(self):
        x, y = toy_batch(seed=12, n=16, n_out=5)
        net = nn.init_mlp(12, 5, seed=13)
        _, report = nn.train_scg(net, x, y, TrainConfig(max_epochs=150))
        hist = report.loss_history
        assert all(b <= a for a, b in zip(hist, hist[1:]))

    def test_solves_separable_problem(self):
        x, y = separable_batch()
        net = nn.init_mlp(8, 2, seed=1)
        trained, report = nn.train_scg(net, x, y, TrainConfig(max_epochs=500))
        assert report.final_loss < 1e-3
        probs = np.vstack([nn.forward(trained, row) for row in x])
        assert np.array_equal(probs.argmax(axis=1), y.argmax(axis=1))

    def test_min_gradient_stop_is_honest(self):
        x, y = separable_batch()
        net = nn.init_mlp(8, 2, seed=2)
        cfg = TrainConfig(max_epochs=2000, min_gradient=1e-6)
        _, report = nn.train_scg(net, x, y, cfg)
        if report.stop_reason == StopReason.MIN_GRADIENT:
            assert report.final_gradient_norm <= 1e-6

    def test_deterministic(self):
        x, y = toy_batch(seed=20, n_out=5)
        net = nn.init_mlp(10, 5, seed=21)
        a = nn.train_scg(net, x, y, TrainConfig(max_epochs=60))
        b = nn.train_scg(net, x, y, TrainConfig(max_epochs=60))
        assert np.array_equal(nn.flatten_params(a[0]), nn.flatten_params(b[0]))
        assert a[1].loss_history == b[1].loss_history

    def test_dispatcher(self):
        x, y = toy_batch(seed=30, n_out=5)
        net = nn.init_mlp(6, 5, seed=31)
        scg, _ = nn.train(net, x, y, TrainConfig(max_epochs=5, trainer="scg"))
        mom, _ = nn.train(net, x, y, TrainConfig(max_epochs=5, trainer="momentum"))
        assert not np.array_equal(nn.flatten_params(scg), nn.flatten_params(mom))


@pytest.mark.parametrize("trainer", ["scg", "momentum"])
class TestTrainerBatchCheck:
    def test_checks_the_batch_once_per_run(self, trainer, monkeypatch):
        calls = []
        check = nn._check_batch
        monkeypatch.setattr(nn, "_check_batch", lambda *a: calls.append(a) or check(*a))
        x, y = toy_batch(seed=40, n_out=5)
        nn.train(nn.init_mlp(6, 5, seed=41), x, y, TrainConfig(max_epochs=5, trainer=trainer))
        assert len(calls) == 1

    def test_refuses_a_bad_batch(self, trainer):
        x, y = toy_batch(seed=42, n_out=5)
        with pytest.raises(LabelOutOfRangeError):
            nn.train(nn.init_mlp(6, 5, seed=43), x, y * 0.5, TrainConfig(max_epochs=5, trainer=trainer))


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 0.01
        assert cfg.momentum == 0.95
        assert cfg.min_gradient == 1e-8
        assert cfg.max_epochs == 500
        assert cfg.trainer == "scg" and cfg.n_hidden == 40

    def test_validation(self):
        for bad in (
            TrainConfig(learning_rate=0),
            TrainConfig(momentum=1.0),
            TrainConfig(min_gradient=0),
            TrainConfig(trainer="adam"),
            TrainConfig(n_hidden=0),
            TrainConfig(max_epochs=-1),
        ):
            with pytest.raises(ValueError):
                bad.validate()


class TestModelFile:
    def test_round_trip_bit_exact(self, tmp_path):
        net = nn.init_mlp(40, 5, seed=99)
        path = str(tmp_path / "m.mlp")
        nn.save_model(path, net, ["a", "b", "c", "d", "e"])
        back, labels = nn.load_model(path)
        assert labels == ["a", "b", "c", "d", "e"]
        assert np.array_equal(nn.flatten_params(net), nn.flatten_params(back))

    def test_round_trip_preserves_awkward_floats(self, tmp_path):
        net = Mlp(np.array([[1e-300, -0.1, 1 / 3]] * 2), np.zeros(2), np.zeros((2, 2)), np.zeros(2))
        path = str(tmp_path / "m.mlp")
        nn.save_model(path, net, ["x", "y"])
        back, _ = nn.load_model(path)
        assert np.array_equal(net.w1, back.w1)

    @pytest.mark.parametrize("label", ["a,b", 'a"b', "a\nb", "a\rb", "a\u2028b", "a\x85"])
    def test_label_that_breaks_the_labels_line_is_refused(self, tmp_path, label):
        path = tmp_path / "m.mlp"
        with pytest.raises(ValueError, match="holds a comma, a double quote or a line break"):
            nn.save_model(str(path), nn.init_mlp(4, 2, seed=0), [label, "y"])
        assert not path.exists()

    def test_truncated_file(self, tmp_path):
        net = nn.init_mlp(4, 2, seed=0)
        path = str(tmp_path / "m.mlp")
        nn.save_model(path, net, ["x", "y"])
        text = open(path).read().splitlines()
        open(path, "w").write("\n".join(text[:-3]) + "\n")
        with pytest.raises(MalformedModelFileError):
            nn.load_model(path)

    def test_version_mismatch(self, tmp_path):
        net = nn.init_mlp(4, 2, seed=0)
        path = str(tmp_path / "m.mlp")
        nn.save_model(path, net, ["x", "y"])
        text = open(path).read().replace("DEVOC-MLP v1", "DEVOC-MLP v2", 1)
        open(path, "w").write(text)
        with pytest.raises(VersionMismatchError):
            nn.load_model(path)

    def test_bad_header_and_missing_file(self, tmp_path):
        bad = tmp_path / "bad.mlp"
        bad.write_text("WHAT v1\ndims 1 1 2\n")
        with pytest.raises(MalformedModelFileError):
            nn.load_model(str(bad))
        with pytest.raises(MalformedModelFileError):
            nn.load_model(str(tmp_path / "missing.mlp"))

    def test_label_count_must_match_outputs(self, tmp_path):
        net = nn.init_mlp(4, 2, seed=0)
        path = str(tmp_path / "m.mlp")
        nn.save_model(path, net, ["x", "y"])
        text = open(path).read().replace("labels x,y", "labels x,y,z", 1)
        open(path, "w").write(text)
        with pytest.raises(MalformedModelFileError):
            nn.load_model(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_parameter_rejected(self, tmp_path, bad):
        net = nn.init_mlp(4, 2, seed=0)
        path = str(tmp_path / "m.mlp")
        nn.save_model(path, net, ["x", "y"])
        text = open(path).read().splitlines()
        text[-1] = bad
        open(path, "w").write("\n".join(text) + "\n")
        with pytest.raises(MalformedModelFileError):
            nn.load_model(path)
