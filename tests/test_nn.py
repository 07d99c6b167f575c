"""Engine tests: forward modes, losses, analytic gradients vs finite differences."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from aetta import nn


def tiny_model(seed=0, input_dim=5, hidden=(8, 8), class_count=3, rates=None):
    return nn.build_mlp(input_dim, class_count, hidden=hidden, dropout_rates=rates, seed=seed)


def batch(seed=0, rows=6, cols=5):
    return np.random.default_rng(seed).normal(size=(rows, cols))


ALL_MODES = (nn.Deterministic(), nn.TrainBN(), nn.Dropout(seed=11))


def kink_safe_batch(model, start_seed=0, rows=6, margin=1e-3):
    """First random batch whose pre-relu values sit clear of the kink.

    Finite differences straddle relu's corner otherwise, which invalidates the
    oracle rather than the gradient under test.
    """
    for seed in range(start_seed, start_seed + 500):
        x = batch(seed=seed, rows=rows, cols=model.input_dim)
        if all(nn.relu_kink_margin(model, x, m) > margin for m in ALL_MODES):
            return x
    raise AssertionError("no kink-safe batch found")


class TestForward:
    def test_hand_rolled_single_block(self):
        """Recompute a 1-block forward with explicit scalar arithmetic."""
        model = nn.MlpModel(
            blocks=[
                nn.HiddenBlock(
                    dense=nn.DenseLayer(np.array([[0.1, -0.2], [0.3, 0.4]]), np.array([0.05, -0.05])),
                    norm=nn.BatchNormLayer(
                        gamma=np.array([1.5, 0.8]),
                        beta=np.array([0.2, -0.1]),
                        running_mean=np.array([0.1, 0.2]),
                        running_var=np.array([0.9, 1.1]),
                    ),
                )
            ],
            head=nn.DenseLayer(np.array([[0.6, -0.3], [-0.2, 0.5]]), np.array([0.01, -0.02])),
            dropout=nn.DropoutSpec((0.0,)),
            class_count=2,
        )
        x = np.array([[1.0, 2.0]])
        z0 = 1.0 * 0.1 + 2.0 * 0.3 + 0.05
        z1 = 1.0 * -0.2 + 2.0 * 0.4 - 0.05
        a0 = 1.5 * (z0 - 0.1) / math.sqrt(0.9 + 1e-5) + 0.2
        a1 = 0.8 * (z1 - 0.2) / math.sqrt(1.1 + 1e-5) - 0.1
        a0, a1 = max(a0, 0.0), max(a1, 0.0)
        l0 = a0 * 0.6 + a1 * -0.2 + 0.01
        l1 = a0 * -0.3 + a1 * 0.5 - 0.02
        e0, e1 = math.exp(l0), math.exp(l1)
        expected = np.array([[e0 / (e0 + e1), e1 / (e0 + e1)]])
        assert_allclose(nn.forward(model, x), expected, rtol=1e-12)

    def test_rows_are_distributions(self):
        model = tiny_model()
        p = nn.forward(model, batch())
        assert np.all(p >= 0)
        assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_zero_rate_dropout_is_bitwise_deterministic(self):
        model = tiny_model(rates=(0.0, 0.0))
        x = batch()
        det = nn.forward(model, x, nn.Deterministic())
        drop = nn.forward(model, x, nn.Dropout(seed=123))
        assert np.array_equal(det, drop)

    def test_dropout_is_reproducible_per_seed(self):
        model = tiny_model()
        x = batch()
        a = nn.forward(model, x, nn.Dropout(seed=7))
        b = nn.forward(model, x, nn.Dropout(seed=7))
        c = nn.forward(model, x, nn.Dropout(seed=8))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_deterministic_and_dropout_do_not_mutate(self):
        model = tiny_model()
        before = json.dumps(nn.model_to_dict(model))
        nn.forward(model, batch(), nn.Deterministic())
        nn.forward(model, batch(), nn.Dropout(seed=3))
        assert json.dumps(nn.model_to_dict(model)) == before

    def test_train_bn_mutates_only_running_stats(self):
        model = tiny_model()
        before = nn.model_to_dict(model)
        nn.forward(model, batch(), nn.TrainBN())
        after = nn.model_to_dict(model)
        for i, (b0, b1) in enumerate(zip(before["blocks"], after["blocks"])):
            assert b0["weights"] == b1["weights"]
            assert b0["gamma"] == b1["gamma"]
            assert b0["beta"] == b1["beta"]
            assert b0["running_mean"] != b1["running_mean"], f"block {i} stats untouched"
        assert before["head"] == after["head"]

    @given(
        seed=st.integers(0, 2**31 - 1),
        rows=st.integers(1, 12),
        hidden=st.sampled_from([(), (8,), (8, 8)]),
        mode=st.sampled_from(ALL_MODES),
    )
    @settings(max_examples=40, deadline=None)
    def test_input_is_left_bitwise_unchanged(self, seed, rows, hidden, mode):
        """The engine writes in place only into arrays it allocated itself."""
        model = tiny_model(seed=seed % 1000, hidden=hidden)
        x = np.random.default_rng(seed).normal(size=(rows, 5))
        before = x.tobytes()
        nn.forward(model, x, mode)
        nn.forward_logits(model, x, mode)
        y = np.arange(rows) % model.class_count
        nn.backward(model, x, loss="cross_entropy", labels=y, mode=mode, want_input_grad=True)
        if hidden:
            nn.backward(model, x, loss="entropy", mode=mode, trainable="bn")
        assert x.tobytes() == before

    @given(st.integers(0, 2**31 - 1), st.integers(1, 16), st.integers(2, 7))
    @settings(max_examples=25, deadline=None)
    def test_forward_distribution_property(self, seed, rows, k):
        model = nn.build_mlp(4, k, hidden=(6,), seed=seed % 1000)
        x = np.random.default_rng(seed).normal(size=(rows, 4))
        p = nn.forward(model, x, nn.Dropout(seed=seed))
        assert p.shape == (rows, k)
        assert np.all(p > 0)
        assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


class TestBatchNorm:
    def test_running_stat_update_closed_form(self):
        """One TrainBN batch from fresh stats: rm = 0.1*mean, rv = 0.9 + 0.1*unbiased var."""
        model = tiny_model(hidden=(4,), input_dim=3)
        x = batch(rows=8, cols=3)
        z = x @ model.blocks[0].dense.weights + model.blocks[0].dense.bias
        nn.forward(model, x, nn.TrainBN())
        assert_allclose(model.blocks[0].norm.running_mean, 0.1 * z.mean(axis=0), rtol=1e-12)
        assert_allclose(
            model.blocks[0].norm.running_var,
            0.9 * 1.0 + 0.1 * z.var(axis=0, ddof=1),
            rtol=1e-12,
        )

    def test_running_mean_converges_geometrically(self):
        model = tiny_model(hidden=(4,), input_dim=3)
        x = batch(rows=16, cols=3)
        z_mean = (x @ model.blocks[0].dense.weights + model.blocks[0].dense.bias).mean(axis=0)
        for m in range(1, 9):
            nn.forward(model, x, nn.TrainBN())
            gap = np.abs(model.blocks[0].norm.running_mean - z_mean)
            assert np.all(gap <= (1.0 - 0.1) ** m * np.abs(z_mean) + 1e-12)

    def test_train_bn_differs_from_deterministic(self):
        model = tiny_model()
        x = batch()
        det = nn.forward(nn.clone(model), x, nn.Deterministic())
        trn = nn.forward(nn.clone(model), x, nn.TrainBN())
        assert not np.allclose(det, trn)


class TestDropout:
    def test_inverted_scaling_matches_expectation(self):
        """Mean post-dropout activation over many seeds ~ deterministic activation."""
        model = tiny_model(hidden=(8,), input_dim=4, rates=(0.4,))
        x = batch(rows=4, cols=4)
        # with one hidden block the head input is that block's post-dropout activation
        det = nn._forward_cached(model, x, nn.Deterministic()).head_in
        n = 10_000
        acc = np.zeros((n,) + det.shape)
        for s in range(n):
            acc[s] = nn._forward_cached(model, x, nn.Dropout(seed=s)).head_in
        mean = acc.mean(axis=0)
        sem = acc.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(mean - det) <= 3.0 * sem + 1e-12)

    def test_rate_validation(self):
        with pytest.raises(nn.EngineError):
            nn.DropoutSpec((1.0,))
        with pytest.raises(nn.EngineError):
            nn.DropoutSpec((-0.1,))

    def test_default_rates_by_class_count(self):
        assert nn.default_dropout_rate(10) == 0.4
        assert nn.default_dropout_rate(100) == 0.3
        assert nn.default_dropout_rate(1000) == 0.2


class TestLosses:
    def test_entropy_frozen_values(self):
        assert_allclose(nn.entropy_loss(np.array([[0.5, 0.5]])), math.log(2.0), rtol=1e-15)
        assert nn.entropy_loss(np.array([[1.0, 0.0]])) == 0.0
        uniform = np.full((3, 4), 0.25)
        assert_allclose(nn.entropy_loss(uniform), math.log(4.0), rtol=1e-15)

    def test_entropy_of_single_distribution(self):
        assert_allclose(nn.entropy_of(np.array([0.25, 0.75])), -(0.25 * math.log(0.25) + 0.75 * math.log(0.75)), rtol=1e-15)

    def test_cross_entropy_frozen_value(self):
        p = np.array([[0.25, 0.75]])
        assert_allclose(nn.cross_entropy_loss(p, np.array([1])), -math.log(0.75), rtol=1e-15)

    def test_cross_entropy_floors_tiny_probabilities(self):
        p = np.array([[1.0, 0.0]])
        assert_allclose(nn.cross_entropy_loss(p, np.array([1])), -math.log(1e-12), rtol=1e-12)

    def test_label_range_checked(self):
        p = np.full((2, 3), 1 / 3)
        with pytest.raises(nn.EngineError):
            nn.cross_entropy_loss(p, np.array([0, 3]))

    @given(st.integers(0, 2**31 - 1), st.integers(1, 12), st.integers(2, 9))
    @settings(max_examples=25, deadline=None)
    def test_entropy_bounds(self, seed, rows, k):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(k), size=rows)
        h = nn.entropy_loss(p)
        assert -1e-12 <= h <= math.log(k) + 1e-12


class TestBackward:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_entropy_gradients_match_finite_differences(self, mode):
        model = tiny_model(seed=2)
        x = kink_safe_batch(model, start_seed=3)
        analytic = nn.backward(nn.clone(model), x, loss="entropy", mode=mode)
        numeric = nn.finite_difference_gradients(model, x, loss="entropy", mode=mode)
        assert nn.gradcheck_max_error(analytic, numeric) <= 1e-4

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_cross_entropy_gradients_match_finite_differences(self, mode):
        model = tiny_model(seed=4)
        x = kink_safe_batch(model, start_seed=5)
        y = np.random.default_rng(6).integers(0, 3, size=x.shape[0])
        analytic = nn.backward(nn.clone(model), x, loss="cross_entropy", labels=y, mode=mode)
        numeric = nn.finite_difference_gradients(model, x, loss="cross_entropy", labels=y, mode=mode)
        assert nn.gradcheck_max_error(analytic, numeric) <= 1e-4

    def test_bn_only_mask_limits_parameters(self):
        model = tiny_model()
        grads = nn.backward(model, batch(), loss="entropy", mode=nn.TrainBN(), trainable="bn")
        assert set(grads) == set(nn.bn_parameter_names(model))

    def test_bn_only_gradients_match_finite_differences(self):
        model = tiny_model(seed=9)
        x = kink_safe_batch(model, start_seed=10)
        analytic = nn.backward(nn.clone(model), x, loss="entropy", mode=nn.TrainBN(), trainable="bn")
        numeric = nn.finite_difference_gradients(model, x, loss="entropy", mode=nn.TrainBN(), trainable="bn")
        assert nn.gradcheck_max_error(analytic, numeric) <= 1e-4

    def test_matched_soft_targets_give_zero_logit_gradient(self):
        """No learning signal when the output distribution equals the target one."""
        uniform = np.full((4, 5), 0.2)
        g = nn._cross_entropy_logit_grad(uniform, uniform)
        assert np.array_equal(g, np.zeros_like(g))

    def test_saturated_softmax_has_vanishing_entropy_gradient(self):
        model = tiny_model(seed=1)
        model.head.bias[...] = 0.0
        model.head.bias[0] = 40.0
        grads = nn.backward(model, batch(), loss="entropy")
        norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        assert norm < 1e-6

    def test_input_gradient_matches_finite_differences(self):
        model = tiny_model(seed=7)
        x = batch(seed=8)
        y = np.random.default_rng(9).integers(0, 3, size=x.shape[0])
        dx = nn.input_gradient(model, x, y)
        fd = np.zeros_like(x)
        step = 1e-6
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                up, dn = x.copy(), x.copy()
                up[i, j] += step
                dn[i, j] -= step
                fd[i, j] = (
                    nn.cross_entropy_loss(nn.forward(model, up), y)
                    - nn.cross_entropy_loss(nn.forward(model, dn), y)
                ) / (2 * step)
        assert_allclose(dx, fd, rtol=1e-4, atol=1e-7)


class TestOptimizer:
    def test_sgd_step_exact(self):
        model = tiny_model()
        w0 = model.head.weights.copy()
        g = {"head.weights": np.ones_like(w0)}
        nn.optimizer_step(model, g, nn.OptimizerState(kind="sgd", learning_rate=0.05))
        assert_allclose(model.head.weights, w0 - 0.05, rtol=0, atol=0)

    def test_adam_first_step_closed_form(self):
        """With fresh moments: delta = -lr * g / (|g| + eps)."""
        model = tiny_model()
        w0 = model.head.weights.copy()
        g = np.random.default_rng(0).normal(size=w0.shape)
        state = nn.OptimizerState(kind="adam", learning_rate=1e-3)
        nn.optimizer_step(model, {"head.weights": g}, state)
        expected = w0 - 1e-3 * g / (np.abs(g) + 1e-8)
        assert_allclose(model.head.weights, expected, rtol=1e-12)
        assert state.step == 1

    def test_zero_learning_rate_freezes_parameters(self):
        model = tiny_model()
        before = json.dumps(nn.model_to_dict(model))
        grads = nn.backward(model, batch(), loss="entropy", mode=nn.Deterministic())
        nn.optimizer_step(model, grads, nn.OptimizerState(kind="adam", learning_rate=0.0))
        assert json.dumps(nn.model_to_dict(model)) == before

    def test_adam_bias_correction_across_steps(self):
        model = nn.build_mlp(2, 2, hidden=(), seed=0)
        state = nn.OptimizerState(kind="adam", learning_rate=0.01)
        g = {"head.bias": np.array([1.0, -2.0])}
        m = np.zeros(2)
        v = np.zeros(2)
        expected = model.head.bias.copy()
        for t in range(1, 6):
            m = 0.9 * m + 0.1 * g["head.bias"]
            v = 0.999 * v + 0.001 * g["head.bias"] ** 2
            mh = m / (1 - 0.9**t)
            vh = v / (1 - 0.999**t)
            expected = expected - 0.01 * mh / (np.sqrt(vh) + 1e-8)
            nn.optimizer_step(model, g, state)
        assert_allclose(model.head.bias, expected, rtol=1e-12)

    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_flat_update_matches_per_parameter_loop(self, kind):
        """Moments persist per name while successive steps name different subsets."""
        model = tiny_model(seed=4)
        reference = nn.clone(model)
        params = dict(nn.named_parameters(reference))
        subsets = [
            nn.resolve_trainable(model, "bn"),
            nn.resolve_trainable(model, "all"),
            ("blocks.1.dense.weights",),
            ("head.bias", "blocks.0.norm.gamma"),
        ]
        state = nn.OptimizerState(kind=kind, learning_rate=0.01)
        lr, b1, b2, eps = state.learning_rate, state.beta1, state.beta2, state.eps
        ref_m: dict[str, np.ndarray] = {}
        ref_v: dict[str, np.ndarray] = {}
        rng = np.random.default_rng(0)
        for t, names in enumerate(subsets * 2, start=1):
            grads = {name: rng.normal(size=params[name].shape) for name in names}
            nn.optimizer_step(model, grads, state)
            for name, g in grads.items():
                p = params[name]
                if kind == "sgd":
                    p -= lr * g
                    continue
                m = ref_m.setdefault(name, np.zeros_like(p))
                v = ref_v.setdefault(name, np.zeros_like(p))
                m[...] = b1 * m + (1.0 - b1) * g
                v[...] = b2 * v + (1.0 - b2) * g * g
                p -= lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
            for (name, p), (_, q) in zip(nn.named_parameters(model), nn.named_parameters(reference)):
                assert_array_equal(p, q, err_msg=f"{name} after step {t}")
        assert state.step == len(subsets) * 2
        assert sorted(state.m) == sorted(ref_m) and sorted(state.v) == sorted(ref_v)
        for name in ref_m:
            assert_array_equal(state.m[name], ref_m[name])
            assert_array_equal(state.v[name], ref_v[name])

    def test_unknown_parameter_rejected(self):
        model = tiny_model()
        with pytest.raises(nn.EngineError):
            nn.optimizer_step(model, {"nope": np.zeros(3)}, nn.OptimizerState())


class TestCheckpoint:
    def test_round_trip_is_bitwise(self, tmp_path):
        model = tiny_model(seed=13)
        nn.forward(model, batch(), nn.TrainBN())  # make running stats non-trivial
        path = tmp_path / "model.json"
        nn.save_checkpoint(model, path)
        loaded = nn.load_checkpoint(path)
        for (n0, p0), (n1, p1) in zip(nn.named_parameters(model), nn.named_parameters(loaded)):
            assert n0 == n1
            assert np.array_equal(p0, p1)
        for b0, b1 in zip(model.blocks, loaded.blocks):
            assert np.array_equal(b0.norm.running_mean, b1.norm.running_mean)
            assert np.array_equal(b0.norm.running_var, b1.norm.running_var)
        x = batch(seed=14)
        assert np.array_equal(nn.forward(model, x), nn.forward(loaded, x))

    def test_version_guard(self, tmp_path):
        model = tiny_model()
        payload = nn.model_to_dict(model)
        payload["version"] = 99
        with pytest.raises(nn.EngineError):
            nn.model_from_dict(payload)

    def test_clone_is_independent(self):
        model = tiny_model()
        twin = nn.clone(model)
        twin.head.weights += 1.0
        assert not np.array_equal(model.head.weights, twin.head.weights)

    def test_copy_into_restores_bitwise(self):
        model = tiny_model(seed=1)
        source = nn.clone(model)
        nn.forward(model, batch(), nn.TrainBN())
        model.head.weights += 0.5
        nn.copy_into(model, source)
        assert json.dumps(nn.model_to_dict(model)) == json.dumps(nn.model_to_dict(source))


class TestValidation:
    def test_empty_batch_rejected(self):
        with pytest.raises(nn.EngineError):
            nn.forward(tiny_model(), np.zeros((0, 5)))

    def test_wrong_width_rejected(self):
        with pytest.raises(nn.EngineError):
            nn.forward(tiny_model(), np.zeros((2, 4)))

    def test_non_finite_input_rejected(self):
        x = batch()
        x[0, 0] = np.nan
        with pytest.raises(nn.EngineError):
            nn.forward(tiny_model(), x)

    def test_bn_mask_needs_bn_layers(self):
        headless = nn.build_mlp(4, 3, hidden=(), seed=0)
        with pytest.raises(nn.EngineError):
            nn.resolve_trainable(headless, "bn")

    def test_unknown_loss_rejected(self):
        with pytest.raises(nn.EngineError):
            nn.backward(tiny_model(), batch(), loss="hinge")
