"""Adaptation step isolation, recovery-policy triggers, reset semantics."""

import copy
import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from aetta import nn, tta


def make_model(seed=0):
    return nn.build_mlp(6, 4, hidden=(16, 16), seed=seed)


def state_bytes(model):
    return [(name, arr.tobytes()) for name, arr in nn.named_state(model)]


def make_batch(seed=0, rows=32, cols=6):
    return np.random.default_rng(seed).normal(size=(rows, cols))


# sha256 of every named_state array, joined in order, then of a fourth step's
# BN gradients by name, after three TENT steps (Adam, lr 1e-3) at 256 rows on
# the benchmark's two-block (64, 64) model. The run.csv pins run a one-block
# model, and a last-bit change to a gradient need not reach the parameters.
PINNED_TENT_STATE = "06dacb09c5c7286be2d37d3cdeda7d67cee3ce3a3e2c696c62802503eecf82f5"


class TestTentStep:
    def test_two_block_steps_at_256_rows_are_pinned(self):
        model = nn.build_mlp(16, 10, hidden=(64, 64), seed=0)
        opt = tta.make_optimizer(tta.AdaptConfig())
        batches = np.random.default_rng(1).normal(size=(4, 256, 16))
        for x in batches[:3]:
            tta.tent_step(model, x, opt)
        grads = nn.backward(model, batches[3], mode=nn.TrainBN(), trainable="bn")
        state = b"".join(arr.tobytes() for _, arr in nn.named_state(model))
        digest = hashlib.sha256(state + b"".join(grads[name].tobytes() for name in sorted(grads))).hexdigest()
        assert digest == PINNED_TENT_STATE

    def test_non_bn_parameters_bitwise_frozen(self):
        model = make_model()
        cfg = tta.AdaptConfig(method="tent", learning_rate=0.01)
        opt = tta.make_optimizer(cfg)
        before = {
            name: p.copy() for name, p in nn.named_parameters(model) if ".norm." not in name
        }
        for i in range(5):
            tta.tent_step(model, make_batch(seed=i), opt)
        for name, p in nn.named_parameters(model):
            if ".norm." not in name:
                assert np.array_equal(p, before[name]), name

    def test_bn_affine_parameters_move(self):
        model = make_model()
        cfg = tta.AdaptConfig(method="tent", learning_rate=0.01)
        gamma0 = model.blocks[0].norm.gamma.copy()
        tta.tent_step(model, make_batch(), tta.make_optimizer(cfg))
        assert not np.array_equal(model.blocks[0].norm.gamma, gamma0)

    def test_zero_learning_rate_still_refreshes_stats(self):
        model = make_model()
        cfg = tta.AdaptConfig(method="tent", learning_rate=0.0)
        gamma0 = model.blocks[0].norm.gamma.copy()
        rm0 = model.blocks[0].norm.running_mean.copy()
        tta.tent_step(model, make_batch(), tta.make_optimizer(cfg))
        assert np.array_equal(model.blocks[0].norm.gamma, gamma0)
        assert not np.array_equal(model.blocks[0].norm.running_mean, rm0)

    def test_entropy_descends_for_small_steps(self):
        """One small adaptation step should not increase the batch entropy."""
        cfg = tta.AdaptConfig(method="tent", learning_rate=1e-3)
        for seed in range(20):
            model = make_model(seed=seed)
            x = make_batch(seed=seed + 50)
            before = nn.entropy_loss(nn.forward(copy.deepcopy(model), x, nn.TrainBN()))
            tta.tent_step(model, x, tta.make_optimizer(cfg))
            after = nn.entropy_loss(nn.forward(copy.deepcopy(model), x, nn.TrainBN()))
            assert after <= before + 1e-12, f"seed {seed}: {before} -> {after}"

    def test_bn_stats_step_touches_only_stats(self):
        model = make_model()
        params_before = {name: p.copy() for name, p in nn.named_parameters(model)}
        rm0 = model.blocks[0].norm.running_mean.copy()
        tta.bn_stats_step(model, make_batch())
        for name, p in nn.named_parameters(model):
            assert np.array_equal(p, params_before[name])
        assert not np.array_equal(model.blocks[0].norm.running_mean, rm0)

    def test_config_validation(self):
        with pytest.raises(tta.AdaptationError):
            tta.AdaptConfig(method="cotta")
        with pytest.raises(tta.AdaptationError):
            tta.AdaptConfig(learning_rate=-1.0)
        with pytest.raises(tta.AdaptationError):
            tta.AdaptConfig(optimizer="lion")


class TestShouldReset:
    def test_flat_history_never_fires(self):
        policy = tta.RecoveryPolicy(kind="aetta_reset")
        assert tta.should_reset(policy, [0.7] * 10) is None

    def test_window_degradation_fires(self):
        policy = tta.RecoveryPolicy(kind="aetta_reset")
        assert tta.should_reset(policy, [0.9] * 5 + [0.5] * 5) == tta.TRIGGER_WINDOW

    def test_hard_threshold_fires_on_short_history(self):
        policy = tta.RecoveryPolicy(kind="aetta_reset")
        assert tta.should_reset(policy, [0.19]) == tta.TRIGGER_HARD

    def test_hard_threshold_is_strict(self):
        policy = tta.RecoveryPolicy(kind="aetta_reset")
        assert tta.should_reset(policy, [0.2]) is None

    def test_window_needs_full_double_window(self):
        policy = tta.RecoveryPolicy(kind="aetta_reset")
        assert tta.should_reset(policy, [0.9] * 4 + [0.5] * 5) is None  # nine entries only

    def test_post_step_kinds_never_decide_before_the_step(self):
        """Episodic rolls back, and stochastic restore reverts, after the step."""
        for kind in ("episodic", "stochastic_restore"):
            policy = tta.RecoveryPolicy(kind=kind)
            assert tta.should_reset(policy, [], non_finite=True) is None

    def test_constant_output_rolls_back_every_rolling_back_kind_after_non_finite(self):
        for kind in ("aetta_reset", "mrs", "dist_shift"):
            policy = tta.RecoveryPolicy(kind=kind)
            assert tta.should_reset(policy, [0.9], constant_output=True) == tta.TRIGGER_CONSTANT_OUTPUT
            both = tta.should_reset(policy, [0.9], non_finite=True, constant_output=True)
            assert both == tta.TRIGGER_NON_FINITE
        for kind in ("episodic", "stochastic_restore", "none"):
            assert tta.should_reset(tta.RecoveryPolicy(kind=kind), [], constant_output=True) is None

    def test_mrs_threshold_on_entropy_ema(self, monkeypatch):
        policy = tta.RecoveryPolicy(kind="mrs")
        assert tta.should_reset(policy, [0.9], entropy_ema=0.15) == tta.TRIGGER_EXTERNAL
        assert tta.should_reset(policy, [0.9], entropy_ema=0.25) is None
        assert tta.should_reset(policy, [0.9], entropy_ema=None) is None
        monkeypatch.setattr(tta, "MRS_THRESHOLD", 0.3)
        assert tta.should_reset(policy, [0.9], entropy_ema=0.25) == tta.TRIGGER_EXTERNAL

    def test_dist_shift_fires_only_on_boundaries(self):
        policy = tta.RecoveryPolicy(kind="dist_shift")
        assert tta.should_reset(policy, [0.9], at_boundary=True) == tta.TRIGGER_EXTERNAL
        assert tta.should_reset(policy, [0.9], at_boundary=False) is None

    def test_passive_kinds_never_fire(self):
        history = [0.0] * 10  # even under disastrous history
        for kind in ("none", "stochastic_restore"):
            assert tta.should_reset(tta.RecoveryPolicy(kind=kind), history) is None

    def test_policy_validation(self):
        with pytest.raises(tta.AdaptationError):
            tta.RecoveryPolicy(kind="cotta")
        with pytest.raises(tta.AdaptationError):
            tta.RecoveryPolicy(window=0)
        with pytest.raises(tta.AdaptationError):
            tta.RecoveryPolicy(hard_threshold=1.5)


class TestApplyReset:
    def test_reset_restores_outputs_bitwise_after_adaptation(self):
        model = make_model(seed=3)
        source = copy.deepcopy(model)
        cfg = tta.AdaptConfig(method="tent", learning_rate=0.05)
        opt = tta.make_optimizer(cfg)
        for i in range(10):
            tta.tent_step(model, make_batch(seed=i), opt)
        x = make_batch(seed=99)
        assert not np.array_equal(nn.forward(model, x), nn.forward(source, x))
        before = state_bytes(source)
        model, opt = tta.apply_reset(opt, source)
        assert np.array_equal(nn.forward(model, x), nn.forward(source, x))
        assert state_bytes(model) == state_bytes(source) == before

    def test_reset_reinitialises_optimizer(self):
        model = make_model()
        source = copy.deepcopy(model)
        cfg = tta.AdaptConfig(method="tent", learning_rate=0.01)
        opt = tta.make_optimizer(cfg)
        tta.tent_step(model, make_batch(), opt)
        assert opt.step == 1 and opt.m is not None
        _, opt = tta.apply_reset(opt, source)
        assert opt.step == 0 and opt.m is None and opt.v is None
        assert opt.kind == "adam" and opt.learning_rate == 0.01


class TestStochasticRestore:
    def test_zero_probability_is_identity(self):
        model = make_model(seed=5)
        source = make_model(seed=6)
        before = state_bytes(model)
        tta.stochastic_restore_step(model, source, restore_prob=0.0, seed=0)
        assert state_bytes(model) == before

    def test_unit_probability_copies_all_parameters(self):
        model = make_model(seed=5)
        source = make_model(seed=6)
        tta.stochastic_restore_step(model, source, restore_prob=1.0, seed=0)
        for (_, p), (_, s) in zip(nn.named_parameters(model), nn.named_parameters(source)):
            assert np.array_equal(p, s)

    def test_restored_fraction_matches_binomial(self):
        model = nn.build_mlp(100, 10, hidden=(256, 256), seed=1)
        source = copy.deepcopy(model)
        for _, p in nn.named_parameters(model):
            p += 1.0  # make every scalar distinguishable from source
        tta.stochastic_restore_step(model, source, restore_prob=0.01, seed=7)
        restored = 0
        total = 0
        for (_, p), (_, s) in zip(nn.named_parameters(model), nn.named_parameters(source)):
            restored += int(np.sum(p == s))
            total += p.size
        expected = 0.01 * total
        sigma = np.sqrt(total * 0.01 * 0.99)
        assert abs(restored - expected) <= 3 * sigma

    def test_same_seed_same_mask(self):
        a = make_model(seed=5)
        b = make_model(seed=5)
        source = make_model(seed=6)
        tta.stochastic_restore_step(a, source, 0.05, seed=11)
        tta.stochastic_restore_step(b, source, 0.05, seed=11)
        assert state_bytes(a) == state_bytes(b)

    def test_probability_validated(self):
        with pytest.raises(tta.AdaptationError):
            tta.stochastic_restore_step(make_model(), make_model(), 1.5, seed=0)

    def test_a_model_sharing_the_sources_arrays_restores_as_its_clone_does(self):
        """A parameter shared with the source is not written but still draws its
        mask, so every later mask, and every restored scalar, is a clone's."""
        source = make_model(seed=6)
        for _, arr in nn.named_state(source):
            arr.flags.writeable = False
        sharing = nn.adaptable_copy(source)
        tta.tent_step(sharing, make_batch(), nn.OptimizerState(learning_rate=0.1))
        twin = copy.deepcopy(sharing)
        assert any(a is s for (_, a), (_, s) in zip(nn.named_state(sharing), nn.named_state(source)))
        for model in (sharing, twin):
            tta.stochastic_restore_step(model, source, 0.5, seed=3)
        assert state_bytes(sharing) == state_bytes(twin)
        assert state_bytes(sharing) != state_bytes(source)
