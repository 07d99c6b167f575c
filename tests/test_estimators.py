"""Estimator tests: brute-force recounts, frozen closed forms, EMA traces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from aetta import estimators as est
from aetta import nn


def model_and_batch(seed=0, rows=16, class_count=4):
    model = nn.build_mlp(6, class_count, hidden=(12, 12), seed=seed)
    x = np.random.default_rng(seed + 100).normal(size=(rows, 6))
    return model, x


def labels_of(model, x):
    return est.predicted_labels(nn.forward(model, x))


def estimate(model, x, cfg, state=None):
    """aetta_estimate with the base labels from a deterministic forward."""
    if state is None:
        state = est.fresh_state(10)
    return est.aetta_estimate(model, x, labels_of(model, x), cfg, state)


class TestPdd:
    def test_hand_counted_disagreements(self):
        base = np.array([0, 1, 2])
        ens = np.array([[0, 1, 2], [0, 0, 0], [2, 1, 2]])
        # rows disagree in 0, 2, 1 positions -> (0 + 2/3 + 1/3) / 3
        assert_allclose(est.pdd(base, ens), 1.0 / 3.0, rtol=1e-15)

    def test_identical_predictions_give_zero(self):
        base = np.array([1, 0, 3, 2])
        assert est.pdd(base, np.tile(base, (5, 1))) == 0.0

    def test_total_disagreement_gives_one(self):
        base = np.zeros(4, dtype=int)
        assert est.pdd(base, np.ones((3, 4), dtype=int)) == 1.0

    def test_shape_validation(self):
        with pytest.raises(est.EstimatorError):
            est.pdd(np.array([0, 1]), np.array([[0, 1, 2]]))
        with pytest.raises(est.EstimatorError):
            est.pdd(np.array([], dtype=int), np.zeros((2, 0), dtype=int))

    @given(st.integers(0, 2**31 - 1), st.integers(1, 8), st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_matches_loop_recount(self, seed, n, b):
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 5, size=b)
        ens = rng.integers(0, 5, size=(n, b))
        total = 0.0
        for i in range(n):
            total += sum(int(ens[i, j] != base[j]) for j in range(b)) / b
        assert_allclose(est.pdd(base, ens), total / n, rtol=1e-12)


class TestAggregateAndWeight:
    def test_aggregate_is_mean_distribution(self):
        rng = np.random.default_rng(3)
        p = rng.dirichlet(np.ones(5), size=(4, 7))
        agg = est.batch_aggregate(p)
        assert_allclose(agg, p.reshape(-1, 5).mean(axis=0), rtol=1e-12)
        assert_allclose(agg.sum(), 1.0, atol=1e-12)

    def test_weight_frozen_half_entropy_cube(self):
        """K=10, aggregate entropy at half the maximum, alpha 3 -> exactly 2**3."""
        assert est.robust_weight(0.5 * math.log(10.0), 10, 3.0) == 8.0

    def test_weight_is_one_at_max_entropy(self):
        for k in (2, 10, 1000):
            assert est.robust_weight(math.log(k), k, 3.0) == 1.0

    def test_weight_is_one_at_zero_alpha(self):
        assert est.robust_weight(0.37, 10, 0.0) == 1.0

    def test_floor_keeps_weight_finite(self):
        b = est.robust_weight(0.0, 10, 2.0, entropy_floor=1e-8)
        assert math.isfinite(b)
        assert_allclose(b, (math.log(10.0) / 1e-8) ** 2, rtol=1e-12)

    def test_negative_entropy_rejected(self):
        with pytest.raises(est.EstimatorError):
            est.robust_weight(-0.1, 10, 1.0)

    @given(st.floats(0.0, 1.0), st.integers(2, 50), st.floats(0.0, 6.0))
    @settings(max_examples=60, deadline=None)
    def test_weight_at_least_one_below_max_entropy(self, frac, k, alpha):
        e_avg = frac * math.log(k)
        assert est.robust_weight(e_avg, k, alpha) >= 1.0


class TestAettaEstimate:
    def test_full_trace_recomputed_independently(self):
        """Re-derive every report field from raw forwards with the same seeds."""
        model, x = model_and_batch(seed=5)
        cfg = est.AettaConfig(n_dropout=6, alpha=2.5, base_seed=40)
        report, _ = estimate(model, x, cfg)

        base = np.argmax(nn.forward(model, x), axis=1)
        probs = np.stack([nn.forward(model, x, nn.Dropout(seed=40 + i)) for i in range(6)])
        labels = np.argmax(probs, axis=2)
        expected_pdd = np.mean([np.mean(labels[i] != base) for i in range(6)])
        agg = probs.mean(axis=(0, 1))
        expected_e = float(-np.sum(agg * np.log(agg)))
        expected_b = (max(expected_e, cfg.entropy_floor) / math.log(model.class_count)) ** -cfg.alpha
        expected_raw = min(max(expected_b * expected_pdd, 0.0), 1.0)

        assert_allclose(report.pdd, expected_pdd, rtol=1e-15)
        assert_allclose(report.e_avg, expected_e, rtol=1e-12)
        assert_allclose(report.b_weight, expected_b, rtol=1e-12)
        assert_allclose(report.raw_error, expected_raw, rtol=1e-15)
        assert report.smoothed_error == report.raw_error  # first batch seeds the EMA
        assert report.smoothed_accuracy == 1.0 - report.smoothed_error

    def test_alpha_zero_is_bitwise_pdd(self):
        cfg = est.AettaConfig(alpha=0.0)
        for seed in range(20):
            model, x = model_and_batch(seed=seed, rows=8)
            report, _ = estimate(model, x, cfg)
            assert report.b_weight == 1.0
            assert report.raw_error == report.pdd

    def test_ema_trace_matches_hand_rolled_filter(self):
        model, x = model_and_batch(seed=2)
        cfg = est.AettaConfig(n_dropout=4, ema_coefficient=0.9)
        state = None
        expected = None
        for _ in range(6):
            report, state = estimate(model, x, cfg, state)
            expected = report.raw_error if expected is None else 0.9 * expected + 0.1 * report.raw_error
            assert_allclose(report.smoothed_error, expected, rtol=1e-14)

    def test_state_is_not_mutated(self):
        model, x = model_and_batch(seed=7)
        cfg = est.AettaConfig(n_dropout=3)
        _, s1 = estimate(model, x, cfg)
        frozen = list(s1.history)
        estimate(model, x, cfg, s1)
        assert list(s1.history) == frozen

    def test_history_is_bounded_ring(self):
        model, x = model_and_batch(seed=1)
        cfg = est.AettaConfig(n_dropout=2)
        state = None
        accs = []
        for _ in range(14):
            report, state = estimate(model, x, cfg, state)
            accs.append(report.smoothed_accuracy)
        assert len(state.history) == 10
        assert list(state.history) == accs[-10:]

    def test_estimates_stay_in_unit_interval(self):
        model, x = model_and_batch(seed=9)
        cfg = est.AettaConfig(alpha=5.0)
        state = None
        for _ in range(10):
            report, state = estimate(model, x, cfg, state)
            assert 0.0 <= report.raw_error <= 1.0
            assert 0.0 <= report.smoothed_accuracy <= 1.0

    def test_config_validation(self):
        with pytest.raises(est.EstimatorError):
            est.AettaConfig(n_dropout=0)
        with pytest.raises(est.EstimatorError):
            est.AettaConfig(alpha=-1.0)
        with pytest.raises(est.EstimatorError):
            est.AettaConfig(ema_coefficient=1.0)
        with pytest.raises(est.EstimatorError):
            est.AettaConfig(entropy_floor=0.0)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 0.99))
    @settings(max_examples=50, deadline=None)
    def test_smoothing_stays_between_inputs(self, prev, raw, c):
        smoothed = c * prev + (1 - c) * raw
        assert min(prev, raw) - 1e-12 <= smoothed <= max(prev, raw) + 1e-12


class TestComparisonEstimators:
    def test_softmax_score_frozen_headless_case(self):
        """Logits fixed at (2, 0); at temperature 2 the max softmax is e/(1+e)."""
        model = nn.build_mlp(3, 2, hidden=(), seed=0)
        model.head.weights[...] = 0.0
        model.head.bias[...] = np.array([2.0, 0.0])
        x = np.zeros((5, 3))
        expected = math.exp(1.0) / (math.exp(1.0) + 1.0)
        assert_allclose(est.softmax_score(nn.forward_logits(model, x), temperature=2.0), expected, rtol=1e-15)

    def test_softmax_score_bounds(self):
        model, x = model_and_batch(seed=11)
        s = est.softmax_score(nn.forward_logits(model, x))
        assert 1.0 / model.class_count <= s <= 1.0

    def test_temperature_must_be_positive(self):
        model, x = model_and_batch()
        with pytest.raises(est.EstimatorError):
            est.softmax_score(nn.forward_logits(model, x), temperature=0.0)

    def test_gde_self_agreement_is_one(self):
        model, x = model_and_batch(seed=3)
        assert est.gde_agreement(labels_of(model, x), nn.clone(model), x) == 1.0

    def test_gde_counts_matching_argmax(self):
        model, x = model_and_batch(seed=4)
        other = nn.clone(model)
        other.head.weights[...] = np.roll(other.head.weights, 1, axis=1)
        a = np.argmax(nn.forward(model, x), axis=1)
        b = np.argmax(nn.forward(other, x), axis=1)
        assert_allclose(est.gde_agreement(labels_of(model, x), other, x), np.mean(a == b), rtol=1e-15)

    def test_src_valid_counts_correct_predictions(self):
        model, x = model_and_batch(seed=6, rows=32)
        preds = np.argmax(nn.forward(model, x), axis=1)
        labels = preds.copy()
        labels[:8] = (labels[:8] + 1) % model.class_count  # damage a quarter
        assert_allclose(est.src_valid(model, x, labels), 0.75, rtol=1e-15)

    def test_src_valid_label_shape_checked(self):
        model, x = model_and_batch()
        with pytest.raises(est.EstimatorError):
            est.src_valid(model, x, np.zeros((2, 2)))

    def test_adv_perturb_zero_epsilon_is_clean_agreement(self):
        model, x = model_and_batch(seed=8)
        adapted = nn.clone(model)
        adapted.head.bias += 0.3
        clean = est.gde_agreement(labels_of(adapted, x), model, x)
        assert_allclose(est.adv_perturb_agreement(model, adapted, x, epsilon=0.0), clean, rtol=1e-15)

    def test_adv_perturb_identical_models_agree(self):
        model, x = model_and_batch(seed=10)
        assert est.adv_perturb_agreement(model, nn.clone(model), x, epsilon=0.05) == 1.0

    def test_adv_perturb_moves_inputs_by_scaled_epsilon(self):
        model, x = model_and_batch(seed=12)
        pseudo = est.predicted_labels(nn.forward(model, x))
        grad = nn.input_gradient(model, x, pseudo)
        scale = np.linspace(0.5, 2.0, x.shape[1])
        x_adv = x + 0.01 * scale * np.sign(grad)
        # agreement computed on exactly that perturbed batch
        expected = est.gde_agreement(labels_of(model, x_adv), model, x_adv)
        assert est.adv_perturb_agreement(model, nn.clone(model), x, 0.01, scale) == expected

    def test_negative_epsilon_rejected(self):
        model, x = model_and_batch()
        with pytest.raises(est.EstimatorError):
            est.adv_perturb_agreement(model, model, x, epsilon=-0.1)
