"""Estimator tests: brute-force recounts, frozen closed forms, EMA traces."""

import copy
import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from aetta import estimators as est
from aetta import nn, streams


def model_and_batch(seed=0, rows=16, class_count=4):
    model = nn.build_mlp(6, class_count, hidden=(12, 12), seed=seed)
    x = np.random.default_rng(seed + 100).normal(size=(rows, 6))
    return model, x


def labels_of(model, x):
    return est.predicted_labels(nn.forward(model, x))


def estimate(model, x, cfg, ema_error=None, position=(0, 0)):
    """aetta_estimate with the last hidden activation and base labels of a deterministic forward."""
    return est.aetta_estimate(model, nn.last_hidden(model, x), labels_of(model, x), cfg, ema_error, position)


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
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 20),
        rows=st.integers(1, 300),
        k=st.integers(2, 100),
        nan_member=st.none(),
    )
    @example(seed=0, n=3, rows=7, k=4, nan_member=1)
    @settings(max_examples=60, deadline=None)
    def test_member_by_member_reduction_is_bitwise_the_stacked_one(self, seed, n, rows, k, nan_member):
        """AETTA reduces its dropout members one at a time; its PDD and the entropy
        of the mean distribution over members and rows are bitwise those of the
        stacked (n, rows, K) ensemble, a non-finite member included."""
        rng = np.random.default_rng(seed)
        members = [rng.dirichlet(np.ones(k), size=rows) for _ in range(n)]
        if nan_member is not None:
            members[nan_member][...] = np.nan
        base = rng.integers(0, k, size=rows)
        model = nn.build_mlp(1, k, hidden=(1,))
        with mock.patch.object(nn, "dropout_forwards", lambda *_: iter(members)):
            report = est.aetta_estimate(
                model, np.zeros((rows, 1)), base, est.AettaConfig(n_dropout=n), None, (0, 0)
            )
        stacked = np.stack(members)
        assert report.pdd == est.pdd(base, np.argmax(stacked, axis=-1))
        e_avg = nn.entropy_loss(stacked.mean(axis=(0, 1))[None])
        assert report.e_avg == e_avg or (math.isnan(report.e_avg) and math.isnan(e_avg))

    def test_weight_frozen_half_entropy_cube(self):
        """K=10, aggregate entropy at half the maximum, alpha 3 -> exactly 2**3."""
        assert est.robust_weight(0.5 * math.log(10.0), 10, 3.0) == 8.0

    def test_weight_is_one_at_max_entropy(self):
        for k in (2, 10, 1000):
            assert est.robust_weight(math.log(k), k, 3.0) == 1.0

    def test_weight_is_one_at_zero_alpha(self):
        assert est.robust_weight(0.37, 10, 0.0) == 1.0

    def test_floor_keeps_weight_finite(self):
        b = est.robust_weight(0.0, 10, 2.0)
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

    @given(st.floats(0.0, 1.0), st.integers(2, 50), st.floats(0.0, 1e4))
    @example(0.0, 10, 40.0)  # the floored entropy, where alpha 40 already overflows
    @settings(max_examples=60, deadline=None)
    def test_weight_never_raises_nor_is_nan(self, frac, k, alpha):
        assert not math.isnan(est.robust_weight(frac * math.log(k), k, alpha))


# sha256 of nn.dropout_forwards(model, nn.last_hidden(model, x), 10, (0, 0, 0)), the
# masks of batch 0 of run seed 0 under the default base_seed, for the default (64, 64)
# model after 2 epochs, by training seed; x is 256 holdout rows under severity-5
# gaussian noise
PINNED_ENSEMBLES = {
    0: "d7028cccbb0c1c9ecc9591951bb8b9ce540670a842bd0f6eddee4437072405f9",
    1: "27941b98ec484a5bf93b8d470b0c3d3ae6a596c5558620947e68d689f43286ba",
}


class TestDropoutEnsemble:
    @pytest.mark.parametrize("seed", sorted(PINNED_ENSEMBLES))
    def test_two_block_ensemble_is_pinned(self, seed):
        """Every seed's members share both hidden blocks with the deterministic
        forward and drop units of block 1's activation only."""
        train, holdout = streams.make_source_dataset(streams.DatasetSpec())
        model = streams.train_source_model(train, architecture=(64, 64), epochs=2, seed=seed)
        noise = streams.CorruptionSpec(kind="gaussian_noise", severity=5, seed=0)
        x = streams.corrupt(holdout.features[:256], noise)
        ens = np.stack(list(nn.dropout_forwards(model, nn.last_hidden(model, x), 10, (0, 0, 0))))
        assert ens.shape == (10, 256, 10)
        assert hashlib.sha256(ens.tobytes()).hexdigest() == PINNED_ENSEMBLES[seed]


class TestAettaEstimate:
    def test_working_memory_does_not_grow_with_the_ensemble(self, traced_peak):
        """Each dropout member is reduced as it comes, so at 256 rows twenty members
        peak within one (256, K) array of two."""
        model = nn.build_mlp(16, 10, hidden=(64, 64), seed=0)
        x = np.random.default_rng(1).normal(size=(256, 16))
        shared, base = nn.last_hidden(model, x), labels_of(model, x)

        def peak(n):
            cfg = est.AettaConfig(n_dropout=n)
            return traced_peak(lambda: est.aetta_estimate(model, shared, base, cfg, None, (0, 0)))

        assert peak(20) - peak(2) < 256 * model.class_count * 8

    def test_ensemble_holds_one_member_at_a_time(self, traced_peak):
        """At 256 rows, N = 10, on the default model, a member's masked copy of
        the shared activation is divided by ``keep`` in place and goes once its
        logits exist, those go before the next member draws, and only the
        K-float running sum is kept between members. So the estimate peaks at
        one (256, 64) array, its bool mask and a few KB: it reads 1.25, under a
        bound of 1.4. Running both hidden blocks again in every member, with
        block 0 shared between them, read 3.03."""
        model = nn.build_mlp(16, 10, hidden=(64, 64), seed=0)
        x = np.random.default_rng(1).normal(size=(256, 16))
        shared, base = nn.last_hidden(model, x), labels_of(model, x)
        cfg = est.AettaConfig(n_dropout=10)
        with nn.small_ufunc_buffer():
            peak = traced_peak(lambda: est.aetta_estimate(model, shared, base, cfg, None, (0, 0)))
        assert peak < 1.4 * 256 * 64 * 8

    def test_ensemble_runs_no_hidden_block(self, monkeypatch):
        """The members read the deterministic forward's last hidden activation,
        so on the default model the estimate finishes no hidden block; running
        the blocks in every member finished N + 1 of them, 11 at N = 10."""
        model = nn.build_mlp(16, 10, hidden=(64, 64), seed=0)
        x = np.random.default_rng(1).normal(size=(64, 16))
        shared, base = nn.last_hidden(model, x), labels_of(model, x)
        calls, real = [], nn._finish_block
        monkeypatch.setattr(nn, "_finish_block", lambda *a, **k: calls.append(1) or real(*a, **k))
        est.aetta_estimate(model, shared, base, est.AettaConfig(n_dropout=10), None, (0, 0))
        assert calls == []

    def test_full_trace_recomputed_independently(self, reference_members):
        """Re-derive every report field from plain-expression dropout members that
        draw their masks in turn from the batch's one generator."""
        model, x = model_and_batch(seed=5)
        cfg = est.AettaConfig(n_dropout=6, alpha=2.5, base_seed=40)
        report = estimate(model, x, cfg, position=(3, 7))

        base = np.argmax(nn.forward(model, x), axis=1)
        probs = reference_members(model, x, 6, (40, 3, 7))
        labels = np.argmax(probs, axis=2)
        expected_pdd = np.mean([np.mean(labels[i] != base) for i in range(6)])
        agg = probs.mean(axis=(0, 1))
        expected_e = float(-np.sum(agg * np.log(agg)))
        expected_b = (max(expected_e, est.ENTROPY_FLOOR) / math.log(model.class_count)) ** -cfg.alpha
        expected_raw = min(max(expected_b * expected_pdd, 0.0), 1.0)

        assert_allclose(report.pdd, expected_pdd, rtol=1e-15)
        assert_allclose(report.e_avg, expected_e, rtol=1e-12)
        assert_allclose(report.b_weight, expected_b, rtol=1e-12)
        assert_allclose(report.raw_error, expected_raw, rtol=1e-15)
        assert report.smoothed_error == report.raw_error  # first batch seeds the EMA
        assert report.smoothed_accuracy == 1.0 - report.smoothed_error

    @given(
        seed=st.integers(0, 2**31 - 1),
        k=st.integers(2, 10),
        bias=st.floats(40.0, 200.0),
        position=st.tuples(st.integers(0, 99), st.integers(0, 99)),
    )
    @settings(max_examples=40, deadline=None)
    def test_a_model_that_predicts_one_class_reads_as_inaccurate(self, seed, k, bias, position):
        """When every dropout member predicts one class and the aggregate entropy
        is nearly 0, no member flips, and the estimate still reads at most 1/K."""
        model, x = model_and_batch(seed=seed % 1000, class_count=k)
        model.head.bias[seed % k] += bias
        cfg = est.AettaConfig()
        shared = nn.last_hidden(model, x)
        members = np.stack(list(nn.dropout_forwards(model, shared, cfg.n_dropout, (cfg.base_seed, *position))))
        report = estimate(model, x, cfg, position=position)
        assume(np.all(np.argmax(members, axis=-1) == seed % k) and report.e_avg < 1e-3)
        assert report.pdd == 0.0
        assert report.smoothed_accuracy <= 1.0 / k

    def test_a_one_class_model_at_a_large_alpha_reads_as_wholly_wrong(self):
        """At alpha 1000 the weight of a collapsed aggregate is too large for a
        float, and the estimate reads as wholly wrong instead of raising."""
        model, x = model_and_batch(seed=0, class_count=4)
        model.head.bias[0] += 100.0
        report = estimate(model, x, est.AettaConfig(alpha=1000.0))
        assert report.e_avg < 1e-3
        assert report.b_weight == math.inf
        assert report.smoothed_accuracy == 0.0

    def test_alpha_zero_is_bitwise_pdd(self):
        cfg = est.AettaConfig(alpha=0.0)
        for seed in range(20):
            model, x = model_and_batch(seed=seed, rows=8)
            report = estimate(model, x, cfg)
            assert report.b_weight == 1.0
            assert report.raw_error == report.pdd

    def test_ema_trace_matches_hand_rolled_filter(self):
        model, x = model_and_batch(seed=2)
        cfg = est.AettaConfig(n_dropout=4)
        ema_error = None
        expected = None
        for _ in range(6):
            report = estimate(model, x, cfg, ema_error)
            ema_error = report.smoothed_error
            expected = report.raw_error if expected is None else 0.9 * expected + 0.1 * report.raw_error
            assert_allclose(report.smoothed_error, expected, rtol=1e-14)

    def test_estimates_stay_in_unit_interval(self):
        model, x = model_and_batch(seed=9)
        cfg = est.AettaConfig(alpha=5.0)
        ema_error = None
        for _ in range(10):
            report = estimate(model, x, cfg, ema_error)
            ema_error = report.smoothed_error
            assert 0.0 <= report.raw_error <= 1.0
            assert 0.0 <= report.smoothed_accuracy <= 1.0

    def test_config_validation(self):
        with pytest.raises(est.EstimatorError):
            est.AettaConfig(n_dropout=0)
        with pytest.raises(est.EstimatorError):
            est.AettaConfig(alpha=-1.0)

    def test_negative_base_seed_is_rejected(self):
        with pytest.raises(est.EstimatorError, match="base_seed"):
            est.AettaConfig(base_seed=-1)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 0.99))
    @settings(max_examples=50, deadline=None)
    def test_smoothing_stays_between_inputs(self, prev, raw, c):
        smoothed = c * prev + (1 - c) * raw
        assert min(prev, raw) - 1e-12 <= smoothed <= max(prev, raw) + 1e-12


class TestComparisonEstimators:
    def test_softmax_score_frozen_bias_only_case(self):
        """Logits fixed at (2, 0) by a zeroed head and its bias; at temperature 2
        the max softmax is e/(1+e)."""
        model = nn.build_mlp(3, 2, hidden=(1,), seed=0)
        model.head.weights[...] = 0.0
        model.head.bias[...] = np.array([2.0, 0.0])
        x = np.zeros((5, 3))
        expected = math.exp(1.0) / (math.exp(1.0) + 1.0)
        assert_allclose(est.softmax_score(nn.forward_logits(model, x)), expected, rtol=1e-15)

    def test_softmax_score_bounds(self):
        model, x = model_and_batch(seed=11)
        s = est.softmax_score(nn.forward_logits(model, x))
        assert 1.0 / model.class_count <= s <= 1.0

    def test_gde_self_agreement_is_one(self):
        model, x = model_and_batch(seed=3)
        assert est.gde_agreement(labels_of(model, x), copy.deepcopy(model), x) == 1.0

    def test_gde_counts_matching_argmax(self):
        model, x = model_and_batch(seed=4)
        other = copy.deepcopy(model)
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

    def test_src_valid_scores_in_blocks(self, traced_peak):
        """4096 holdout rows are forwarded 256 at a time, so the peak is one
        block's input and output, two (256, 64) arrays, not two (4096, 64)
        arrays."""
        model = nn.build_mlp(16, 10, hidden=(64, 64), seed=0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4096, 16))
        labels = rng.integers(0, 10, size=4096)
        assert traced_peak(lambda: est.src_valid(model, x, labels)) < 3 * 256 * 64 * 8

    def test_src_valid_holds_one_small_row_block(self, traced_peak):
        """With numpy's ufunc buffer at ``nn.UFUNC_BUFFER_ELEMENTS``, scoring
        SrcValid's 1000 holdout rows peaks at about two (128, 64) arrays: one
        row block's input and output, with no per-block input check, inverse
        stds or separate softmax array."""
        model = nn.build_mlp(16, 10, hidden=(64, 64), seed=0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1000, 16))
        labels = rng.integers(0, 10, size=1000)
        with nn.small_ufunc_buffer():
            assert traced_peak(lambda: est.src_valid(model, x, labels)) < 2.5 * 128 * 64 * 8

    def test_src_valid_label_shape_checked(self):
        model, x = model_and_batch()
        with pytest.raises(nn.EngineError):
            est.src_valid(model, x, np.zeros((2, 2)))

    def test_adv_perturb_zero_epsilon_is_clean_agreement(self):
        model, x = model_and_batch(seed=8)
        adapted = copy.deepcopy(model)
        adapted.head.bias += 0.3
        clean = est.gde_agreement(labels_of(adapted, x), model, x)
        assert_allclose(est.adv_perturb_agreement(model, adapted, x, feature_scale=0.0), clean, rtol=1e-15)

    def test_adv_perturb_identical_models_agree(self):
        model, x = model_and_batch(seed=10)
        assert est.adv_perturb_agreement(model, copy.deepcopy(model), x, feature_scale=0.05 / est.ADV_EPSILON) == 1.0

    def test_adv_perturb_moves_inputs_by_scaled_epsilon(self):
        model, x = model_and_batch(seed=12)
        adapted = copy.deepcopy(model)
        adapted.head.bias += 0.3 * np.arange(model.class_count)
        grad = nn.input_gradient(model, x)
        scale = np.linspace(5.0, 20.0, x.shape[1])
        x_adv = x + est.ADV_EPSILON * scale * np.sign(grad)
        # agreement computed on exactly that perturbed batch, which here differs from the clean one
        expected = est.gde_agreement(labels_of(adapted, x_adv), model, x_adv)
        assert expected != est.gde_agreement(labels_of(adapted, x), model, x)
        assert est.adv_perturb_agreement(model, adapted, x, scale) == expected
