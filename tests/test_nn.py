"""Engine tests: forward modes, losses, analytic gradients vs finite differences."""

import copy
import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import finite_differences
from aetta import nn


def tiny_model(seed=0, input_dim=5, hidden=(8, 8), class_count=3, rate=None):
    model = nn.build_mlp(input_dim, class_count, hidden=hidden, seed=seed)
    return model if rate is None else dataclasses.replace(model, dropout_rate=rate)


def state_bytes(model):
    """Every array of the model by name, as raw bytes, for bitwise comparison."""
    return [(name, arr.tobytes()) for name, arr in nn.named_state(model)]


def read_only(model):
    """``model`` with every array read-only, as ``streams.prepared_task`` hands out its checkpoint."""
    for _, arr in nn.named_state(model):
        arr.flags.writeable = False
    return model


def batch(seed=0, rows=6, cols=5):
    return np.random.default_rng(seed).normal(size=(rows, cols))


ALL_MODES = (nn.Deterministic(), nn.TrainBN())


def kink_safe_batch(model, start_seed=0, rows=6, margin=1e-3):
    """First random batch whose pre-relu values sit clear of the kink.

    Finite differences straddle relu's corner otherwise, which invalidates the
    oracle rather than the gradient under test.
    """
    for seed in range(start_seed, start_seed + 500):
        x = batch(seed=seed, rows=rows, cols=model.input_dim)
        if all(finite_differences.relu_kink_margin(model, x, m) > margin for m in ALL_MODES):
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
            dropout_rate=0.0,
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

    def test_dropout_is_reproducible_per_seed(self):
        model = tiny_model()
        hidden = nn.last_hidden(model, batch())
        a = np.stack(list(nn.dropout_forwards(model, hidden, 2, 7)))
        b = np.stack(list(nn.dropout_forwards(model, hidden, 2, 7)))
        c = np.stack(list(nn.dropout_forwards(model, hidden, 2, 8)))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_deterministic_and_dropout_do_not_mutate(self):
        model = tiny_model()
        before = state_bytes(model)
        nn.forward(model, batch(), nn.Deterministic())
        list(nn.dropout_forwards(model, nn.last_hidden(model, batch()), 2, 3))
        assert state_bytes(model) == before

    @pytest.mark.parametrize("mode", ["train", None, object()], ids=["string", "none", "object"])
    def test_unknown_forward_mode_is_rejected(self, mode):
        """Only Deterministic and TrainBN are modes; anything else is an error,
        not a forward with running statistics that a caller may take for another mode."""
        model, x = tiny_model(), batch()
        before = state_bytes(model)
        for call in (nn.forward, nn.forward_logits, finite_differences.relu_kink_margin):
            with pytest.raises(nn.EngineError, match="unknown forward mode"):
                call(model, x, mode)
        with pytest.raises(nn.EngineError, match="unknown forward mode"):
            nn.backward(model, x, mode=mode)
        with pytest.raises(nn.EngineError, match="unknown forward mode"):
            nn.backward(model, x, labels=np.arange(6) % 3, mode=mode, trainable="bn")
        assert state_bytes(model) == before

    def test_train_bn_mutates_only_running_stats(self):
        model = tiny_model()
        before = dict(state_bytes(model))
        nn.forward(model, batch(), nn.TrainBN())
        changed = [name for name, arr in state_bytes(model) if arr != before[name]]
        assert changed == [name for name in before if ".running_" in name]

    @given(
        seed=st.integers(0, 2**31 - 1),
        rows=st.integers(1, 12),
        hidden=st.sampled_from([(8,), (8, 8)]),
        mode=st.sampled_from(ALL_MODES),
    )
    @settings(max_examples=40, deadline=None)
    def test_input_is_left_bitwise_unchanged(self, seed, rows, hidden, mode):
        """The engine writes in place only into arrays it allocated itself, and
        the dropout members not into the activation they share."""
        model = tiny_model(seed=seed % 1000, hidden=hidden)
        x = np.random.default_rng(seed).normal(size=(rows, 5))
        before = x.tobytes()
        nn.forward(model, x, mode)
        nn.forward_logits(model, x, mode)
        shared = nn.last_hidden(model, x)
        shared_before = shared.tobytes()
        list(nn.dropout_forwards(model, shared, 2, 3))
        assert shared.tobytes() == shared_before
        y = np.arange(rows) % model.class_count
        nn.backward(model, x, labels=y, mode=mode)
        nn.input_gradient(model, x)
        nn.backward(model, x, mode=mode, trainable="bn")
        assert x.tobytes() == before

    @given(
        seed=st.integers(0, 2**31 - 1),
        rows=st.integers(1, 12),
        hidden=st.sampled_from([(8,), (8, 8), (8, 8, 8), (7, 5, 3)]),
        rate=st.sampled_from([0.0, 0.4]),
        n=st.integers(1, 4),
        mask_seed=st.integers(0, 2**32 - 1) | st.tuples(st.integers(0, 9), st.integers(0, 9)),
    )
    @example(seed=1, rows=5, hidden=(8, 8, 8), rate=0.0, n=3, mask_seed=0)
    @example(seed=2, rows=1, hidden=(8, 8, 8), rate=0.4, n=2, mask_seed=5)
    @example(seed=3, rows=3, hidden=(7, 5, 3), rate=0.4, n=3, mask_seed=6)
    @settings(max_examples=60, deadline=None)
    def test_inference_matches_cached_forward_bitwise(
        self, seed, rows, hidden, rate, n, mask_seed, reference_members
    ):
        """The forwards that keep nothing give exactly the bits of the forward
        that keeps backward's cache, the head applied to ``last_hidden``
        included, and the ensemble on that activation gives exactly those of the
        plain-expression members, whose masks come from one generator in turn,
        one draw per member, also when the blocks differ in width."""
        model = tiny_model(seed=seed % 1000, hidden=hidden, rate=rate)
        x = np.random.default_rng(seed).normal(size=(rows, 5))
        cache = nn._forward_cached(model, x, nn.Deterministic())
        assert_array_equal(nn.forward(model, x), cache.probs)
        assert_array_equal(nn.forward_logits(model, x), cache.logits)
        shared = nn.last_hidden(model, x)
        assert_array_equal(shared @ model.head.weights + model.head.bias, cache.logits)
        ensemble = np.stack(list(nn.dropout_forwards(model, shared, n, mask_seed)))
        assert ensemble.shape == (n, rows, model.class_count)
        assert_array_equal(ensemble, reference_members(model, x, n, mask_seed))

    def test_inference_forward_keeps_no_per_block_arrays(self, traced_peak):
        """A deterministic forward holds about four (rows, 64) arrays at its peak,
        not the six and a half that a kept backward cache needs."""
        model = nn.build_mlp(16, 10, hidden=(64, 64), seed=0)
        x = np.random.default_rng(0).normal(size=(1000, 16))
        assert traced_peak(lambda: nn.forward(model, x)) < 4.5 * 1000 * 64 * 8

    def test_inference_blocks_allocate_one_array_each(self, traced_peak):
        """Each hidden block applies its affine and relu in place on its dense
        output, so the peak is block 1's input and output, not four arrays."""
        model = nn.build_mlp(16, 10, hidden=(64, 64), seed=0)
        x = np.random.default_rng(0).normal(size=(1000, 16))
        assert traced_peak(lambda: nn.forward(model, x)) < 2.5 * 1000 * 64 * 8

    def test_inference_forward_lets_each_block_input_go_before_the_bias_add(self, traced_peak):
        """Block 1's input goes once its dense product exists, so with the small
        ufunc buffer a 64-row forward peaks at the input and the product, 2.03
        (64, 64) arrays; keeping the input through the bias add's buffer reads
        2.31."""
        model = nn.build_mlp(16, 10, hidden=(64, 64), seed=0)
        x = np.random.default_rng(0).normal(size=(64, 16))
        with nn.small_ufunc_buffer():
            assert traced_peak(lambda: nn.forward(model, x)) < 2.15 * 64 * 64 * 8

    def test_accuracy_lets_each_block_input_go_before_the_bias_add(self, traced_peak):
        """Each 128-row block of ``accuracy`` runs the same inference loop, so
        1000 rows with the small ufunc buffer peak at 2.20 (128, 64) arrays;
        keeping a block's input through the bias add's buffer reads 2.34."""
        model = nn.build_mlp(16, 10, hidden=(64, 64), seed=0)
        rng = np.random.default_rng(0)
        x, labels = rng.normal(size=(1000, 16)), rng.integers(0, 10, size=1000)
        with nn.small_ufunc_buffer():
            assert traced_peak(lambda: nn.accuracy(model, x, labels)) < 2.25 * 128 * 64 * 8

    @given(rows=st.integers(1, 1100), seed=st.integers(0, 2**31 - 1))
    @example(rows=127, seed=8)
    @example(rows=128, seed=9)
    @example(rows=129, seed=10)
    @example(rows=255, seed=5)
    @example(rows=256, seed=6)
    @example(rows=257, seed=7)
    @example(rows=511, seed=0)
    @example(rows=512, seed=1)
    @example(rows=513, seed=2)
    @example(rows=1024, seed=3)
    @example(rows=1025, seed=4)
    @settings(max_examples=30, deadline=None)
    def test_blocked_accuracy_is_bitwise_the_one_shot_mean(self, rows, seed):
        model = nn.build_mlp(16, 10, hidden=(64, 64), seed=seed % 1000)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(rows, 16))
        preds = np.argmax(nn.forward(model, x), axis=1)
        # about a third of the rows relabelled, so the count of correct rows varies
        labels = np.where(rng.random(rows) < 0.3, rng.integers(0, 10, size=rows), preds)
        assert nn.accuracy(model, x, labels) == float(np.mean(preds == labels))

    @pytest.mark.parametrize("shape", [(1,), (99,), (100, 1)], ids=["one-label", "one-short", "column"])
    def test_accuracy_needs_one_label_per_row(self, shape):
        """A single label or a column of labels would broadcast against the
        predictions and score a number that means nothing."""
        model, x = tiny_model(), batch(rows=100)
        with pytest.raises(nn.EngineError, match="one per row"):
            nn.accuracy(model, x, np.ones(shape, dtype=int))

    def test_accuracy_checks_every_row_up_front(self):
        """``accuracy`` checks its input once, not per row block, so that one
        check must reject a NaN in the last block and an input of the wrong width."""
        model = nn.build_mlp(16, 10, hidden=(64, 64), seed=0)
        x = np.random.default_rng(0).normal(size=(3 * nn._ACCURACY_BLOCK_ROWS + 5, 16))
        labels = np.zeros(x.shape[0], dtype=int)
        with pytest.raises(nn.EngineError, match="input width 15"):
            nn.accuracy(model, x[:, :15], labels)
        x[-1, 3] = np.nan
        with pytest.raises(nn.EngineError, match="non-finite"):
            nn.accuracy(model, x, labels)

    @given(st.integers(0, 2**31 - 1), st.integers(1, 16), st.integers(2, 7))
    @settings(max_examples=25, deadline=None)
    def test_forward_distribution_property(self, seed, rows, k):
        model = nn.build_mlp(4, k, hidden=(6,), seed=seed % 1000)
        x = np.random.default_rng(seed).normal(size=(rows, 4))
        (p,) = nn.dropout_forwards(model, nn.last_hidden(model, x), 1, seed)
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
        det = nn.forward(copy.deepcopy(model), x, nn.Deterministic())
        trn = nn.forward(copy.deepcopy(model), x, nn.TrainBN())
        assert not np.allclose(det, trn)


class TestDropout:
    def test_mask_draw_keeps_and_scales_at_the_drawn_rate(self):
        """Over 200 000 units the kept fraction lies within 4 sigma of the keep
        probability the threshold draws, and the mean of ``h * mask / keep``
        within 4 sigma of the input's; a threshold of 0 keeps every unit."""
        threshold, keep = nn._keep_threshold(0.4)
        assert (threshold, keep) == (26214, 1.0 - 26214 / 65536)
        h = np.random.default_rng(0).uniform(0.5, 1.5, size=(500, 400))
        mask = nn._keep_mask(np.random.default_rng(1), h.shape, threshold)
        assert mask.shape == h.shape and mask.dtype == bool
        assert abs(mask.mean() - keep) <= 4.0 * math.sqrt(keep * (1.0 - keep) / h.size)
        sigma = math.sqrt((h**2).sum() * (1.0 - keep) / keep) / h.size
        assert abs((h * mask / keep).mean() - h.mean()) <= 4.0 * sigma
        assert nn._keep_threshold(0.0) == (0, 1.0)
        assert nn._keep_mask(np.random.default_rng(2), h.shape, 0).all()

    def test_zero_rate_members_are_the_deterministic_forward(self):
        """At rate 0 the mask threshold is 0 and the keep probability 1, so every
        member is bitwise the deterministic forward."""
        model, x = tiny_model(rate=0.0), batch()
        for member in nn.dropout_forwards(model, nn.last_hidden(model, x), 3, 4):
            assert_array_equal(member, nn.forward(model, x))

    @given(
        rate=st.sampled_from([0.0, 0.2, 0.4]) | st.floats(0.0, 0.99),
        hidden=st.sampled_from([(8,), (8, 8), (7, 5, 3)]),
        rows=st.integers(1, 9),
        n=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_generator_advances_by_the_same_words_at_every_rate(self, rate, hidden, rows, n, seed):
        """Each member draws one mask over the last hidden activation, its next
        ``ceil(size / 4)`` raw words at every rate, 0 included, so with the same
        seed a higher rate drops a superset of the units."""
        model = tiny_model(hidden=hidden, rate=rate)
        shared = nn.last_hidden(model, batch(seed=seed % 1000, rows=rows))
        rng, expected = np.random.default_rng(seed), np.random.default_rng(seed)
        list(nn.dropout_forwards(model, shared, n, rng))
        expected.bit_generator.random_raw(n * -(-shared.size // 4))
        assert rng.bit_generator.state == expected.bit_generator.state

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_members_check_the_activation_shape_but_not_its_values(self):
        """A member takes the last block's width, so a batch or a narrower
        activation is rejected; a non-finite activation, as a poisoned model's,
        gives non-finite members rather than an error."""
        model = tiny_model(hidden=(8, 6))
        for wrong in (batch(), np.ones((4, 8)), np.ones(6), np.ones((0, 6))):
            with pytest.raises(nn.EngineError, match="hidden activation"):
                list(nn.dropout_forwards(model, wrong, 2, 0))
        shared = np.full((4, 6), np.inf)
        assert not np.isfinite(np.stack(list(nn.dropout_forwards(model, shared, 2, 0)))).any()

    def test_rate_validation(self):
        with pytest.raises(nn.EngineError):
            tiny_model(rate=1.0)
        with pytest.raises(nn.EngineError):
            tiny_model(rate=-0.1)

    @pytest.mark.parametrize("rate", [1.0 - 1.0 / 131072, 0.999995, math.nextafter(1.0, 0.0)])
    def test_rate_whose_threshold_drops_every_unit_is_rejected(self, rate):
        """From 1 - 1/131072 on, ``round(rate * 65536)`` is 65536: every unit
        would drop, the keep probability would be 0, and every member NaN."""
        with pytest.raises(nn.EngineError, match=str(rate)):
            tiny_model(rate=rate)

    def test_highest_accepted_rate_keeps_some_units(self):
        rate = math.nextafter(1.0 - 1.0 / 131072, 0.0)
        threshold, keep = nn._keep_threshold(rate)
        assert (threshold, keep) == (nn.MASK_LEVELS - 1, 1.0 / nn.MASK_LEVELS)
        model = tiny_model(rate=rate)
        shared = nn.last_hidden(model, batch())
        assert np.all(np.isfinite(np.stack(list(nn.dropout_forwards(model, shared, 3, 0)))))

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
        assert_allclose(nn.entropy_loss(np.array([[0.25, 0.75]])), -(0.25 * math.log(0.25) + 0.75 * math.log(0.75)), rtol=1e-15)

    def test_cross_entropy_frozen_value(self):
        p = np.array([[0.25, 0.75]])
        assert_allclose(finite_differences.cross_entropy_loss(p, np.array([1])), -math.log(0.75), rtol=1e-15)

    def test_cross_entropy_floors_tiny_probabilities(self):
        p = np.array([[1.0, 0.0]])
        assert_allclose(finite_differences.cross_entropy_loss(p, np.array([1])), -math.log(1e-12), rtol=1e-12)

    def test_label_range_checked(self):
        p = np.full((2, 3), 1 / 3)
        with pytest.raises(nn.EngineError):
            finite_differences.cross_entropy_loss(p, np.array([0, 3]))

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
        analytic = nn.backward(copy.deepcopy(model), x, mode=mode)
        numeric = finite_differences.finite_difference_gradients(model, x, mode=mode)
        assert finite_differences.gradcheck_max_error(analytic, numeric) <= 1e-4

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_cross_entropy_gradients_match_finite_differences(self, mode):
        model = tiny_model(seed=4)
        x = kink_safe_batch(model, start_seed=5)
        y = np.random.default_rng(6).integers(0, 3, size=x.shape[0])
        analytic = nn.backward(copy.deepcopy(model), x, labels=y, mode=mode)
        numeric = finite_differences.finite_difference_gradients(model, x, labels=y, mode=mode)
        assert finite_differences.gradcheck_max_error(analytic, numeric) <= 1e-4

    def test_bn_only_mask_limits_parameters(self):
        model = tiny_model()
        grads = nn.backward(model, batch(), mode=nn.TrainBN(), trainable="bn")
        assert set(grads) == set(nn.resolve_trainable(model, "bn"))

    def test_bn_only_gradients_match_finite_differences(self):
        model = tiny_model(seed=9)
        x = kink_safe_batch(model, start_seed=10)
        analytic = nn.backward(copy.deepcopy(model), x, mode=nn.TrainBN(), trainable="bn")
        numeric = finite_differences.finite_difference_gradients(model, x, mode=nn.TrainBN(), trainable="bn")
        assert finite_differences.gradcheck_max_error(analytic, numeric) <= 1e-4

    def test_matched_soft_targets_give_zero_logit_gradient(self):
        """No learning signal when each row puts all its mass on its own label."""
        labels = np.array([3, 0, 4, 1])
        g = nn._cross_entropy_logit_grad(np.eye(5)[labels], labels)
        assert np.array_equal(g, np.zeros_like(g))

    @given(seed=st.integers(0, 2**31 - 1), rows=st.integers(1, 12), k=st.integers(2, 9))
    @settings(max_examples=40, deadline=None)
    def test_cross_entropy_logit_grad_is_bitwise_the_one_hot_difference(self, seed, rows, k):
        """Subtracting 1 at each label is the one-hot difference, because p - 0.0 is p."""
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(k), size=rows)
        y = rng.integers(0, k, size=rows)
        assert_array_equal(nn._cross_entropy_logit_grad(p, y), (p - np.eye(k)[y]) / rows)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"labels": np.array([0, 1, 2, 3, 0, 1])},
            {"labels": np.array([0, 1, -1, 2, 0, 1])},
            {"labels": np.array([0, 1])},
            {"trainable": "foo"},
        ],
        ids=["label-too-large", "label-negative", "label-count", "unknown-trainable"],
    )
    def test_rejected_call_leaves_running_statistics_untouched(self, kwargs):
        """The labels and the trainable mask are checked before the TrainBN forward;
        fancy indexing would otherwise wrap a label of -1 onto the last class."""
        model = tiny_model()
        before = state_bytes(model)
        with pytest.raises(nn.EngineError):
            nn.backward(model, batch(), mode=nn.TrainBN(), **kwargs)
        assert state_bytes(model) == before

    def test_oracle_takes_the_parameters_of_the_call_it_checks(self):
        def parameters(fn):
            return [(p.name, p.default) for p in inspect.signature(fn).parameters.values()]

        assert parameters(finite_differences.finite_difference_gradients) == parameters(nn.backward)

    def test_saturated_softmax_has_vanishing_entropy_gradient(self):
        model = tiny_model(seed=1)
        model.head.bias[...] = 0.0
        model.head.bias[0] = 40.0
        grads = nn.backward(model, batch())
        norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        assert norm < 1e-6

    def test_input_gradient_matches_finite_differences(self):
        model = tiny_model(seed=7)
        x = batch(seed=8)
        y = np.argmax(nn.forward(model, x), axis=1)
        dx = nn.input_gradient(model, x)
        fd = np.zeros_like(x)
        step = 1e-6
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                up, dn = x.copy(), x.copy()
                up[i, j] += step
                dn[i, j] -= step
                fd[i, j] = (
                    finite_differences.cross_entropy_loss(nn.forward(model, up), y)
                    - finite_differences.cross_entropy_loss(nn.forward(model, dn), y)
                ) / (2 * step)
        assert_allclose(dx, fd, rtol=1e-4, atol=1e-7)


    def test_relu_kink_margin_is_the_smallest_pre_relu_magnitude(self):
        model = tiny_model(seed=3, hidden=(8,))
        model.blocks[0].norm.beta[...] = np.linspace(-0.5, 0.5, 8)
        x = batch(seed=4)
        blk = model.blocks[0]
        z = x @ blk.dense.weights + blk.dense.bias
        xhat = (z - blk.norm.running_mean) / np.sqrt(blk.norm.running_var + nn.BN_EPS)
        pre = blk.norm.gamma * xhat + blk.norm.beta
        assert_allclose(finite_differences.relu_kink_margin(model, x), np.abs(pre).min(), rtol=1e-12)

    def test_tent_backward_caches_no_pre_relu_array(self, traced_peak):
        """The cached forward keeps ``xhat``, or in block 0 what rebuilds it, and
        a bool relu gate computed in the forward from the block output, so the
        pre-relu value is never kept."""
        model = nn.build_mlp(16, 10, hidden=(64, 64), seed=0)
        x = np.random.default_rng(1).normal(size=(256, 16))
        step = lambda: nn.backward(model, x, mode=nn.TrainBN(), trainable="bn")
        assert traced_peak(step) < 10 * 256 * 64 * 8

    def test_bn_backward_keeps_no_block_outputs(self, traced_peak):
        """With no weight gradient wanted, the cache keeps no block input but
        block 0's, which is the caller's batch, and not the head input, and
        backward frees each block's entry once used: a BN-only step at 256 rows
        peaks below six (256, 64) arrays."""
        model = nn.build_mlp(16, 10, hidden=(64, 64), seed=0)
        x = np.random.default_rng(1).normal(size=(256, 16))
        step = lambda: nn.backward(model, x, mode=nn.TrainBN(), trainable="bn")
        assert traced_peak(step) < 6 * 256 * 64 * 8

    def test_bn_only_backward_peaks_below_three_block_arrays(self, traced_peak):
        """Block 0 rebuilds ``xhat`` from the caller's batch instead of keeping
        it, and its activation goes once block 1's dense product exists. Backward
        drops the probabilities once d loss/d logits exists, that once the head's
        input gradient does, and each block's gradient once the next exists; it
        sums ``dz * xhat`` in 64-row blocks and writes ``xhat * dot`` into
        ``xhat``. So with the small ufunc buffer, a BN-only step at 256 rows
        holds at most two (256, 64) arrays, the gradient and an ``xhat``, besides
        the relu gates and the row-block buffer: it reads 2.68 arrays, under a
        bound of 2.8. Keeping a (256, 64) product temporary, and block 0's
        activation alive during block 1, reads 3.53."""
        model = nn.build_mlp(16, 10, hidden=(64, 64), seed=0)
        x = np.random.default_rng(1).normal(size=(256, 16))
        step = lambda: nn.backward(model, x, mode=nn.TrainBN(), trainable="bn")
        with nn.small_ufunc_buffer():
            assert traced_peak(step) < 2.8 * 256 * 64 * 8

    def test_bn_only_backward_frees_each_gate_once_applied(self, traced_peak):
        """At 64 rows the row-block buffer and the bool gates weigh as much as a
        gradient, so freeing block 1's gate once applied shows: with the small
        ufunc buffer a BN-only step reads 3.33 (64, 64) arrays, under a bound of
        3.4; keeping every gate to the end reads 3.46."""
        model = nn.build_mlp(16, 10, hidden=(64, 64), seed=0)
        x = np.random.default_rng(1).normal(size=(64, 16))
        step = lambda: nn.backward(model, x, mode=nn.TrainBN(), trainable="bn")
        with nn.small_ufunc_buffer():
            assert traced_peak(step) < 3.4 * 64 * 64 * 8

    def test_input_gradient_peaks_below_three_block_arrays(self, traced_peak):
        """No gradient of ``input_gradient`` reads block 0's ``xhat``, so it is
        never rebuilt, and block 0's activation goes once block 1's dense product
        exists: at 256 rows, with the small ufunc buffer, the call reads 2.67
        (256, 64) arrays, under a bound of 2.8. Keeping block 0's activation alive
        during block 1 reads 3.27."""
        model = nn.build_mlp(16, 10, hidden=(64, 64), seed=0)
        x = np.random.default_rng(1).normal(size=(256, 16))
        with nn.small_ufunc_buffer():
            assert traced_peak(lambda: nn.input_gradient(model, x)) < 2.8 * 256 * 64 * 8

    @given(
        rows=st.integers(1, 300),
        width=st.integers(1, 70),
        negative_zero_columns=st.integers(0, 3),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(rows=63, width=64, negative_zero_columns=2, seed=0)
    @example(rows=64, width=64, negative_zero_columns=2, seed=1)
    @example(rows=65, width=64, negative_zero_columns=2, seed=2)
    @example(rows=128, width=64, negative_zero_columns=2, seed=3)
    @example(rows=129, width=64, negative_zero_columns=2, seed=4)
    @example(rows=256, width=64, negative_zero_columns=2, seed=5)
    @example(rows=257, width=64, negative_zero_columns=2, seed=6)
    @example(rows=257, width=1, negative_zero_columns=0, seed=7)
    @settings(max_examples=100, deadline=None)
    def test_row_block_product_sums_are_bitwise_the_whole_ones(self, rows, width, negative_zero_columns, seed):
        """``_product_sums`` is bitwise ``np.multiply(a, b).sum(axis=0)`` at any
        row count, on values spread over 2**-30 to 2**30, also over columns whose
        products are all -0.0, where the first row block's sum must start as
        numpy's own sum does."""
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(rows, width)) * np.exp2(rng.integers(-30, 31, size=(rows, width)))
        b = rng.normal(size=(rows, width))
        cols = rng.choice(width, size=min(negative_zero_columns, width), replace=False)
        a[:, cols] = 0.0
        b[:, cols] = -1.0 - np.abs(b[:, cols])
        whole = np.multiply(a, b)
        assert np.all(whole[:, cols] == 0.0) and np.all(np.signbit(whole[:, cols]))
        assert nn._product_sums(a, b).tobytes() == whole.sum(axis=0).tobytes()

    @given(
        seed=st.integers(0, 2**31 - 1),
        rows=st.integers(1, 12),
        hidden=st.sampled_from([(8,), (8, 8)]),
        mode=st.sampled_from((nn.Deterministic(), nn.TrainBN())),
    )
    @settings(max_examples=40, deadline=None)
    def test_block_0_rebuilds_xhat_bitwise_from_the_callers_batch(self, seed, rows, hidden, mode):
        """Without ``keep_inputs``, block 0 keeps the caller's batch and the mean
        it subtracted in place of ``xhat``, and no later block keeps its input;
        the rebuilt ``xhat`` is bitwise the one that source training's cache,
        with ``keep_inputs``, keeps in every block."""
        model = tiny_model(seed=seed % 1000, hidden=hidden)
        x = np.random.default_rng(seed).normal(size=(rows, 5))
        lean = nn._forward_cached(copy.deepcopy(model), x, mode)
        kept = nn._forward_cached(copy.deepcopy(model), x, mode, keep_inputs=True)
        assert lean.blocks[0].xhat is None and lean.blocks[0].x_in is x
        assert all(bc.x_in is None and bc.mean is None for bc in lean.blocks[1:])
        assert all(bc.xhat is not None and bc.mean is None for bc in kept.blocks)
        assert_array_equal(lean.blocks[0].normalised(model.blocks[0].dense), kept.blocks[0].xhat)

    @given(
        seed=st.integers(0, 2**31 - 1),
        rows=st.integers(1, 12),
        hidden=st.sampled_from([(8,), (8, 8), (8, 8, 8)]),
        mode=st.sampled_from((nn.Deterministic(), nn.TrainBN())),
    )
    @settings(max_examples=40, deadline=None)
    def test_bn_only_gradients_are_bitwise_the_full_backward_ones(self, seed, rows, hidden, mode):
        """The BN-only backward stops after block 0's BN gradients; what it
        returns is bitwise the BN entries of the backward that goes on to the
        dense gradients below them."""
        model = tiny_model(seed=seed % 1000, hidden=hidden)
        x = np.random.default_rng(seed).normal(size=(rows, 5))
        bn = nn.backward(copy.deepcopy(model), x, mode=mode, trainable="bn")
        full = nn.backward(copy.deepcopy(model), x, mode=mode, trainable="all")
        assert set(bn) == set(nn.resolve_trainable(model, "bn"))
        for name, grad in bn.items():
            assert_array_equal(grad, full[name])

    @given(
        seed=st.integers(0, 2**31 - 1),
        rows=st.integers(1, 12),
        hidden=st.sampled_from([(8,), (8, 8)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_input_gradient_is_bitwise_the_full_backward_one(self, seed, rows, hidden):
        """Skipping the parameter gradients and taking the labels from backward's
        own forward leaves the input gradient's bits unchanged."""
        model = tiny_model(seed=seed % 1000, hidden=hidden)
        x = np.random.default_rng(seed).normal(size=(rows, 5))
        cache = nn._forward_cached(model, x, nn.Deterministic(), keep_inputs=True)
        labels = np.argmax(nn.forward(model, x), axis=1)
        wanted = set(nn.resolve_trainable(model, "all"))
        _, full = nn._backprop(model, cache, labels, wanted, False, True)
        assert_array_equal(nn.input_gradient(model, x), full)


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
        before = state_bytes(model)
        grads = nn.backward(model, batch(), mode=nn.Deterministic())
        nn.optimizer_step(model, grads, nn.OptimizerState(kind="adam", learning_rate=0.0))
        assert state_bytes(model) == before

    def test_adam_bias_correction_across_steps(self):
        model = nn.build_mlp(2, 2, hidden=(2,), seed=0)
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
    @pytest.mark.parametrize(
        "subset", ["bn", "all", ("head.bias", "blocks.0.norm.gamma")], ids=["bn", "all", "pair"]
    )
    def test_flat_update_matches_per_parameter_loop(self, subset, kind):
        """Steps over one fixed parameter set equal a per-parameter update loop."""
        model = tiny_model(seed=4)
        reference = copy.deepcopy(model)
        params = dict(nn.named_parameters(reference))
        names = nn.resolve_trainable(model, subset) if isinstance(subset, str) else subset
        state = nn.OptimizerState(kind=kind, learning_rate=0.01)
        lr, b1, b2, eps = state.learning_rate, nn.ADAM_BETA1, nn.ADAM_BETA2, nn.ADAM_EPS
        ref_m = {name: np.zeros_like(params[name]) for name in names}
        ref_v = {name: np.zeros_like(params[name]) for name in names}
        rng = np.random.default_rng(0)
        for t in range(1, 6):
            grads = {name: rng.normal(size=params[name].shape) for name in names}
            nn.optimizer_step(model, grads, state)
            for name, g in grads.items():
                p, m, v = params[name], ref_m[name], ref_v[name]
                if kind == "sgd":
                    p -= lr * g
                    continue
                m[...] = b1 * m + (1.0 - b1) * g
                v[...] = b2 * v + (1.0 - b2) * g * g
                p -= lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
            assert state_bytes(model) == state_bytes(reference), f"after step {t}"
        assert state.step == 5
        if kind == "sgd":
            assert state.m is None and state.v is None
        else:
            assert state.names == tuple(names)
            assert_array_equal(state.m, np.concatenate([ref_m[name] for name in names], axis=None))
            assert_array_equal(state.v, np.concatenate([ref_v[name] for name in names], axis=None))

    def test_adam_rejects_a_changed_parameter_set(self):
        model = tiny_model()
        state = nn.OptimizerState(kind="adam", learning_rate=0.01)
        nn.optimizer_step(model, nn.backward(model, batch(), trainable="bn"), state)
        before = state_bytes(model)
        with pytest.raises(nn.EngineError):
            nn.optimizer_step(model, {"head.bias": np.ones(3)}, state)
        assert state.step == 1 and state_bytes(model) == before

    def test_unknown_parameter_rejected(self):
        model = tiny_model()
        with pytest.raises(nn.EngineError):
            nn.optimizer_step(model, {"nope": np.zeros(3)}, nn.OptimizerState())


class TestCheckpoint:
    def test_named_state_lists_every_layer_array_once(self):
        model = tiny_model(hidden=(8, 4))
        layers = [layer for blk in model.blocks for layer in (blk.dense, blk.norm)] + [model.head]
        arrays = [a for layer in layers for a in vars(layer).values() if isinstance(a, np.ndarray)]
        listed = nn.named_state(model)
        assert len({name for name, _ in listed}) == len(listed)
        assert sorted(id(a) for _, a in listed) == sorted(id(a) for a in arrays)

    def test_adaptable_copy_shares_only_read_only_dense_and_head_arrays(self):
        """Every BN array is the copy's own and writable; a dense or head array is
        the source's own object where it is read-only and a copy where it is writable."""

        def layers(m):
            return [layer for blk in m.blocks for layer in (blk, blk.dense, blk.norm)] + [m.head]

        mixed = read_only(tiny_model(seed=2))
        mixed.head.bias = mixed.head.bias.copy()
        for source in (read_only(tiny_model()), tiny_model(), mixed):
            twin = nn.adaptable_copy(source)
            assert state_bytes(twin) == state_bytes(source)
            assert twin.dropout_rate == source.dropout_rate
            assert not any(a is b for a, b in zip(layers(twin), layers(source)))
            for (name, a), (_, s) in zip(nn.named_state(twin), nn.named_state(source)):
                shared = ".norm." not in name and not s.flags.writeable
                assert (a is s) == shared, name
                assert shared or (a.flags.writeable and not np.shares_memory(a, s)), name

    def test_adaptable_copy_allocates_the_bn_arrays_and_a_fixed_overhead(self, traced_peak):
        """On the benchmark's (64, 64) model of a 16-wide, 10-class task, an
        adaptable copy of a read-only checkpoint allocates its 4 KB of BN arrays
        and at most 4 KB of objects, not the 47 KB of dense and head arrays that
        a deep copy also allocates."""
        checkpoint = read_only(nn.build_mlp(16, 10, (64, 64)))
        bn_bytes = sum(a.nbytes for name, a in nn.named_state(checkpoint) if ".norm." in name)
        assert bn_bytes == 4096
        assert traced_peak(lambda: nn.adaptable_copy(checkpoint)) <= bn_bytes + 4096
        # the measure sees numpy's array buffers: a deep copy's peak holds every array
        every_array = sum(a.nbytes for _, a in nn.named_state(checkpoint))
        assert traced_peak(lambda: copy.deepcopy(checkpoint)) >= every_array


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

    def test_model_with_no_hidden_block_is_rejected(self):
        """Every model has a batchnorm layer for TENT to adapt and units for a
        dropout member to drop."""
        with pytest.raises(nn.EngineError, match="hidden block"):
            nn.build_mlp(4, 3, hidden=(), seed=0)
        head = nn.build_mlp(4, 3, hidden=(8,), seed=0).head
        with pytest.raises(nn.EngineError, match="hidden block"):
            nn.MlpModel(blocks=[], head=head, dropout_rate=0.4)
