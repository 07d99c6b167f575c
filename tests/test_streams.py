"""Dataset generation, source training gates, corruption algebra, stream shape."""

import hashlib
import json
import logging

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial.distance import pdist

from aetta import nn, streams


def small_spec(**overrides):
    base = dict(class_count=4, input_dim=6, samples_per_class=50, cluster_separation=4.0, seed=3)
    base.update(overrides)
    return streams.DatasetSpec(**base)


class TestDataset:
    def test_same_seed_is_bitwise_identical(self):
        a_train, a_hold = streams.make_source_dataset(small_spec())
        b_train, b_hold = streams.make_source_dataset(small_spec())
        assert np.array_equal(a_train.features, b_train.features)
        assert np.array_equal(a_train.labels, b_train.labels)
        assert np.array_equal(a_hold.features, b_hold.features)

    def test_holdout_and_train_are_disjoint(self):
        train, hold = streams.make_source_dataset(small_spec())
        train_rows = {row.tobytes() for row in train.features}
        assert not any(row.tobytes() in train_rows for row in hold.features)

    def test_class_counts_preserved(self):
        spec = small_spec()
        train, hold = streams.make_source_dataset(spec)
        for k in range(spec.class_count):
            total = int(np.sum(train.labels == k)) + int(np.sum(hold.labels == k))
            assert total == spec.samples_per_class

    def test_label_noise_flips_expected_fraction(self):
        clean_train, _ = streams.make_source_dataset(small_spec(samples_per_class=500))
        noisy_train, _ = streams.make_source_dataset(small_spec(samples_per_class=500, label_noise=0.1))
        assert np.array_equal(clean_train.features, noisy_train.features)
        flipped = float(np.mean(clean_train.labels != noisy_train.labels))
        n = len(clean_train)
        assert abs(flipped - 0.1) <= 3.0 * np.sqrt(0.1 * 0.9 / n)

    def test_spec_validation(self):
        with pytest.raises(streams.StreamError):
            streams.DatasetSpec(class_count=1)
        with pytest.raises(streams.StreamError):
            streams.DatasetSpec(input_dim=1)
        with pytest.raises(streams.StreamError):
            streams.DatasetSpec(cluster_separation=0.0)
        with pytest.raises(streams.StreamError):
            streams.DatasetSpec(label_noise=1.0)

    def test_means_are_orthogonal_when_dims_allow(self):
        spec = small_spec(cluster_separation=2.0)
        m = streams.class_means(spec)
        gram = m @ m.T
        assert_allclose(gram, 4.0 * np.eye(spec.class_count), atol=1e-9)


# sha256 of the checkpoint JSON of the default (64, 64) model after 2 epochs, by seed
PINNED_WEIGHTS = {
    0: "23078001465b6f065110f275269ff76199ff3346ae866c0d4afa051901e5fceb",
    1: "917ef553cb63c9b41f9bf51f87cd9f5cf684735305ce87d09528ea75dfded94a",
}


class TestTraining:
    def test_zero_epochs_returns_initialization(self):
        train, _ = streams.make_source_dataset(small_spec())
        model, checkpoint = streams.train_source_model(train, architecture=(8,), epochs=0, seed=5)
        fresh = nn.build_mlp(train.features.shape[1], 4, hidden=(8,), seed=5)
        assert json.dumps(nn.model_to_dict(model)) == json.dumps(nn.model_to_dict(fresh))
        assert json.dumps(nn.model_to_dict(checkpoint)) == json.dumps(nn.model_to_dict(model))

    @pytest.mark.parametrize("seed", sorted(PINNED_WEIGHTS))
    def test_default_architecture_weights_are_pinned(self, seed):
        """Two stacked TrainBN blocks trained with Adam keep their exact bits."""
        train, _ = streams.make_source_dataset(streams.DatasetSpec())
        model, _ = streams.train_source_model(train, architecture=(64, 64), epochs=2, seed=seed)
        digest = hashlib.sha256(json.dumps(nn.model_to_dict(model)).encode()).hexdigest()
        assert digest == PINNED_WEIGHTS[seed]

    def test_different_seeds_give_different_models(self):
        train, _ = streams.make_source_dataset(small_spec())
        a, _ = streams.train_source_model(train, epochs=1, seed=0)
        b, _ = streams.train_source_model(train, epochs=1, seed=1)
        assert not np.array_equal(a.head.weights, b.head.weights)

    def test_wide_margin_binary_task_is_linearly_separable(self):
        spec = streams.DatasetSpec(
            class_count=2, input_dim=4, samples_per_class=100, cluster_separation=50.0, seed=1
        )
        train, _ = streams.make_source_dataset(spec)
        model, _ = streams.train_source_model(
            train, architecture=(), epochs=30, seed=0, learning_rate=0.05
        )
        preds = np.argmax(nn.forward(model, train.features), axis=1)
        assert float(np.mean(preds == train.labels)) >= 0.99

    def test_default_task_meets_holdout_gate(self):
        """Frozen empirical gate: the stock task trains to >= 0.90 holdout accuracy."""
        for seed in (0, 1, 2):
            task = streams.prepared_task(streams.DatasetSpec(), train_seed=seed)
            preds = np.argmax(nn.forward(task.model, task.holdout.features), axis=1)
            assert float(np.mean(preds == task.holdout.labels)) >= 0.90

    def test_missed_gate_warns_but_returns(self, caplog):
        train, _ = streams.make_source_dataset(small_spec())
        with caplog.at_level(logging.WARNING, logger="aetta.streams"):
            model, _ = streams.train_source_model(train, epochs=1, seed=0, accuracy_gate=1.0)
        assert model is not None
        assert any("below gate" in r.message for r in caplog.records)


class TestCorrupt:
    def pool(self):
        _, hold = streams.make_source_dataset(small_spec())
        return hold.features

    def test_severity_zero_is_identity(self):
        x = self.pool()
        for kind in streams.CORRUPTION_KINDS:
            out = streams.corrupt(x, streams.CorruptionSpec(kind=kind, severity=0, seed=9))
            assert np.array_equal(out, x)
            assert out is not x

    def test_same_seed_reproduces(self):
        x = self.pool()
        spec = streams.CorruptionSpec(kind="gaussian_noise", severity=5, seed=21)
        assert np.array_equal(streams.corrupt(x, spec), streams.corrupt(x, spec))

    def test_rotation_preserves_pairwise_distances(self):
        x = self.pool()
        out = streams.corrupt(x, streams.CorruptionSpec(kind="rotation", severity=4, seed=2))
        assert_allclose(pdist(out), pdist(x), atol=1e-9)

    def test_rotation_matrix_is_orthogonal_at_all_severities(self):
        for sev in range(6):
            r = streams.rotation_matrix(6, sev, seed=4)
            assert_allclose(r @ r.T, np.eye(6), atol=1e-12)

    def test_scaling_factors_within_declared_band(self):
        x = self.pool()
        sev = 3
        out = streams.corrupt(x, streams.CorruptionSpec(kind="scaling", severity=sev, seed=5))
        # recover the per-dimension factor from the largest-magnitude entry
        rows = np.argmax(np.abs(x), axis=0)
        cols = np.arange(x.shape[1])
        factors = out[rows, cols] / x[rows, cols]
        spread = 0.15 * sev
        assert np.all(factors >= 1.0 - spread - 1e-12)
        assert np.all(factors <= 1.0 + spread + 1e-12)
        assert_allclose(out, x * factors, rtol=1e-9, atol=1e-12)

    def test_mean_shift_is_constant_offset_of_known_norm(self):
        x = self.pool()
        sev, scale = 4, 1.7
        out = streams.corrupt(x, streams.CorruptionSpec(kind="mean_shift", severity=sev, seed=6), scale)
        delta = out - x
        assert_allclose(delta, np.broadcast_to(delta[0], delta.shape), rtol=0, atol=1e-12)
        assert_allclose(np.linalg.norm(delta[0]), 0.25 * sev * scale, rtol=1e-12)

    def test_gaussian_noise_magnitude(self):
        x = np.zeros((400, 6))
        sev, scale = 5, 1.3
        out = streams.corrupt(x, streams.CorruptionSpec(kind="gaussian_noise", severity=sev, seed=8), scale)
        sigma = 0.2 * sev * scale
        measured = out.std()
        n = out.size
        assert abs(measured - sigma) <= 4.0 * sigma / np.sqrt(2 * n)

    def test_mixup_is_the_documented_chain(self):
        x = self.pool()
        scale = 1.1
        spec = streams.CorruptionSpec(kind="mixup", severity=3, seed=30)
        expected = x
        for i, kind in enumerate(("rotation", "scaling", "mean_shift", "gaussian_noise")):
            expected = streams.corrupt(
                expected, streams.CorruptionSpec(kind=kind, severity=3, seed=31 + i), scale
            )
        assert np.array_equal(streams.corrupt(x, spec, scale), expected)

    def test_validation(self):
        with pytest.raises(streams.StreamError):
            streams.CorruptionSpec(kind="fog", severity=3)
        with pytest.raises(streams.StreamError):
            streams.CorruptionSpec(kind="rotation", severity=6)
        with pytest.raises(streams.StreamError):
            streams.corrupt(np.zeros((0, 3)), streams.CorruptionSpec(kind="rotation", severity=1))

    def test_source_model_degrades_monotonically_with_noise(self):
        """Frozen empirical gate: severity tracks accuracy, one inversion tolerated."""
        for seed in (0, 1, 2):
            task = streams.prepared_task(streams.DatasetSpec(), train_seed=seed)
            scale = float(task.holdout.features.std())
            accs = []
            for sev in range(6):
                spec = streams.CorruptionSpec(kind="gaussian_noise", severity=sev, seed=40)
                x = streams.corrupt(task.holdout.features, spec, feature_scale=scale)
                preds = np.argmax(nn.forward(task.model, x), axis=1)
                accs.append(float(np.mean(preds == task.holdout.labels)))
            inversions = sum(1 for a, b in zip(accs, accs[1:]) if b > a + 1e-12)
            assert inversions <= 1, accs


class TestMakeStream:
    def pool(self):
        _, hold = streams.make_source_dataset(streams.DatasetSpec(samples_per_class=120, seed=2))
        return hold

    def test_continual_shape_and_boundaries(self):
        pool = self.pool()
        scenario = streams.Continual(schedule=streams.default_continual_schedule(), batches_per_segment=2)
        stream = streams.make_stream(scenario, pool, batch_size=32, seed=1)
        assert len(stream) == 30
        boundaries = [b.batch_index for b in stream if b.at_boundary]
        assert len(boundaries) == 15
        assert boundaries == [2 * i for i in range(15)]
        assert all(b.features.shape == (32, pool.features.shape[1]) for b in stream)
        assert [b.batch_index for b in stream] == list(range(30))

    def test_same_seed_identical_stream(self):
        pool = self.pool()
        scenario = streams.Continual(schedule=streams.default_continual_schedule(), batches_per_segment=1)
        a = streams.make_stream(scenario, pool, batch_size=16, seed=5)
        b = streams.make_stream(scenario, pool, batch_size=16, seed=5)
        for x, y in zip(a, b):
            assert np.array_equal(x.features, y.features)
            assert np.array_equal(x.hidden_labels, y.hidden_labels)

    def test_within_segment_sampling_has_no_repeats(self):
        pool = self.pool()
        scenario = streams.Fully(streams.CorruptionSpec(kind="rotation", severity=0, seed=0), n_batches=3)
        stream = streams.make_stream(scenario, pool, batch_size=16, seed=3)
        rows = np.concatenate([b.features for b in stream])
        assert len({r.tobytes() for r in rows}) == rows.shape[0]

    def test_identity_stream_rows_keep_their_labels(self):
        pool = self.pool()
        scenario = streams.Fully(streams.CorruptionSpec(kind="scaling", severity=0, seed=0))
        stream = streams.make_stream(scenario, pool, batch_size=16, seed=7)
        lookup = {row.tobytes(): int(label) for row, label in zip(pool.features, pool.labels)}
        for b in stream:
            for row, label in zip(b.features, b.hidden_labels):
                assert lookup[row.tobytes()] == int(label)

    def test_pool_exhaustion_is_an_error(self):
        pool = self.pool()
        scenario = streams.Continual(
            schedule=streams.default_continual_schedule(), batches_per_segment=100
        )
        with pytest.raises(streams.StreamError):
            streams.make_stream(scenario, pool, batch_size=64, seed=0)

    def test_schedules(self):
        default = streams.default_continual_schedule(seed=4)
        assert len(default) == 15
        assert [c.severity for c in default[:6]] == [5, 4, 3, 5, 4, 3]
        assert all(a.kind != b.kind for a, b in zip(default, default[1:]))
        collapse = streams.collapse_schedule(seed=4)
        assert len(collapse) == 15
        assert all(c.severity == 5 for c in collapse)