"""Dataset generation, source training gates, corruption algebra, stream shape."""

import copy
import hashlib
import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from aetta import nn, streams, tta


def pairwise_distances(x):
    """Euclidean distance of every row pair i < j, in row-major pair order."""
    i, j = np.triu_indices(x.shape[0], k=1)
    return np.linalg.norm(x[i] - x[j], axis=1)


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

    def test_spec_validation(self):
        with pytest.raises(streams.StreamError):
            streams.DatasetSpec(class_count=1)
        with pytest.raises(streams.StreamError):
            streams.DatasetSpec(input_dim=1)
        with pytest.raises(streams.StreamError):
            streams.DatasetSpec(cluster_separation=0.0)

    def test_negative_seed_is_rejected(self):
        with pytest.raises(streams.StreamError, match="seed"):
            streams.DatasetSpec(seed=-1)

    def test_means_are_orthogonal_when_dims_allow(self):
        spec = small_spec(cluster_separation=2.0)
        m = streams.class_means(spec)
        gram = m @ m.T
        assert_allclose(gram, 4.0 * np.eye(spec.class_count), atol=1e-9)


def state_bytes(model):
    """Every array of the model, running statistics included, joined in ``named_state`` order."""
    return b"".join(arr.tobytes() for _, arr in nn.named_state(model))


# sha256 of state_bytes of the default (64, 64) model after 2 epochs, by seed
PINNED_WEIGHTS = {
    0: "b2cbbe32db715cf1cb5c8f2be0e173b491415d5c11118c1812dd66c34c5e14be",
    1: "ce67d82e5a8ba987c2e5aad66eec3a6a92b24e9282f212bffdd38492a18b857e",
}


class TestTraining:
    def test_zero_epochs_returns_initialization(self):
        train, _ = streams.make_source_dataset(small_spec())
        model = streams.train_source_model(train, architecture=(8,), epochs=0, seed=5)
        fresh = nn.build_mlp(train.features.shape[1], 4, hidden=(8,), seed=5)
        assert state_bytes(model) == state_bytes(fresh)

    def test_split_smaller_than_one_batch_is_rejected(self):
        """Fewer rows than ``SOURCE_BATCH_SIZE`` make no batch, so the epochs
        would take no optimizer step and return the initial weights."""
        train, _ = streams.make_source_dataset(small_spec(class_count=2, samples_per_class=20))
        assert len(train) < streams.SOURCE_BATCH_SIZE
        with pytest.raises(streams.StreamError, match=f"{len(train)} training rows .* one {streams.SOURCE_BATCH_SIZE}-row batch"):
            streams.train_source_model(train, architecture=(8,), epochs=30, seed=0)
        model = streams.train_source_model(train, architecture=(8,), epochs=0, seed=0)
        assert state_bytes(model) == state_bytes(nn.build_mlp(train.features.shape[1], 2, hidden=(8,), seed=0))

    @pytest.mark.parametrize("seed", sorted(PINNED_WEIGHTS))
    def test_default_architecture_weights_are_pinned(self, seed):
        """Two stacked TrainBN blocks trained with Adam keep their exact bits."""
        train, _ = streams.make_source_dataset(streams.DatasetSpec())
        model = streams.train_source_model(train, architecture=(64, 64), epochs=2, seed=seed)
        digest = hashlib.sha256(state_bytes(model)).hexdigest()
        assert digest == PINNED_WEIGHTS[seed]

    def test_different_seeds_give_different_models(self):
        train, _ = streams.make_source_dataset(small_spec())
        a = streams.train_source_model(train, architecture=(64, 64), epochs=1, seed=0)
        b = streams.train_source_model(train, architecture=(64, 64), epochs=1, seed=1)
        assert not np.array_equal(a.head.weights, b.head.weights)

    def test_wide_margin_binary_task_is_linearly_separable(self, monkeypatch):
        monkeypatch.setattr(streams, "SOURCE_LEARNING_RATE", 0.05)
        spec = streams.DatasetSpec(
            class_count=2, input_dim=4, samples_per_class=100, cluster_separation=50.0, seed=1
        )
        train, _ = streams.make_source_dataset(spec)
        model = streams.train_source_model(train, architecture=(4,), epochs=30, seed=0)
        preds = np.argmax(nn.forward(model, train.features), axis=1)
        assert float(np.mean(preds == train.labels)) >= 0.99

    def test_default_task_meets_holdout_gate(self):
        """Frozen empirical gate: the stock task trains to >= 0.90 holdout accuracy."""
        for seed in (0, 1, 2):
            task = streams.prepared_task(streams.DatasetSpec(), architecture=(64, 64), epochs=30, train_seed=seed)
            preds = np.argmax(nn.forward(task.checkpoint, task.holdout.features), axis=1)
            assert float(np.mean(preds == task.holdout.labels)) >= 0.90

    def test_training_runs_with_the_small_ufunc_buffer_and_restores_the_callers(
        self, monkeypatch, caller_ufunc_buffer
    ):
        """Every training step and the accuracy gate run with numpy's ufunc buffer
        at ``nn.UFUNC_BUFFER_ELEMENTS``; the caller's size is back afterwards, also
        when the gate raises."""
        train, _ = streams.make_source_dataset(small_spec())
        seen = []
        step = nn.optimizer_step

        def recording_step(model, grads, state):
            seen.append(np.getbufsize())
            step(model, grads, state)

        def raising_gate(model, x, labels):
            seen.append(np.getbufsize())
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(nn, "optimizer_step", recording_step)
        streams.train_source_model(train, architecture=(8,), epochs=1, seed=0)
        assert len(seen) == len(train) // streams.SOURCE_BATCH_SIZE
        assert np.getbufsize() == caller_ufunc_buffer
        monkeypatch.setattr(nn, "accuracy", raising_gate)
        with pytest.raises(RuntimeError, match="synthetic failure"):
            streams.train_source_model(train, architecture=(8,), epochs=1, seed=0)
        assert set(seen) == {nn.UFUNC_BUFFER_ELEMENTS}
        assert np.getbufsize() == caller_ufunc_buffer

    def test_missed_gate_warns_but_returns(self, caplog, monkeypatch):
        monkeypatch.setattr(streams, "ACCURACY_GATE", 1.0)
        train, _ = streams.make_source_dataset(small_spec())
        with caplog.at_level(logging.WARNING, logger="aetta.streams"):
            model = streams.train_source_model(train, architecture=(64, 64), epochs=1, seed=0)
        assert model is not None
        assert any("below gate" in r.message for r in caplog.records)


class TestPreparedTask:
    def task(self):
        return streams.prepared_task(small_spec(), architecture=(8,), epochs=1, train_seed=0)

    def test_checkpoint_is_shared_and_read_only(self):
        task, again = self.task(), self.task()
        assert again.checkpoint is task.checkpoint
        with pytest.raises(ValueError):
            task.checkpoint.head.bias[0] = 1.0
        twin = copy.deepcopy(task.checkpoint)
        assert all(arr.flags.writeable for _, arr in nn.named_state(twin))
        twin.head.bias[0] = 1.0

    def test_feature_range_is_taken_once_and_read_only(self):
        """The per-feature range AdvPerturb scales its step by is bitwise the
        split's max minus its min, one array for every seed, and no caller can
        write into it."""
        train = self.task().train
        spread = train.feature_range
        assert spread.tobytes() == (train.features.max(axis=0) - train.features.min(axis=0)).tobytes()
        assert train.feature_range is spread
        with pytest.raises(ValueError):
            spread[0] = 1.0

    def test_one_spec_shares_one_read_only_dataset(self, monkeypatch):
        """Seeds of one spec train on the same split objects, and the pinned
        weights come out of them unchanged."""
        monkeypatch.setattr(streams, "_TASK_CACHE", {})
        spec = streams.DatasetSpec()
        tasks = {seed: streams.prepared_task(spec, (64, 64), epochs=2, train_seed=seed) for seed in PINNED_WEIGHTS}
        first, second = tasks.values()
        assert second.train is first.train and second.holdout is first.holdout
        for split in (first.train, first.holdout):
            for arr in (split.features, split.labels):
                with pytest.raises(ValueError):
                    arr[0] = 1
        for seed, task in tasks.items():
            assert hashlib.sha256(state_bytes(task.checkpoint)).hexdigest() == PINNED_WEIGHTS[seed]
        other = streams.prepared_task(small_spec(), (8,), epochs=0, train_seed=0)
        assert other.train is not first.train and other.holdout is not first.holdout
        # an emptied cache drops the data too, so the next call builds it again
        streams._TASK_CACHE.clear()
        cold = streams.prepared_task(spec, (64, 64), epochs=2, train_seed=0)
        assert cold.train is not first.train
        assert np.array_equal(cold.train.features, first.train.features)

    def test_reset_from_the_read_only_checkpoint_is_bitwise(self):
        task = self.task()
        model = copy.deepcopy(task.checkpoint)
        for _, arr in nn.named_state(model):
            arr += 0.5
        optimizer = nn.OptimizerState(kind="adam", learning_rate=1e-3)
        restored, _ = tta.apply_reset(optimizer, task.checkpoint)
        assert state_bytes(restored) == state_bytes(task.checkpoint) != state_bytes(model)


@st.composite
def planar_rotations(draw):
    """A random orthogonal Q of dimension 2..16 and one angle in [0, 3*pi] per 2x2 block."""
    dim = draw(st.integers(2, 16))
    thetas = draw(st.lists(st.floats(0.0, 3.0 * np.pi), min_size=dim // 2, max_size=dim // 2))
    seed = draw(st.integers(0, 2**32 - 1))
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(dim, dim)))
    return q * np.sign(np.diag(r)), np.array(thetas)


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
        assert_allclose(pairwise_distances(out), pairwise_distances(x), atol=1e-9)

    def test_rotation_matrix_is_orthogonal_at_all_severities(self):
        for dim, seed in [(6, 4)] + [(16, seed) for seed in range(8)]:
            for sev in range(6):
                r = streams.rotation_matrix(dim, sev, seed=seed)
                assert_allclose(r @ r.T, np.eye(dim), rtol=0, atol=1e-12)
                assert abs(np.linalg.det(r) - 1.0) <= 1e-12

    def test_rotation_matrix_at_severity_zero_is_exactly_identity(self):
        for dim in (2, 3, 16):
            for seed in range(4):
                assert np.array_equal(streams.rotation_matrix(dim, 0, seed), np.eye(dim))

    @given(planar_rotations())
    @example((np.eye(2), np.zeros(1)))  # zero matrix, where sin(t)/t is its limit 1
    @example((np.eye(16), np.full(8, 3.0 * np.pi)))  # every angle 3*pi, past a full turn
    def test_expm_of_planar_rotation_generators(self, case):
        """exp(Q blockdiag(t_k J) Q^T) = Q blockdiag(R(t_k)) Q^T, at angles from 0,
        where sin(t)/t is its limit, to 3*pi, past the full turns where sin(t) is 0."""
        q, thetas = case
        generator = np.zeros_like(q)
        expected = np.eye(q.shape[0])
        for k, t in enumerate(thetas):
            i = 2 * k
            generator[i, i + 1], generator[i + 1, i] = -t, t
            expected[i : i + 2, i : i + 2] = [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]
        got = streams._skew_expm(q @ generator @ q.T)
        assert_allclose(got, q @ expected @ q.T, rtol=0, atol=1e-13)

    def test_expm_matches_scipy_on_rotation_generators(self):
        linalg = pytest.importorskip("scipy.linalg")
        for dim in (3, 6, 16):
            for seed in range(20):
                g = np.random.default_rng(seed).normal(size=(dim, dim))
                skew = (g - g.T) / 2.0
                skew *= (np.pi / 2.0) / np.linalg.norm(skew, 2)
                for sev in range(1, 6):
                    a = (sev / 5.0) * skew
                    assert_allclose(streams._skew_expm(a), linalg.expm(a), rtol=0, atol=1e-14)

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

    @settings(max_examples=80, deadline=None)
    @example(kind="rotation", severity=5, seed=0, dim=64, batch_size=15, n_batches=5)
    @example(kind="mixup", severity=4, seed=9, dim=16, batch_size=1, n_batches=4)
    @example(kind="gaussian_noise", severity=5, seed=3, dim=16, batch_size=1, n_batches=3)
    @given(
        kind=st.sampled_from(streams.CORRUPTION_KINDS),
        severity=st.integers(0, 5),
        seed=st.integers(0, 2**16),
        dim=st.sampled_from([2, 16, 64]),
        batch_size=st.integers(1, 70),
        n_batches=st.integers(1, 5),
    )
    def test_batches_joined_are_the_corrupted_segment(self, kind, severity, seed, dim, batch_size, n_batches):
        """One ``corrupter`` applied batch by batch, joined, is ``corrupt`` of the
        segment's rows: bitwise, but for BLAS rounding a rotated row differently
        at another row count, within 1e-14 of the largest value."""
        spec = streams.CorruptionSpec(kind=kind, severity=severity, seed=seed)
        x = np.random.default_rng(seed).normal(size=(batch_size * n_batches, dim))
        apply = streams.corrupter(spec, dim, 1.3)
        joined = np.concatenate([apply(x[i : i + batch_size]) for i in range(0, x.shape[0], batch_size)])
        whole = streams.corrupt(x, spec, 1.3)
        if severity > 0 and kind in ("rotation", "mixup"):
            assert np.abs(joined - whole).max() <= 1e-14 * np.abs(whole).max()
        else:
            assert np.array_equal(joined, whole)

    def test_validation(self):
        with pytest.raises(streams.StreamError):
            streams.CorruptionSpec(kind="fog", severity=3)
        with pytest.raises(streams.StreamError):
            streams.CorruptionSpec(kind="rotation", severity=6)
        with pytest.raises(streams.StreamError):
            streams.corrupt(np.zeros((0, 3)), streams.CorruptionSpec(kind="rotation", severity=1))

    def test_negative_seed_is_rejected(self):
        with pytest.raises(streams.StreamError, match="seed"):
            streams.CorruptionSpec(kind="rotation", severity=1, seed=-1)

    def test_source_model_degrades_monotonically_with_noise(self):
        """Frozen empirical gate: severity tracks accuracy, one inversion tolerated."""
        for seed in (0, 1, 2):
            task = streams.prepared_task(streams.DatasetSpec(), architecture=(64, 64), epochs=30, train_seed=seed)
            scale = float(task.holdout.features.std())
            accs = []
            for sev in range(6):
                spec = streams.CorruptionSpec(kind="gaussian_noise", severity=sev, seed=40)
                x = streams.corrupt(task.holdout.features, spec, feature_scale=scale)
                preds = np.argmax(nn.forward(task.checkpoint, x), axis=1)
                accs.append(float(np.mean(preds == task.holdout.labels)))
            inversions = sum(1 for a, b in zip(accs, accs[1:]) if b > a + 1e-12)
            assert inversions <= 1, accs


def stream_digest(stream):
    """sha256 over each batch's features, hidden labels, corruption, severity,
    index, segment and boundary flag, in stream order. The segment is counted
    from the boundary flags."""
    h = hashlib.sha256()
    segment = -1
    for b in stream:
        segment += b.at_boundary
        h.update(repr((b.features.shape, b.features.dtype.str, b.hidden_labels.dtype.str)).encode())
        h.update(b.features.tobytes())
        h.update(b.hidden_labels.tobytes())
        h.update(repr((b.corruption_id, b.severity, b.batch_index, segment, b.at_boundary)).encode())
    return h.hexdigest()


def continual(batches_per_segment, seed=0):
    """The continual scenario's segments, each ``batches_per_segment`` batches long."""
    return [(c, batches_per_segment) for c in streams.continual_schedule(seed, (5, 4, 3))]


# stream_digest of the continual and the one-segment stream in test_stream_bytes_are_pinned.
# Recorded again when the rotation's exponential moved from a Pade approximant to
# the closed form streams._skew_expm: only rotation-bearing features changed (8 of
# the 30 continual batches and all 15 mixup ones), by at most 8.2e-15.
PINNED_STREAMS = (
    "412ae7f4ba7205a1fed275579cdb0ad40d842f58e9d8a26eea31fae10fdad276",
    "0f0eaa0866a76cd4504190698e108c1c75338cfcfdeb6487d273f0c344542334",
)


class TestMakeStream:
    def pool(self):
        _, hold = streams.make_source_dataset(streams.DatasetSpec(samples_per_class=120, seed=2))
        return hold

    def test_continual_shape_and_boundaries(self):
        pool = self.pool()
        stream = tuple(streams.make_stream(continual(2), pool, batch_size=32, seed=1))
        assert len(stream) == 30
        boundaries = [b.batch_index for b in stream if b.at_boundary]
        assert len(boundaries) == 15
        assert boundaries == [2 * i for i in range(15)]
        assert all(b.features.shape == (32, pool.features.shape[1]) for b in stream)
        assert [b.batch_index for b in stream] == list(range(30))

    def test_same_seed_identical_stream(self):
        pool = self.pool()
        a = streams.make_stream(continual(1), pool, batch_size=16, seed=5)
        b = streams.make_stream(continual(1), pool, batch_size=16, seed=5)
        for x, y in zip(a, b):
            assert np.array_equal(x.features, y.features)
            assert np.array_equal(x.hidden_labels, y.hidden_labels)

    def test_within_segment_sampling_has_no_repeats(self):
        pool = self.pool()
        segments = [(streams.CorruptionSpec(kind="rotation", severity=0, seed=0), 3)]
        stream = streams.make_stream(segments, pool, batch_size=16, seed=3)
        rows = np.concatenate([b.features for b in stream])
        assert len({r.tobytes() for r in rows}) == rows.shape[0]

    def test_identity_stream_rows_keep_their_labels(self):
        pool = self.pool()
        segments = [(streams.CorruptionSpec(kind="scaling", severity=0, seed=0), len(pool) // 16)]
        stream = streams.make_stream(segments, pool, batch_size=16, seed=7)
        lookup = {row.tobytes(): int(label) for row, label in zip(pool.features, pool.labels)}
        for b in stream:
            for row, label in zip(b.features, b.hidden_labels):
                assert lookup[row.tobytes()] == int(label)

    def test_stream_bytes_are_pinned(self):
        """Every field of every batch of a continual and a one-segment stream keeps
        its pinned bytes: building each segment on demand changes none."""
        pool = self.pool()
        one_segment = [(streams.CorruptionSpec(kind="mixup", severity=4, seed=9), len(pool) // 16)]
        assert stream_digest(streams.make_stream(continual(2, seed=3), pool, batch_size=32, seed=1)) == PINNED_STREAMS[0]
        assert stream_digest(streams.make_stream(one_segment, pool, batch_size=16, seed=2)) == PINNED_STREAMS[1]

    def test_batches_are_corrupted_when_pulled(self, monkeypatch):
        built, applied = [], []
        real = streams.corrupter

        def counting(spec, dim, scale):
            built.append(spec)
            apply = real(spec, dim, scale)
            return lambda rows: applied.append(rows.shape[0]) or apply(rows)

        monkeypatch.setattr(streams, "corrupter", counting)
        stream = streams.make_stream(continual(3), self.pool(), batch_size=16, seed=0)
        assert built == [] and applied == []
        seen = [(len(built), len(applied)) for _ in stream]
        assert seen == [(i // 3 + 1, i + 1) for i in range(45)]
        assert applied == [16] * 45

    def test_pulled_stream_holds_one_batch(self, traced_peak):
        """Pulled one batch at a time, each dropped before the next pull, a
        15-segment stream peaks while it corrupts one batch: its source rows, a
        noise draw and its scaled copy, with the segment's row indices, where
        one segment is eight batches. The streams are made untraced, since the
        first ``make_stream`` on a new pool takes the std of the whole pool."""
        _, pool = streams.make_source_dataset(streams.DatasetSpec())
        batch_bytes = 64 * pool.features.shape[1] * 8
        made = iter([streams.make_stream(continual(8), pool, batch_size=64, seed=0) for _ in range(2)])

        def pull():
            stream = next(made)
            for _ in range(15 * 8):
                next(stream)

        assert traced_peak(pull) < 5 * batch_bytes

    def test_making_a_stream_on_a_warm_task_allocates_no_pool_sized_array(self, monkeypatch):
        """The pool's std is taken once per dataset, when ``prepared_task`` makes
        it, so even the first ``make_stream`` call on a task checks its segments
        and returns; a std of the 1200 x 16 pool allocated 154 KB on every call."""
        monkeypatch.setattr(streams, "_TASK_CACHE", {})
        task = streams.prepared_task(streams.DatasetSpec(), architecture=(8,), epochs=0, train_seed=0)
        tracemalloc.start()
        try:
            streams.make_stream(continual(4), task.holdout, batch_size=64, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024
        assert task.holdout.feature_std == float(task.holdout.features.std())

    def test_pool_exhaustion_is_an_error(self):
        pool = self.pool()
        with pytest.raises(streams.StreamError):
            streams.make_stream(continual(100), pool, batch_size=64, seed=0)
        # a fully stream over a pool smaller than one batch asks for len(pool) // batch_size == 0 batches
        with pytest.raises(streams.StreamError, match="no batches"):
            streams.make_stream([(streams.CorruptionSpec(kind="rotation", severity=1), 0)], pool, batch_size=64, seed=0)

    def test_schedules(self):
        default = streams.continual_schedule(4, (5, 4, 3))
        assert len(default) == 15
        assert [c.severity for c in default[:6]] == [5, 4, 3, 5, 4, 3]
        assert all(a.kind != b.kind for a, b in zip(default, default[1:]))
        collapse = streams.continual_schedule(4, (5,))
        assert len(collapse) == 15
        assert all(c.severity == 5 for c in collapse)