"""Synthetic source task, corruption operators, and shifted test streams.

The source distribution is a set of Gaussian clusters whose means sit on
orthogonal directions scaled by a separation knob, so a small MLP can learn it
quickly and corruption severity maps cleanly onto accuracy loss. Corruptions
are label-preserving input transforms with a shared severity scale of 1..5
(severity 0 is the identity by convention), and streams are batched segments
of corrupted test data with the labels kept aside for ground-truth scoring
only. As in online test-time adaptation, a stream is consumed as it arrives: a
batch is corrupted only when it is pulled, so one batch is held at a time rather
than its segment or the whole stream.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from . import nn

log = logging.getLogger(__name__)

CORRUPTION_KINDS = ("gaussian_noise", "rotation", "scaling", "mean_shift", "mixup")
MAX_SEVERITY = 5  # severities run 0..MAX_SEVERITY, 0 the identity

_NOISE_STD_PER_SEVERITY = 0.2
_SCALING_SPREAD_PER_SEVERITY = 0.15
_SHIFT_PER_SEVERITY = 0.25
_MAX_ROTATION_ANGLE = np.pi / 2.0

HOLDOUT_FRACTION = 0.2  # share of each class's samples held out from source training
SOURCE_BATCH_SIZE = 64
SOURCE_LEARNING_RATE = 1e-3
ACCURACY_GATE = 0.9


class StreamError(ValueError):
    """Raised for invalid dataset, corruption, or stream configuration."""


@dataclass(frozen=True)
class DatasetSpec:
    class_count: int = 10
    input_dim: int = 16
    samples_per_class: int = 600
    cluster_separation: float = 4.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.class_count < 2:
            raise StreamError("class_count must be at least 2")
        if self.input_dim < 2:
            raise StreamError("input_dim must be at least 2")
        if self.samples_per_class < 5:
            raise StreamError("samples_per_class must be at least 5")
        if not (math.isfinite(self.cluster_separation) and self.cluster_separation > 0):
            raise StreamError(f"cluster_separation must be finite and > 0, not {self.cluster_separation}")
        if self.seed < 0:
            raise StreamError(f"seed must be non-negative, not {self.seed}")


@dataclass(frozen=True)
class Split:
    features: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return self.features.shape[0]

    @cached_property
    def feature_std(self) -> float:
        """The std of every feature value, taken once: ``features`` must not
        change after the first read, as a ``prepared_task`` split's cannot."""
        return float(self.features.std())

    @cached_property
    def feature_range(self) -> np.ndarray:
        """Each feature's max minus its min, taken once on the same terms as
        ``feature_std`` and returned read-only, as the split's arrays are."""
        spread = self.features.max(axis=0) - self.features.min(axis=0)
        spread.flags.writeable = False
        return spread


def class_means(spec: DatasetSpec) -> np.ndarray:
    """(K, D) cluster centres: orthonormal directions scaled by the separation."""
    rng = np.random.default_rng(spec.seed)
    k, d = spec.class_count, spec.input_dim
    if d >= k:
        q, r = np.linalg.qr(rng.normal(size=(d, d)))
        q = q * np.sign(np.diag(r))  # fix QR sign ambiguity for determinism
        dirs = q[:, :k].T
    else:
        dirs = rng.normal(size=(k, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return spec.cluster_separation * dirs


def make_source_dataset(spec: DatasetSpec) -> tuple[Split, Split]:
    """Per-class Gaussian clouds split into disjoint train and holdout parts.

    ``samples_per_class >= 5`` leaves every class at least one training sample.
    """
    # independent generators, so drawing the features cannot disturb the shuffle order
    rng = np.random.default_rng((spec.seed, 1))
    rng_shuffle = np.random.default_rng((spec.seed, 3))
    means = class_means(spec)
    holdout_per_class = max(1, round(spec.samples_per_class * HOLDOUT_FRACTION))

    train_x, train_y, hold_x, hold_y = [], [], [], []
    for k in range(spec.class_count):
        x = means[k] + rng.normal(size=(spec.samples_per_class, spec.input_dim))
        hold_x.append(x[:holdout_per_class])
        hold_y.append(np.full(holdout_per_class, k))
        train_x.append(x[holdout_per_class:])
        train_y.append(np.full(spec.samples_per_class - holdout_per_class, k))

    def finish(xs, ys) -> Split:
        x = np.concatenate(xs)
        y = np.concatenate(ys)
        order = rng_shuffle.permutation(y.shape[0])
        return Split(features=x[order], labels=y[order])

    return finish(train_x, train_y), finish(hold_x, hold_y)


def train_source_model(train: Split, architecture: tuple[int, ...], epochs: int, seed: int = 0) -> nn.MlpModel:
    """Cross-entropy training of the source classifier, with Adam on
    ``SOURCE_BATCH_SIZE``-row batches at ``SOURCE_LEARNING_RATE``.

    A training accuracy below ``ACCURACY_GATE`` is logged, never fatal; a split
    too small for one batch is an error whenever ``epochs > 0``.
    """
    if len(train) == 0:
        raise StreamError("empty training split")
    if epochs > 0 and len(train) < SOURCE_BATCH_SIZE:
        raise StreamError(
            f"{len(train)} training rows are fewer than one {SOURCE_BATCH_SIZE}-row batch: training would take no step"
        )
    class_count = int(train.labels.max()) + 1
    model = nn.build_mlp(train.features.shape[1], max(class_count, 2), hidden=architecture, seed=seed)
    optimizer = nn.OptimizerState(kind="adam", learning_rate=SOURCE_LEARNING_RATE)
    rng = np.random.default_rng(seed + 1000)
    with nn.small_ufunc_buffer():
        for _ in range(epochs):
            order = rng.permutation(len(train))
            for start in range(0, len(train) - SOURCE_BATCH_SIZE + 1, SOURCE_BATCH_SIZE):
                idx = order[start : start + SOURCE_BATCH_SIZE]
                grads = nn.backward(model, train.features[idx], labels=train.labels[idx], mode=nn.TrainBN())
                nn.optimizer_step(model, grads, optimizer)
        if epochs > 0:
            accuracy = nn.accuracy(model, train.features, train.labels)
            if accuracy < ACCURACY_GATE:
                log.warning("source training accuracy %.3f below gate %.3f", accuracy, ACCURACY_GATE)
    return model


# ---------------------------------------------------------------------------
# corruptions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorruptionSpec:
    kind: str
    severity: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in CORRUPTION_KINDS:
            raise StreamError(f"unknown corruption kind {self.kind!r}")
        if not isinstance(self.severity, int) or not 0 <= self.severity <= MAX_SEVERITY:
            raise StreamError(f"severity must be an integer in 0..{MAX_SEVERITY}")
        if self.seed < 0:
            raise StreamError(f"seed must be non-negative, not {self.seed}")


def _skew_expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a real skew-symmetric ``a``: as a @ a = -(a.T @ a), the series'
    even terms sum to cos(T) and its odd terms to a sin(T)/T, where T =
    sqrt(a.T @ a) comes from one real symmetric eigendecomposition."""
    w, v = np.linalg.eigh(a.T @ a)
    t = np.sqrt(np.maximum(w, 0.0))
    return (v * np.cos(t)) @ v.T + a @ ((v * np.sinc(t / np.pi)) @ v.T)


def rotation_matrix(dim: int, severity: int, seed: int) -> np.ndarray:
    """Orthogonal rotation exp(severity/5 * S) of a seeded skew-symmetric S
    whose spectral norm is pi/2; severity 0 is exactly the identity.

    scipy's ``expm`` uses another algorithm, so the two agree to within about
    1e-15, not bit for bit.
    """
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim))
    skew = (g - g.T) / 2.0
    skew *= _MAX_ROTATION_ANGLE / np.linalg.norm(skew, 2)
    return _skew_expm((severity / 5.0) * skew)


def corrupt(features: np.ndarray, spec: CorruptionSpec, feature_scale: float | None = None) -> np.ndarray:
    """Label-preserving distortion of a feature matrix; deterministic per seed.

    ``feature_scale`` is the clean source feature standard deviation used to
    size noise and shifts; it defaults to the std of the given features.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise StreamError("features must be a non-empty (rows, dims) matrix")
    scale = float(x.std()) if feature_scale is None else float(feature_scale)
    return corrupter(spec, x.shape[1], scale)(x)


def corrupter(spec: CorruptionSpec, dim: int, scale: float) -> Callable[[np.ndarray], np.ndarray]:
    """``corrupt`` of ``dim``-wide rows at ``scale``, one block of rows at a time.

    The noise generator, rotation matrix, scaling factors and shift are made
    once, so blocks passed in turn, joined together, are ``corrupt`` of the
    joined rows: bitwise, except that BLAS may round a rotated row differently
    at another row count.
    """
    if spec.severity == 0:
        return np.copy
    if spec.kind == "gaussian_noise":
        rng = np.random.default_rng(spec.seed)
        sigma = _NOISE_STD_PER_SEVERITY * spec.severity * scale
        return lambda x: x + sigma * rng.normal(size=x.shape)
    if spec.kind == "rotation":
        rotation = rotation_matrix(dim, spec.severity, spec.seed)
        return lambda x: x @ rotation.T
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "scaling":
        spread = _SCALING_SPREAD_PER_SEVERITY * spec.severity
        factors = rng.uniform(1.0 - spread, 1.0 + spread, size=dim)
        return lambda x: x * factors
    if spec.kind == "mean_shift":
        direction = rng.normal(size=dim)
        direction /= np.linalg.norm(direction)
        shift = _SHIFT_PER_SEVERITY * spec.severity * scale * direction
        return lambda x: x + shift
    # mixup-of-kinds: chain the four base distortions at the same severity
    chain = [
        corrupter(CorruptionSpec(kind=kind, severity=spec.severity, seed=spec.seed + 1 + i), dim, scale)
        for i, kind in enumerate(("rotation", "scaling", "mean_shift", "gaussian_noise"))
    ]

    def mixup(x: np.ndarray) -> np.ndarray:
        for step in chain:
            x = step(x)
        return x

    return mixup


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StreamBatch:
    features: np.ndarray
    hidden_labels: np.ndarray  # harness-only ground truth, never shown to estimators
    corruption_id: str
    severity: int
    batch_index: int
    at_boundary: bool


def continual_schedule(seed: int, severities: tuple[int, ...]) -> tuple[CorruptionSpec, ...]:
    """Fifteen corruptions: the four base kinds cycled, and the given severities cycled alongside."""
    kinds = ("gaussian_noise", "rotation", "scaling", "mean_shift")
    return tuple(
        CorruptionSpec(kind=kinds[i % 4], severity=severities[i % len(severities)], seed=seed * 100 + i)
        for i in range(15)
    )


def make_stream(
    segments: list[tuple[CorruptionSpec, int]], pool: Split, batch_size: int, seed: int = 0
) -> Iterator[StreamBatch]:
    """Check every ``(corruption, n_batches)`` segment against the pool, then
    return the batched test stream.

    Every check runs before this returns. The stream is a generator, and a
    batch is its unit of laziness: a segment's rows are sampled without
    replacement when its first batch is pulled, and each batch's rows are
    corrupted when that batch is pulled, by the segment's one ``corrupter``, so
    the batches joined together are ``corrupt`` of the segment's rows. The
    generator keeps no batch once it has handed it out. Noise and shifts are
    sized by the pool's ``feature_std``, which a split computes once, so a call
    on a ``prepared_task`` pool allocates nothing of the pool's size.
    """
    if batch_size < 1:
        raise StreamError("batch_size must be at least 1")
    if len(pool) == 0:
        raise StreamError("empty test pool")
    for seg_idx, (_, n_batches) in enumerate(segments):
        if n_batches < 1:
            raise StreamError(f"segment {seg_idx} has no batches")
        needed = n_batches * batch_size
        if needed > len(pool):
            raise StreamError(
                f"segment {seg_idx} needs {needed} samples but the pool holds {len(pool)}"
            )
    return _batches(segments, pool, batch_size, seed, pool.feature_std)


def _batches(
    segments: list[tuple[CorruptionSpec, int]], pool: Split, batch_size: int, seed: int, scale: float
) -> Iterator[StreamBatch]:
    t = 0
    for seg_idx, (corruption, n_batches) in enumerate(segments):
        # each segment draws from its own generator, so building them one at a time changes no byte
        rng = np.random.default_rng((seed, seg_idx))
        idx = rng.choice(len(pool), size=n_batches * batch_size, replace=False)
        apply = corrupter(corruption, pool.features.shape[1], scale)
        for j in range(n_batches):
            rows = idx[j * batch_size : (j + 1) * batch_size]
            # passed straight on, so the generator holds no batch while the next one is corrupted
            yield StreamBatch(
                features=apply(pool.features[rows]),
                hidden_labels=pool.labels[rows],
                corruption_id=corruption.kind,
                severity=corruption.severity,
                batch_index=t,
                at_boundary=j == 0,
            )
            t += 1


# ---------------------------------------------------------------------------
# prepared tasks (dataset + trained source model), cached for reuse
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PreparedTask:
    train: Split
    holdout: Split
    checkpoint: nn.MlpModel


_TASK_CACHE: dict[tuple, PreparedTask] = {}


def prepared_task(
    spec: DatasetSpec,
    architecture: tuple[int, ...],
    epochs: int,
    train_seed: int = 0,
) -> PreparedTask:
    """Dataset plus trained source model; training is memoised.

    Training is deterministic, so serving from cache is indistinguishable from
    recomputing. The trained model is the task's checkpoint, handed out with its
    arrays made read-only, so a write into it raises; callers that adapt it adapt
    an ``nn.adaptable_copy``, which has BN arrays of its own and shares the
    checkpoint's dense and head arrays. The dataset depends on ``spec`` alone, so
    every cached task of one spec shares the same ``train`` and ``holdout``
    splits, whatever its architecture, epochs or seed; their arrays are read-only
    too, and the holdout's ``feature_std``, which sizes every stream's noise, is
    taken once when the dataset is made.
    """
    key = (spec, tuple(architecture), epochs, train_seed)
    if key not in _TASK_CACHE:
        same_data = next((task for (s, *_), task in _TASK_CACHE.items() if s == spec), None)
        if same_data is None:
            train, holdout = make_source_dataset(spec)
            for arr in (train.features, train.labels, holdout.features, holdout.labels):
                arr.flags.writeable = False
            holdout.feature_std  # cached now, so no seed's make_stream allocates a pool-sized temporary
        else:
            train, holdout = same_data.train, same_data.holdout
        checkpoint = train_source_model(train, architecture=architecture, epochs=epochs, seed=train_seed)
        for _, arr in nn.named_state(checkpoint):
            arr.flags.writeable = False
        _TASK_CACHE[key] = PreparedTask(train=train, holdout=holdout, checkpoint=checkpoint)
    return _TASK_CACHE[key]
