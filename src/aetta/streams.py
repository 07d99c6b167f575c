"""Synthetic source task, corruption operators, and shifted test streams.

The source distribution is a set of Gaussian clusters whose means sit on
orthogonal directions scaled by a separation knob, so a small MLP can learn it
quickly and corruption severity maps cleanly onto accuracy loss. Corruptions
are label-preserving input transforms with a shared severity scale of 1..5
(severity 0 is the identity by convention), and streams are batched segments
of corrupted test data with the labels kept aside for ground-truth scoring
only.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from . import nn

log = logging.getLogger(__name__)

CORRUPTION_KINDS = ("gaussian_noise", "rotation", "scaling", "mean_shift", "mixup")

_NOISE_STD_PER_SEVERITY = 0.2
_SCALING_SPREAD_PER_SEVERITY = 0.15
_SHIFT_PER_SEVERITY = 0.25
_MAX_ROTATION_ANGLE = np.pi / 2.0


class StreamError(ValueError):
    """Raised for invalid dataset, corruption, or stream configuration."""


@dataclass(frozen=True)
class DatasetSpec:
    class_count: int = 10
    input_dim: int = 16
    samples_per_class: int = 600
    cluster_separation: float = 4.0
    label_noise: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.class_count < 2:
            raise StreamError("class_count must be at least 2")
        if self.input_dim < 2:
            raise StreamError("input_dim must be at least 2")
        if self.samples_per_class < 5:
            raise StreamError("samples_per_class must be at least 5")
        if self.cluster_separation <= 0:
            raise StreamError("cluster_separation must be positive")
        if not 0.0 <= self.label_noise < 1.0:
            raise StreamError("label_noise must lie in [0, 1)")


@dataclass(frozen=True)
class Split:
    features: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return self.features.shape[0]


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


def make_source_dataset(spec: DatasetSpec, holdout_fraction: float = 0.2) -> tuple[Split, Split]:
    """Per-class Gaussian clouds split into disjoint train and holdout parts."""
    if not 0.0 < holdout_fraction < 1.0:
        raise StreamError("holdout_fraction must lie strictly inside (0, 1)")
    # independent generators so label noise cannot disturb features or shuffle order
    rng = np.random.default_rng((spec.seed, 1))
    rng_noise = np.random.default_rng((spec.seed, 2))
    rng_shuffle = np.random.default_rng((spec.seed, 3))
    means = class_means(spec)
    holdout_per_class = max(1, round(spec.samples_per_class * holdout_fraction))
    if holdout_per_class >= spec.samples_per_class:
        raise StreamError("holdout fraction leaves no training data")

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
        if spec.label_noise > 0.0:
            flip = rng_noise.random(y.shape[0]) < spec.label_noise
            offsets = rng_noise.integers(1, spec.class_count, size=y.shape[0])
            y = np.where(flip, (y + offsets) % spec.class_count, y)
        order = rng_shuffle.permutation(y.shape[0])
        return Split(features=x[order], labels=y[order])

    return finish(train_x, train_y), finish(hold_x, hold_y)


def train_source_model(
    train: Split,
    architecture: tuple[int, ...] = (64, 64),
    epochs: int = 30,
    seed: int = 0,
    batch_size: int = 64,
    learning_rate: float = 1e-3,
    accuracy_gate: float = 0.9,
) -> tuple[nn.MlpModel, nn.MlpModel]:
    """Cross-entropy training of the source classifier; returns (model, checkpoint).

    The accuracy gate is advisory: falling short is logged, never fatal.
    """
    if len(train) == 0:
        raise StreamError("empty training split")
    class_count = int(train.labels.max()) + 1
    model = nn.build_mlp(train.features.shape[1], max(class_count, 2), hidden=architecture, seed=seed)
    optimizer = nn.OptimizerState(kind="adam", learning_rate=learning_rate)
    rng = np.random.default_rng(seed + 1000)
    for _ in range(epochs):
        order = rng.permutation(len(train))
        for start in range(0, len(train) - batch_size + 1, batch_size):
            idx = order[start : start + batch_size]
            grads = nn.backward(
                model, train.features[idx], loss="cross_entropy", labels=train.labels[idx], mode=nn.TrainBN()
            )
            nn.optimizer_step(model, grads, optimizer)
    if epochs > 0:
        preds = np.argmax(nn.forward(model, train.features), axis=1)
        accuracy = float(np.mean(preds == train.labels))
        if accuracy < accuracy_gate:
            log.warning("source training accuracy %.3f below gate %.3f", accuracy, accuracy_gate)
    return model, nn.clone(model)


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
        if not isinstance(self.severity, int) or not 0 <= self.severity <= 5:
            raise StreamError("severity must be an integer in 0..5")


def rotation_matrix(dim: int, severity: int, seed: int) -> np.ndarray:
    """Exactly orthogonal rotation, interpolated toward identity by severity/5."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim))
    skew = (g - g.T) / 2.0
    skew *= _MAX_ROTATION_ANGLE / np.linalg.norm(skew, 2)
    return expm((severity / 5.0) * skew)


def corrupt(features: np.ndarray, spec: CorruptionSpec, feature_scale: float | None = None) -> np.ndarray:
    """Label-preserving distortion of a feature matrix; deterministic per seed.

    ``feature_scale`` is the clean source feature standard deviation used to
    size noise and shifts; it defaults to the std of the given features.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise StreamError("features must be a non-empty (rows, dims) matrix")
    if spec.severity == 0:
        return x.copy()
    scale = float(x.std()) if feature_scale is None else float(feature_scale)
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "gaussian_noise":
        sigma = _NOISE_STD_PER_SEVERITY * spec.severity * scale
        return x + sigma * rng.normal(size=x.shape)
    if spec.kind == "rotation":
        return x @ rotation_matrix(x.shape[1], spec.severity, spec.seed).T
    if spec.kind == "scaling":
        spread = _SCALING_SPREAD_PER_SEVERITY * spec.severity
        factors = rng.uniform(1.0 - spread, 1.0 + spread, size=x.shape[1])
        return x * factors
    if spec.kind == "mean_shift":
        direction = rng.normal(size=x.shape[1])
        direction /= np.linalg.norm(direction)
        return x + _SHIFT_PER_SEVERITY * spec.severity * scale * direction
    # mixup-of-kinds: chain the four base distortions at the same severity
    out = x
    for i, kind in enumerate(("rotation", "scaling", "mean_shift", "gaussian_noise")):
        out = corrupt(out, CorruptionSpec(kind=kind, severity=spec.severity, seed=spec.seed + 1 + i), scale)
    return out


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
    segment_index: int
    at_boundary: bool


@dataclass(frozen=True)
class Fully:
    corruption: CorruptionSpec
    n_batches: int | None = None


@dataclass(frozen=True)
class Continual:
    schedule: tuple[CorruptionSpec, ...]
    batches_per_segment: int = 4

    def __post_init__(self) -> None:
        if not self.schedule:
            raise StreamError("continual schedule must be non-empty")
        if self.batches_per_segment < 1:
            raise StreamError("batches_per_segment must be at least 1")


Scenario = Fully | Continual


def default_continual_schedule(seed: int = 0, length: int = 15) -> tuple[CorruptionSpec, ...]:
    """Cycle the four base corruptions with severities 5, 4, 3, 5, 4, 3, ..."""
    kinds = ("gaussian_noise", "rotation", "scaling", "mean_shift")
    return tuple(
        CorruptionSpec(kind=kinds[i % 4], severity=5 - (i % 3), seed=seed * 100 + i) for i in range(length)
    )


def collapse_schedule(seed: int = 0, length: int = 15) -> tuple[CorruptionSpec, ...]:
    """Severity pinned to the maximum everywhere; pairs with a hot learning rate."""
    kinds = ("gaussian_noise", "rotation", "scaling", "mean_shift")
    return tuple(CorruptionSpec(kind=kinds[i % 4], severity=5, seed=seed * 100 + i) for i in range(length))


def make_stream(scenario: Scenario, pool: Split, batch_size: int = 64, seed: int = 0) -> tuple[StreamBatch, ...]:
    """Materialise the batched test stream; sampling is without replacement per segment."""
    if batch_size < 1:
        raise StreamError("batch_size must be at least 1")
    if len(pool) == 0:
        raise StreamError("empty test pool")
    if isinstance(scenario, Fully):
        n = scenario.n_batches if scenario.n_batches is not None else len(pool) // batch_size
        if n < 1:
            raise StreamError("pool too small for a single batch")
        segments = [(scenario.corruption, n)]
    else:
        segments = [(c, scenario.batches_per_segment) for c in scenario.schedule]

    scale = float(pool.features.std())
    batches: list[StreamBatch] = []
    t = 0
    for seg_idx, (corruption, n_batches) in enumerate(segments):
        needed = n_batches * batch_size
        if needed > len(pool):
            raise StreamError(
                f"segment {seg_idx} needs {needed} samples but the pool holds {len(pool)}"
            )
        rng = np.random.default_rng((seed, seg_idx))
        idx = rng.choice(len(pool), size=needed, replace=False)
        features = corrupt(pool.features[idx], corruption, feature_scale=scale)
        labels = pool.labels[idx]
        for j in range(n_batches):
            sl = slice(j * batch_size, (j + 1) * batch_size)
            batches.append(
                StreamBatch(
                    features=features[sl],
                    hidden_labels=labels[sl],
                    corruption_id=corruption.kind,
                    severity=corruption.severity,
                    batch_index=t,
                    segment_index=seg_idx,
                    at_boundary=j == 0,
                )
            )
            t += 1
    return tuple(batches)


# ---------------------------------------------------------------------------
# prepared tasks (dataset + trained source model), cached for reuse
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PreparedTask:
    spec: DatasetSpec
    train: Split
    holdout: Split
    model: nn.MlpModel
    checkpoint: nn.MlpModel


_TASK_CACHE: dict[tuple, PreparedTask] = {}


def prepared_task(
    spec: DatasetSpec,
    architecture: tuple[int, ...] = (64, 64),
    epochs: int = 30,
    train_seed: int = 0,
) -> PreparedTask:
    """Dataset plus trained source model; training is memoised, copies returned.

    Training is deterministic, so serving from cache is indistinguishable from
    recomputing; models are cloned on the way out because callers mutate them.
    """
    key = (spec, tuple(architecture), epochs, train_seed)
    if key not in _TASK_CACHE:
        train, holdout = make_source_dataset(spec)
        model, checkpoint = train_source_model(train, architecture=architecture, epochs=epochs, seed=train_seed)
        _TASK_CACHE[key] = PreparedTask(spec=spec, train=train, holdout=holdout, model=model, checkpoint=checkpoint)
    task = _TASK_CACHE[key]
    return PreparedTask(
        spec=task.spec,
        train=task.train,
        holdout=task.holdout,
        model=nn.clone(task.model),
        checkpoint=nn.clone(task.checkpoint),
    )
