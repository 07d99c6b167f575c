"""Label-free accuracy estimators for (possibly adapted) classifiers.

The headline estimator runs N seeded dropout forwards, measures how often
their predictions flip against the base (deterministic) prediction, and
reweights that disagreement by how concentrated the aggregated dropout
distribution is: a confidently wrong model disagrees little under dropout but
also collapses its aggregate entropy, and the weight blows the error estimate
back up. The remaining estimators are the usual comparison
points: labeled source holdout accuracy, temperature-scaled max softmax,
agreement with the previous model state, and agreement under a gradient-sign
input perturbation. Estimators that read the current model's deterministic
forward on the batch take its logits or labels, so one forward serves them all.

Only ``src_valid`` ever sees labels, and those are source holdout labels; the
test stream's labels stay out of this module entirely.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import nn


class EstimatorError(ValueError):
    """Raised for invalid estimator configuration or inputs."""


@dataclass(frozen=True)
class AettaConfig:
    n_dropout: int = 10
    alpha: float = 3.0
    ema_coefficient: float = 0.9  # weight on history
    entropy_floor: float = 1e-8
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_dropout < 1:
            raise EstimatorError("n_dropout must be at least 1")
        if self.alpha < 0:
            raise EstimatorError("alpha must be non-negative")
        if not 0.0 <= self.ema_coefficient < 1.0:
            raise EstimatorError("ema_coefficient must lie in [0, 1)")
        if self.entropy_floor <= 0:
            raise EstimatorError("entropy_floor must be positive")


@dataclass
class EstimatorState:
    """Carried between batches: EMA of the error plus recent smoothed accuracies."""

    ema_error: float | None
    history: deque[float]


def fresh_state(capacity: int) -> EstimatorState:
    """No EMA yet and an empty history that keeps the last ``capacity`` accuracies."""
    return EstimatorState(ema_error=None, history=deque(maxlen=capacity))


@dataclass(frozen=True)
class EstimateReport:
    pdd: float
    e_avg: float
    b_weight: float
    raw_error: float
    smoothed_error: float
    smoothed_accuracy: float


def predicted_labels(probs: np.ndarray) -> np.ndarray:
    """Argmax along the class axis; ties resolve to the lowest index."""
    return np.argmax(probs, axis=-1)


def dropout_ensemble(model: nn.MlpModel, x: np.ndarray, n_dropout: int, base_seed: int) -> np.ndarray:
    """(n_dropout, batch, class_count) probabilities, dropout seeds base_seed .. base_seed+n-1."""
    if n_dropout < 1:
        raise EstimatorError("n_dropout must be at least 1")
    return np.stack([nn.forward(model, x, nn.Dropout(seed=base_seed + i)) for i in range(n_dropout)])


def pdd(base_labels: np.ndarray, ensemble_labels: np.ndarray) -> float:
    """Mean disagreement rate between base predictions and each dropout inference."""
    base = np.asarray(base_labels)
    ens = np.asarray(ensemble_labels)
    if base.ndim != 1 or ens.ndim != 2 or ens.shape[1] != base.shape[0]:
        raise EstimatorError("expected base (batch,) and ensemble (n, batch) labels")
    if base.shape[0] == 0:
        raise EstimatorError("empty batch")
    return float(np.mean(ens != base[None, :]))


def batch_aggregate(ensemble_probs: np.ndarray) -> np.ndarray:
    """Single distribution: mean over dropout inferences and batch rows."""
    p = np.asarray(ensemble_probs)
    if p.ndim != 3 or p.shape[0] == 0 or p.shape[1] == 0:
        raise EstimatorError("expected non-empty (n, batch, K) probabilities")
    return p.mean(axis=(0, 1))


def robust_weight(e_avg: float, class_count: int, alpha: float, entropy_floor: float = 1e-8) -> float:
    """(e_avg / ln K) ** -alpha, with e_avg floored away from zero.

    Exactly 1.0 when alpha == 0 or when e_avg equals the maximum entropy, so
    the unweighted path stays bit-identical.
    """
    if class_count < 2:
        raise EstimatorError("need at least two classes")
    if e_avg < 0:
        raise EstimatorError("entropy cannot be negative")
    if alpha < 0:
        raise EstimatorError("alpha must be non-negative")
    e_max = math.log(class_count)
    ratio = max(e_avg, entropy_floor) / e_max
    return ratio**-alpha


def aetta_estimate(
    model: nn.MlpModel,
    x: np.ndarray,
    base_labels: np.ndarray,
    config: AettaConfig,
    state: EstimatorState,
) -> tuple[EstimateReport, EstimatorState]:
    """One batch of dropout-disagreement accuracy estimation.

    ``base_labels`` are the deterministic predictions of ``model`` on ``x``.
    Returns the per-batch report and the successor state; the input state is
    left untouched so callers can replay or branch histories.
    """
    ens_probs = dropout_ensemble(model, x, config.n_dropout, config.base_seed)
    disagreement = pdd(base_labels, predicted_labels(ens_probs))
    e_avg = nn.entropy_of(batch_aggregate(ens_probs))
    b = robust_weight(e_avg, model.class_count, config.alpha, config.entropy_floor)
    raw_error = b * disagreement
    # a non-finite model reads as wholly wrong, which keeps the EMA and history finite
    raw_error = min(max(raw_error, 0.0), 1.0) if math.isfinite(raw_error) else 1.0
    if state.ema_error is None:
        smoothed_error = raw_error
    else:
        c = config.ema_coefficient
        smoothed_error = c * state.ema_error + (1.0 - c) * raw_error
    smoothed_accuracy = 1.0 - smoothed_error
    history = state.history.copy()
    history.append(smoothed_accuracy)
    report = EstimateReport(
        pdd=disagreement,
        e_avg=e_avg,
        b_weight=b,
        raw_error=raw_error,
        smoothed_error=smoothed_error,
        smoothed_accuracy=smoothed_accuracy,
    )
    return report, EstimatorState(ema_error=smoothed_error, history=history)


# ---------------------------------------------------------------------------
# comparison estimators
# ---------------------------------------------------------------------------


def softmax_score(logits: np.ndarray, temperature: float = 2.0) -> float:
    """Mean max softmax probability after temperature scaling of the logits."""
    if temperature <= 0:
        raise EstimatorError("temperature must be positive")
    probs = nn.softmax(logits / temperature)
    return float(probs.max(axis=1).mean())


def gde_agreement(labels: np.ndarray, previous_model: nn.MlpModel, x: np.ndarray) -> float:
    """Fraction of the current predictions ``labels`` that the previous model state matches on ``x``."""
    prev = predicted_labels(nn.forward(previous_model, x, nn.Deterministic()))
    return float(np.mean(labels == prev))


def src_valid(model: nn.MlpModel, features: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy on a labeled holdout split."""
    y = np.asarray(labels)
    if y.ndim != 1 or y.shape[0] != np.asarray(features).shape[0]:
        raise EstimatorError("labels must be one integer per holdout row")
    preds = predicted_labels(nn.forward(model, features, nn.Deterministic()))
    return float(np.mean(preds == y))


def adv_perturb_agreement(
    source_model: nn.MlpModel,
    adapted_model: nn.MlpModel,
    x: np.ndarray,
    epsilon: float = 1.0 / 255.0,
    feature_scale: float | np.ndarray = 1.0,
) -> float:
    """Prediction agreement after a gradient-sign nudge away from the source labels.

    The perturbation direction comes from the frozen source model's own
    predictions, so no stream labels are involved. ``feature_scale`` maps the
    nominal step onto each input dimension's natural range.
    """
    if epsilon < 0:
        raise EstimatorError("epsilon must be non-negative")
    x = np.asarray(x, dtype=np.float64)
    pseudo = predicted_labels(nn.forward(source_model, x, nn.Deterministic()))
    grad = nn.input_gradient(source_model, x, pseudo)
    x_adv = x + epsilon * np.asarray(feature_scale, dtype=np.float64) * np.sign(grad)
    adapted = predicted_labels(nn.forward(adapted_model, x_adv, nn.Deterministic()))
    source = predicted_labels(nn.forward(source_model, x_adv, nn.Deterministic()))
    return float(np.mean(adapted == source))
