"""Label-free accuracy estimators for (possibly adapted) classifiers.

The headline estimator drops units of the last hidden activation in N seeded
members, measures how often their predictions flip against the base
(deterministic) prediction, and reweights that disagreement by how
concentrated the aggregated dropout distribution is: a confidently wrong model
disagrees little under dropout but also collapses its aggregate entropy, and
the weight blows the error estimate back up. The remaining estimators are the
usual comparison points: labeled source holdout accuracy, temperature-scaled
max softmax, agreement with the previous model state, and agreement under a
gradient-sign input perturbation. Estimators that read the current model's
deterministic forward on the batch take its logits, labels or last hidden
activation, so one forward serves them all.

Only ``src_valid`` ever sees labels, and those are source holdout labels; the
test stream's labels stay out of this module entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn


class EstimatorError(ValueError):
    """Raised for invalid estimator configuration or inputs."""


EMA_COEFFICIENT = 0.9  # AETTA's weight on the previous smoothed error
ENTROPY_FLOOR = 1e-8  # keeps the robust weight finite on a fully collapsed aggregate
SOFTMAX_TEMPERATURE = 2.0  # divides the logits before the softmax baseline's max probability
ADV_EPSILON = 1.0 / 255.0  # AdvPerturb's nominal step, in units of ``feature_scale``


@dataclass(frozen=True)
class AettaConfig:
    n_dropout: int = 10
    alpha: float = 3.0
    base_seed: int = 0  # the first word of every batch's mask seed (base_seed, run_seed, batch_index)

    def __post_init__(self) -> None:
        if self.n_dropout < 1:
            raise EstimatorError("n_dropout must be at least 1")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise EstimatorError(f"alpha must be finite and >= 0, not {self.alpha}")
        if self.base_seed < 0:
            raise EstimatorError(f"base_seed must be non-negative, not {self.base_seed}")


@dataclass(frozen=True, slots=True)
class EstimateReport:
    pdd: float
    e_avg: float
    b_weight: float
    raw_error: float
    smoothed_error: float

    @property
    def smoothed_accuracy(self) -> float:
        return 1.0 - self.smoothed_error


def predicted_labels(probs: np.ndarray) -> np.ndarray:
    """Argmax along the class axis; ties resolve to the lowest index."""
    return np.argmax(probs, axis=-1)


def pdd(base_labels: np.ndarray, ensemble_labels: np.ndarray) -> float:
    """Mean disagreement rate between base predictions and each dropout inference."""
    base = np.asarray(base_labels)
    ens = np.asarray(ensemble_labels)
    if base.ndim != 1 or ens.ndim != 2 or ens.shape[1] != base.shape[0]:
        raise EstimatorError("expected base (batch,) and ensemble (n, batch) labels")
    if base.shape[0] == 0:
        raise EstimatorError("empty batch")
    return float(np.mean(ens != base[None, :]))


def robust_weight(e_avg: float, class_count: int, alpha: float) -> float:
    """(e_avg / ln K) ** -alpha, with e_avg floored away from zero.

    Exactly 1.0 when alpha == 0 or when e_avg equals the maximum entropy, so
    the unweighted path stays bit-identical. A weight too large for a float is
    inf, which ``aetta_estimate`` reads as error 1.
    """
    if class_count < 2:
        raise EstimatorError("need at least two classes")
    if e_avg < 0:
        raise EstimatorError("entropy cannot be negative")
    if alpha < 0:
        raise EstimatorError("alpha must be non-negative")
    e_max = math.log(class_count)
    ratio = max(e_avg, ENTROPY_FLOOR) / e_max
    try:
        return ratio**-alpha
    except OverflowError:
        return math.inf


def aetta_estimate(
    model: nn.MlpModel,
    hidden: np.ndarray,
    base_labels: np.ndarray,
    config: AettaConfig,
    ema_error: float | None,
    position: tuple[int, int],
) -> EstimateReport:
    """One batch of dropout-disagreement accuracy estimation.

    ``hidden`` is the batch's last hidden activation from the deterministic
    forward of ``model`` (``nn.last_hidden``), on which every member drops
    units, and ``base_labels`` are that forward's predictions; no hidden block
    runs again. ``ema_error`` is the previous batch's ``smoothed_error`` (None
    on the first), and ``position`` is the batch's place in its stream,
    ``(run_seed, batch_index)``. The members' masks come from one generator
    seeded with ``(config.base_seed, run_seed, batch_index)``, so every batch
    draws fresh masks and a rerun draws the same ones.

    The dropout members are reduced one at a time, so the working memory does
    not grow with ``n_dropout``. Each member adds its count of flipped labels,
    which is exact, so the PDD is bitwise ``pdd`` of the stacked labels. Between
    members only the K-float running sum of probabilities is kept: once a member
    arrives, it is stacked under that sum in a (batch + 1, K) buffer, which is
    reduced to the next sum and dropped with the member before the next member
    is pulled. numpy reduces a C-contiguous array over its leading axes row by
    row, so ``e_avg`` is bitwise that of the mean over an (n, batch, K) stack of
    the members.

    No flip in ``n * batch`` draws does not show a flip rate of 0, so when the
    weight is on (``alpha > 0``) the weighted error floors the disagreement at
    one flip, and a model that predicts one class with confidence reads as
    wrong, not as wholly right. The reported ``pdd`` stays the raw count, and at
    ``alpha == 0`` the error is the raw disagreement, bitwise.
    """
    base = np.asarray(base_labels)
    n, rows = config.n_dropout, np.shape(hidden)[0]
    if base.shape != (rows,):
        raise EstimatorError("base_labels must be one label per row of hidden")
    flips, total = 0, np.zeros(model.class_count)
    for member in nn.dropout_forwards(model, hidden, n, (config.base_seed, *position)):
        flips += int(np.count_nonzero(predicted_labels(member) != base))
        total = np.add.reduce(np.concatenate((total[None], member)), axis=0)
        del member  # before the next member allocates
    disagreement = flips / (n * rows)
    e_avg = nn.entropy_loss((total / (n * rows))[None])
    b = robust_weight(e_avg, model.class_count, config.alpha)
    floor = 1.0 / (n * rows) if config.alpha > 0 else 0.0
    raw_error = b * max(disagreement, floor)
    # a non-finite model reads as wholly wrong, which keeps the EMA and the reset window finite
    raw_error = min(max(raw_error, 0.0), 1.0) if math.isfinite(raw_error) else 1.0
    if ema_error is None:
        smoothed_error = raw_error
    else:
        smoothed_error = EMA_COEFFICIENT * ema_error + (1.0 - EMA_COEFFICIENT) * raw_error
    return EstimateReport(
        pdd=disagreement, e_avg=e_avg, b_weight=b, raw_error=raw_error, smoothed_error=smoothed_error
    )


# ---------------------------------------------------------------------------
# comparison estimators
# ---------------------------------------------------------------------------


def softmax_score(logits: np.ndarray) -> float:
    """Mean max softmax probability of the logits over ``SOFTMAX_TEMPERATURE``."""
    probs = nn.softmax(logits / SOFTMAX_TEMPERATURE)
    return float(probs.max(axis=1).mean())


def gde_agreement(labels: np.ndarray, previous_model: nn.MlpModel, x: np.ndarray) -> float:
    """Fraction of the current predictions ``labels`` that the previous model state matches on ``x``."""
    prev = predicted_labels(nn.forward(previous_model, x, nn.Deterministic()))
    return float(np.mean(labels == prev))


def src_valid(model: nn.MlpModel, features: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy on a labeled holdout split, by ``nn.accuracy``: 64-row
    blocks through the model with each block's running batchnorm folded into its
    dense weights. It is the count of rows that ``nn.forward`` predicts
    correctly, except on a row whose two largest logits agree to within
    rounding."""
    return nn.accuracy(model, features, labels)


def adv_perturb_agreement(
    source_model: nn.MlpModel,
    adapted_model: nn.MlpModel,
    x: np.ndarray,
    feature_scale: float | np.ndarray,
) -> float:
    """Prediction agreement after a gradient-sign nudge away from the source labels.

    The perturbation direction comes from the frozen source model's own
    predictions, so no stream labels are involved. ``feature_scale`` maps the
    nominal step ``ADV_EPSILON`` onto each input dimension's natural range.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = nn.input_gradient(source_model, x)
    x_adv = x + ADV_EPSILON * np.asarray(feature_scale, dtype=np.float64) * np.sign(grad)
    adapted = predicted_labels(nn.forward(adapted_model, x_adv, nn.Deterministic()))
    source = predicted_labels(nn.forward(source_model, x_adv, nn.Deterministic()))
    return float(np.mean(adapted == source))
