"""Test-time adaptation steps and model-recovery policies.

Adaptation is entropy minimisation over the BN affine parameters with
transductive batch statistics (plus a stats-only refresh variant and a no-op).
Recovery decides, before each adaptation step and from plain values (recent
smoothed-accuracy estimates or external signals), whether to roll the model and
optimizer back to the source checkpoint. Two policies act after the step
instead: episodic rolls back after every step, and stochastic restore reverts
a random sprinkle of scalars.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import nn

ADAPT_METHODS = ("tent", "bn_stats", "none")
RECOVERY_KINDS = ("aetta_reset", "episodic", "mrs", "stochastic_restore", "dist_shift", "none")

TRIGGER_WINDOW = "window_degradation"
TRIGGER_HARD = "hard_threshold"
TRIGGER_EXTERNAL = "external"
TRIGGER_NON_FINITE = "non_finite"
TRIGGER_CONSTANT_OUTPUT = "constant_output"


class AdaptationError(ValueError):
    """Raised for invalid adaptation or recovery configuration."""


@dataclass(frozen=True)
class AdaptConfig:
    method: str = "tent"
    learning_rate: float = 1e-3
    optimizer: str = "adam"

    def __post_init__(self) -> None:
        if self.method not in ADAPT_METHODS:
            raise AdaptationError(f"unknown adaptation method {self.method!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise AdaptationError(f"learning_rate must be finite and >= 0, not {self.learning_rate}")
        if self.optimizer not in ("adam", "sgd"):
            raise AdaptationError(f"unknown optimizer {self.optimizer!r}")


def make_optimizer(config: AdaptConfig) -> nn.OptimizerState:
    return nn.OptimizerState(kind=config.optimizer, learning_rate=config.learning_rate)


def tent_step(model: nn.MlpModel, x: np.ndarray, optimizer: nn.OptimizerState) -> None:
    """One entropy-minimisation step on BN gamma/beta only, by ``optimizer``.

    Uses batch statistics for the forward (running stats refreshed in place);
    every non-BN parameter is bitwise untouched, so the model may share the
    checkpoint's read-only dense and head arrays (``nn.adaptable_copy``).
    """
    grads = nn.backward(model, x, mode=nn.TrainBN(), trainable="bn")
    nn.optimizer_step(model, grads, optimizer)


def bn_stats_step(model: nn.MlpModel, x: np.ndarray) -> None:
    """Refresh BN running statistics from the batch; no gradients anywhere."""
    nn.forward(model, x, nn.TrainBN())


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecoveryPolicy:
    kind: str = "none"
    window: int = 5
    hard_threshold: float = 0.2  # on smoothed accuracy
    mrs_threshold: float = 0.2  # on the entropy-loss EMA
    restore_prob: float = 0.01

    def __post_init__(self) -> None:
        if self.kind not in RECOVERY_KINDS:
            raise AdaptationError(f"unknown recovery kind {self.kind!r}")
        if self.window < 1:
            raise AdaptationError("window must be at least 1")
        if not 0.0 <= self.hard_threshold <= 1.0:
            raise AdaptationError("hard_threshold must lie in [0, 1]")
        if not (math.isfinite(self.mrs_threshold) and self.mrs_threshold >= 0):
            raise AdaptationError(f"mrs_threshold must be finite and >= 0, not {self.mrs_threshold}")
        if not 0.0 <= self.restore_prob <= 1.0:
            raise AdaptationError("restore_prob must lie in [0, 1]")


def _window_degraded(policy: RecoveryPolicy, history: list[float]) -> bool:
    w = policy.window
    if len(history) < 2 * w:
        return False
    previous = history[-2 * w : -w]
    recent = history[-w:]
    return sum(recent) / w < sum(previous) / w


def should_reset(
    policy: RecoveryPolicy,
    history: Iterable[float],
    *,
    entropy_ema: float | None = None,
    at_boundary: bool = False,
    non_finite: bool = False,
    constant_output: bool = False,
) -> str | None:
    """Why to roll back to the source checkpoint before this batch's adaptation
    step, or None. ``history`` holds recent smoothed accuracies, oldest first,
    ``non_finite`` says the model or its predictions hold a NaN or an infinity,
    and ``constant_output`` that the model gave every row of a batch of two or
    more the same logits. Episodic and stochastic restore act after the step, so
    they get None here."""
    if policy.kind in ("none", "episodic", "stochastic_restore"):
        return None
    # a NaN can hide from every other signal: it makes the entropy EMA NaN and
    # can arrive inside a segment, so each rolling-back kind checks it first
    if non_finite:
        return TRIGGER_NON_FINITE
    # a model whose output no longer depends on its input has no dropout
    # disagreement, so AETTA reads it as right; every rolling-back kind checks it
    if constant_output:
        return TRIGGER_CONSTANT_OUTPUT
    if policy.kind == "mrs":
        low = entropy_ema is not None and entropy_ema < policy.mrs_threshold
        return TRIGGER_EXTERNAL if low else None
    if policy.kind == "dist_shift":
        return TRIGGER_EXTERNAL if at_boundary else None
    # aetta_reset: degradation across two windows, or outright low accuracy
    history = list(history)
    if _window_degraded(policy, history):
        return TRIGGER_WINDOW
    if history and history[-1] < policy.hard_threshold:
        return TRIGGER_HARD
    return None


def apply_reset(
    model: nn.MlpModel, optimizer: nn.OptimizerState, source_checkpoint: nn.MlpModel
) -> nn.OptimizerState:
    """Restore ``model``'s parameters and running stats bitwise, in place, from the
    checkpoint; return a fresh optimizer of the same kind and learning rate. An
    array the model shares with the checkpoint is the checkpoint's already and is
    not written.

    The caller's accuracy history is deliberately kept: it survives resets so
    repeated rollbacks stay visible in the logs.
    """
    nn.copy_into(model, source_checkpoint)
    return nn.OptimizerState(kind=optimizer.kind, learning_rate=optimizer.learning_rate)


def stochastic_restore_step(
    model: nn.MlpModel, source_checkpoint: nn.MlpModel, restore_prob: float, seed: int
) -> None:
    """Independently revert each scalar parameter to source with given probability.

    Every parameter draws its mask, in ``named_parameters`` order, so the draws
    do not depend on which arrays the model shares with the source; a shared
    array holds the source's values already and is not written.
    """
    if not 0.0 <= restore_prob <= 1.0:
        raise AdaptationError("restore_prob must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    source = dict(nn.named_parameters(source_checkpoint))
    for name, param in nn.named_parameters(model):
        mask = rng.random(param.shape) < restore_prob
        if param is not source[name]:
            param[mask] = source[name][mask]
