"""Test-time adaptation steps and model-recovery policies.

Adaptation is entropy minimisation over the BN affine parameters with
transductive batch statistics (plus a stats-only refresh variant and a no-op).
Recovery decides, from the estimator's smoothed-accuracy history or external
signals, when to roll the model and optimizer back to the source checkpoint;
one policy instead reverts a random sprinkle of scalars every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .estimators import EstimatorState

ADAPT_METHODS = ("tent", "bn_stats", "none")
RECOVERY_KINDS = ("aetta_reset", "episodic", "mrs", "stochastic_restore", "dist_shift", "none")

TRIGGER_WINDOW = "window_degradation"
TRIGGER_HARD = "hard_threshold"
TRIGGER_EXTERNAL = "external"
TRIGGER_NON_FINITE = "non_finite"


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
        if self.learning_rate < 0:
            raise AdaptationError("learning_rate must be non-negative")
        if self.optimizer not in ("adam", "sgd"):
            raise AdaptationError(f"unknown optimizer {self.optimizer!r}")


def make_optimizer(config: AdaptConfig) -> nn.OptimizerState:
    return nn.OptimizerState(kind=config.optimizer, learning_rate=config.learning_rate)


def tent_step(model: nn.MlpModel, x: np.ndarray, config: AdaptConfig, optimizer: nn.OptimizerState) -> nn.MlpModel:
    """One entropy-minimisation step on BN gamma/beta only.

    Uses batch statistics for the forward (running stats refreshed in place);
    every non-BN parameter is bitwise untouched.
    """
    if not model.blocks:
        raise AdaptationError("tent adaptation needs at least one batchnorm layer")
    grads = nn.backward(model, x, loss="entropy", mode=nn.TrainBN(), trainable="bn")
    nn.optimizer_step(model, grads, optimizer)
    return model


def bn_stats_step(model: nn.MlpModel, x: np.ndarray) -> nn.MlpModel:
    """Refresh BN running statistics from the batch; no gradients anywhere."""
    if not model.blocks:
        raise AdaptationError("bn_stats adaptation needs at least one batchnorm layer")
    nn.forward(model, x, nn.TrainBN())
    return model


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
    comparison: str = "mean"  # "mean" | "all" across the two windows

    def __post_init__(self) -> None:
        if self.kind not in RECOVERY_KINDS:
            raise AdaptationError(f"unknown recovery kind {self.kind!r}")
        if self.window < 1:
            raise AdaptationError("window must be at least 1")
        if not 0.0 <= self.hard_threshold <= 1.0:
            raise AdaptationError("hard_threshold must lie in [0, 1]")
        if self.mrs_threshold < 0:
            raise AdaptationError("mrs_threshold must be non-negative")
        if not 0.0 <= self.restore_prob <= 1.0:
            raise AdaptationError("restore_prob must lie in [0, 1]")
        if self.comparison not in ("mean", "all"):
            raise AdaptationError(f"unknown comparison {self.comparison!r}")


@dataclass(frozen=True)
class ResetContext:
    """Per-batch signals a policy may consult besides the estimator history."""

    entropy_ema: float | None = None
    at_corruption_boundary: bool = False
    non_finite: bool = False  # the model or its predictions hold a NaN or an infinity


def _window_degraded(policy: RecoveryPolicy, history: list[float]) -> bool:
    w = policy.window
    if len(history) < 2 * w:
        return False
    previous = history[-2 * w : -w]
    recent = history[-w:]
    if policy.comparison == "mean":
        return sum(recent) / w < sum(previous) / w
    return all(r < p for r, p in zip(recent, previous))


def should_reset(
    policy: RecoveryPolicy, state: EstimatorState, context: ResetContext = ResetContext()
) -> tuple[bool, str | None]:
    """Whether to roll back to the source checkpoint now, and why."""
    if policy.kind in ("none", "stochastic_restore"):
        return False, None
    # a NaN can hide from every other signal: it makes the entropy EMA NaN and
    # can arrive inside a segment, so each rolling-back kind checks it first
    if context.non_finite:
        return True, TRIGGER_NON_FINITE
    if policy.kind == "episodic":
        return True, TRIGGER_EXTERNAL
    if policy.kind == "mrs":
        if context.entropy_ema is not None and context.entropy_ema < policy.mrs_threshold:
            return True, TRIGGER_EXTERNAL
        return False, None
    if policy.kind == "dist_shift":
        if context.at_corruption_boundary:
            return True, TRIGGER_EXTERNAL
        return False, None
    # aetta_reset: degradation across two windows, or outright low accuracy
    history = list(state.history)
    if _window_degraded(policy, history):
        return True, TRIGGER_WINDOW
    if history and history[-1] < policy.hard_threshold:
        return True, TRIGGER_HARD
    return False, None


def apply_reset(
    model: nn.MlpModel, optimizer: nn.OptimizerState, source_checkpoint: nn.MlpModel
) -> tuple[nn.MlpModel, nn.OptimizerState]:
    """Restore parameters and running stats bitwise; hand back a fresh optimizer.

    Estimator state is deliberately not touched here: histories survive resets
    so repeated rollbacks stay visible in the logs.
    """
    nn.copy_into(model, source_checkpoint)
    return model, nn.OptimizerState(kind=optimizer.kind, learning_rate=optimizer.learning_rate)


def stochastic_restore_step(
    model: nn.MlpModel, source_checkpoint: nn.MlpModel, restore_prob: float, seed: int
) -> nn.MlpModel:
    """Independently revert each scalar parameter to source with given probability."""
    if not 0.0 <= restore_prob <= 1.0:
        raise AdaptationError("restore_prob must lie in [0, 1]")
    if restore_prob == 0.0:
        return model
    rng = np.random.default_rng(seed)
    source = dict(nn.named_parameters(source_checkpoint))
    for name, param in nn.named_parameters(model):
        mask = rng.random(param.shape) < restore_prob
        param[mask] = source[name][mask]
    return model
