"""Central-difference reference for ``nn.backward``, with the cross-entropy loss
and the relu kink margin it relies on."""

from __future__ import annotations

import copy

import numpy as np

from aetta import nn

_CE_PROB_FLOOR = 1e-12
FINITE_DIFFERENCE_STEP = 1e-5  # the probe step of ``finite_difference_gradients``


def cross_entropy_loss(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood; probabilities floored at 1e-12 before log."""
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels)
    if p.ndim != 2 or p.shape[0] == 0:
        raise nn.EngineError("cross_entropy_loss expects a non-empty (batch, K) array")
    if y.shape != (p.shape[0],):
        raise nn.EngineError("labels must be one integer per row")
    if np.any(y < 0) or np.any(y >= p.shape[1]):
        raise nn.EngineError("label out of range")
    picked = p[np.arange(p.shape[0]), y]
    return float(-np.mean(np.log(np.maximum(picked, _CE_PROB_FLOOR))))


def finite_difference_gradients(
    model: nn.MlpModel,
    x: np.ndarray,
    labels: np.ndarray | None = None,
    mode: nn.ForwardMode = nn.Deterministic(),
    trainable: str = "all",
) -> dict[str, np.ndarray]:
    """Central-difference gradients of ``backward``'s loss, with ``backward``'s
    parameters: the mean cross-entropy against ``labels``, or the mean row
    entropy when there are none.

    Deliberately ignorant of ``backward``, touching only ``forward`` and the loss
    values, so it can serve as its oracle. Each evaluation runs on a throwaway
    clone so TrainBN's running-stat side effect cannot leak between probes.
    """
    work = copy.deepcopy(model)
    params = dict(nn.named_parameters(work))

    def eval_loss() -> float:
        probs = nn.forward(copy.deepcopy(work), x, mode)
        return nn.entropy_loss(probs) if labels is None else cross_entropy_loss(probs, labels)

    grads: dict[str, np.ndarray] = {}
    for name in nn.resolve_trainable(work, trainable):
        arr = params[name]
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + FINITE_DIFFERENCE_STEP
            hi = eval_loss()
            arr[idx] = orig - FINITE_DIFFERENCE_STEP
            lo = eval_loss()
            arr[idx] = orig
            g[idx] = (hi - lo) / (2.0 * FINITE_DIFFERENCE_STEP)
        grads[name] = g
    return grads


def relu_kink_margin(model: nn.MlpModel, x: np.ndarray, mode: nn.ForwardMode = nn.Deterministic()) -> float:
    """Smallest |pre-relu| across the batch.

    Central differences are only trustworthy when every relu argument stays on
    one side of zero under the probe step, so callers should demand a margin
    comfortably larger than the step. ``keep_inputs`` makes every block keep
    its ``xhat``, block 0's included.
    """
    cache = nn._forward_cached(copy.deepcopy(model), x, mode, keep_inputs=True)
    return min(
        float(np.min(np.abs(blk.norm.gamma * bc.xhat + blk.norm.beta)))
        for blk, bc in zip(model.blocks, cache.blocks)
    )


def gradcheck_max_error(
    analytic: dict[str, np.ndarray], numeric: dict[str, np.ndarray]
) -> float:
    """Worst scaled discrepancy: |a - n| / max(1e-3, |a| + |n|)."""
    if set(analytic) != set(numeric):
        raise nn.EngineError("gradient dictionaries cover different parameters")
    worst = 0.0
    for name, a in analytic.items():
        n = numeric[name]
        scale = np.maximum(1e-3, np.abs(a) + np.abs(n))
        worst = max(worst, float(np.max(np.abs(a - n) / scale)))
    return worst
