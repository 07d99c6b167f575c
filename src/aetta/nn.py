"""Small float64 MLP engine with explicit forward modes.

Everything is plain numpy. The model is a stack of dense -> batchnorm -> relu
blocks (dropout after each activation when requested) ending in a linear
classification head. Three forward modes cover the behaviours the rest of the
package needs:

* ``Deterministic``  -- running BN statistics, no dropout.
* ``Dropout(seed)``  -- running BN statistics, seeded inverted dropout.
* ``TrainBN``        -- batch BN statistics, running stats refreshed in place,
                        no dropout.

Gradients are computed by hand so they can be checked against finite
differences; there is no autograd anywhere.

A training step works on 64-row batches and 64-wide layers, so numpy's
per-call overhead, not arithmetic, sets its cost. Forward, backward and the
optimizer step therefore reuse arrays they allocated themselves through in-place
ufuncs, applying the same elementwise operations in the same order as the plain
expressions, so every result is bitwise unchanged. They never write into the
caller's input. Two cached arrays are written in place before they are cached:
each block's ``xhat`` (the dense output, centred and scaled in place) and, under
dropout, the masked activation that becomes the next block's ``x_in`` or
``head_in``. Backward can still read them because nothing writes to an array
once it is in the cache: backward writes only into the gradients it allocates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

CHECKPOINT_FORMAT = "mlp-checkpoint"
CHECKPOINT_VERSION = 1

_CE_PROB_FLOOR = 1e-12
_LOG_GUARD = 1e-300


class EngineError(ValueError):
    """Raised for malformed models, shapes, or forward/backward arguments."""


# ---------------------------------------------------------------------------
# forward modes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Deterministic:
    """Inference mode: running BN statistics, dropout disabled."""


@dataclass(frozen=True)
class Dropout:
    """Inference mode with seeded inverted dropout after each hidden activation."""

    seed: int


@dataclass(frozen=True)
class TrainBN:
    """Training-style BN: batch statistics are used and running stats updated."""


ForwardMode = Deterministic | Dropout | TrainBN


# ---------------------------------------------------------------------------
# layers and model
# ---------------------------------------------------------------------------


@dataclass
class DenseLayer:
    weights: np.ndarray  # (fan_in, fan_out)
    bias: np.ndarray  # (fan_out,)

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.ndim != 1:
            raise EngineError("dense layer expects 2-d weights and 1-d bias")
        if self.weights.shape[1] != self.bias.shape[0]:
            raise EngineError("dense bias width does not match weights")


@dataclass
class BatchNormLayer:
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1
    eps: float = 1e-5

    def __post_init__(self) -> None:
        for name in ("gamma", "beta", "running_mean", "running_var"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        widths = {getattr(self, n).shape for n in ("gamma", "beta", "running_mean", "running_var")}
        if len(widths) != 1:
            raise EngineError("batchnorm vectors must share one width")


@dataclass
class HiddenBlock:
    dense: DenseLayer
    norm: BatchNormLayer


@dataclass(frozen=True)
class DropoutSpec:
    """Per-hidden-block dropout rates, each in [0, 1)."""

    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        for r in self.rates:
            if not 0.0 <= r < 1.0:
                raise EngineError(f"dropout rate {r} outside [0, 1)")


def default_dropout_rate(class_count: int) -> float:
    """Wider heads get lighter dropout; tuned per output-space size."""
    if class_count <= 10:
        return 0.4
    if class_count <= 100:
        return 0.3
    return 0.2


@dataclass
class MlpModel:
    blocks: list[HiddenBlock]
    head: DenseLayer
    dropout: DropoutSpec
    class_count: int

    def __post_init__(self) -> None:
        if len(self.dropout.rates) != len(self.blocks):
            raise EngineError("need exactly one dropout rate per hidden block")
        if self.head.weights.shape[1] != self.class_count:
            raise EngineError("head width does not match class_count")
        if self.class_count < 2:
            raise EngineError("need at least two classes")

    @property
    def input_dim(self) -> int:
        if self.blocks:
            return self.blocks[0].dense.weights.shape[0]
        return self.head.weights.shape[0]

    @property
    def hidden_widths(self) -> tuple[int, ...]:
        return tuple(b.dense.weights.shape[1] for b in self.blocks)


def build_mlp(
    input_dim: int,
    class_count: int,
    hidden: tuple[int, ...] = (64, 64),
    dropout_rates: tuple[float, ...] | None = None,
    seed: int = 0,
) -> MlpModel:
    """He-initialised MLP; BN starts at identity (gamma 1, beta 0)."""
    if input_dim < 1:
        raise EngineError("input_dim must be positive")
    rng = np.random.default_rng(seed)
    if dropout_rates is None:
        dropout_rates = tuple(default_dropout_rate(class_count) for _ in hidden)
    blocks: list[HiddenBlock] = []
    fan_in = input_dim
    for width in hidden:
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, width))
        blocks.append(
            HiddenBlock(
                dense=DenseLayer(weights=w, bias=np.zeros(width)),
                norm=BatchNormLayer(
                    gamma=np.ones(width),
                    beta=np.zeros(width),
                    running_mean=np.zeros(width),
                    running_var=np.ones(width),
                ),
            )
        )
        fan_in = width
    head = DenseLayer(
        weights=rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, class_count)),
        bias=np.zeros(class_count),
    )
    return MlpModel(blocks=blocks, head=head, dropout=DropoutSpec(tuple(dropout_rates)), class_count=class_count)


def clone(model: MlpModel) -> MlpModel:
    """Deep copy; parameter and running-stat arrays are independent."""
    return MlpModel(
        blocks=[
            HiddenBlock(
                dense=DenseLayer(b.dense.weights.copy(), b.dense.bias.copy()),
                norm=BatchNormLayer(
                    gamma=b.norm.gamma.copy(),
                    beta=b.norm.beta.copy(),
                    running_mean=b.norm.running_mean.copy(),
                    running_var=b.norm.running_var.copy(),
                    momentum=b.norm.momentum,
                    eps=b.norm.eps,
                ),
            )
            for b in model.blocks
        ],
        head=DenseLayer(model.head.weights.copy(), model.head.bias.copy()),
        dropout=replace(model.dropout),
        class_count=model.class_count,
    )


def copy_into(target: MlpModel, source: MlpModel) -> None:
    """Overwrite target's parameters and running stats with source's, in place."""
    if target.hidden_widths != source.hidden_widths or target.class_count != source.class_count:
        raise EngineError("models are not the same shape")
    for tb, sb in zip(target.blocks, source.blocks):
        tb.dense.weights[...] = sb.dense.weights
        tb.dense.bias[...] = sb.dense.bias
        tb.norm.gamma[...] = sb.norm.gamma
        tb.norm.beta[...] = sb.norm.beta
        tb.norm.running_mean[...] = sb.norm.running_mean
        tb.norm.running_var[...] = sb.norm.running_var
    target.head.weights[...] = source.head.weights
    target.head.bias[...] = source.head.bias


# ---------------------------------------------------------------------------
# parameter bookkeeping
# ---------------------------------------------------------------------------


def named_parameters(model: MlpModel) -> list[tuple[str, np.ndarray]]:
    """Trainable tensors only; running statistics are state, not parameters."""
    out: list[tuple[str, np.ndarray]] = []
    for i, blk in enumerate(model.blocks):
        out.append((f"blocks.{i}.dense.weights", blk.dense.weights))
        out.append((f"blocks.{i}.dense.bias", blk.dense.bias))
        out.append((f"blocks.{i}.norm.gamma", blk.norm.gamma))
        out.append((f"blocks.{i}.norm.beta", blk.norm.beta))
    out.append(("head.weights", model.head.weights))
    out.append(("head.bias", model.head.bias))
    return out


def bn_parameter_names(model: MlpModel) -> tuple[str, ...]:
    return tuple(name for name, _ in named_parameters(model) if ".norm." in name)


def resolve_trainable(model: MlpModel, trainable: str) -> tuple[str, ...]:
    if trainable == "all":
        return tuple(name for name, _ in named_parameters(model))
    if trainable == "bn":
        names = bn_parameter_names(model)
        if not names:
            raise EngineError("model has no batchnorm parameters to train")
        return names
    raise EngineError(f"unknown trainable mask {trainable!r}")


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def softmax(logits: np.ndarray) -> np.ndarray:
    e = logits - logits.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


@dataclass
class _BlockCache:
    x_in: np.ndarray
    xhat: np.ndarray
    inv_std: np.ndarray  # 1/sqrt(var + eps), batch or running depending on mode
    bn_out: np.ndarray
    mask: np.ndarray | None  # dropout keep mask, None when inactive


@dataclass
class _ForwardCache:
    blocks: list[_BlockCache]
    head_in: np.ndarray
    logits: np.ndarray
    probs: np.ndarray


def _check_input(model: MlpModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise EngineError("input must be a (batch, features) array")
    if x.shape[0] == 0:
        raise EngineError("empty batch")
    if x.shape[1] != model.input_dim:
        raise EngineError(f"input width {x.shape[1]} != model input_dim {model.input_dim}")
    if not np.all(np.isfinite(x)):
        raise EngineError("non-finite values in input batch")
    return x


def _forward_cached(model: MlpModel, x: np.ndarray, mode: ForwardMode) -> _ForwardCache:
    x = _check_input(model, x)
    rng = np.random.default_rng(mode.seed) if isinstance(mode, Dropout) else None
    train_bn = isinstance(mode, TrainBN)
    caches: list[_BlockCache] = []
    h = x
    for blk, rate in zip(model.blocks, model.dropout.rates):
        x_in = h
        z = x_in @ blk.dense.weights
        z += blk.dense.bias
        if train_bn:
            # np.mean and np.var both divide an axis-0 sum by n; z is centred once
            n = z.shape[0]
            mean = z.sum(axis=0)
            mean /= n
            z -= mean
            var = (z * z).sum(axis=0)
            var /= n
            inv_std = var + blk.norm.eps
            np.sqrt(inv_std, out=inv_std)
            np.divide(1.0, inv_std, out=inv_std)
            m = blk.norm.momentum
            # torch convention: running_var tracks the unbiased estimate
            var_running = var * n / (n - 1) if n > 1 else var
            blk.norm.running_mean *= 1.0 - m
            blk.norm.running_mean += m * mean
            blk.norm.running_var *= 1.0 - m
            blk.norm.running_var += m * var_running
        else:
            inv_std = 1.0 / np.sqrt(blk.norm.running_var + blk.norm.eps)
            z -= blk.norm.running_mean
        z *= inv_std
        xhat = z
        bn_out = blk.norm.gamma * xhat
        bn_out += blk.norm.beta
        h = np.maximum(bn_out, 0.0)
        mask = None
        if rng is not None and rate > 0.0:
            mask = rng.random(h.shape) >= rate
            h *= mask
            h /= 1.0 - rate
        caches.append(_BlockCache(x_in=x_in, xhat=xhat, inv_std=inv_std, bn_out=bn_out, mask=mask))
    logits = h @ model.head.weights
    logits += model.head.bias
    probs = softmax(logits)
    return _ForwardCache(blocks=caches, head_in=h, logits=logits, probs=probs)


def forward(model: MlpModel, x: np.ndarray, mode: ForwardMode = Deterministic()) -> np.ndarray:
    """Class probabilities, shape (batch, class_count). TrainBN mutates running stats."""
    return _forward_cached(model, x, mode).probs


def forward_logits(model: MlpModel, x: np.ndarray, mode: ForwardMode = Deterministic()) -> np.ndarray:
    return _forward_cached(model, x, mode).logits


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def entropy_of(dist: np.ndarray) -> float:
    """Natural-log entropy of one probability vector."""
    p = np.asarray(dist, dtype=np.float64)
    return float(-np.sum(p * np.log(np.maximum(p, _LOG_GUARD))))


def entropy_loss(probs: np.ndarray) -> float:
    """Mean per-row natural-log entropy of a probability batch."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] == 0:
        raise EngineError("entropy_loss expects a non-empty (batch, K) array")
    rows = -np.sum(p * np.log(np.maximum(p, _LOG_GUARD)), axis=1)
    return float(rows.mean())


def cross_entropy_loss(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood; probabilities floored at 1e-12 before log."""
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels)
    if p.ndim != 2 or p.shape[0] == 0:
        raise EngineError("cross_entropy_loss expects a non-empty (batch, K) array")
    if y.shape != (p.shape[0],):
        raise EngineError("labels must be one integer per row")
    if np.any(y < 0) or np.any(y >= p.shape[1]):
        raise EngineError("label out of range")
    picked = p[np.arange(p.shape[0]), y]
    return float(-np.mean(np.log(np.maximum(picked, _CE_PROB_FLOOR))))


def _entropy_logit_grad(probs: np.ndarray) -> np.ndarray:
    """d(mean row entropy)/d logits; rows with saturated softmax give ~0."""
    logp = np.maximum(probs, _LOG_GUARD)
    np.log(logp, out=logp)
    grad = probs * logp
    row_entropy = grad.sum(axis=1, keepdims=True)
    np.negative(row_entropy, out=row_entropy)
    logp += row_entropy
    np.negative(probs, out=grad)
    grad *= logp
    grad /= probs.shape[0]
    return grad


def _cross_entropy_logit_grad(probs: np.ndarray, target_probs: np.ndarray) -> np.ndarray:
    """d(mean CE)/d logits for softmax outputs; zero when probs match targets."""
    grad = probs - target_probs
    grad /= probs.shape[0]
    return grad


def _one_hot(labels: np.ndarray, class_count: int) -> np.ndarray:
    out = np.zeros((labels.shape[0], class_count))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def backward(
    model: MlpModel,
    x: np.ndarray,
    loss: str,
    labels: np.ndarray | None = None,
    mode: ForwardMode = Deterministic(),
    trainable: str = "all",
    want_input_grad: bool = False,
) -> dict[str, np.ndarray] | tuple[dict[str, np.ndarray], np.ndarray]:
    """Analytic gradients of the chosen loss for the chosen parameter subset.

    ``loss`` is "entropy" (unsupervised, labels ignored) or "cross_entropy"
    (labels required). The gradient graph replays the exact forward used, so
    dropout masks and the BN statistic source match the ``mode`` given. With
    TrainBN the running stats are refreshed as a side effect, same as forward.
    """
    cache = _forward_cached(model, x, mode)
    if loss == "entropy":
        dlogits = _entropy_logit_grad(cache.probs)
    elif loss == "cross_entropy":
        if labels is None:
            raise EngineError("cross_entropy backward needs labels")
        y = np.asarray(labels)
        if np.any(y < 0) or np.any(y >= model.class_count):
            raise EngineError("label out of range")
        dlogits = _cross_entropy_logit_grad(cache.probs, _one_hot(y, model.class_count))
    else:
        raise EngineError(f"unknown loss {loss!r}")

    wanted = set(resolve_trainable(model, trainable))
    grads: dict[str, np.ndarray] = {}
    # every array written below was allocated here; the cache is only read
    if "head.weights" in wanted:
        grads["head.weights"] = cache.head_in.T @ dlogits
    if "head.bias" in wanted:
        grads["head.bias"] = dlogits.sum(axis=0)
    dh = dlogits @ model.head.weights.T

    train_bn = isinstance(mode, TrainBN)
    for i in reversed(range(len(model.blocks))):
        blk = model.blocks[i]
        bc = cache.blocks[i]
        rate = model.dropout.rates[i]
        if bc.mask is not None:
            dh *= bc.mask
            dh /= 1.0 - rate
        dh *= bc.bn_out > 0.0
        if f"blocks.{i}.norm.gamma" in wanted:
            grads[f"blocks.{i}.norm.gamma"] = (dh * bc.xhat).sum(axis=0)
        if f"blocks.{i}.norm.beta" in wanted:
            grads[f"blocks.{i}.norm.beta"] = dh.sum(axis=0)
        dz = dh
        dz *= blk.norm.gamma  # d xhat
        if not train_bn:
            dz *= bc.inv_std
        elif dz.shape[0] == 1:
            # one row: xhat == 0 whatever z is, so nothing flows past beta
            dz[...] = 0.0
        else:
            # dz = (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) * inv_std
            n = dz.shape[0]
            scaled = dz * bc.xhat
            dot = scaled.sum(axis=0)
            dot /= n
            mean = dz.sum(axis=0)
            mean /= n
            np.multiply(bc.xhat, dot, out=scaled)
            dz -= mean
            dz -= scaled
            dz *= bc.inv_std
        if f"blocks.{i}.dense.weights" in wanted:
            grads[f"blocks.{i}.dense.weights"] = bc.x_in.T @ dz
        if f"blocks.{i}.dense.bias" in wanted:
            grads[f"blocks.{i}.dense.bias"] = dz.sum(axis=0)
        if i > 0 or want_input_grad:
            dh = dz @ blk.dense.weights.T

    if want_input_grad:
        return grads, dh
    return grads


def input_gradient(model: MlpModel, x: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """d(mean CE)/d input, deterministic forward. Used for gradient-sign probes."""
    _, dx = backward(
        model, x, loss="cross_entropy", labels=labels, mode=Deterministic(), trainable="all", want_input_grad=True
    )
    return dx


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def finite_difference_gradients(
    model: MlpModel,
    x: np.ndarray,
    loss: str,
    labels: np.ndarray | None = None,
    mode: ForwardMode = Deterministic(),
    trainable: str = "all",
    step: float = 1e-5,
) -> dict[str, np.ndarray]:
    """Central-difference gradients, touching only ``forward`` and the loss values.

    Deliberately ignorant of ``backward`` so it can serve as its oracle. Each
    evaluation runs on a throwaway clone so TrainBN's running-stat side effect
    cannot leak between probes.
    """
    work = clone(model)
    params = dict(named_parameters(work))

    def eval_loss() -> float:
        probs = forward(clone(work), x, mode)
        if loss == "entropy":
            return entropy_loss(probs)
        if loss == "cross_entropy":
            if labels is None:
                raise EngineError("cross_entropy needs labels")
            return cross_entropy_loss(probs, labels)
        raise EngineError(f"unknown loss {loss!r}")

    grads: dict[str, np.ndarray] = {}
    for name in resolve_trainable(work, trainable):
        arr = params[name]
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            hi = eval_loss()
            arr[idx] = orig - step
            lo = eval_loss()
            arr[idx] = orig
            g[idx] = (hi - lo) / (2.0 * step)
        grads[name] = g
    return grads


def relu_kink_margin(model: MlpModel, x: np.ndarray, mode: ForwardMode = Deterministic()) -> float:
    """Smallest |pre-relu| across the batch.

    Central differences are only trustworthy when every relu argument stays on
    one side of zero under the probe step, so callers should demand a margin
    comfortably larger than the step.
    """
    cache = _forward_cached(clone(model), x, mode)
    if not cache.blocks:
        return float("inf")
    return min(float(np.min(np.abs(bc.bn_out))) for bc in cache.blocks)


def gradcheck_max_error(
    analytic: dict[str, np.ndarray], numeric: dict[str, np.ndarray]
) -> float:
    """Worst scaled discrepancy: |a - n| / max(1e-3, |a| + |n|)."""
    if set(analytic) != set(numeric):
        raise EngineError("gradient dictionaries cover different parameters")
    worst = 0.0
    for name, a in analytic.items():
        n = numeric[name]
        scale = np.maximum(1e-3, np.abs(a) + np.abs(n))
        worst = max(worst, float(np.max(np.abs(a - n) / scale)))
    return worst


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------


@dataclass
class OptimizerState:
    """Adam or SGD settings plus Adam's moments.

    ``m`` and ``v`` map parameter names to moment arrays. The arrays are views
    into one flat buffer per moment laid out in the order of the last call's
    gradients, so Adam updates every named parameter with one run of vector
    operations. Write into them in place, never rebind an entry.
    """

    kind: str = "adam"  # "adam" | "sgd"
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    _layout: tuple[str, ...] = field(default=(), init=False, repr=False, compare=False)
    _m_flat: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _v_flat: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("adam", "sgd"):
            raise EngineError(f"unknown optimizer kind {self.kind!r}")
        if self.learning_rate < 0:
            raise EngineError("learning rate must be non-negative")


def _flat_moments(state: OptimizerState, params: list[np.ndarray], names: tuple[str, ...]) -> None:
    """Lay the moments of ``names`` out flat, in that order.

    A name's moments carry over from wherever they lived before; a new name
    starts at zero. Names left out keep their old arrays.
    """
    total = sum(p.size for p in params)
    state._m_flat, state._v_flat = np.zeros(total), np.zeros(total)
    offset = 0
    for name, p in zip(names, params):
        for flat, moments in ((state._m_flat, state.m), (state._v_flat, state.v)):
            view = flat[offset : offset + p.size].reshape(p.shape)
            if name in moments:
                view[...] = moments[name]
            moments[name] = view
        offset += p.size
    state._layout = names


def optimizer_step(model: MlpModel, grads: dict[str, np.ndarray], state: OptimizerState) -> None:
    """Apply one update in place to every parameter named in ``grads``.

    The gradients are joined into one flat vector and updated with the same
    elementwise operations, in the same order, as a per-parameter loop.
    """
    named = dict(named_parameters(model))
    unknown = set(grads) - set(named)
    if unknown:
        raise EngineError(f"gradients for unknown parameters: {sorted(unknown)}")
    params = [named[name] for name in grads]
    for (name, g), p in zip(grads.items(), params):
        if g.shape != p.shape:
            raise EngineError(f"gradient shape mismatch for {name}")
    state.step += 1
    if not grads:
        return
    g = np.concatenate(list(grads.values()), axis=None)
    if state.kind == "sgd":
        update = state.learning_rate * g
    else:
        names = tuple(grads)
        if names != state._layout:
            _flat_moments(state, params, names)
        m, v = state._m_flat, state._v_flat
        b1, b2 = state.beta1, state.beta2
        # m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g * g
        scratch = g * (1.0 - b1)
        m *= b1
        m += scratch
        np.multiply(g, 1.0 - b2, out=scratch)
        scratch *= g
        v *= b2
        v += scratch
        # update = lr * m_hat / (sqrt(v_hat) + eps)
        update = m / (1.0 - b1**state.step)
        update *= state.learning_rate
        np.divide(v, 1.0 - b2**state.step, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += state.eps
        update /= scratch
    offset = 0
    for p in params:
        p -= update[offset : offset + p.size].reshape(p.shape)
        offset += p.size


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def model_to_dict(model: MlpModel) -> dict:
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "class_count": model.class_count,
        "dropout_rates": list(model.dropout.rates),
        "blocks": [
            {
                "weights": b.dense.weights.tolist(),
                "bias": b.dense.bias.tolist(),
                "gamma": b.norm.gamma.tolist(),
                "beta": b.norm.beta.tolist(),
                "running_mean": b.norm.running_mean.tolist(),
                "running_var": b.norm.running_var.tolist(),
                "momentum": b.norm.momentum,
                "eps": b.norm.eps,
            }
            for b in model.blocks
        ],
        "head": {"weights": model.head.weights.tolist(), "bias": model.head.bias.tolist()},
    }


def model_from_dict(payload: dict) -> MlpModel:
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise EngineError("not a model checkpoint")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise EngineError(f"unsupported checkpoint version {payload.get('version')!r}")
    blocks = [
        HiddenBlock(
            dense=DenseLayer(np.array(b["weights"]), np.array(b["bias"])),
            norm=BatchNormLayer(
                gamma=np.array(b["gamma"]),
                beta=np.array(b["beta"]),
                running_mean=np.array(b["running_mean"]),
                running_var=np.array(b["running_var"]),
                momentum=float(b["momentum"]),
                eps=float(b["eps"]),
            ),
        )
        for b in payload["blocks"]
    ]
    head = DenseLayer(np.array(payload["head"]["weights"]), np.array(payload["head"]["bias"]))
    return MlpModel(
        blocks=blocks,
        head=head,
        dropout=DropoutSpec(tuple(payload["dropout_rates"])),
        class_count=int(payload["class_count"]),
    )


def save_checkpoint(model: MlpModel, path: str | Path) -> None:
    """JSON checkpoint. Python float repr round-trips IEEE doubles exactly."""
    Path(path).write_text(json.dumps(model_to_dict(model)))


def load_checkpoint(path: str | Path) -> MlpModel:
    return model_from_dict(json.loads(Path(path).read_text()))
