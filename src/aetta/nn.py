"""Small float64 MLP engine with explicit forward modes and hand-written gradients.

The model is a stack of one or more dense -> batchnorm -> relu blocks ending
in a linear head; ``named_state`` is the one list of a model's arrays. Only
``dropout_forwards``, the members of AETTA's inference-time ensemble, drops
units, and only in the last hidden activation, which the members share with
the batch's deterministic forward (``last_hidden``).

Layers are about 64 wide, so numpy's per-call overhead sets the cost. Forward,
backward and the optimizer step therefore work in place on arrays they
allocated, with the plain expressions' operations in the same order (IEEE
multiplication commutes, so ``z *= gamma`` is ``gamma * z``): every result is
bitwise that of the plain code. They never write into the caller's input or
into an array while backward's cache holds it, except an ``xhat`` that
backward has read for the last time. Every forward rebinds its running
activation to each block's dense product, so a block input that nothing keeps
goes before the bias add allocates anything: an inference forward
(``_last_hidden``) holds at most a block's input and its product, two (rows,
width) arrays.
``_forward_cached``, which ``backward`` replays, keeps per block ``xhat``,
``inv_std`` and a bool relu gate; it keeps each block's input and the head
input only when a dense or head weight gradient needs them, and lets any other
block input go once the block's dense product exists. Block 0 then keeps its
input, the caller's batch, which is alive anyway and narrower than a block, and
the mean it subtracted in place of ``xhat``, which backward rebuilds bitwise
only if it reads it. ``_backprop`` consumes the cache, dropping the
probabilities once d loss/d logits exists and that once the head's input
gradient does, each gate once applied, each block's entry once it is used and
each block's gradient once the next exists. It takes the column sums of a
(rows, width) product 64 rows at a time (``_product_sums``) and stops after
block 0's BN gradients when nothing below them is wanted. So a BN-only TENT
step holds at most two (rows, width) arrays at once, besides the gates still
to apply and the row-block buffer, and a dropout member one besides the shared
activation.

Layer and optimizer hyperparameters that no caller varies are module
constants, not fields: ``BN_MOMENTUM`` and ``BN_EPS`` for every batchnorm
layer, and ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS`` for Adam.

numpy runs a broadcast binary ufunc, such as a block's ``z += bias`` or ``z *=
inv_std``, through buffered iteration, which allocates a buffer of up to
``np.getbufsize()`` elements per call: 8192, or 64 KB, by default, a sizeable
share of each call's peak on these (rows, 64) arrays. ``small_ufunc_buffer``
sets the size to ``UFUNC_BUFFER_ELEMENTS`` (8 KB) and restores the caller's on
exit. ``harness.run_experiment`` enters it around its seed loop and
``streams.train_source_model`` around its training steps and accuracy gate.
Buffering never changes elementwise arithmetic, so every result is bitwise the
same at any buffer size.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

_LOG_GUARD = 1e-300
_ACCURACY_BLOCK_ROWS = 128
_SUM_BLOCK_ROWS = 64  # rows of products ``_product_sums`` holds; a 64-row batch is one block
UFUNC_BUFFER_ELEMENTS = 1024  # numpy's ufunc buffer inside ``small_ufunc_buffer``: 8 KB of float64

BN_MOMENTUM = 0.1  # weight of the batch statistics in a running-statistics update
BN_EPS = 1e-5  # added to the variance before its square root
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
MASK_LEVELS = 65536  # a dropout mask compares 16-bit raw words against rate * MASK_LEVELS


class EngineError(ValueError):
    """Raised for malformed models, shapes, or forward/backward arguments."""


@contextmanager
def small_ufunc_buffer() -> Iterator[None]:
    """Run the block with numpy's ufunc buffer at ``UFUNC_BUFFER_ELEMENTS``.

    The caller's size is restored explicitly, as ``np.errstate`` does not restore
    it on numpy 1.x.
    """
    old = np.setbufsize(UFUNC_BUFFER_ELEMENTS)
    try:
        yield
    finally:
        np.setbufsize(old)


# ---------------------------------------------------------------------------
# forward modes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Deterministic:
    """Inference mode: running BN statistics."""


@dataclass(frozen=True)
class TrainBN:
    """Training-style BN: batch statistics are used and running stats updated."""


ForwardMode = Deterministic | TrainBN


def _train_bn(mode: ForwardMode) -> bool:
    """Whether ``mode`` normalises with batch statistics; any other mode is an error."""
    if isinstance(mode, (Deterministic, TrainBN)):
        return isinstance(mode, TrainBN)
    raise EngineError(f"unknown forward mode {mode!r}")


# ---------------------------------------------------------------------------
# layers and model
# ---------------------------------------------------------------------------


@dataclass
class DenseLayer:
    weights: np.ndarray  # (fan_in, fan_out)
    bias: np.ndarray  # (fan_out,)


@dataclass
class BatchNormLayer:
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray


@dataclass
class HiddenBlock:
    dense: DenseLayer
    norm: BatchNormLayer


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
    dropout_rate: float  # of the last hidden activation in a ``dropout_forwards`` member

    def __post_init__(self) -> None:
        # from 1 - 1/131072 on, the mask threshold rounds to MASK_LEVELS and keeps no unit
        if not 0.0 <= self.dropout_rate < 1.0 or _keep_threshold(self.dropout_rate)[0] == MASK_LEVELS:
            raise EngineError(f"dropout rate {self.dropout_rate} outside [0, 1 - 1/131072)")
        if self.class_count < 2:
            raise EngineError("need at least two classes")
        if not self.blocks:
            raise EngineError("need at least one hidden block")

    @property
    def class_count(self) -> int:
        return self.head.weights.shape[1]

    @property
    def input_dim(self) -> int:
        return self.blocks[0].dense.weights.shape[0]


def build_mlp(
    input_dim: int,
    class_count: int,
    hidden: tuple[int, ...],
    seed: int = 0,
) -> MlpModel:
    """He-initialised MLP; BN starts at identity (gamma 1, beta 0). A dropout
    member drops units of the last hidden activation at the model's one rate,
    ``default_dropout_rate(class_count)``."""
    if input_dim < 1:
        raise EngineError("input_dim must be positive")
    rng = np.random.default_rng(seed)
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
    return MlpModel(blocks=blocks, head=head, dropout_rate=default_dropout_rate(class_count))


# ---------------------------------------------------------------------------
# model state
# ---------------------------------------------------------------------------


def named_state(model: MlpModel) -> list[tuple[str, np.ndarray]]:
    """Every array of the model, running statistics included, in a fixed order.

    The one place that knows the model's layout: the parameter list and the
    harness's finiteness check read it.
    """
    out: list[tuple[str, np.ndarray]] = []
    for i, blk in enumerate(model.blocks):
        out += [
            (f"blocks.{i}.dense.weights", blk.dense.weights),
            (f"blocks.{i}.dense.bias", blk.dense.bias),
            (f"blocks.{i}.norm.gamma", blk.norm.gamma),
            (f"blocks.{i}.norm.beta", blk.norm.beta),
            (f"blocks.{i}.norm.running_mean", blk.norm.running_mean),
            (f"blocks.{i}.norm.running_var", blk.norm.running_var),
        ]
    return out + [("head.weights", model.head.weights), ("head.bias", model.head.bias)]


def named_parameters(model: MlpModel) -> list[tuple[str, np.ndarray]]:
    """Trainable tensors only, in ``named_state`` order; running statistics are state."""
    return [(name, arr) for name, arr in named_state(model) if ".running_" not in name]


def adaptable_copy(model: MlpModel) -> MlpModel:
    """A copy to adapt: new layers, each BN array (gamma, beta, running
    statistics) a writable copy, and each dense and head array shared where it is
    read-only, as a ``streams.prepared_task`` checkpoint's are, and copied where
    it is writable. TENT writes only BN arrays, and a rollback replaces the model
    by a new copy, so a shared array is never written; a write into one raises
    numpy's read-only error."""

    def dense(layer: DenseLayer) -> DenseLayer:
        return DenseLayer(*(a.copy() if a.flags.writeable else a for a in (layer.weights, layer.bias)))

    def norm(layer: BatchNormLayer) -> BatchNormLayer:
        return BatchNormLayer(*(a.copy() for a in (layer.gamma, layer.beta, layer.running_mean, layer.running_var)))

    blocks = [HiddenBlock(dense(blk.dense), norm(blk.norm)) for blk in model.blocks]
    return MlpModel(blocks, dense(model.head), model.dropout_rate)


def resolve_trainable(model: MlpModel, trainable: str) -> tuple[str, ...]:
    if trainable == "all":
        return tuple(name for name, _ in named_parameters(model))
    if trainable == "bn":
        return tuple(name for name, _ in named_parameters(model) if ".norm." in name)
    raise EngineError(f"unknown trainable mask {trainable!r}")


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    e = np.subtract(logits, logits.max(axis=1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


@dataclass
class _BlockCache:
    """What backward reads of one hidden block. ``gate`` is the relu gate ``out > 0``,
    so neither the float output nor the pre-relu value ``gamma * xhat + beta`` is
    kept. ``x_in`` is the block's input, kept for the dense weight gradient or, in
    block 0, to rebuild ``xhat``; otherwise it is None, and the forward let the
    input go once the block's dense product existed. ``xhat`` is None where it
    is rebuilt, and ``mean`` is the mean the forward subtracted, kept only then.
    ``_backprop`` reads ``xhat`` for the gamma gradient and, under TrainBN, the
    input gradient, then overwrites it with ``xhat * dot``, its last use, and
    pops the entry once it has used it."""

    x_in: np.ndarray | None
    xhat: np.ndarray | None
    mean: np.ndarray | None  # batch or running depending on mode
    inv_std: np.ndarray  # 1/sqrt(var + eps), batch or running depending on mode
    gate: np.ndarray | None  # bool; None once ``_backprop`` has applied it

    def normalised(self, dense: DenseLayer) -> np.ndarray:
        """``xhat``, rebuilt on first read, if it was not kept, by the forward's
        own four operations in their order, so its bits are the forward's."""
        if self.xhat is None:
            self.xhat = _dense(dense, self.x_in)
            self.xhat -= self.mean
            self.xhat *= self.inv_std
        return self.xhat


@dataclass
class _ForwardCache:
    blocks: list[_BlockCache]
    head_in: np.ndarray | None
    logits: np.ndarray | None  # None once ``_backprop`` has started
    probs: np.ndarray | None


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


def _running_inv_std(norm: BatchNormLayer) -> np.ndarray:
    return 1.0 / np.sqrt(norm.running_var + BN_EPS)


def _dense(layer: DenseLayer, x: np.ndarray) -> np.ndarray:
    """``x @ weights + bias``, the bias added in place."""
    out = x @ layer.weights
    out += layer.bias
    return out


def _finish_block(
    blk: HiddenBlock, z: np.ndarray, train_bn: bool, keep_xhat: bool = False, inv_std: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, np.ndarray]:
    """One hidden block from the product ``z = x_in @ weights`` on: the bias,
    BN and relu, as (activation, xhat, mean, inv_std), where ``mean`` is what was
    subtracted, the batch's or ``running_mean``. A caller that rebinds its input
    to ``z`` lets the input go before anything else is allocated.

    Without ``keep_xhat`` the bias, the normalisation, the affine and the relu
    overwrite ``z``, so the activation is ``z`` and ``xhat`` comes back as None.
    With it, ``z`` becomes ``xhat`` and the activation is a second array, which
    TrainBN's variance first uses for its squares; an axis-0 sum's bits do not
    depend on where its input lives. Outside TrainBN, a caller may pass in the
    block's ``_running_inv_std`` to reuse it.
    """
    z += blk.dense.bias
    # with keep_xhat the activation needs an array of its own; TrainBN's squares borrow it first
    out = np.empty_like(z) if keep_xhat else z
    if train_bn:
        # np.mean and np.var both divide an axis-0 sum by n; z is centred once
        n = z.shape[0]
        mean = z.sum(axis=0)
        mean /= n
        z -= mean
        var = np.multiply(z, z, out=out if keep_xhat else None).sum(axis=0)
        var /= n
        inv_std = var + BN_EPS
        np.sqrt(inv_std, out=inv_std)
        np.divide(1.0, inv_std, out=inv_std)
        # torch convention: running_var tracks the unbiased estimate
        var_running = var * n / (n - 1) if n > 1 else var
        blk.norm.running_mean *= 1.0 - BN_MOMENTUM
        blk.norm.running_mean += BN_MOMENTUM * mean
        blk.norm.running_var *= 1.0 - BN_MOMENTUM
        blk.norm.running_var += BN_MOMENTUM * var_running
    else:
        if inv_std is None:
            inv_std = _running_inv_std(blk.norm)
        mean = blk.norm.running_mean
        z -= mean
    z *= inv_std
    np.multiply(z, blk.norm.gamma, out=out)
    out += blk.norm.beta
    np.maximum(out, 0.0, out=out)
    return out, z if keep_xhat else None, mean, inv_std


def _keep_threshold(rate: float) -> tuple[int, float]:
    """The mask's threshold on a 16-bit word, and the keep probability it draws,
    by which a dropout member divides its kept units. At rate 0.4 a unit drops
    with probability 26214/65536."""
    threshold = round(rate * MASK_LEVELS)
    return threshold, 1.0 - threshold / MASK_LEVELS


def _keep_mask(rng: np.random.Generator, shape: tuple[int, int], threshold: int) -> np.ndarray:
    """A bool keep mask of ``shape`` from ``rng``'s next ``ceil(size / 4)`` raw
    64-bit words: a unit is kept when its 16-bit word, four units to a raw word,
    is at least ``threshold``."""
    size = shape[0] * shape[1]
    words = rng.bit_generator.random_raw(-(-size // 4)).view(np.uint16)[:size]
    return (words >= threshold).reshape(shape)


def _forward_cached(
    model: MlpModel, x: np.ndarray, mode: ForwardMode, keep_inputs: bool = False
) -> _ForwardCache:
    """The forward with every per-block array backward reads; each block's input
    and the head input only with ``keep_inputs``, for the weight gradients.

    Without ``keep_inputs``, block 0 keeps its input, the caller's batch, which
    is alive anyway and narrower than a block, and the mean it subtracted, in
    place of ``xhat``: backward rebuilds ``xhat`` only if it reads it. Source
    training's weight gradients read every block's input, so there every block
    keeps ``xhat`` rather than recompute it.
    """
    h, train_bn = _check_input(model, x), _train_bn(mode)
    caches: list[_BlockCache] = []
    for i, blk in enumerate(model.blocks):
        rebuild = not keep_inputs and i == 0
        x_in = h if keep_inputs or rebuild else None
        h = h @ blk.dense.weights  # an input the cache does not keep goes once the product exists
        h, xhat, mean, inv_std = _finish_block(blk, h, train_bn, keep_xhat=not rebuild)
        caches.append(_BlockCache(x_in, xhat, mean if rebuild else None, inv_std, h > 0.0))
    logits = _dense(model.head, h)
    return _ForwardCache(caches, h if keep_inputs else None, logits, softmax(logits))


def _last_hidden(
    model: MlpModel, h: np.ndarray, train_bn: bool, inv_stds: list[np.ndarray] | None = None
) -> np.ndarray:
    """The last hidden activation of the checked input ``h``, keeping only the
    current activation: each block's input goes once its dense product exists,
    before the bias add allocates numpy's ufunc buffer. Outside TrainBN a caller
    may pass each block's ``_running_inv_std`` to reuse them."""
    for blk, inv_std in zip(model.blocks, inv_stds or [None] * len(model.blocks)):
        h = h @ blk.dense.weights
        h = _finish_block(blk, h, train_bn, inv_std=inv_std)[0]
    return h


def forward(model: MlpModel, x: np.ndarray, mode: ForwardMode = Deterministic()) -> np.ndarray:
    """Class probabilities, shape (batch, class_count). TrainBN mutates running stats."""
    return softmax(_dense(model.head, _last_hidden(model, _check_input(model, x), _train_bn(mode))))


def forward_logits(model: MlpModel, x: np.ndarray, mode: ForwardMode = Deterministic()) -> np.ndarray:
    return _dense(model.head, _last_hidden(model, _check_input(model, x), _train_bn(mode)))


def last_hidden(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """The deterministic forward's last hidden activation, (batch, last width);
    the head applied to it, ``h @ weights + bias``, is bitwise ``forward_logits``."""
    return _last_hidden(model, _check_input(model, x), False)


def accuracy(model: MlpModel, x: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy of the deterministic forward, scored in blocks of 128 rows.

    Row blocks bound the activations whatever the number of rows. The input is
    checked and each hidden block's running inverse std computed once per call;
    a row block goes through ``_last_hidden`` with them and the head, so it
    holds at most two (128, width) arrays, and its softmax is taken in place on
    its logits. A count of correct rows is exact, so this is bitwise
    ``np.mean(argmax(forward(model, x), 1) == labels)``.
    """
    x, y = _check_input(model, x), np.asarray(labels)
    if y.shape != (x.shape[0],):
        raise EngineError(f"labels must be one per row: {y.shape} for {x.shape[0]} rows")
    inv_stds = [_running_inv_std(blk.norm) for blk in model.blocks]
    correct = 0
    for start in range(0, x.shape[0], _ACCURACY_BLOCK_ROWS):
        rows = slice(start, start + _ACCURACY_BLOCK_ROWS)
        logits = _dense(model.head, _last_hidden(model, x[rows], False, inv_stds))
        correct += int(np.count_nonzero(np.argmax(softmax(logits, out=logits), axis=1) == y[rows]))
    return correct / x.shape[0]


def dropout_forwards(
    model: MlpModel, hidden: np.ndarray, n: int, seed: int | tuple[int, ...] | np.random.Generator
) -> Iterator[np.ndarray]:
    """Yield ``n`` dropout members of a batch, one (batch, K) array at a time, so
    a caller that reduces each member as it comes holds one member whatever ``n``.

    ``hidden`` is the batch's deterministic last hidden activation
    (``last_hidden``), which no member writes; no hidden block runs again.
    Member k is the head's softmax of ``(hidden * mask_k) / keep``, inverted
    dropout after the last hidden block only, where ``mask_k`` is the k-th
    ``_keep_mask`` draw from ``np.random.default_rng(seed)``, the same words at
    every rate. At rate 0 every mask keeps every unit and ``keep`` is 1.0, so
    each member is bitwise the deterministic forward. Only the shape is
    checked: a non-finite model's activation, and so its members, may be
    non-finite. A member divides its masked copy by ``keep`` in place and lets
    it go once its logits exist, and those before the next member draws, so it
    holds one (rows, width) array besides ``hidden``.
    """
    width = model.head.weights.shape[0]
    if hidden.ndim != 2 or hidden.shape[0] == 0 or hidden.shape[1] != width:
        raise EngineError(f"hidden activation must be (rows >= 1, {width}), not {hidden.shape}")
    rng = np.random.default_rng(seed)
    threshold, keep = _keep_threshold(model.dropout_rate)
    for _ in range(n):
        h = hidden * _keep_mask(rng, hidden.shape, threshold)
        h /= keep
        logits = _dense(model.head, h)
        del h
        yield softmax(logits, out=logits)
        del logits


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def entropy_loss(probs: np.ndarray) -> float:
    """Mean per-row natural-log entropy of a probability batch."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] == 0:
        raise EngineError("entropy_loss expects a non-empty (batch, K) array")
    rows = -np.sum(p * np.log(np.maximum(p, _LOG_GUARD)), axis=1)
    return float(rows.mean())


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


def _cross_entropy_logit_grad(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """d(mean CE)/d logits for softmax outputs: ``probs`` less 1 at each row's label, over the row count."""
    grad = probs.copy()
    grad[np.arange(probs.shape[0]), labels] -= 1.0
    grad /= probs.shape[0]
    return grad


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def backward(
    model: MlpModel,
    x: np.ndarray,
    labels: np.ndarray | None = None,
    mode: ForwardMode = Deterministic(),
    trainable: str = "all",
) -> dict[str, np.ndarray]:
    """Analytic gradients of the mean cross-entropy against ``labels``, or of the
    mean row entropy when there are none, for the chosen parameter subset.

    The gradient graph replays the exact forward used, so the BN statistic
    source matches the ``mode`` given. With TrainBN the running stats
    are refreshed as a side effect, same as forward; the labels and ``trainable``
    are checked first, so a rejected call leaves them untouched.
    """
    wanted = set(resolve_trainable(model, trainable))
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape != (len(x),):
            raise EngineError("labels must be one integer per row")
        if np.any(labels < 0) or np.any(labels >= model.class_count):
            raise EngineError("label out of range")
    keep_inputs = any(name.endswith(".weights") for name in wanted)
    cache = _forward_cached(model, x, mode, keep_inputs)
    return _backprop(model, cache, labels, wanted, _train_bn(mode), False)[0]


def _product_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bitwise ``np.multiply(a, b).sum(axis=0)`` of two (rows, width) arrays,
    holding at most ``_SUM_BLOCK_ROWS`` rows of products.

    The products go into rows 1.. of a (``_SUM_BLOCK_ROWS`` + 1, width) buffer
    one row block at a time, and row 0 carries the running sum. numpy reduces a
    C-contiguous array over axis 0 row by row, so the sum is the one of all the
    rows at once. The first block's sum is a plain one, so it starts as the
    whole sum does, with or without a -0.0 column's sign; a 0.0 added in front
    of it could turn -0.0 into +0.0. A (rows, 1) array sums pairwise, not row by
    row, so one column, like a batch of one block, is summed whole.
    """
    rows, width = a.shape
    if rows <= _SUM_BLOCK_ROWS or width == 1:
        return np.multiply(a, b).sum(axis=0)
    buf = np.empty((_SUM_BLOCK_ROWS + 1, width))
    for start in range(0, rows, _SUM_BLOCK_ROWS):
        k = min(rows - start, _SUM_BLOCK_ROWS)
        np.multiply(a[start : start + k], b[start : start + k], out=buf[1 : k + 1])
        total = buf[1 if start == 0 else 0 : k + 1].sum(axis=0)
        buf[0] = total
    return total


def _backprop(
    model: MlpModel,
    cache: _ForwardCache,
    labels: np.ndarray | None,
    wanted: set[str],
    train_bn: bool,
    want_input_grad: bool,
) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
    """Gradients of the ``wanted`` parameters of the mean cross-entropy against
    ``labels``, or of the mean row entropy when there are none, and d loss/d
    input if wanted.

    Consumes ``cache``: the logits and probabilities are dropped once d loss/d
    logits exists, that once the head's input gradient ``dh`` does, and the head
    input and each block's entry once used, so their arrays are freed as the
    gradient moves down the stack. A (rows, width) product whose column sums are
    all that is read, as the gamma gradient's and TrainBN's ``dz * xhat``, is
    summed by ``_product_sums`` in row blocks, and TrainBN's ``xhat * dot`` is
    written into ``xhat``, which nothing reads after it. A BN-only step's
    largest moment is then two (rows, width) arrays, the gradient and ``xhat``,
    besides the gates not yet applied and the row-block buffer.
    """
    if labels is None:
        dlogits = _entropy_logit_grad(cache.probs)
    else:
        dlogits = _cross_entropy_logit_grad(cache.probs, labels)
    cache.logits = cache.probs = None  # ``dlogits`` is all that is read of them
    grads: dict[str, np.ndarray] = {}
    # every array written below was allocated here; of the cache's, only a spent xhat is written
    if "head.weights" in wanted:
        grads["head.weights"] = cache.head_in.T @ dlogits
        cache.head_in = None
    if "head.bias" in wanted:
        grads["head.bias"] = dlogits.sum(axis=0)
    dh = dlogits @ model.head.weights.T
    del dlogits

    for i in reversed(range(len(model.blocks))):
        blk = model.blocks[i]
        bc = cache.blocks.pop()
        dh *= bc.gate
        bc.gate = None  # freed once applied
        if f"blocks.{i}.norm.gamma" in wanted:
            grads[f"blocks.{i}.norm.gamma"] = _product_sums(dh, bc.normalised(blk.dense))
        if f"blocks.{i}.norm.beta" in wanted:
            grads[f"blocks.{i}.norm.beta"] = dh.sum(axis=0)
        if i == 0 and not want_input_grad and not wanted & {"blocks.0.dense.weights", "blocks.0.dense.bias"}:
            break  # a BN-only step, as TENT's: nothing below block 0's BN gradients is wanted
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
            dot = _product_sums(dz, bc.normalised(blk.dense))
            dot /= n
            mean = dz.sum(axis=0)
            mean /= n
            dz -= mean
            dz -= np.multiply(bc.xhat, dot, out=bc.xhat)  # the last read of xhat
            dz *= bc.inv_std
        if f"blocks.{i}.dense.weights" in wanted:
            grads[f"blocks.{i}.dense.weights"] = bc.x_in.T @ dz
        if f"blocks.{i}.dense.bias" in wanted:
            grads[f"blocks.{i}.dense.bias"] = dz.sum(axis=0)
        if i > 0 or want_input_grad:
            bc = None  # freed before the next gradient is allocated
            dh = dz @ blk.dense.weights.T
            dz = None  # and this block's gradient once the next one exists
    return grads, dh if want_input_grad else None


def input_gradient(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """d(mean CE)/d input against the model's own deterministic predictions.

    Used for gradient-sign probes. The labels are the argmax of the cached
    forward the gradient replays, and no parameter gradient is computed.
    """
    cache = _forward_cached(model, x, Deterministic())
    return _backprop(model, cache, np.argmax(cache.probs, axis=1), set(), False, True)[1]


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------


@dataclass
class OptimizerState:
    """Adam or SGD settings plus the step count and Adam's moments.

    Adam's betas and epsilon are the ``ADAM_*`` module constants. The first
    Adam step lays ``m`` and ``v`` out as flat vectors over the parameters it
    names, in that order (``names``); every later step must name the same ones.
    """

    kind: str = "adam"  # "adam" | "sgd"
    learning_rate: float = 1e-3
    step: int = field(default=0, init=False)
    names: tuple[str, ...] = field(default=(), init=False)
    m: np.ndarray | None = field(default=None, init=False)
    v: np.ndarray | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.kind not in ("adam", "sgd"):
            raise EngineError(f"unknown optimizer kind {self.kind!r}")
        if self.learning_rate < 0:
            raise EngineError("learning rate must be non-negative")


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
    names = tuple(grads)
    if state.kind == "adam" and state.m is not None and names != state.names:
        raise EngineError(f"Adam's moments cover {state.names}, not {names}")
    state.step += 1
    if not grads:
        return
    g = np.concatenate(list(grads.values()), axis=None)
    if state.kind == "sgd":
        update = state.learning_rate * g
    else:
        if state.m is None:
            state.names, state.m, state.v = names, np.zeros(g.size), np.zeros(g.size)
        m, v = state.m, state.v
        b1, b2 = ADAM_BETA1, ADAM_BETA2
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
        scratch += ADAM_EPS
        update /= scratch
    offset = 0
    for p in params:
        p -= update[offset : offset + p.size].reshape(p.shape)
        offset += p.size
