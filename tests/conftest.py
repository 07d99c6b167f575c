"""Fixtures shared by the test modules."""

import tracemalloc

import numpy as np
import pytest

from aetta import nn


@pytest.fixture
def traced_peak():
    """Measure the peak bytes that ``fn()`` allocates, on its second call.

    The first call absorbs one-off allocations (imports, caches, interned
    objects), so the traced call sees only what ``fn`` allocates every time.
    """

    def measure(fn):
        fn()
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure


@pytest.fixture
def caller_ufunc_buffer():
    """numpy's ufunc buffer set to 4096 elements, neither numpy's default nor
    ``nn.UFUNC_BUFFER_ELEMENTS``, for the test's length; the size is yielded."""
    old = np.setbufsize(4096)
    try:
        yield 4096
    finally:
        np.setbufsize(old)


def _reference_members(model, x, n, seed):
    """``n`` dropout members of ``x`` as plain expressions, stacked (n, rows, K).

    Each hidden block is ``((h @ W + b) - rm) * inv_std * gamma + beta``, then
    relu, then ``h * mask / keep``; every mask is drawn in turn from the one
    generator ``np.random.default_rng(seed)``, one ``nn._keep_mask`` call per
    block. At rate 0 every mask keeps every unit and ``keep`` is 1.0.
    """
    rng = np.random.default_rng(seed)
    threshold, keep = nn._keep_threshold(model.dropout_rate)
    members = []
    for _ in range(n):
        h = np.asarray(x, dtype=np.float64)
        for blk in model.blocks:
            inv_std = 1.0 / np.sqrt(blk.norm.running_var + nn.BN_EPS)
            h = ((h @ blk.dense.weights + blk.dense.bias) - blk.norm.running_mean) * inv_std * blk.norm.gamma
            h = np.maximum(h + blk.norm.beta, 0.0)
            h = h * nn._keep_mask(rng, h.shape, threshold) / keep
        logits = h @ model.head.weights + model.head.bias
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        members.append(e / e.sum(axis=1, keepdims=True))
    return np.stack(members)


@pytest.fixture(scope="session")
def reference_members():
    """The plain-expression dropout ensemble that ``nn.dropout_forwards`` must match bitwise."""
    return _reference_members
