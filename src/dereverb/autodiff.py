"""Reverse-mode differentiation over dense float arrays.

A :class:`Tensor` wraps an ndarray of the engine's precision: float64 unless
a :func:`precision` block says otherwise (training runs in float32; scoring
and gradient checks in float64). Ops compute in their operands' dtype, so a
graph built inside one block holds one precision throughout. Every op
records its parents and a backward rule on the result. Creation order
doubles as the tape: it is a topological order of the graph, so `backward`
walks nodes by descending creation index and visits each exactly once.
Gradients accumulate into `.grad` and are bit-reproducible for identical
runs.

Only tensors that need a gradient get a `.grad`. A `Tensor` built directly
(a parameter, a test leaf) needs one; a raw array an op wraps through
:func:`as_tensor` (model input, targets, scalar factors) is a constant and
does not; an op's result needs one iff any parent does. An op with only
constant parents, and any op under :func:`no_grad`, returns a constant leaf.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager

import numpy as np

from .errors import NotScalarLoss, ShapeMismatch

_counter = itertools.count()
_grad_enabled = True
_dtype = np.float64


@contextmanager
def no_grad():
    """Disable graph recording inside the block (forward-only evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


@contextmanager
def precision(dtype):
    """Build every tensor inside the block as `dtype` (float32 or float64)."""
    global _dtype
    prev = _dtype
    _dtype = dtype
    try:
        yield
    finally:
        _dtype = prev


class Tensor:
    """Node in the differentiation graph; leaves have no parents."""

    __slots__ = ("data", "grad", "parents", "bwd", "seq", "needs_grad")

    def __init__(self, data, parents=(), bwd=None):
        self.data = np.asarray(data, dtype=_dtype)
        self.grad = None
        self.parents = parents
        self.bwd = bwd
        self.seq = next(_counter)
        self.needs_grad = True

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, seq={self.seq})"


def _constant(data) -> Tensor:
    t = Tensor(data)
    t.needs_grad = False
    return t


def as_tensor(x) -> Tensor:
    """`x` itself if it is a Tensor, else a constant wrapping it."""
    return x if isinstance(x, Tensor) else _constant(x)


def accumulate(t: Tensor, g: np.ndarray):
    if not t.needs_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _node(data, parents, bwd) -> Tensor:
    if _grad_enabled and any(p.needs_grad for p in parents):
        return Tensor(data, parents, bwd)
    return _constant(data)


def backward(loss: Tensor):
    """Accumulate d(loss)/d(node) into `.grad` over the reachable graph."""
    if loss.data.size != 1:
        raise NotScalarLoss(f"loss must be scalar, got shape {loss.data.shape}")
    seen = {id(loss): loss}
    stack = [loss]
    while stack:
        node = stack.pop()
        for p in node.parents:
            if id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    loss.grad = np.ones_like(loss.data)
    for node in sorted(seen.values(), key=lambda t: t.seq, reverse=True):
        if node.bwd is not None and node.grad is not None:
            node.bwd(node.grad)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum `g` down to `shape` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def bwd(g):
        accumulate(a, _unbroadcast(g, a.data.shape))
        accumulate(b, _unbroadcast(g, b.data.shape))

    return _node(out, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def bwd(g):
        accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(out, (a, b), bwd)


def matmul(a, b) -> Tensor:
    """Matrix product [n,k]@[k,m]; both operands must be 2-D."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatch(f"matmul on {a.data.shape} @ {b.data.shape}")
    out = a.data @ b.data

    def bwd(g):
        accumulate(a, g @ b.data.T)
        accumulate(b, a.data.T @ g)

    return _node(out, (a, b), bwd)


def mse(a, b) -> Tensor:
    """Mean squared difference over all elements."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(f"mse on {a.data.shape} vs {b.data.shape}")
    diff = a.data - b.data
    n = diff.size

    def bwd(g):
        scale = 2.0 * float(g) / n
        accumulate(a, scale * diff)
        accumulate(b, -scale * diff)

    return _node((diff * diff).mean(), (a, b), bwd)


# ---------------------------------------------------------------------------
# Elementwise nonlinearities
# ---------------------------------------------------------------------------

def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0

    def bwd(g):
        accumulate(a, g * mask)

    return _node(np.where(mask, a.data, 0.0), (a,), bwd)


def elu(a) -> Tensor:
    """x for x > 0, exp(x) - 1 otherwise (alpha 1)."""
    a = as_tensor(a)
    neg = np.exp(np.minimum(a.data, 0.0)) - 1.0
    out = np.where(a.data > 0, a.data, neg)

    def bwd(g):
        accumulate(a, g * np.where(a.data > 0, 1.0, neg + 1.0))

    return _node(out, (a,), bwd)


# ---------------------------------------------------------------------------
# Shape plumbing
# ---------------------------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    src = a.data.shape

    def bwd(g):
        accumulate(a, g.reshape(src))

    return _node(a.data.reshape(shape), (a,), bwd)


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes) if axes is not None else tuple(reversed(range(a.data.ndim)))
    inverse = np.argsort(axes)

    def bwd(g):
        accumulate(a, g.transpose(inverse))

    return _node(a.data.transpose(axes), (a,), bwd)


def concat(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            accumulate(t, piece)

    return _node(np.concatenate([t.data for t in tensors], axis=axis),
                 tuple(tensors), bwd)


def pad_tail(a, pad_t, pad_f) -> Tensor:
    """Zero-pad the trailing edge of the first two axes of [T,F,...]."""
    a = as_tensor(a)
    widths = [(0, pad_t), (0, pad_f)] + [(0, 0)] * (a.data.ndim - 2)
    t, f = a.data.shape[:2]

    def bwd(g):
        accumulate(a, g[:t, :f])

    return _node(np.pad(a.data, widths), (a,), bwd)


def slice2d(a, t0, t1, f0, f1) -> Tensor:
    """Slice [t0:t1, f0:f1] of the first two axes."""
    a = as_tensor(a)
    widths = [(t0, a.data.shape[0] - t1), (f0, a.data.shape[1] - f1)]
    widths += [(0, 0)] * (a.data.ndim - 2)

    def bwd(g):
        accumulate(a, np.pad(g, widths))

    return _node(a.data[t0:t1, f0:f1], (a,), bwd)


def pad_rows_edge(a, front, back) -> Tensor:
    """Replicate the first/last row of a [T x D] matrix `front`/`back` times."""
    a = as_tensor(a)
    t = a.data.shape[0]
    out = np.concatenate([np.repeat(a.data[:1], front, axis=0),
                          a.data,
                          np.repeat(a.data[-1:], back, axis=0)])

    def bwd(g):
        inner = g[front:front + t].copy()
        if front:
            inner[0] += g[:front].sum(axis=0)
        if back:
            inner[-1] += g[front + t:].sum(axis=0)
        accumulate(a, inner)

    return _node(out, (a,), bwd)
