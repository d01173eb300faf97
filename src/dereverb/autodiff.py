"""Reverse-mode differentiation over dense float arrays.

A :class:`Tensor` wraps an ndarray of the engine's precision: float64 unless
a :func:`precision` block says otherwise (train and eval compute in float32;
gradcheck in float64). Ops compute in their operands' dtype, so a graph
built inside one block holds one precision throughout. Every op
records its parents and a backward rule on the result. Creation order
doubles as the tape: it is a topological order of the graph, so `backward`
walks nodes by descending creation index and visits each exactly once.
Gradients accumulate into `.grad` and are bit-reproducible for identical
runs.

`backward` frees the graph as it walks it (as PyTorch does; Paszke et al.,
*PyTorch: An Imperative Style, High-Performance Deep Learning Library*,
NeurIPS 2019): right after an interior node's rule has run, the node drops
its `.grad`, its rule and its parent links, so each activation is freed as
soon as the last rule reading it is done. Only leaves keep `.grad`, and a
graph can be backpropagated once: a second `backward` through any of its
nodes raises `GraphReleased`.

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

from .errors import GraphReleased, NotScalarLoss, ShapeMismatch

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
    """Node in the differentiation graph; leaves have no parents, and a node
    `backward` has released has `parents` None."""

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
        # one pass, the bits of zeros then += (g + 0 turns -0 into 0 and casts as += does)
        t.grad = np.add(g, t.data.dtype.type(0), out=np.empty_like(t.data), casting="same_kind")
    else:
        t.grad += g


def _node(data, parents, bwd) -> Tensor:
    if _grad_enabled and any(p.needs_grad for p in parents):
        return Tensor(data, parents, bwd)
    return _constant(data)


def backward(loss: Tensor):
    """Accumulate d(loss)/d(leaf) into the `.grad` of every reachable leaf
    that needs one, releasing each interior node once its rule has run."""
    if loss.data.size != 1:
        raise NotScalarLoss(f"loss must be scalar, got shape {loss.data.shape}")
    seen = {id(loss): loss}
    stack = [loss]
    while stack:
        node = stack.pop()
        if node.parents is None:
            raise GraphReleased(f"{node!r} belongs to a graph already backpropagated")
        for p in node.parents:
            if id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    # ascending creation order, popped from the end: the walk holds no node it has passed
    order = sorted(seen.values(), key=lambda t: t.seq)
    del seen
    loss.grad = np.ones_like(loss.data)
    while order:
        node = order.pop()
        if node.bwd is not None:
            if node.grad is not None:
                node.bwd(node.grad)
            node.grad = node.bwd = node.parents = None


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
    return _relu_into(a, np.empty_like(a.data))


def elu(a) -> Tensor:
    """x for x > 0, exp(x) - 1 otherwise (alpha 1)."""
    a = as_tensor(a)
    return _elu_into(a, np.empty_like(a.data))


# The two forms `relu` and `elu` share. `out` may be `a.data` itself: each
# rule takes its derivative from the output alone, so the activation can
# overwrite its input when nothing else reads it (`nn.conv2d(activation=)`).

def _relu_into(a: Tensor, out: np.ndarray) -> Tensor:
    """ReLU of `a`, written into `out`."""
    np.maximum(a.data, 0.0, out=out)
    out += 0.0   # turns -0 into 0; NaN stays NaN

    def bwd(g):
        accumulate(a, g * (out > 0))

    return _node(out, (a,), bwd)


def _elu_into(a: Tensor, out: np.ndarray) -> Tensor:
    """ELU of `a`, written into `out`."""
    # no mask: exp(x) - 1 is never above 0 for x <= 0, and x + 0.0 is x
    positive = np.maximum(a.data, 0.0)   # taken before `out` may overwrite `a`
    np.minimum(a.data, 0.0, out=out)
    np.exp(out, out=out)
    out -= 1.0
    out += positive

    def bwd(g):
        # the derivative from the output: 1 where out > 0, exp(x) = out + 1 elsewhere
        accumulate(a, g * (np.minimum(out, 0) + 1))

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


def transpose(a) -> Tensor:
    """`a` with its axes reversed."""
    a = as_tensor(a)

    def bwd(g):
        accumulate(a, g.T)

    return _node(a.data.T, (a,), bwd)


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
