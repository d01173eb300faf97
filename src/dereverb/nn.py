"""Neural-network layers on the autodiff engine, plus Adam and grad checking.

Every layer computes in its operands' dtype: float32 when training, float64
for scoring and gradient checks (see :func:`autodiff.precision`).
Convolutions follow the cross-correlation convention used by deep-learning
frameworks (no kernel flip), unlike the true convolutions in :mod:`dsp`.
All layers operate on single examples: conv inputs are [T, F, C], recurrent
inputs are [T, D].
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor, accumulate, add, as_tensor, backward, matmul, no_grad, _node
from .errors import ShapeMismatch


def _same_padding(size, k, s):
    out = -(-size // s)  # ceil
    return max((out - 1) * s + k - size, 0)


# The three functions below are the whole convolution core: conv2d and
# conv2d_transposed are each other's adjoint and share them. _correlate and
# _kernel_grad work on columns (im2col): each output position's receptive
# field, flattened in kernel order (kT, kF, Cin), is one row of a column
# matrix, so a block of output rows is one GEMM with kernel.reshape(-1, Cout).
# The column matrix is built one block at a time, at most _COLUMN_BYTES each
# (one output row when a row alone is larger), so memory stays flat: whole,
# it would take 118 MB on a desk joint layer. _correlate_adjoint keeps one
# GEMM per tap (i, j) over a strided window: its column form has to
# overlap-add every tap back into the input, and that measured slower.

_COLUMN_BYTES = 256 * 1024


def _window(i, j, stride, out_shape):
    """Rows and columns of the input that tap (i, j) reads for out_shape."""
    (s_t, s_f), (t_out, f_out) = stride, out_shape[:2]
    return (slice(i, i + s_t * (t_out - 1) + 1, s_t),
            slice(j, j + s_f * (f_out - 1) + 1, s_f))


def _column_blocks(x, k_t, k_f, stride):
    """Yield (output row slice, column block) pairs covering every output row.

    A column block is [rows * F', kT * kF * Cin]: entry (t, f) of the block's
    rows holds x[t*sT + i, f*sF + j, c] at column (i, j, c).
    """
    views = np.lib.stride_tricks.sliding_window_view(x, (k_t, k_f), axis=(0, 1))
    views = views[::stride[0], ::stride[1]].transpose(0, 1, 3, 4, 2)
    rows = max(1, _COLUMN_BYTES // (views[0].size * views.itemsize))
    for r0 in range(0, len(views), rows):
        yield slice(r0, r0 + rows), views[r0:r0 + rows].reshape(-1, views[0, 0].size)


def _correlate(x, kernel, stride):
    """Valid strided cross-correlation: [T,F,Cin] with [kT,kF,Cin,Cout] -> [T',F',Cout]."""
    k_t, k_f, c_in, c_out = kernel.shape
    shape = ((x.shape[0] - k_t) // stride[0] + 1, (x.shape[1] - k_f) // stride[1] + 1, c_out)
    out = np.empty(shape, np.result_type(x, kernel))
    k2 = kernel.reshape(-1, c_out)
    for rows, cols in _column_blocks(x, k_t, k_f, stride):
        out[rows] = (cols @ k2).reshape(-1, *shape[1:])
    return out


def _correlate_adjoint(g, kernel, stride, shape):
    """Adjoint of :func:`_correlate` in its input: [T',F',Cout] -> `shape` [T,F,Cin]."""
    k_t, k_f, c_in, c_out = kernel.shape
    g2 = g.reshape(-1, c_out)
    out = np.zeros(shape, np.result_type(g, kernel))
    for i in range(k_t):
        for j in range(k_f):
            out[_window(i, j, stride, g.shape)] += \
                (g2 @ kernel[i, j].T).reshape(*g.shape[:2], c_in)
    return out


def _kernel_grad(x, g, kernel_shape, stride):
    """Gradient of <_correlate(x, k), g> in k."""
    k_t, k_f, c_in, c_out = kernel_shape
    gk = np.zeros((k_t * k_f * c_in, c_out), np.result_type(x, g))
    for rows, cols in _column_blocks(x, k_t, k_f, stride):
        gk += cols.T @ g[rows].reshape(-1, c_out)
    return gk.reshape(kernel_shape)


def conv2d(x, kernel, bias=None, stride=(1, 1), padding="valid") -> Tensor:
    """2-D convolution: [T,F,Cin] with kernel [kT,kF,Cin,Cout] -> [T',F',Cout].

    "valid" gives T' = (T-kT)/sT + 1; "same" gives T' = ceil(T/sT) via
    symmetric zero padding. Bias, when given, is one value per output channel.
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    if x.data.ndim != 3 or kernel.data.ndim != 4:
        raise ShapeMismatch(f"conv2d on {x.data.shape} with {kernel.data.shape}")
    k_t, k_f, c_in, _ = kernel.data.shape
    if x.data.shape[2] != c_in:
        raise ShapeMismatch(f"input has {x.data.shape[2]} channels, kernel wants {c_in}")

    if padding == "same":
        pad_t = _same_padding(x.data.shape[0], k_t, stride[0])
        pad_f = _same_padding(x.data.shape[1], k_f, stride[1])
        t0, f0 = pad_t // 2, pad_f // 2
        xd = np.pad(x.data, ((t0, pad_t - t0), (f0, pad_f - f0), (0, 0)))
    elif padding == "valid":
        t0 = f0 = 0
        xd = x.data
    else:
        raise ValueError(f"unknown padding {padding!r}")
    t_in, f_in = xd.shape[:2]
    if k_t > t_in or k_f > f_in:
        raise ShapeMismatch(f"kernel {k_t}x{k_f} larger than padded input {t_in}x{f_in}")

    out = _correlate(xd, kernel.data, stride)
    if bias is not None:
        bias = as_tensor(bias)
        out = out + bias.data

    def bwd(g):
        accumulate(kernel, _kernel_grad(xd, g, kernel.data.shape, stride))
        if x.needs_grad:
            gx = _correlate_adjoint(g, kernel.data, stride, xd.shape)
            accumulate(x, gx[t0:t0 + x.data.shape[0], f0:f0 + x.data.shape[1]])
        if bias is not None:
            accumulate(bias, g.sum(axis=(0, 1)))

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    return _node(out, parents, bwd)


def conv2d_transposed(x, kernel, bias=None, stride=(1, 1)) -> Tensor:
    """Adjoint of a valid strided conv2d, used by decoder layers.

    Kernel is [kT,kF,Cin,Cout] as in conv2d; here the input carries Cout
    channels and the result carries Cin, with T' = (T-1)*sT + kT, so that
    <conv2d(a,k), b> == <a, conv2d_transposed(b,k)>.
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    if x.data.ndim != 3 or kernel.data.ndim != 4:
        raise ShapeMismatch(f"conv2d_transposed on {x.data.shape} with {kernel.data.shape}")
    k_t, k_f, c_in, c_out = kernel.data.shape
    if x.data.shape[2] != c_out:
        raise ShapeMismatch(f"input has {x.data.shape[2]} channels, kernel wants {c_out}")
    t_in, f_in = x.data.shape[:2]
    shape = ((t_in - 1) * stride[0] + k_t, (f_in - 1) * stride[1] + k_f, c_in)

    out = _correlate_adjoint(x.data, kernel.data, stride, shape)
    if bias is not None:
        bias = as_tensor(bias)
        out = out + bias.data

    def bwd(g):
        accumulate(x, _correlate(g, kernel.data, stride))
        accumulate(kernel, _kernel_grad(g, x.data, kernel.data.shape, stride))
        if bias is not None:
            accumulate(bias, g.sum(axis=(0, 1)))

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    return _node(out, parents, bwd)


def linear(x, weight, bias=None) -> Tensor:
    """x @ W (+ b) for a 2-D x of shape [T, D]."""
    out = matmul(x, weight)
    if bias is not None:
        out = add(out, bias)
    return out


class GruParams:
    """Weights for one GRU direction.

    Gate order: update (z), reset (r), candidate (h). Input weights `w*` are
    [Din, Dh], recurrent weights `u*` are [Dh, Dh], biases are [Dh].
    """

    FIELDS = ("wz", "uz", "bz", "wr", "ur", "br", "wh", "uh", "bh")

    def __init__(self, d_in, d_hidden, rng=None):
        self.d_in = d_in
        self.d_hidden = d_hidden
        if rng is None:
            weights = {f: np.zeros(self._shape(f)) for f in self.FIELDS}
        else:
            weights = {}
            for f in self.FIELDS:
                if f.startswith("w"):
                    weights[f] = glorot_uniform(rng, (d_in, d_hidden))
                elif f.startswith("u"):
                    weights[f] = orthogonal(rng, d_hidden)
                else:
                    weights[f] = np.zeros(d_hidden)
        for f in self.FIELDS:
            setattr(self, f, Tensor(weights[f]))

    def _shape(self, f):
        if f.startswith("w"):
            return (self.d_in, self.d_hidden)
        if f.startswith("u"):
            return (self.d_hidden, self.d_hidden)
        return (self.d_hidden,)

    def tensors(self):
        return [getattr(self, f) for f in self.FIELDS]


def _sigmoid(a):
    return 1.0 / (1.0 + np.exp(-a))


def _gru_scan(x, h0, p: GruParams, reverse):
    """Run one GRU direction over x [T, Din] from state h0 [Dh].

    Returns the states [T, Dh] (row t is the state after frame t) and the
    tape :func:`_gru_scan_backward` needs. The input projections of all
    frames are one GEMM; each step adds only h Uz|Ur and (r*h) Uh. The
    weights are cast once to the scan's dtype, that of x and the weights.
    """
    steps, n = len(x), p.d_hidden
    dtype = np.result_type(x, p.wz.data)
    w = np.concatenate([p.wz.data, p.wr.data, p.wh.data], axis=1, dtype=dtype)
    u_zr = np.concatenate([p.uz.data, p.ur.data], axis=1, dtype=dtype)
    u_h = p.uh.data.astype(dtype, copy=False)
    a = x @ w + np.concatenate([p.bz.data, p.br.data, p.bh.data], dtype=dtype)
    z, r, c, h_prev, out = (np.empty((steps, n), dtype) for _ in range(5))
    h = h0
    # In float32 exp(-a) overflows to inf for a < -88.7 and underflows for
    # a > 87.3; 1 / (1 + inf) = 0 and 1 / (1 + tiny) = 1 are then the sigmoid
    # to the last bit, so neither is an error.
    with np.errstate(over="ignore", under="ignore"):
        for t in (reversed(range(steps)) if reverse else range(steps)):
            h_prev[t] = h
            zr = _sigmoid(a[t, :2 * n] + h @ u_zr)
            z[t], r[t] = zr[:n], zr[n:]
            c[t] = np.tanh(a[t, 2 * n:] + (r[t] * h) @ u_h)
            h = out[t] = (1.0 - z[t]) * h + z[t] * c[t]
    return out, (x, w, u_zr, u_h, z, r, c, h_prev)


def _gru_scan_backward(g, p: GruParams, tape, reverse):
    """Backward of :func:`_gru_scan` for output gradient g [T, Dh].

    Walks the steps in the opposite order into the pre-activation gradient
    [T, 3Dh], then forms the weight gradients as whole-sequence GEMMs and
    accumulates them into `p`. Returns the input gradient [T, Din] and the
    gradient of the initial state h0.
    """
    x, w, u_zr, u_h, z, r, c, h_prev = tape
    n = p.d_hidden
    k_z = (c - h_prev) * z * (1.0 - z)   # d h'/d a_z
    k_r = h_prev * r * (1.0 - r)         # d (r*h)/d a_r
    k_c = z * (1.0 - c * c)              # d h'/d a_c
    da = np.empty((len(x), 3 * n), z.dtype)
    dh = np.zeros(n, z.dtype)
    for t in (range(len(x)) if reverse else reversed(range(len(x)))):
        gt = g[t] + dh
        da[t, 2 * n:] = gt * k_c[t]
        grh = da[t, 2 * n:] @ u_h.T
        da[t, :n] = gt * k_z[t]
        da[t, n:2 * n] = grh * k_r[t]
        dh = gt * (1.0 - z[t]) + grh * r[t] + da[t, :2 * n] @ u_zr.T
    dw, db = np.split(x.T @ da, 3, axis=1), np.split(da.sum(axis=0), 3)
    du = [*np.split(h_prev.T @ da[:, :2 * n], 2, axis=1), (r * h_prev).T @ da[:, 2 * n:]]
    for i, gate in enumerate("zrh"):
        accumulate(getattr(p, "w" + gate), dw[i])
        accumulate(getattr(p, "u" + gate), du[i])
        accumulate(getattr(p, "b" + gate), db[i])
    return da @ w.T, dh


def gru_cell(x_t, h_prev, params: GruParams) -> Tensor:
    """One GRU step: the one-frame case of the scan behind :func:`bigru_layer`.

        z = sigmoid(x Wz + h Uz + bz)
        r = sigmoid(x Wr + h Ur + br)
        c = tanh(x Wh + (r*h) Uh + bh)
        h' = (1 - z) * h + z * c

    Gradients flow to x_t, h_prev and every parameter.
    """
    x_t, h_prev = as_tensor(x_t), as_tensor(h_prev)
    p = params
    if x_t.data.shape != (p.d_in,) or h_prev.data.shape != (p.d_hidden,):
        raise ShapeMismatch(
            f"gru_cell got x {x_t.data.shape}, h {h_prev.data.shape}, "
            f"wants ({p.d_in},), ({p.d_hidden},)")
    out, tape = _gru_scan(x_t.data[None], h_prev.data, p, reverse=False)

    def bwd(g):
        gx, gh = _gru_scan_backward(g[None], p, tape, reverse=False)
        accumulate(x_t, gx[0])
        accumulate(h_prev, gh)

    return _node(out[0], (x_t, h_prev, *p.tensors()), bwd)


def bigru_layer(seq, fwd_params: GruParams, bwd_params: GruParams) -> Tensor:
    """Bidirectional GRU over [T, Din] -> [T, Dh_fwd + Dh_bwd], one graph node.

    Each direction is one :func:`_gru_scan` from a zero state, the forward
    one left to right and the backward one right to left; row t holds both
    directions' states after frame t, forward first. T must be at least 1
    and both directions must take Din features.
    """
    seq = as_tensor(seq)
    if fwd_params.d_in != bwd_params.d_in:
        raise ShapeMismatch(f"bigru directions take {fwd_params.d_in} and "
                            f"{bwd_params.d_in} input features")
    x = seq.data
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] != fwd_params.d_in:
        raise ShapeMismatch(f"bigru_layer got {x.shape}, wants [T >= 1, {fwd_params.d_in}]")
    fwd_out, fwd_tape = _gru_scan(x, np.zeros(fwd_params.d_hidden, x.dtype), fwd_params,
                                  reverse=False)
    bwd_out, bwd_tape = _gru_scan(x, np.zeros(bwd_params.d_hidden, x.dtype), bwd_params,
                                  reverse=True)

    def bwd(g):
        n = fwd_params.d_hidden
        gx_fwd, _ = _gru_scan_backward(g[:, :n], fwd_params, fwd_tape, reverse=False)
        gx_bwd, _ = _gru_scan_backward(g[:, n:], bwd_params, bwd_tape, reverse=True)
        accumulate(seq, gx_fwd + gx_bwd)

    parents = (seq, *fwd_params.tensors(), *bwd_params.tensors())
    return _node(np.concatenate([fwd_out, bwd_out], axis=1), parents, bwd)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def glorot_uniform(rng, shape, fan_in=None, fan_out=None) -> np.ndarray:
    if fan_in is None:
        fan_in = shape[0] if len(shape) == 2 else int(np.prod(shape[:-1]))
    if fan_out is None:
        fan_out = shape[-1]
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


def orthogonal(rng, n) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


# ---------------------------------------------------------------------------
# Optimization
# ---------------------------------------------------------------------------

class Adam:
    """Adam with bias correction; moments live alongside each parameter, in its dtype."""

    def __init__(self, params, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ShapeMismatch(f"gradient {g.shape} vs parameter {p.data.shape}")
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def grad_check(loss_fn, params, eps=1e-5, max_entries=20000, rng=None) -> float:
    """Max relative error between analytic and central-difference gradients.

    `loss_fn` rebuilds the scalar loss from the live parameter tensors. When
    the parameters hold more than `max_entries` scalars a seeded random
    subset is probed instead. The error denominator is
    max(|analytic|, |numeric|, 1e-8).
    """
    for p in params:
        p.grad = None
    backward(loss_fn())
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                for p in params]

    entries = [(i, j) for i, p in enumerate(params) for j in range(p.data.size)]
    if len(entries) > max_entries:
        rng = rng or np.random.default_rng(0)
        picks = rng.choice(len(entries), size=max_entries, replace=False)
        entries = [entries[k] for k in sorted(picks)]

    worst = 0.0
    with no_grad():
        for i, j in entries:
            p = params[i]
            orig = p.data.flat[j]
            p.data.flat[j] = orig + eps
            f_plus = float(loss_fn().data)
            p.data.flat[j] = orig - eps
            f_minus = float(loss_fn().data)
            p.data.flat[j] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = analytic[i].flat[j]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst
