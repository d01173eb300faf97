"""Neural-network layers on the autodiff engine, plus Adam and grad checking.

Every layer computes in its operands' dtype: float32 when training and
scoring, float64 for gradient checks (see :func:`autodiff.precision`).
Convolutions follow the cross-correlation convention used by deep-learning
frameworks (no kernel flip), unlike the true convolutions in :mod:`dsp`.
All layers operate on single examples: conv inputs are [T, F, C], recurrent
inputs are [T, D].

:func:`conv2d` has two paths, chosen by :func:`conv_path` from the layer's
shapes alone: the column core (im2col GEMMs) for any stride and kernel, and a
spectral path (real FFTs along time) for a stride-(1, 1) kernel one bin wide
when an operation count says it is cheaper. Both give the same numbers up
to rounding. :func:`conv2d_transposed` always takes the column core.
:func:`conv2d` can apply an ELU or ReLU to its result in place
(`activation=`): the same bits as the separate op, in one buffer, not two.

Only the spectral path needs `scipy.fft`, and it imports it when it first
runs: the import costs about 0.3 s and 27 MB in a fresh process, which
synthesis, the dry estimators and `info` never pay.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import (Tensor, accumulate, add, as_tensor, backward, matmul, no_grad, _elu_into,
                       _node, _relu_into)
from .errors import ShapeMismatch


def _same_padding(size, k, s):
    out = -(-size // s)  # ceil
    return max((out - 1) * s + k - size, 0)


# The column core: conv2d's general path, and all of conv2d_transposed (the
# two are each other's adjoint and share it). _correlate and _kernel_grad
# work on columns (im2col): each output position's receptive field,
# flattened in kernel order (kT, kF, Cin), is one row of a column matrix, so
# a block of output rows is one GEMM with kernel.reshape(-1, Cout). The
# column matrix is built one block at a time, at most _COLUMN_BYTES each
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


# The spectral path, for stride (1, 1) and kF = 1: along time, the output is
# irfft(rfft(x) * conj(rfft(k))) for every (bin, Cin, Cout), the channel sum
# being one complex matmul batched over frequencies. Its cost hardly depends
# on the kernel length, while the column core's grows with kT * Cin * Cout
# per output, so the spectral path wins on the long kernels of the RIR stack
# but loses where one side is thin: one input channel (joint trunk0, whose
# column GEMM is tiny) or one output row (the 187-frame layer, which would
# transform 126 output channels to keep one sample).
#
# _spectral_is_cheaper compares the two per bin for one forward pass:
# kT * Cin * Cout multiply-adds per output row against 4 real ones per
# complex product plus _FFT_COST per n * log2(n) per transformed channel.
# 3 is about the ratio of the GEMM and FFT rates measured on the desk float32
# layers; every weight from 0.8 to 5.1 picks the same layers of the desk and
# paper stacks.
#
# The FFT length n is _fast_len(T), not T: on desk trunk1 (T = 305 =
# 5 * 61) a 305-point forward was slower than the column core and a
# 320-point one 1.7 times faster. Any n >= T keeps the circular products
# exact, since no valid output, kernel lag or adjoint row reaches past T.
# The backward takes one rfft of the output gradient for both gradients and
# recomputes rfft(x) rather than keep it on the tape, which held a complex
# copy of every layer's input until the backward and raised train-joint
# peak RSS by a tenth. scipy.fft keeps float32 as complex64 and runs one
# worker.
#
# _fast_len is scipy.fft.next_fast_len(T, real=True) without scipy, so
# conv_path (which `info` also calls) never loads it. The two transforms
# import scipy.fft (334 modules) when they first run, so a process pays for
# it only once a spectral layer runs.

_FFT_COST = 3.0


def _fast_len(t):
    """The least 2^a * 3^b * 5^c >= t (t >= 1): the real-FFT length
    `scipy.fft.next_fast_len(t, real=True)` gives."""
    best = 1 << (t - 1).bit_length()   # the least power of 2
    five = 1
    while five < best:
        m = five
        while m < best:   # m = 3^b * 5^c; the least m * 2^a >= t
            best = min(best, m << (-(-t // m) - 1).bit_length())
            m *= 3
        five *= 5
    return best


def _spectral_is_cheaper(t_in, k_t, c_in, c_out):
    """Whether one forward pass costs fewer operations as spectra, per bin."""
    n = _fast_len(t_in)
    columns = (t_in - k_t + 1) * k_t * c_in * c_out
    spectral = 4 * (n // 2 + 1) * c_in * c_out + _FFT_COST * (c_in + c_out) * n * math.log2(n)
    return spectral < columns


def conv_path(x_shape, kernel_shape, stride=(1, 1)) -> str:
    """How conv2d correlates a kernel with a (padded) input: "spectral" or "columns"."""
    k_t, k_f, c_in, c_out = kernel_shape
    if tuple(stride) == (1, 1) and k_f == 1 and _spectral_is_cheaper(x_shape[0], k_t, c_in, c_out):
        return "spectral"
    return "columns"


def _spectral_correlate(x, kernel):
    """:func:`_correlate` at stride (1, 1) and kF = 1, as spectra along time."""
    import scipy.fft as sfft
    n = _fast_len(len(x))
    k_hat = sfft.rfft(kernel[:, 0], n, axis=0)
    y = sfft.irfft(sfft.rfft(x, n, axis=0) @ k_hat.conj(), n, axis=0)
    return y[:len(x) - len(kernel) + 1]


def _spectral_grads(x, g, kernel, need_x):
    """Kernel and input gradients of :func:`_spectral_correlate` for output
    gradient g; the input gradient is None unless `need_x`."""
    import scipy.fft as sfft
    n = _fast_len(len(x))
    k_hat = sfft.rfft(kernel[:, 0], n, axis=0)
    g_hat = sfft.rfft(g, n, axis=0)
    x_hat = sfft.rfft(x, n, axis=0).transpose(0, 2, 1)
    gk = sfft.irfft(x_hat @ g_hat.conj(), n, axis=0)[:len(kernel)]
    del x_hat   # freed before the input gradient's buffers: it set the step's peak
    gx = None
    if need_x:
        gx = sfft.irfft(g_hat @ k_hat.transpose(0, 2, 1), n, axis=0)[:len(x)]
    return gk.reshape(kernel.shape), gx


_ACTIVATIONS = {None: None, "elu": _elu_into, "relu": _relu_into}


def conv2d(x, kernel, bias=None, stride=(1, 1), padding="valid", activation=None) -> Tensor:
    """2-D convolution: [T,F,Cin] with kernel [kT,kF,Cin,Cout] -> [T',F',Cout].

    "valid" gives T' = (T-kT)/sT + 1; "same" gives T' = ceil(T/sT) via
    symmetric zero padding. Bias, when given, is one value per output channel.

    `activation` "elu" or "relu" returns that activation of the result, in
    value and gradients the bits of `ad.elu(conv2d(...))` or
    `ad.relu(conv2d(...))`, written over the convolution's output: its node
    is never returned, so no other op reads that output, and its rule reads
    only the input and kernel.
    """
    if activation not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
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

    spectral = conv_path(xd.shape, kernel.data.shape, stride) == "spectral"
    if spectral:
        out = _spectral_correlate(xd, kernel.data)
    else:
        out = _correlate(xd, kernel.data, stride)
    if bias is not None:
        bias = as_tensor(bias)
        out = out + bias.data

    def bwd(g):
        if spectral:
            gk, gx = _spectral_grads(xd, g, kernel.data, x.needs_grad)
        else:
            gk = _kernel_grad(xd, g, kernel.data.shape, stride)
            gx = _correlate_adjoint(g, kernel.data, stride, xd.shape) if x.needs_grad else None
        accumulate(kernel, gk)
        if gx is not None:
            accumulate(x, gx[t0:t0 + x.data.shape[0], f0:f0 + x.data.shape[1]])
        if bias is not None:
            accumulate(bias, g.sum(axis=(0, 1)))

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    node = _node(out, parents, bwd)
    if activation is None:
        return node
    return _ACTIVATIONS[activation](node, node.data)


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
    """Weights for one GRU direction, the three gates side by side.

    Input weights `w` are [Din, 3Dh], recurrent weights `u` are [Dh, 3Dh] and
    biases `b` are [3Dh]. Each holds the gates' columns in the order update
    (z), reset (r), candidate (h): columns [:Dh] feed z, [Dh:2Dh] r and
    [2Dh:] h. The weights are drawn from `rng` gate by gate (Glorot input
    weights, an orthogonal recurrent matrix, zero biases) and joined once here.
    """

    def __init__(self, d_in, d_hidden, rng):
        self.d_in = d_in
        self.d_hidden = d_hidden
        gates = [(glorot_uniform(rng, (d_in, d_hidden)), orthogonal(rng, d_hidden))
                 for _ in "zrh"]
        w, u = map(np.hstack, zip(*gates))
        self.w, self.u, self.b = Tensor(w), Tensor(u), Tensor(np.zeros(3 * d_hidden))

    def tensors(self):
        return [self.w, self.u, self.b]


def _sigmoid(a):
    return 1.0 / (1.0 + np.exp(-a))


def _gru_scan(x, h0, p: GruParams, reverse):
    """Run one GRU direction over x [T, Din] from state h0 [Dh].

    Returns the states [T, Dh] (row t is the state after frame t) and the
    tape :func:`_gru_scan_backward` needs. The input projections of all
    frames are one GEMM with the fused `w`; each step adds only h times the
    z and r columns of `u`, and (r*h) times its h columns. The scan computes
    in the dtype of x and the weights.
    """
    steps, n = len(x), p.d_hidden
    u_zr, u_h = p.u.data[:, :2 * n], p.u.data[:, 2 * n:]
    a = x @ p.w.data + p.b.data
    z, r, c, h_prev, out = (np.empty((steps, n), a.dtype) for _ in range(5))
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
    return out, (x, z, r, c, h_prev)


def _gru_scan_backward(g, p: GruParams, tape, reverse):
    """Backward of :func:`_gru_scan` for output gradient g [T, Dh].

    Walks the steps in the opposite order into the pre-activation gradient
    [T, 3Dh], then forms the gradients of `w`, `u` and `b` as whole-sequence
    GEMMs and accumulates them into `p`. Returns the input gradient [T, Din]
    and the gradient of the initial state h0.
    """
    x, z, r, c, h_prev = tape
    n = p.d_hidden
    # Contiguous copies, not views: OpenBLAS's float32 transposed gemv sums
    # in another order over a column block of a wider matrix (seen for
    # Dh <= 8), and the gate blocks must give a standalone matrix's products.
    u_zr = np.ascontiguousarray(p.u.data[:, :2 * n])
    u_h = np.ascontiguousarray(p.u.data[:, 2 * n:])
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
    accumulate(p.w, x.T @ da)
    accumulate(p.u, np.hstack([h_prev.T @ da[:, :2 * n], (r * h_prev).T @ da[:, 2 * n:]]))
    accumulate(p.b, da.sum(axis=0))
    return da @ p.w.data.T, dh


def gru_cell(x_t, h_prev, params: GruParams) -> Tensor:
    """One GRU step: the one-frame case of the scan behind :func:`bigru_layer`.

        z = sigmoid(x Wz + h Uz + bz)
        r = sigmoid(x Wr + h Ur + br)
        c = tanh(x Wh + (r*h) Uh + bh)
        h' = (1 - z) * h + z * c

    where Wz, Uz and bz are the z columns of `w`, `u` and `b`, and so on.
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

def glorot_uniform(rng, shape) -> np.ndarray:
    """Uniform draws of Glorot's variance; every axis but the last fans in."""
    limit = math.sqrt(6.0 / (math.prod(shape[:-1]) + shape[-1]))
    return rng.uniform(-limit, limit, shape)


def orthogonal(rng, n) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


# ---------------------------------------------------------------------------
# Optimization
# ---------------------------------------------------------------------------

class Adam:
    """Adam with bias correction at the published constants BETA1, BETA2 and EPS
    (Kingma & Ba, arXiv:1412.6980); only the learning rate is set. Moments live
    alongside each parameter, in its dtype; `t` counts the steps taken."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params, lr=1e-4):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.t += 1
        c1 = 1.0 - self.BETA1 ** self.t
        c2 = 1.0 - self.BETA2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ShapeMismatch(f"gradient {g.shape} vs parameter {p.data.shape}")
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * g * g
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.EPS)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def grad_check(loss_fn, params, eps=1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `loss_fn` rebuilds the scalar loss from the live parameter tensors; every
    parameter entry is probed. The error denominator is
    max(|analytic|, |numeric|, 1e-8).
    """
    for p in params:
        p.grad = None
    backward(loss_fn())
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                for p in params]

    worst = 0.0
    with no_grad():
        for p, grad in zip(params, analytic):
            for j in range(p.data.size):
                orig = p.data.flat[j]
                p.data.flat[j] = orig + eps
                f_plus = float(loss_fn().data)
                p.data.flat[j] = orig - eps
                f_minus = float(loss_fn().data)
                p.data.flat[j] = orig
                numeric = (f_plus - f_minus) / (2.0 * eps)
                a = grad.flat[j]
                rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
                worst = max(worst, rel)
    return worst
