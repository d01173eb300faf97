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
Both add the bias into a column-core result in place, unless the sum takes
a wider dtype; a spectral result, a slice of a padded inverse FFT, takes it
as a copy that lets the padding go. A "same"-padded :func:`conv2d` keeps
only its unpadded input, which the op before it holds anyway, and pads it
again in its rule (recomputing what is cheap rather than storing it; Chen
et al., arXiv:1604.06174).

:func:`bigru_layer` runs the GRU equations (stated at :func:`gru_cell`, its
one-frame case) through one scan over a stack of directions. It steps both
directions in one loop where :func:`bigru_stacks` says their recurrent
weights fit in cache together (the tiny and desk models), and one direction
per loop otherwise (the paper model); the two groupings give the same bits.

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
    # conj(conj(x_hat) @ g_hat) is x_hat @ conj(g_hat) to the bit; this way
    # the conjugations touch the fresh x_hat in place and the small
    # [bins, Cin, Cout] product, not a copy of g_hat
    x_hat = sfft.rfft(x, n, axis=0).transpose(0, 2, 1)
    np.conjugate(x_hat, out=x_hat)
    gk = sfft.irfft((x_hat @ g_hat).conj(), n, axis=0)[:len(kernel)]
    del x_hat   # freed before the input gradient's buffers: it set the step's peak
    gx = None
    if need_x:
        gx_hat = g_hat @ k_hat.transpose(0, 2, 1)
        del g_hat
        gx = sfft.irfft(gx_hat, n, axis=0)[:len(x)]
    return gk.reshape(kernel.shape), gx


_ACTIVATIONS = {None: None, "elu": _elu_into, "relu": _relu_into}


def _add_bias(out, bias):
    """out + bias, written into `out` when it is a convolution's own fresh
    array. The spectral path's result is a slice of its padded inverse FFT,
    and the sum's copy lets the rest of that go; a sum of a wider dtype than
    `out` is a copy too."""
    if out.base is not None or np.result_type(out, bias) != out.dtype:
        return out + bias
    out += bias
    return out


def conv2d(x, kernel, bias=None, stride=(1, 1), padding="valid", activation=None) -> Tensor:
    """2-D convolution: [T,F,Cin] with kernel [kT,kF,Cin,Cout] -> [T',F',Cout].

    "valid" gives T' = (T-kT)/sT + 1; "same" gives T' = ceil(T/sT) via
    symmetric zero padding. The rule pads the input again rather than keep
    a padded copy until backward: the op that made the input holds it
    anyway. Bias, when given, is one value per output channel.

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

    t, f = x.data.shape[:2]
    if padding == "same":
        pad_t = _same_padding(t, k_t, stride[0])
        pad_f = _same_padding(f, k_f, stride[1])
        t0, f0 = pad_t // 2, pad_f // 2
        widths = ((t0, pad_t - t0), (f0, pad_f - f0), (0, 0))
    elif padding == "valid":
        t0 = f0 = 0
        widths = None
    else:
        raise ValueError(f"unknown padding {padding!r}")

    def padded():
        return x.data if widths is None else np.pad(x.data, widths)

    xd = padded()
    t_in, f_in = xd.shape[:2]
    if k_t > t_in or k_f > f_in:
        raise ShapeMismatch(f"kernel {k_t}x{k_f} larger than padded input {t_in}x{f_in}")

    spectral = conv_path(xd.shape, kernel.data.shape, stride) == "spectral"
    if spectral:
        out = _spectral_correlate(xd, kernel.data)
    else:
        out = _correlate(xd, kernel.data, stride)
    del xd   # before the bias and activation make their temporaries
    if bias is not None:
        bias = as_tensor(bias)
        out = _add_bias(out, bias.data)

    def bwd(g):
        xp = padded()
        if spectral:
            gk, gx = _spectral_grads(xp, g, kernel.data, x.needs_grad)
        else:
            gk = _kernel_grad(xp, g, kernel.data.shape, stride)
            gx = _correlate_adjoint(g, kernel.data, stride, xp.shape) if x.needs_grad else None
        del xp
        accumulate(kernel, gk)
        if gx is not None:
            accumulate(x, gx[t0:t0 + t, f0:f0 + f])
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
        out = _add_bias(out, bias.data)

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


def _sigmoid_into(a):
    """a = 1 / (1 + exp(-a)), in place."""
    np.negative(a, out=a)
    np.exp(a, out=a)
    a += 1.0
    np.divide(1.0, a, out=a)


# The scan steps a stack of D = 1 or 2 GRU directions of one width in one
# loop. A Bi-GRU layer's directions are independent recurrences over the
# same input, so a step takes both directions' h @ u_zr as one stacked
# np.matmul of [D, 1, H] states with [D, H, 2H] matrices, and both
# (r*h) @ u_h as another. numpy runs each member of a stack through the gemv
# a lone direction gets, on a matrix of the same layout, so values and
# gradients keep their bits and only the Python steps halve. That pays while
# both recurrent matrices stay in cache. Forward plus backward of one layer
# (float32, T = 292, Din = 2H), stacked against one direction at a time, in
# two sweeps: 0.62-0.63, 0.72-0.81, 0.81-1.00 and 0.94-0.97 times at H = 64,
# 128, 192 and 256 (both matrices up to 1.5 MiB), but 1.27-1.34 and
# 1.37-1.47 times at H = 320 and 380, past a 2 MiB per-core L2.
# bigru_stacks stacks a layer's directions when they share a width and their
# matrices fit in _GRU_STACK_BYTES together: every bound from 192 KiB to
# 1.5 MiB stacks the tiny and desk models (H <= 64) and runs the paper model
# (H = 380) one direction at a time, in float32 and float64.
#
# The tape is step-major ([T, 3, D, 1, H] for the gates) so that each step
# works on contiguous blocks: numpy's elementwise loops cost two to four
# times as much on strided ones. Step s of a direction reads frame s, or
# frame T-1-s in reverse. The pre-activations x @ w + b become the tape, each
# step overwriting its row with z, r and c, and the backward turns those into
# the gate gradients in place; a direction's rows are copied to time order
# only for the whole-sequence GEMMs of its weight gradients. Stacked, a layer
# holds no more than one direction at a time does.

_GRU_STACK_BYTES = 1024 * 1024


def bigru_stacks(fwd_hidden, bwd_hidden, dtype) -> bool:
    """Whether :func:`bigru_layer` steps both directions in one loop: they
    share a width H, and their two [H, 3H] recurrent matrices of `dtype`
    fit in _GRU_STACK_BYTES together."""
    return (fwd_hidden == bwd_hidden
            and 2 * 3 * fwd_hidden ** 2 * np.dtype(dtype).itemsize <= _GRU_STACK_BYTES)


def _in_time_order(a, d, reverse):
    """Direction d's rows of a step-major array [T, ..., D, 1, Dh], in time
    order and contiguous."""
    a = a[..., d, 0, :]
    return np.ascontiguousarray(a[::-1] if reverse else a)


def _gru_scan(x, h0, directions):
    """Run a stack of D GRU directions of one width Dh over x [T, Din].

    `directions` holds each direction's (GruParams, reverse) and h0 [D, Dh]
    their initial states. Returns the tape :func:`_gru_scan_backward` needs;
    :func:`_gru_states` reads the states from it. The input projections of
    all frames are one GEMM per direction with the fused `w`; each step adds
    only h times the z and r columns of `u`, and (r*h) times its h columns.
    The scan computes in the dtype of x and the weights.
    """
    steps, n, dirs = len(x), directions[0][0].d_hidden, len(directions)
    gates = None   # [T, 3, D, 1, Dh]: x @ w + b, overwritten with z, r and c
    for d, (p, reverse) in enumerate(directions):
        xw = (x @ p.w.data).reshape(steps, 3, n)
        if gates is None:
            gates = np.empty((steps, 3, dirs, 1, n), np.result_type(xw, p.b.data))
        np.add(xw[::-1] if reverse else xw, p.b.data.reshape(3, n), out=gates[:, :, d, 0])
        del xw
    states = np.empty((steps + 1, dirs, 1, n), gates.dtype)   # row s: before step s
    states[0, :, 0] = h0
    u = np.stack([p.u.data for p, _ in directions])
    u_zr, u_h = u[:, :, :2 * n], u[:, :, 2 * n:]
    hu = np.empty((dirs, 1, 2 * n), gates.dtype)   # h @ u_zr, and its z and r blocks
    hu_zr = hu.reshape(dirs, 1, 2, n).transpose(2, 0, 1, 3)
    # In float32 exp(-a) overflows to inf for a < -88.7 and underflows for
    # a > 87.3; 1 / (1 + inf) = 0 and 1 / (1 + tiny) = 1 are then the sigmoid
    # to the last bit, so neither is an error.
    with np.errstate(over="ignore", under="ignore"):
        for zrc, h, h_next in zip(gates, states, states[1:]):
            zr, (z, r, c) = zrc[:2], zrc
            np.matmul(h, u_zr, out=hu)
            zr += hu_zr
            _sigmoid_into(zr)
            c += np.matmul(r * h, u_h)
            np.tanh(c, out=c)
            np.add((1.0 - z) * h, z * c, out=h_next)
    return x, directions, gates, states


def _gru_states(tape):
    """Each direction's states [T, Dh] in time order: row t is the state
    after frame t."""
    _, directions, _, states = tape
    return [states[:0:-1, d, 0] if reverse else states[1:, d, 0]
            for d, (_, reverse) in enumerate(directions)]


def _gru_scan_backward(g, tape, gx=None):
    """Backward of :func:`_gru_scan` for output gradient g [T, D*Dh], the
    directions' states side by side in time order.

    Walks the steps in the opposite order into the pre-activation gradients,
    then forms the gradients of `w`, `u` and `b` as whole-sequence GEMMs
    over each direction's [T, 3Dh] block and accumulates them into its
    parameters. Returns the input gradient [T, Din], summed over the
    directions (into `gx` when given), and the gradients [D, Dh] of the
    initial states. Overwrites the tape, which a graph node's rule reads
    only once.
    """
    x, directions, gates, states = tape
    n, dirs = directions[0][0].d_hidden, len(directions)
    z, r, c = gates[:, 0], gates[:, 1], gates[:, 2]
    h_prev = states[:-1]
    one_minus_z, r_kept = 1.0 - z, r.copy()
    k_z = c - h_prev
    k_z *= z
    k_z *= one_minus_z                     # d h'/d a_z = (c - h) * z * (1 - z)
    c *= c
    np.subtract(1.0, c, out=c)
    c *= z                                 # d h'/d a_c = z * (1 - c*c)
    z[...] = k_z
    del k_z
    r *= h_prev
    r *= 1.0 - r_kept                      # d (r*h)/d a_r = h * r * (1 - r)
    gs = np.empty(states[1:].shape, g.dtype)   # [T, D, 1, Dh] in step order
    for d, (_, reverse) in enumerate(directions):
        gd = g[:, d * n:(d + 1) * n]
        gs[:, d, 0] = gd[::-1] if reverse else gd
    # Contiguous copies, not views: OpenBLAS's float32 transposed gemv sums
    # in another order over a column block of a wider matrix (seen for
    # Dh <= 8), and the gate blocks must give a standalone matrix's products.
    u_zr_t = np.stack([p.u.data[:, :2 * n] for p, _ in directions]).transpose(0, 2, 1)
    u_h_t = np.stack([p.u.data[:, 2 * n:] for p, _ in directions]).transpose(0, 2, 1)
    da_zr = np.empty((dirs, 1, 2 * n), gates.dtype)   # each direction's z and r gradients
    da_zr_by_gate = da_zr.reshape(dirs, 1, 2, n).transpose(2, 0, 1, 3)
    dh = np.zeros((dirs, 1, n), gates.dtype)
    for s in reversed(range(len(x))):
        gt = gs[s] + dh
        da = gates[s]   # d h'/d a on entry, the step's gradient on exit
        da[2] *= gt
        grh = np.matmul(da[2], u_h_t)
        da[0] *= gt
        da[1] *= grh
        np.copyto(da_zr_by_gate, da[:2])
        dh = gt * one_minus_z[s]
        dh += grh * r_kept[s]
        dh += np.matmul(da_zr, u_zr_t)
    del gs, one_minus_z, u_zr_t, u_h_t
    r_kept *= h_prev                       # r * h, as the u gradient reads it
    rh_rows = [_in_time_order(r_kept, d, reverse) for d, (_, reverse) in enumerate(directions)]
    del r_kept
    for d, (p, reverse) in enumerate(directions):
        da = _in_time_order(gates, d, reverse).reshape(len(x), 3 * n)
        h, rh = _in_time_order(h_prev, d, reverse), rh_rows.pop(0)
        accumulate(p.w, x.T @ da)
        accumulate(p.u, np.hstack([h.T @ da[:, :2 * n], rh.T @ da[:, 2 * n:]]))
        accumulate(p.b, da.sum(axis=0))
        gx_d = da @ p.w.data.T
        del da, h, rh   # one direction's copies at a time
        if gx is None:
            gx = gx_d
        else:
            gx += gx_d
    return gx, dh[:, 0]


def gru_cell(x_t, h_prev, params: GruParams) -> Tensor:
    """One GRU step: the one-direction, one-frame case of the scan behind
    :func:`bigru_layer`.

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
    tape = _gru_scan(x_t.data[None], h_prev.data[None], [(p, False)])
    out = _gru_states(tape)[0][0].copy()

    def bwd(g):
        gx, gh = _gru_scan_backward(g[None], tape)
        accumulate(x_t, gx[0])
        accumulate(h_prev, gh[0])

    return _node(out, (x_t, h_prev, *p.tensors()), bwd)


def bigru_layer(seq, fwd_params: GruParams, bwd_params: GruParams) -> Tensor:
    """Bidirectional GRU over [T, Din] -> [T, Dh_fwd + Dh_bwd], one graph node.

    Each direction scans from a zero state, the forward one left to right and
    the backward one right to left; row t holds both directions' states after
    frame t, forward first. Where :func:`bigru_stacks` allows, one
    :func:`_gru_scan` steps both directions; otherwise each runs the same
    scan alone, to the same bits. T must be at least 1 and both directions
    must take Din features.
    """
    seq = as_tensor(seq)
    if fwd_params.d_in != bwd_params.d_in:
        raise ShapeMismatch(f"bigru directions take {fwd_params.d_in} and "
                            f"{bwd_params.d_in} input features")
    x = seq.data
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] != fwd_params.d_in:
        raise ShapeMismatch(f"bigru_layer got {x.shape}, wants [T >= 1, {fwd_params.d_in}]")
    directions = [(fwd_params, False), (bwd_params, True)]
    dtype = np.result_type(fwd_params.u.data, bwd_params.u.data)
    if bigru_stacks(fwd_params.d_hidden, bwd_params.d_hidden, dtype):
        groups = [directions]
    else:
        groups = [directions[:1], directions[1:]]
    tapes = [_gru_scan(x, np.zeros((len(g), g[0][0].d_hidden), x.dtype), g) for g in groups]
    out = np.concatenate([st for tape in tapes for st in _gru_states(tape)], axis=1)

    def bwd(g):
        gx, col = None, 0
        for tape in tapes:
            width = sum(p.d_hidden for p, _ in tape[1])
            gx, _ = _gru_scan_backward(g[:, col:col + width], tape, gx)
            col += width
        accumulate(seq, gx)

    parents = (seq, *fwd_params.tensors(), *bwd_params.tensors())
    return _node(out, parents, bwd)


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
