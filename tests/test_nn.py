import tracemalloc

import numpy as np
import pytest

from dereverb import autodiff as ad
from dereverb import nn
from dereverb.errors import ShapeMismatch
from conftest import total


def conv2d_reference(x, kernel, stride=(1, 1), padding="valid"):
    """Six-nested-loop cross-correlation, the independent oracle."""
    k_t, k_f, c_in, c_out = kernel.shape
    s_t, s_f = stride
    if padding == "same":
        out_t = -(-x.shape[0] // s_t)
        out_f = -(-x.shape[1] // s_f)
        pad_t = max((out_t - 1) * s_t + k_t - x.shape[0], 0)
        pad_f = max((out_f - 1) * s_f + k_f - x.shape[1], 0)
        x = np.pad(x, ((pad_t // 2, pad_t - pad_t // 2),
                       (pad_f // 2, pad_f - pad_f // 2), (0, 0)))
    out_t = (x.shape[0] - k_t) // s_t + 1
    out_f = (x.shape[1] - k_f) // s_f + 1
    out = np.zeros((out_t, out_f, c_out))
    for t in range(out_t):
        for f in range(out_f):
            for i in range(k_t):
                for j in range(k_f):
                    for ci in range(c_in):
                        for co in range(c_out):
                            out[t, f, co] += x[t * s_t + i, f * s_f + j, ci] * kernel[i, j, ci, co]
    return out


def test_conv2d_shape_arithmetic():
    x = ad.Tensor(np.zeros((313, 257, 1)))
    k = ad.Tensor(np.zeros((9, 1, 1, 16)))
    assert nn.conv2d(x, k).data.shape == (305, 257, 16)


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(0)
    x = ad.Tensor(rng.standard_normal((5, 6, 3)))
    k = np.zeros((1, 1, 3, 3))
    k[0, 0] = np.eye(3)
    out = nn.conv2d(x, ad.Tensor(k))
    np.testing.assert_array_equal(out.data, x.data)


def test_conv2d_matches_reference_random():
    rng = np.random.default_rng(1)
    for _ in range(50):
        k_t = int(rng.integers(1, 5))
        k_f = int(rng.integers(1, 4))
        c_in = int(rng.integers(1, 4))
        c_out = int(rng.integers(1, 5))
        s = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        padding = rng.choice(["valid", "same"])
        t = int(rng.integers(k_t, k_t + 8))
        f = int(rng.integers(k_f, k_f + 6))
        x = rng.standard_normal((t, f, c_in))
        k = rng.standard_normal((k_t, k_f, c_in, c_out))
        got = nn.conv2d(ad.Tensor(x), ad.Tensor(k), stride=s, padding=padding).data
        want = conv2d_reference(x, k, stride=s, padding=padding)
        scale = max(np.abs(want).max(), 1e-30)
        assert np.abs(got - want).max() / scale < 1e-12


def test_conv2d_rejects_bad_channels():
    with pytest.raises(ShapeMismatch):
        nn.conv2d(ad.Tensor(np.zeros((4, 4, 2))), ad.Tensor(np.zeros((2, 2, 3, 5))))


@pytest.mark.parametrize("x_shape,k_shape,stride,padding", [
    ((6, 5, 2), (3, 2, 2, 3), (1, 1), "valid"),
    ((6, 5, 2), (3, 1, 2, 3), (1, 1), "valid"),   # a per-frequency RIR-stack layer
    ((8, 7, 2), (3, 2, 2, 3), (2, 2), "valid"),   # trailing rows and columns unread
    ((6, 5, 2), (3, 3, 2, 3), (2, 1), "same"),    # uneven padding in time
], ids=["valid", "kf1-valid", "strided-valid", "odd-same"])
def test_conv2d_gradients_match_fd(x_shape, k_shape, stride, padding):
    rng = np.random.default_rng(2)
    x = ad.Tensor(rng.standard_normal(x_shape))
    k = ad.Tensor(rng.standard_normal(k_shape))
    b = ad.Tensor(rng.standard_normal(k_shape[3]))
    with ad.no_grad():
        out_shape = nn.conv2d(x, k, stride=stride, padding=padding).data.shape
    target = rng.standard_normal(out_shape)
    loss_fn = lambda: ad.mse(nn.conv2d(x, k, b, stride=stride, padding=padding), target)
    err = nn.grad_check(loss_fn, [x, k, b])
    assert err < 1e-5


def test_conv2d_same_stride_gradients():
    rng = np.random.default_rng(3)
    x = ad.Tensor(rng.standard_normal((7, 6, 2)))
    k = ad.Tensor(rng.standard_normal((4, 4, 2, 3)))
    b = ad.Tensor(rng.standard_normal(3))
    target = rng.standard_normal((4, 3, 3))
    loss_fn = lambda: ad.mse(nn.conv2d(x, k, b, stride=(2, 2), padding="same"), target)
    assert nn.grad_check(loss_fn, [x, k, b]) < 1e-5


def test_same_padded_conv_backward_repads_with_the_forward_widths(monkeypatch):
    """The rule pads the input again instead of keeping the padded copy. A
    mutant whose rule pads with other widths (one row moved from the back
    to the front, so every shape still fits) must fail the gradient check."""
    rng = np.random.default_rng(3)
    x = ad.Tensor(rng.standard_normal((7, 6, 2)))   # pads 1 row in front, 2 behind
    k = ad.Tensor(rng.standard_normal((4, 4, 2, 3)))
    b = ad.Tensor(rng.standard_normal(3))
    target = rng.standard_normal((4, 3, 3))
    loss_fn = lambda: ad.mse(nn.conv2d(x, k, b, stride=(2, 2), padding="same"), target)
    assert nn.grad_check(loss_fn, [x, k, b]) < 1e-5
    in_backward, real_backward, real_pad, shifted = [False], nn.backward, np.pad, []

    def flagged_backward(loss):
        in_backward[0] = True
        try:
            real_backward(loss)
        finally:
            in_backward[0] = False

    def shifting_pad(array, widths, *args, **kwargs):
        if in_backward[0]:
            (front, back), *rest = widths
            widths = ((front + 1, back - 1), *rest)
            shifted.append(widths)
        return real_pad(array, widths, *args, **kwargs)

    monkeypatch.setattr(nn, "backward", flagged_backward)
    monkeypatch.setattr(np, "pad", shifting_pad)
    assert nn.grad_check(loss_fn, [x, k, b]) > 1e-2
    assert shifted == [((2, 1), (1, 1), (0, 0))]


def test_conv2d_transposed_shape():
    x = ad.Tensor(np.zeros((10, 10, 5)))
    k = ad.Tensor(np.zeros((4, 4, 3, 5)))
    out = nn.conv2d_transposed(x, k, stride=(2, 2))
    assert out.data.shape == (22, 22, 3)


def test_conv2d_transposed_identity():
    rng = np.random.default_rng(4)
    x = ad.Tensor(rng.standard_normal((5, 4, 3)))
    k = np.zeros((1, 1, 3, 3))
    k[0, 0] = np.eye(3)
    out = nn.conv2d_transposed(x, ad.Tensor(k))
    np.testing.assert_array_equal(out.data, x.data)


def test_conv2d_transposed_is_adjoint():
    rng = np.random.default_rng(5)
    for _ in range(10):
        c_in = int(rng.integers(1, 4))
        c_out = int(rng.integers(1, 4))
        k_t = int(rng.integers(1, 4))
        k_f = int(rng.integers(1, 4))
        s = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        # exact-fit extents so the adjoint lands back on the full input
        t = k_t + s[0] * int(rng.integers(1, 6))
        f = k_f + s[1] * int(rng.integers(1, 6))
        x = rng.standard_normal((t, f, c_in))
        k = ad.Tensor(rng.standard_normal((k_t, k_f, c_in, c_out)))
        y_shape = nn.conv2d(ad.Tensor(x), k, stride=s).data.shape
        y = rng.standard_normal(y_shape)
        lhs = float((nn.conv2d(ad.Tensor(x), k, stride=s).data * y).sum())
        rhs = float((x * nn.conv2d_transposed(ad.Tensor(y), k, stride=s).data).sum())
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


@pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "no-bias"])
@pytest.mark.parametrize("stride", [(1, 1), (2, 1), (1, 2), (2, 2)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_conv2d_transposed_gradients(stride, with_bias):
    rng = np.random.default_rng(6)
    x = ad.Tensor(rng.standard_normal((4, 3, 3)))
    k = ad.Tensor(rng.standard_normal((3, 2, 2, 3)))
    b = ad.Tensor(rng.standard_normal(2))
    target = rng.standard_normal(((4 - 1) * stride[0] + 3, (3 - 1) * stride[1] + 2, 2))
    bias = b if with_bias else None
    loss_fn = lambda: ad.mse(nn.conv2d_transposed(x, k, bias, stride=stride), target)
    params = [x, k, b] if with_bias else [x, k]
    assert nn.grad_check(loss_fn, params) < 1e-5


@pytest.mark.parametrize("op", [nn.conv2d, nn.conv2d_transposed],
                         ids=["conv2d", "conv2d_transposed"])
def test_conv_bias_gives_the_bits_of_adding_it_after(op):
    # the bias goes into the fresh output in place, except where the sum is
    # wider than the output: a float32 convolution with a float64 bias
    rng = np.random.default_rng(20)
    with ad.precision(np.float32):
        x = ad.Tensor(rng.standard_normal((9, 5, 2)))
        k = ad.Tensor(rng.standard_normal((3, 2, 2, 2)))
        b32 = ad.Tensor(rng.standard_normal(2))
        plain = op(x, k).data
        np.testing.assert_array_equal(op(x, k, b32).data, plain + b32.data)
    b64 = ad.Tensor(rng.standard_normal(2))
    wide = op(x, k, b64).data
    assert wide.dtype == np.float64
    np.testing.assert_array_equal(wide, plain + b64.data)


def test_spectral_conv_bias_lets_the_padded_transform_go(monkeypatch):
    # the spectral result is a slice of a longer inverse FFT; the bias sum is
    # a copy of the slice alone, so the layer's output holds only its own bytes
    force_spectral(monkeypatch)
    rng = np.random.default_rng(21)
    with ad.precision(np.float32):
        x = ad.Tensor(rng.standard_normal((12, 5, 3)))
        k = ad.Tensor(rng.standard_normal((4, 1, 3, 2)))
        b = ad.Tensor(rng.standard_normal(2))
        plain, out = nn.conv2d(x, k).data, nn.conv2d(x, k, b).data
    assert plain.base is not None and plain.base.nbytes > plain.nbytes
    assert out.base is None
    np.testing.assert_array_equal(out, plain + b.data)


def test_conv2d_transposed_is_exactly_the_conv2d_input_gradient():
    rng = np.random.default_rng(7)
    x = ad.Tensor(rng.standard_normal((9, 7, 2)))
    k = ad.Tensor(rng.standard_normal((3, 2, 2, 4)))
    y = rng.standard_normal((4, 6, 4))
    ad.backward(total(ad.mul(nn.conv2d(x, k, stride=(2, 1)), y)))
    np.testing.assert_array_equal(nn.conv2d_transposed(y, k, stride=(2, 1)).data, x.grad)


def test_conv2d_of_a_constant_skips_the_input_adjoint(monkeypatch):
    calls = []
    adjoint = nn._correlate_adjoint
    monkeypatch.setattr(nn, "_correlate_adjoint",
                        lambda *args: calls.append(args) or adjoint(*args))
    rng = np.random.default_rng(8)
    x = rng.standard_normal((9, 7, 2))
    kernel, bias = rng.standard_normal((3, 2, 2, 4)), rng.standard_normal(4)
    g = rng.standard_normal((5, 4, 4))

    def kernel_grad(inp):
        k = ad.Tensor(kernel)
        out = nn.conv2d(inp, k, ad.Tensor(bias), stride=(2, 2), padding="same")
        ad.backward(total(ad.mul(out, g)))
        return k.grad

    as_constant = kernel_grad(x)
    assert calls == []
    as_leaf = kernel_grad(ad.Tensor(x))
    assert len(calls) == 1
    np.testing.assert_array_equal(as_constant, as_leaf)


# --- the column form against the tap loops it replaced ---------------------

def tap_window(i, j, stride, out_shape):
    (s_t, s_f), (t_out, f_out) = stride, out_shape[:2]
    return (slice(i, i + s_t * (t_out - 1) + 1, s_t),
            slice(j, j + s_f * (f_out - 1) + 1, s_f))


def correlate_by_taps(x, kernel, stride):
    """The former nn._correlate: one GEMM per kernel tap."""
    k_t, k_f, c_in, c_out = kernel.shape
    shape = ((x.shape[0] - k_t) // stride[0] + 1, (x.shape[1] - k_f) // stride[1] + 1, c_out)
    out = np.zeros(shape)
    for i in range(k_t):
        for j in range(k_f):
            piece = x[tap_window(i, j, stride, shape)]
            out += (piece.reshape(-1, c_in) @ kernel[i, j]).reshape(shape)
    return out


def kernel_grad_by_taps(x, g, kernel_shape, stride):
    """The former nn._kernel_grad: one GEMM per kernel tap."""
    k_t, k_f, c_in, c_out = kernel_shape
    g2 = g.reshape(-1, c_out)
    gk = np.zeros(kernel_shape)
    for i in range(k_t):
        for j in range(k_f):
            gk[i, j] = x[tap_window(i, j, stride, g.shape)].reshape(-1, c_in).T @ g2
    return gk


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1e-300)


# (input [T,F,Cin], kernel [kT,kF,Cin,Cout], stride, padding); nn._correlate_adjoint
# kept its tap loop, so the input gradient of conv2d and the forward of
# conv2d_transposed use it as their reference.
COLUMN_CASES = {
    "cin1-kf1": ((24, 7, 1), (9, 1, 1, 4), (1, 1), "valid"),     # joint trunk0
    "cin1-same": ((19, 13, 1), (4, 4, 1, 3), (2, 2), "same"),    # U-net enc0
    "kt27-kf1": ((40, 6, 3), (27, 1, 3, 2), (1, 1), "valid"),
    "kt27-one-row": ((27, 6, 3), (27, 1, 3, 2), (1, 1), "valid"),
    "kt187-one-row": ((187, 5, 2), (187, 1, 2, 3), (1, 1), "valid"),
    "unet-same": ((21, 17, 3), (4, 4, 3, 5), (2, 2), "same"),
    "odd-strides": ((23, 16, 2), (3, 2, 2, 3), (2, 3), "valid"),
}


def padded(x, k_shape, stride, padding):
    """x as conv2d pads it, and the (time, freq) padding it adds."""
    if padding == "valid":
        return x, [0, 0]
    pads = [nn._same_padding(n, kn, s) for n, kn, s in zip(x.shape, k_shape[:2], stride)]
    return np.pad(x, [(p // 2, p - p // 2) for p in pads] + [(0, 0)]), pads


def assert_conv2d_matches_taps(x, k, b, g, stride, padding):
    """conv2d's output and its gradients in x, k and b for output gradient g,
    against the tap loops and nn._correlate_adjoint."""
    xd, pads = padded(x, k.shape, stride, padding)
    xt, kt, bt = ad.Tensor(x), ad.Tensor(k), ad.Tensor(b)
    out = nn.conv2d(xt, kt, bt, stride=stride, padding=padding)
    ad.backward(total(ad.mul(out, g)))
    assert_close(out.data, correlate_by_taps(xd, k, stride) + b)
    assert_close(kt.grad, kernel_grad_by_taps(xd, g, k.shape, stride))
    gx = nn._correlate_adjoint(g, k, stride, xd.shape)
    assert_close(xt.grad, gx[pads[0] // 2:pads[0] // 2 + x.shape[0],
                             pads[1] // 2:pads[1] // 2 + x.shape[1]])
    assert_close(bt.grad, g.sum(axis=(0, 1)))


@pytest.mark.parametrize("rows", [None, 1, 3], ids=["budget", "rows1", "rows3"])
@pytest.mark.parametrize("case", COLUMN_CASES.values(), ids=COLUMN_CASES.keys())
def test_column_core_matches_tap_loops(case, rows, monkeypatch):
    x_shape, k_shape, stride, padding = case
    k_t, k_f, c_in, c_out = k_shape
    rng = np.random.default_rng(11)
    x = rng.standard_normal(x_shape)
    k = rng.standard_normal(k_shape)
    b = rng.standard_normal(c_out)
    xd, _ = padded(x, k_shape, stride, padding)
    assert nn.conv_path(xd.shape, k_shape, stride) == "columns"
    out_shape = correlate_by_taps(xd, k, stride).shape
    if rows is not None:   # a budget of exactly `rows` output rows per column block
        monkeypatch.setattr(nn, "_COLUMN_BYTES", rows * out_shape[1] * k[..., 0].size * 8)
    g = rng.standard_normal(out_shape)

    assert_close(nn._correlate(xd, k, stride), correlate_by_taps(xd, k, stride))
    assert_close(nn._kernel_grad(xd, g, k_shape, stride), kernel_grad_by_taps(xd, g, k_shape, stride))
    assert_conv2d_matches_taps(x, k, b, g, stride, padding)

    # conv2d_transposed takes an input of g's shape
    gt, kt, bt = ad.Tensor(g), ad.Tensor(k), ad.Tensor(rng.standard_normal(c_in))
    up = nn.conv2d_transposed(gt, kt, bt, stride=stride)
    t_up = (out_shape[0] - 1) * stride[0] + k_t
    f_up = (out_shape[1] - 1) * stride[1] + k_f
    y = rng.standard_normal((t_up, f_up, c_in))
    ad.backward(total(ad.mul(up, y)))
    assert_close(up.data, nn._correlate_adjoint(g, k, stride, y.shape) + bt.data)
    assert_close(gt.grad, correlate_by_taps(y, k, stride))
    assert_close(kt.grad, kernel_grad_by_taps(y, g, k_shape, stride))
    assert_close(bt.grad, y.sum(axis=(0, 1)))


# --- the spectral path ---------------------------------------------------

def test_fast_len_is_scipys_real_fft_length():
    from scipy.fft import next_fast_len   # the oracle; nn imports scipy.fft only to transform
    lengths = range(1, 40_001)
    assert [nn._fast_len(t) for t in lengths] == [next_fast_len(t, real=True) for t in lengths]


def force_spectral(monkeypatch):
    monkeypatch.setattr(nn, "_spectral_is_cheaper", lambda *shape: True)


# (input [T,F,Cin], kernel [kT,1,Cin,Cout], padding, forced): small shapes force
# the spectral path; the desk joint trunk1 and rir3 shapes take it on their own.
SPECTRAL_CASES = {
    "small": ((12, 5, 3), (4, 1, 3, 2), "valid", True),
    "prime-frames": ((13, 3, 2), (5, 1, 2, 3), "valid", True),
    "one-row": ((9, 4, 2), (9, 1, 2, 3), "valid", True),
    "kt1": ((7, 3, 2), (1, 1, 2, 2), "valid", True),
    "cin1": ((20, 3, 1), (3, 1, 1, 4), "valid", True),
    "same": ((11, 4, 2), (4, 1, 2, 3), "same", True),
    "desk-trunk1": ((305, 257, 8), (14, 1, 8, 8), "valid", False),
    "desk-rir3": ((214, 257, 8), (28, 1, 8, 4), "valid", False),
}


@pytest.mark.parametrize("case", SPECTRAL_CASES.values(), ids=SPECTRAL_CASES.keys())
def test_spectral_path_matches_tap_loops(case, monkeypatch):
    x_shape, k_shape, padding, forced = case
    if forced:
        force_spectral(monkeypatch)
    rng = np.random.default_rng(12)
    x = rng.standard_normal(x_shape)
    k = rng.standard_normal(k_shape)
    b = rng.standard_normal(k_shape[3])
    xd, _ = padded(x, k_shape, (1, 1), padding)
    assert nn.conv_path(xd.shape, k_shape) == "spectral"
    g = rng.standard_normal(correlate_by_taps(xd, k, (1, 1)).shape)
    assert_conv2d_matches_taps(x, k, b, g, (1, 1), padding)


@pytest.mark.parametrize("padding", ["valid", "same"])
def test_spectral_conv2d_gradients_match_fd(padding, monkeypatch):
    force_spectral(monkeypatch)
    rng = np.random.default_rng(13)
    x = ad.Tensor(rng.standard_normal((9, 3, 2)))
    k = ad.Tensor(rng.standard_normal((4, 1, 2, 3)))
    b = ad.Tensor(rng.standard_normal(3))
    target = rng.standard_normal((6 if padding == "valid" else 9, 3, 3))
    loss_fn = lambda: ad.mse(nn.conv2d(x, k, b, padding=padding), target)
    assert nn.grad_check(loss_fn, [x, k, b]) < 1e-5


def spectral_grads_with_a_conjugated_copy(x, g, kernel):
    """The former :func:`nn._spectral_grads`, which conjugated a copy of g_hat."""
    import scipy.fft as sfft
    n = nn._fast_len(len(x))
    k_hat = sfft.rfft(kernel[:, 0], n, axis=0)
    g_hat = sfft.rfft(g, n, axis=0)
    x_hat = sfft.rfft(x, n, axis=0).transpose(0, 2, 1)
    gk = sfft.irfft(x_hat @ g_hat.conj(), n, axis=0)[:len(kernel)]
    gx = sfft.irfft(g_hat @ k_hat.transpose(0, 2, 1), n, axis=0)[:len(x)]
    return gk.reshape(kernel.shape), gx


# (T, Cin, kT, Cout), F = 257: the five spectral layers of the desk rir stack
SPECTRAL_GRAD_SHAPES = [(305, 8, 14, 8), (292, 8, 27, 8), (266, 8, 27, 8), (240, 8, 27, 8),
                        (214, 8, 28, 4)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_spectral_grads_have_the_bits_of_the_conjugated_copy(dtype):
    rng = np.random.default_rng(22)
    for t, c_in, k_t, c_out in SPECTRAL_GRAD_SHAPES + [(20, 3, 5, 2)]:
        bins = 257 if t > 20 else 7
        x = rng.standard_normal((t, bins, c_in)).astype(dtype)
        kernel = rng.standard_normal((k_t, 1, c_in, c_out)).astype(dtype)
        g = rng.standard_normal((t - k_t + 1, bins, c_out)).astype(dtype)
        got, want = nn._spectral_grads(x, g, kernel, True), \
            spectral_grads_with_a_conjugated_copy(x, g, kernel)
        assert [a.dtype for a in got] == [np.dtype(dtype)] * 2
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want], (t, c_in, k_t)


def test_spectral_conv2d_of_a_constant_skips_the_input_adjoint(monkeypatch):
    force_spectral(monkeypatch)
    input_grads = []
    grads = nn._spectral_grads

    def recording(*args):
        result = grads(*args)
        input_grads.append(result[1])
        return result

    monkeypatch.setattr(nn, "_spectral_grads", recording)
    rng = np.random.default_rng(14)
    x = rng.standard_normal((12, 5, 3))
    kernel, bias = rng.standard_normal((4, 1, 3, 2)), rng.standard_normal(2)
    g = rng.standard_normal((9, 5, 2))

    def kernel_grad(inp):
        k = ad.Tensor(kernel)
        ad.backward(total(ad.mul(nn.conv2d(inp, k, ad.Tensor(bias)), g)))
        return k.grad

    as_constant = kernel_grad(x)
    as_leaf = kernel_grad(ad.Tensor(x))
    assert input_grads[0] is None and input_grads[1].shape == x.shape
    np.testing.assert_array_equal(as_constant, as_leaf)


def test_spectral_conv2d_computes_in_float32(monkeypatch):
    force_spectral(monkeypatch)
    rng = np.random.default_rng(15)
    with ad.precision(np.float32):
        x = ad.Tensor(rng.standard_normal((12, 5, 3)))
        k = ad.Tensor(rng.standard_normal((4, 1, 3, 2)))
        b = ad.Tensor(rng.standard_normal(2))
        out = nn.conv2d(x, k, b)
        ad.backward(total(ad.mul(out, rng.standard_normal(out.data.shape))))
    assert [t.dtype for t in (out.data, x.grad, k.grad, b.grad)] == [np.float32] * 4


# --- activations fused into conv2d -----------------------------------------

# (input [T,F,Cin], kernel [kT,kF,Cin,Cout], stride, padding, spectral)
FUSED_CASES = {
    "columns": ((9, 4, 2), (3, 2, 2, 3), (1, 1), "valid", False),
    "columns-strided-same": ((8, 8, 2), (4, 4, 2, 3), (2, 2), "same", False),
    "spectral": ((12, 5, 3), (4, 1, 3, 2), (1, 1), "valid", True),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("activation", ["elu", "relu"])
@pytest.mark.parametrize("case", FUSED_CASES.values(), ids=FUSED_CASES.keys())
def test_fused_activation_is_the_activation_of_the_conv_bit_for_bit(case, activation, dtype,
                                                                    monkeypatch):
    x_shape, k_shape, stride, padding, spectral = case
    if spectral:
        force_spectral(monkeypatch)
    rng = np.random.default_rng(16)
    with ad.precision(dtype):
        leaves = [ad.Tensor(rng.standard_normal(s)) for s in (x_shape, k_shape, k_shape[3])]
        xd, _ = padded(leaves[0].data, k_shape, stride, padding)
        assert nn.conv_path(xd.shape, k_shape, stride) == ("spectral" if spectral else "columns")
        unfused = lambda: getattr(ad, activation)(nn.conv2d(*leaves, stride, padding))
        fused = lambda: nn.conv2d(*leaves, stride, padding, activation=activation)
        g = rng.standard_normal(unfused().data.shape)
        want, got = value_and_grads(unfused, leaves, g), value_and_grads(fused, leaves, g)
        with ad.no_grad():
            scored = fused().data
    assert [a.dtype for a in got] == [np.dtype(dtype)] * 4
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert scored.tobytes() == want[0].tobytes()


def test_conv2d_rejects_an_unknown_activation():
    with pytest.raises(ValueError, match="unknown activation 'tanh'"):
        nn.conv2d(np.ones((3, 3, 1)), np.ones((2, 2, 1, 1)), activation="tanh")


def test_a_conv_rule_reading_its_overwritten_output_fails_the_gradient_check(monkeypatch):
    """The activation may overwrite the convolution's output only because
    conv2d's rule never reads it. A mutant whose rule does (it recovers its
    input as output / k, exact for a one-channel 1x1 conv without bias) has
    right gradients unfused and wrong ones fused."""
    rng = np.random.default_rng(17)
    x = ad.Tensor(rng.uniform(-3.0, 1.0, (6, 3, 1)))   # mostly where ELU bends
    k = ad.Tensor(np.full((1, 1, 1, 1), 0.7))
    target = rng.standard_normal((6, 3, 1))

    def error(fused):
        if fused:
            loss_fn = lambda: ad.mse(nn.conv2d(x, k, activation="elu"), target)
        else:
            loss_fn = lambda: ad.mse(ad.elu(nn.conv2d(x, k)), target)
        return nn.grad_check(loss_fn, [x, k])

    assert error(fused=True) < 1e-6
    real_node = nn._node

    def output_reading_node(data, parents, bwd):
        node = real_node(data, parents, None)
        inp, kernel = parents

        def rule(g):
            ad.accumulate(inp, g * kernel.data.item())
            ad.accumulate(kernel, np.sum(g * node.data / kernel.data.item()).reshape(1, 1, 1, 1))

        node.bwd = rule
        return node

    monkeypatch.setattr(nn, "_node", output_reading_node)
    assert error(fused=False) < 1e-6
    assert error(fused=True) > 1e-2


# --- GRU -----------------------------------------------------------------

def test_gru_params_join_per_gate_draws():
    # z, r, h in turn draw Glorot input weights then an orthogonal recurrent
    # matrix; the fused tensors are those draws side by side, biases zero
    rng = np.random.default_rng(16)
    w, u = [], []
    for _ in "zrh":
        w.append(nn.glorot_uniform(rng, (5, 4)))
        u.append(nn.orthogonal(rng, 4))
    p = nn.GruParams(5, 4, np.random.default_rng(16))
    np.testing.assert_array_equal(p.w.data, np.concatenate(w, axis=1))
    np.testing.assert_array_equal(p.u.data, np.concatenate(u, axis=1))
    np.testing.assert_array_equal(p.b.data, np.zeros(12))
    assert [t.data.shape for t in p.tensors()] == [(5, 12), (4, 12), (12,)]


def zero_gru(d_in, d_hidden):
    """A GRU direction whose weights and biases are all zero."""
    p = nn.GruParams(d_in, d_hidden, np.random.default_rng(0))
    for t in p.tensors():
        t.data[...] = 0.0
    return p


def test_gru_cell_zero_params():
    p = zero_gru(4, 3)
    out = nn.gru_cell(ad.Tensor(np.ones(4)), ad.Tensor(np.zeros(3)), p)
    np.testing.assert_array_equal(out.data, np.zeros(3))


def test_gru_cell_fixed_point():
    # When the candidate equals the previous state, any update gate keeps it.
    rng = np.random.default_rng(7)
    p = nn.GruParams(2, 3, rng)
    h = np.array([0.3, -0.2, 0.5])
    atanh = np.arctanh(h)
    # Solve for bias that pins the candidate at h when x = 0 and r*h flows in.
    x = ad.Tensor(np.zeros(2))
    r = 1.0 / (1.0 + np.exp(-(h @ p.u.data[:, 3:6] + p.b.data[3:6])))
    p.b.data[6:] = atanh - (r * h) @ p.u.data[:, 6:]
    out = nn.gru_cell(x, ad.Tensor(h), p)
    np.testing.assert_allclose(out.data, h, atol=1e-12)


def test_gru_cell_gradients_match_fd():
    rng = np.random.default_rng(8)
    p = nn.GruParams(4, 3, rng)
    x = ad.Tensor(rng.standard_normal(4))
    h = ad.Tensor(rng.standard_normal(3))
    target = rng.standard_normal(3)
    loss_fn = lambda: ad.mse(nn.gru_cell(x, h, p), target)
    assert nn.grad_check(loss_fn, [x, h, *p.tensors()]) < 1e-6


def test_gru_cell_shape_check():
    p = zero_gru(4, 3)
    with pytest.raises(ShapeMismatch):
        nn.gru_cell(ad.Tensor(np.zeros(5)), ad.Tensor(np.zeros(3)), p)


def test_bigru_output_width():
    rng = np.random.default_rng(9)
    fwd = nn.GruParams(760, 380, rng)
    bwd = nn.GruParams(760, 380, rng)
    seq = ad.Tensor(rng.standard_normal((3, 760)))
    out = nn.bigru_layer(seq, fwd, bwd)
    assert out.data.shape == (3, 760)


def test_bigru_single_step():
    rng = np.random.default_rng(10)
    fwd = nn.GruParams(4, 3, rng)
    bwd = nn.GruParams(4, 3, rng)
    x = rng.standard_normal((1, 4))
    out = nn.bigru_layer(ad.Tensor(x), fwd, bwd)
    zero = ad.Tensor(np.zeros(3))
    f = nn.gru_cell(ad.Tensor(x[0]), zero, fwd)
    b = nn.gru_cell(ad.Tensor(x[0]), zero, bwd)
    np.testing.assert_allclose(out.data[0], np.concatenate([f.data, b.data]))


def test_bigru_palindrome_symmetry():
    rng = np.random.default_rng(11)
    p = nn.GruParams(2, 3, rng)
    half = rng.standard_normal((3, 2))
    seq = np.concatenate([half, half[::-1]])  # palindrome
    out = nn.bigru_layer(ad.Tensor(seq), p, p).data
    swapped = np.concatenate([out[:, 3:], out[:, :3]], axis=1)
    np.testing.assert_allclose(out[::-1], swapped, atol=1e-12)


def test_bigru_gradients_match_fd():
    rng = np.random.default_rng(12)
    fwd = nn.GruParams(3, 2, rng)
    bwd = nn.GruParams(3, 2, rng)
    seq = ad.Tensor(rng.standard_normal((5, 3)))
    target = rng.standard_normal((5, 4))
    loss_fn = lambda: ad.mse(nn.bigru_layer(seq, fwd, bwd), target)
    assert nn.grad_check(loss_fn, [seq, *fwd.tensors(), *bwd.tensors()]) < 1e-5


@pytest.mark.parametrize("shape, d_bwd", [((0, 4), 4), ((4,), 4), ((3, 4, 1), 4),
                                          ((3, 5), 4), ((3, 4), 5)],
                         ids=["empty", "1-d", "3-d", "width", "directions-disagree"])
def test_bigru_layer_rejects_bad_input(shape, d_bwd):
    fwd, bwd = zero_gru(4, 3), zero_gru(d_bwd, 3)
    with pytest.raises(ShapeMismatch):
        nn.bigru_layer(np.zeros(shape), fwd, bwd)


def step_directions(monkeypatch, stacked):
    """Make bigru_layer step a layer's directions together whenever they
    share a width (`stacked`), or never, whatever their size."""
    monkeypatch.setattr(nn, "_GRU_STACK_BYTES", 2 ** 62 if stacked else 0)


def scan_sizes(monkeypatch):
    """The number of directions each nn._gru_scan call steps, in call order."""
    sizes, scan = [], nn._gru_scan

    def counted(x, h0, directions):
        sizes.append(len(directions))
        return scan(x, h0, directions)

    monkeypatch.setattr(nn, "_gru_scan", counted)
    return sizes


def test_float32_gru_saturates_without_floating_point_errors(monkeypatch):
    check_float32_gru_saturates(monkeypatch, stacked=True)


def test_float32_gru_saturates_one_direction_per_loop(monkeypatch):
    check_float32_gru_saturates(monkeypatch, stacked=False)


def check_float32_gru_saturates(monkeypatch, stacked):
    # pre-activations of +-200: exp(200) overflows float32, the sigmoid is exact
    step_directions(monkeypatch, stacked)
    sizes = scan_sizes(monkeypatch)
    with ad.precision(np.float32):
        fwd, bwd = zero_gru(2, 3), zero_gru(2, 3)
        for p in (fwd, bwd):
            p.w.data[:] = np.tile([[100.0, 0, 0], [0, 100.0, 0]], 3)
            p.b.data[:] = np.tile([0, 0, -200.0], 3)
        x = np.array([[2.0, -2.0], [-2.0, 2.0], [2.0, 2.0]])
        with np.errstate(all="raise"):
            seq = ad.Tensor(x)
            out = nn.bigru_layer(seq, fwd, bwd)
            ad.backward(total(out))
            cell = nn.gru_cell(x[0], np.zeros(3), fwd)
    assert sizes == ([2] if stacked else [1, 1]) + [1]   # the layer's scans, then the cell's
    assert out.data.dtype == cell.data.dtype == np.float32
    assert np.all(np.isfinite(out.data)) and np.all(np.isfinite(cell.data))
    assert np.all(np.isfinite(seq.grad))
    assert all(np.all(np.isfinite(t.grad)) for t in fwd.tensors() + bwd.tensors())


# --- the fused scan against the per-frame graph it replaced ----------------

def gru_cell_by_step(x_t, h_prev, p):
    """The former nn.gru_cell: one tape node per step, outer-product weight
    gradients, each gate's weights read as its own column block."""
    x_t, h_prev = ad.as_tensor(x_t), ad.as_tensor(h_prev)
    x, h = x_t.data, h_prev.data
    wz, wr, wh = np.split(p.w.data, 3, axis=1)
    uz, ur, uh = np.split(p.u.data, 3, axis=1)
    bz, br, bh = np.split(p.b.data, 3)
    z = 1.0 / (1.0 + np.exp(-(x @ wz + h @ uz + bz)))
    r = 1.0 / (1.0 + np.exp(-(x @ wr + h @ ur + br)))
    rh = r * h
    c = np.tanh(x @ wh + rh @ uh + bh)
    out = (1.0 - z) * h + z * c

    def bwd(g):
        gz = g * (c - h)
        gc = g * z
        gh = g * (1.0 - z)
        gac = gc * (1.0 - c * c)
        grh = gac @ uh.T
        gr = grh * h
        gh = gh + grh * r
        gar = gr * r * (1.0 - r)
        gaz = gz * z * (1.0 - z)
        ad.accumulate(p.b, np.concatenate([gaz, gar, gac]))
        ad.accumulate(p.w, np.concatenate([np.outer(x, gaz), np.outer(x, gar),
                                           np.outer(x, gac)], axis=1))
        ad.accumulate(p.u, np.concatenate([np.outer(h, gaz), np.outer(h, gar),
                                           np.outer(rh, gac)], axis=1))
        ad.accumulate(x_t, gaz @ wz.T + gar @ wr.T + gac @ wh.T)
        ad.accumulate(h_prev, gh + gaz @ uz.T + gar @ ur.T)

    return ad._node(out, (x_t, h_prev, *p.tensors()), bwd)


def bigru_by_frames(seq, fwd_params, bwd_params):
    """The former nn.bigru_layer: one gru_cell node per frame and direction.

    Frames are cut out with slice2d + reshape and the rows joined with
    reshape + concat, which move data exactly as the former row/stack_rows.
    """
    seq = ad.as_tensor(seq)
    steps, d_in = seq.data.shape
    xs = [ad.reshape(ad.slice2d(seq, t, t + 1, 0, d_in), (d_in,)) for t in range(steps)]

    h = ad.Tensor(np.zeros(fwd_params.d_hidden))
    forward_states = []
    for t in range(steps):
        h = gru_cell_by_step(xs[t], h, fwd_params)
        forward_states.append(h)

    h = ad.Tensor(np.zeros(bwd_params.d_hidden))
    backward_states = [None] * steps
    for t in reversed(range(steps)):
        h = gru_cell_by_step(xs[t], h, bwd_params)
        backward_states[t] = h

    return ad.concat([ad.reshape(ad.concat([forward_states[t], backward_states[t]]), (1, -1))
                      for t in range(steps)])


def value_and_grads(fn, leaves, g):
    """fn()'s output and the gradients of <fn(), g> in each of `leaves`."""
    for t in leaves:
        t.grad = None
    out = fn()
    ad.backward(total(ad.mul(out, g)))
    return [out.data] + [t.grad.copy() for t in leaves]


def randomize_biases(params, rng):
    for p in params:
        p.b.data[:] = rng.standard_normal(3 * p.d_hidden)


# (T, D, H, non-zero biases, one GruParams for both directions)
BIGRU_CASES = {
    "t1": (1, 6, 3, False, False),
    "t7-d-not-2h": (7, 5, 4, False, False),
    "distinct-biased": (9, 8, 4, True, False),
    "shared-biased": (6, 4, 2, True, True),
    "desk": (292, 128, 64, True, False),
}


@pytest.mark.parametrize("case", BIGRU_CASES.values(), ids=BIGRU_CASES.keys())
def test_fused_bigru_matches_per_frame_oracle(case, monkeypatch):
    check_bigru_against_oracle(case, monkeypatch, stacked=True)


@pytest.mark.parametrize("case", BIGRU_CASES.values(), ids=BIGRU_CASES.keys())
def test_bigru_one_direction_per_loop_matches_per_frame_oracle(case, monkeypatch):
    check_bigru_against_oracle(case, monkeypatch, stacked=False)


def check_bigru_against_oracle(case, monkeypatch, stacked):
    steps, d_in, hidden, biased, shared = case
    step_directions(monkeypatch, stacked)
    rng = np.random.default_rng(14)
    fwd = nn.GruParams(d_in, hidden, rng)
    bwd = fwd if shared else nn.GruParams(d_in, hidden, rng)
    if biased:
        randomize_biases([fwd] if shared else [fwd, bwd], rng)
    seq = ad.Tensor(rng.standard_normal((steps, d_in)))
    g = rng.standard_normal((steps, 2 * hidden))
    leaves = [seq, *fwd.tensors(), *bwd.tensors()]
    sizes = scan_sizes(monkeypatch)
    got = value_and_grads(lambda: nn.bigru_layer(seq, fwd, bwd), leaves, g)
    assert sizes == ([2] if stacked else [1, 1])
    want = value_and_grads(lambda: bigru_by_frames(seq, fwd, bwd), leaves, g)
    assert len(got) == 8   # output, input gradient, 6 parameter gradients
    for a, b in zip(got, want):
        assert_close(a, b)


def desk_bigru_layer(rng):
    """The input, both directions and an output gradient of one desk Bi-GRU
    layer, in the engine's precision: T = 292 frames of D = 128 features,
    H = 64 per direction."""
    fwd, bwd = nn.GruParams(128, 64, rng), nn.GruParams(128, 64, rng)
    randomize_biases([fwd, bwd], rng)
    seq, g = ad.Tensor(rng.standard_normal((292, 128))), rng.standard_normal((292, 128))
    return seq, fwd, bwd, g.astype(seq.data.dtype)


def test_bigru_groupings_agree_bit_for_bit_at_desk_shape(monkeypatch):
    """Stacked or one direction per loop, every product goes to the same
    gemv, so the output, the input gradient and all six parameter gradients
    are equal, not just close."""
    sizes = scan_sizes(monkeypatch)
    runs = []
    with ad.precision(np.float32):
        seq, fwd, bwd, g = desk_bigru_layer(np.random.default_rng(17))
        leaves = [seq, *fwd.tensors(), *bwd.tensors()]
        for stacked in (True, False):
            step_directions(monkeypatch, stacked)
            runs.append(value_and_grads(lambda: nn.bigru_layer(seq, fwd, bwd), leaves, g))
    assert sizes == [2, 1, 1]
    assert len(runs[0]) == 8   # output, input gradient, 6 parameter gradients
    for a, b in zip(*runs):
        assert a.dtype == b.dtype == np.float32
        np.testing.assert_array_equal(a, b)


def test_bigru_directions_of_unequal_width_step_one_at_a_time(monkeypatch):
    step_directions(monkeypatch, stacked=True)
    assert not nn.bigru_stacks(3, 5, np.float64)
    rng = np.random.default_rng(18)
    fwd, bwd = nn.GruParams(4, 3, rng), nn.GruParams(4, 5, rng)
    randomize_biases([fwd, bwd], rng)
    seq = ad.Tensor(rng.standard_normal((7, 4)))
    g = rng.standard_normal((7, 8))
    leaves = [seq, *fwd.tensors(), *bwd.tensors()]
    sizes = scan_sizes(monkeypatch)
    got = value_and_grads(lambda: nn.bigru_layer(seq, fwd, bwd), leaves, g)
    assert sizes == [1, 1]
    want = value_and_grads(lambda: bigru_by_frames(seq, fwd, bwd), leaves, g)
    for a, b in zip(got, want):
        assert_close(a, b)


def test_bigru_stacks_the_tiny_and_desk_layers_but_not_the_paper_ones():
    for dtype in (np.float32, np.float64):
        assert nn.bigru_stacks(3, 3, dtype) and nn.bigru_stacks(64, 64, dtype)
        assert not nn.bigru_stacks(380, 380, dtype)


def bigru_heap_peak(seq, fwd, bwd, g):
    """tracemalloc's heap peak over one bigru_layer forward and backward."""
    tracemalloc.start()
    try:
        ad.backward(total(ad.mul(nn.bigru_layer(seq, fwd, bwd), g)))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stacking_a_desk_bigru_layer_holds_no_more_than_one_direction_per_loop(monkeypatch):
    """The stacked scan keeps one tape for both directions and turns it into
    the gradients in place, so it peaks where two single scans do."""
    peaks = []
    with ad.precision(np.float32):
        seq, fwd, bwd, g = desk_bigru_layer(np.random.default_rng(19))
        for stacked in (True, False):
            step_directions(monkeypatch, stacked)
            bigru_heap_peak(seq, fwd, bwd, g)   # warm-up
            peaks.append(bigru_heap_peak(seq, fwd, bwd, g))
    assert peaks[0] <= 1.05 * peaks[1], [f"{p / 1e6:.2f} MB" for p in peaks]


def test_fused_gru_cell_matches_per_step_oracle():
    rng = np.random.default_rng(15)
    p = nn.GruParams(5, 4, rng)
    randomize_biases([p], rng)
    x, h = ad.Tensor(rng.standard_normal(5)), ad.Tensor(rng.standard_normal(4))
    g = rng.standard_normal(4)
    leaves = [x, h, *p.tensors()]
    got = value_and_grads(lambda: nn.gru_cell(x, h, p), leaves, g)
    want = value_and_grads(lambda: gru_cell_by_step(x, h, p), leaves, g)
    assert len(got) == 6   # output, x and h_prev gradients, 3 parameter gradients
    for a, b in zip(got, want):
        assert_close(a, b)


# --- linear / adam / grad_check ------------------------------------------

def test_linear_grad_check_tight():
    rng = np.random.default_rng(13)
    w = ad.Tensor(rng.standard_normal((4, 3)))
    b = ad.Tensor(rng.standard_normal(3))
    x = ad.Tensor(rng.standard_normal((6, 4)))
    target = rng.standard_normal((6, 3))
    loss_fn = lambda: ad.mse(nn.linear(x, w, b), target)
    assert nn.grad_check(loss_fn, [x, w, b]) < 1e-8


def test_adam_first_step_magnitude():
    p = ad.Tensor(np.array([1.0, -2.0]))
    opt = nn.Adam([p], lr=0.05)
    p.grad = np.ones(2)
    before = p.data.copy()
    opt.step()
    delta = before - p.data
    np.testing.assert_allclose(delta, 0.05 / (1 + 1e-8), rtol=1e-9)


def test_adam_zero_grad_is_identity():
    p = ad.Tensor(np.array([3.0, 4.0]))
    opt = nn.Adam([p], lr=0.1)
    p.grad = np.zeros(2)
    opt.step()
    np.testing.assert_array_equal(p.data, [3.0, 4.0])


def test_adam_descends_quadratic():
    # Momentum overshoots once the iterate nears zero, so strict per-step
    # descent only holds away from the optimum; overall the envelope decays.
    theta = ad.Tensor(np.array([1.0]))
    opt = nn.Adam([theta], lr=0.1)
    trajectory = []
    for _ in range(50):
        opt.zero_grad()
        ad.backward(total(ad.mul(theta, theta)))
        opt.step()
        trajectory.append(abs(float(theta.data[0])))
    for a, b in zip(trajectory, trajectory[1:]):
        if a < 0.1:
            break
        assert b < a
    assert trajectory[-1] < 0.05


def test_adam_shape_mismatch():
    p = ad.Tensor(np.zeros(3))
    opt = nn.Adam([p])
    p.grad = np.zeros(4)
    with pytest.raises(ShapeMismatch):
        opt.step()


def test_orthogonal_init_is_orthogonal():
    q = nn.orthogonal(np.random.default_rng(15), 16)
    np.testing.assert_allclose(q @ q.T, np.eye(16), atol=1e-10)
