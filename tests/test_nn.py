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


@pytest.mark.parametrize("rows", [None, 1, 3], ids=["budget", "rows1", "rows3"])
@pytest.mark.parametrize("case", COLUMN_CASES.values(), ids=COLUMN_CASES.keys())
def test_column_core_matches_tap_loops(case, rows, monkeypatch):
    x_shape, k_shape, stride, padding = case
    k_t, k_f, c_in, c_out = k_shape
    rng = np.random.default_rng(11)
    x = rng.standard_normal(x_shape)
    k = rng.standard_normal(k_shape)
    b = rng.standard_normal(c_out)
    if padding == "same":
        pads = [nn._same_padding(n, kn, s) for n, kn, s in zip(x_shape, (k_t, k_f), stride)]
        xd = np.pad(x, [(p // 2, p - p // 2) for p in pads] + [(0, 0)])
    else:
        pads, xd = [0, 0], x
    out_shape = correlate_by_taps(xd, k, stride).shape
    if rows is not None:   # a budget of exactly `rows` output rows per column block
        monkeypatch.setattr(nn, "_COLUMN_BYTES", rows * out_shape[1] * k[..., 0].size * 8)
    g = rng.standard_normal(out_shape)

    assert_close(nn._correlate(xd, k, stride), correlate_by_taps(xd, k, stride))
    assert_close(nn._kernel_grad(xd, g, k_shape, stride), kernel_grad_by_taps(xd, g, k_shape, stride))

    xt, kt, bt = ad.Tensor(x), ad.Tensor(k), ad.Tensor(b)
    out = nn.conv2d(xt, kt, bt, stride=stride, padding=padding)
    ad.backward(total(ad.mul(out, g)))
    assert_close(out.data, correlate_by_taps(xd, k, stride) + b)
    assert_close(kt.grad, kernel_grad_by_taps(xd, g, k_shape, stride))
    gx = nn._correlate_adjoint(g, k, stride, xd.shape)
    assert_close(xt.grad, gx[pads[0] // 2:pads[0] // 2 + x_shape[0],
                             pads[1] // 2:pads[1] // 2 + x_shape[1]])
    assert_close(bt.grad, g.sum(axis=(0, 1)))

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


# --- GRU -----------------------------------------------------------------

def test_gru_cell_zero_params():
    p = nn.GruParams(4, 3)
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
    r = 1.0 / (1.0 + np.exp(-(h @ p.ur.data + p.br.data)))
    p.bh.data[:] = atanh - (r * h) @ p.uh.data
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
    p = nn.GruParams(4, 3)
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
    fwd, bwd = nn.GruParams(4, 3), nn.GruParams(d_bwd, 3)
    with pytest.raises(ShapeMismatch):
        nn.bigru_layer(np.zeros(shape), fwd, bwd)


def test_float32_gru_saturates_without_floating_point_errors():
    # pre-activations of +-200: exp(200) overflows float32, the sigmoid is exact
    with ad.precision(np.float32):
        fwd, bwd = nn.GruParams(2, 3), nn.GruParams(2, 3)
        for p in (fwd, bwd):
            p.wz.data[:] = p.wr.data[:] = p.wh.data[:] = [[100.0, 0, 0], [0, 100.0, 0]]
            p.bz.data[:] = p.br.data[:] = p.bh.data[:] = [0, 0, -200.0]
        x = np.array([[2.0, -2.0], [-2.0, 2.0], [2.0, 2.0]])
        with np.errstate(all="raise"):
            seq = ad.Tensor(x)
            out = nn.bigru_layer(seq, fwd, bwd)
            ad.backward(total(out))
            cell = nn.gru_cell(x[0], np.zeros(3), fwd)
    assert out.data.dtype == cell.data.dtype == np.float32
    assert np.all(np.isfinite(out.data)) and np.all(np.isfinite(cell.data))
    assert np.all(np.isfinite(seq.grad))
    assert all(np.all(np.isfinite(t.grad)) for t in fwd.tensors() + bwd.tensors())


# --- the fused scan against the per-frame graph it replaced ----------------

def gru_cell_by_step(x_t, h_prev, p):
    """The former nn.gru_cell: one tape node per step, outer-product weight gradients."""
    x_t, h_prev = ad.as_tensor(x_t), ad.as_tensor(h_prev)
    x, h = x_t.data, h_prev.data
    z = 1.0 / (1.0 + np.exp(-(x @ p.wz.data + h @ p.uz.data + p.bz.data)))
    r = 1.0 / (1.0 + np.exp(-(x @ p.wr.data + h @ p.ur.data + p.br.data)))
    rh = r * h
    c = np.tanh(x @ p.wh.data + rh @ p.uh.data + p.bh.data)
    out = (1.0 - z) * h + z * c

    def bwd(g):
        gz = g * (c - h)
        gc = g * z
        gh = g * (1.0 - z)
        gac = gc * (1.0 - c * c)
        grh = gac @ p.uh.data.T
        gr = grh * h
        gh = gh + grh * r
        gar = gr * r * (1.0 - r)
        gaz = gz * z * (1.0 - z)
        ad.accumulate(p.bz, gaz)
        ad.accumulate(p.br, gar)
        ad.accumulate(p.bh, gac)
        ad.accumulate(p.wz, np.outer(x, gaz))
        ad.accumulate(p.wr, np.outer(x, gar))
        ad.accumulate(p.wh, np.outer(x, gac))
        ad.accumulate(p.uz, np.outer(h, gaz))
        ad.accumulate(p.ur, np.outer(h, gar))
        ad.accumulate(p.uh, np.outer(rh, gac))
        ad.accumulate(x_t, gaz @ p.wz.data.T + gar @ p.wr.data.T + gac @ p.wh.data.T)
        ad.accumulate(h_prev, gh + gaz @ p.uz.data.T + gar @ p.ur.data.T)

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
        for f in ("bz", "br", "bh"):
            getattr(p, f).data[:] = rng.standard_normal(p.d_hidden)


# (T, D, H, non-zero biases, one GruParams for both directions)
BIGRU_CASES = {
    "t1": (1, 6, 3, False, False),
    "t7-d-not-2h": (7, 5, 4, False, False),
    "distinct-biased": (9, 8, 4, True, False),
    "shared-biased": (6, 4, 2, True, True),
    "desk": (292, 128, 64, True, False),
}


@pytest.mark.parametrize("case", BIGRU_CASES.values(), ids=BIGRU_CASES.keys())
def test_fused_bigru_matches_per_frame_oracle(case):
    steps, d_in, hidden, biased, shared = case
    rng = np.random.default_rng(14)
    fwd = nn.GruParams(d_in, hidden, rng)
    bwd = fwd if shared else nn.GruParams(d_in, hidden, rng)
    if biased:
        randomize_biases([fwd] if shared else [fwd, bwd], rng)
    seq = ad.Tensor(rng.standard_normal((steps, d_in)))
    g = rng.standard_normal((steps, 2 * hidden))
    leaves = [seq, *fwd.tensors(), *bwd.tensors()]
    got = value_and_grads(lambda: nn.bigru_layer(seq, fwd, bwd), leaves, g)
    want = value_and_grads(lambda: bigru_by_frames(seq, fwd, bwd), leaves, g)
    assert len(got) == 20   # output, input gradient, 18 parameter gradients
    for a, b in zip(got, want):
        assert_close(a, b)


def test_fused_gru_cell_matches_per_step_oracle():
    rng = np.random.default_rng(15)
    p = nn.GruParams(5, 4, rng)
    randomize_biases([p], rng)
    x, h = ad.Tensor(rng.standard_normal(5)), ad.Tensor(rng.standard_normal(4))
    g = rng.standard_normal(4)
    leaves = [x, h, *p.tensors()]
    got = value_and_grads(lambda: nn.gru_cell(x, h, p), leaves, g)
    want = value_and_grads(lambda: gru_cell_by_step(x, h, p), leaves, g)
    assert len(got) == 12   # output, x and h_prev gradients, 9 parameter gradients
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


def test_grad_check_samples_large_params():
    rng = np.random.default_rng(14)
    w = ad.Tensor(rng.standard_normal((50, 40)))
    x = rng.standard_normal(50)
    loss_fn = lambda: total(ad.matmul(x[None], w))
    err = nn.grad_check(loss_fn, [w], max_entries=100)
    assert err < 1e-6


def test_orthogonal_init_is_orthogonal():
    q = nn.orthogonal(np.random.default_rng(15), 16)
    np.testing.assert_allclose(q @ q.T, np.eye(16), atol=1e-10)
