import weakref

import numpy as np
import pytest

from dereverb import autodiff as ad
from dereverb.errors import GraphReleased, NotScalarLoss, ShapeMismatch
from conftest import total


def fd_grad(loss_fn, param, eps=1e-6):
    """Central-difference gradient of loss_fn() w.r.t. param.data."""
    g = np.zeros_like(param.data)
    with ad.no_grad():
        for j in range(param.data.size):
            orig = param.data.flat[j]
            param.data.flat[j] = orig + eps
            f1 = float(loss_fn().data)
            param.data.flat[j] = orig - eps
            f0 = float(loss_fn().data)
            param.data.flat[j] = orig
            g.flat[j] = (f1 - f0) / (2 * eps)
    return g


def test_sum_gradient_is_ones():
    x = ad.Tensor(np.arange(12.0).reshape(3, 4))
    ad.backward(total(x))
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_disconnected_parameter_has_no_grad():
    x = ad.Tensor(np.ones(3))
    y = ad.Tensor(np.ones(3))
    ad.backward(total(x))
    assert y.grad is None


def test_backward_requires_scalar():
    x = ad.Tensor(np.ones(3))
    with pytest.raises(NotScalarLoss):
        ad.backward(ad.add(x, x))


def test_grad_accumulates_over_reuse():
    x = ad.Tensor(np.array([2.0]))
    y = ad.mul(x, x)  # x^2
    ad.backward(total(y))
    np.testing.assert_allclose(x.grad, [4.0])


def accumulate_in_two_passes(t, g):
    """The former `accumulate` of a first gradient: zeros, then +=."""
    grad = np.zeros_like(t.data)
    grad += g
    return grad


FIRST_GRADIENT_EDGES = [-0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-40, -1e-40,
                        3e38, 1e300]


@pytest.mark.parametrize("g_dtype", [np.float32, np.float64])
@pytest.mark.parametrize("t_dtype", [np.float32, np.float64])
def test_a_first_gradient_has_the_bits_of_zeros_then_add(t_dtype, g_dtype):
    # one pass into a fresh array: -0 becomes 0, NaN and infinities pass,
    # subnormals stay, and a gradient of the other width is cast as += casts it
    rng = np.random.default_rng(5)
    g = rng.standard_normal((300, 257, 8)).astype(g_dtype)
    with np.errstate(over="ignore", under="ignore"):
        g.flat[:len(FIRST_GRADIENT_EDGES)] = np.array(FIRST_GRADIENT_EDGES).astype(g_dtype)
    for grad in (g, np.asarray(-0.0, g_dtype), g_dtype(2.5), -0.0,
                 np.full((1, 257, 1), -0.0, g_dtype)):   # the last four broadcast
        with ad.precision(t_dtype):
            t = ad.Tensor(np.zeros((300, 257, 8)))
        with np.errstate(over="ignore", under="ignore"):
            want = accumulate_in_two_passes(t, grad)
            ad.accumulate(t, grad)
        assert t.grad.dtype == want.dtype == t_dtype
        assert t.grad.shape == want.shape
        assert t.grad.tobytes() == want.tobytes()


def test_mse_values_and_gradient():
    a = ad.Tensor(np.array([0.0, 2.0]))
    b = ad.Tensor(np.array([0.0, 0.0]))
    loss = ad.mse(a, b)
    assert float(loss.data) == 2.0
    ad.backward(loss)
    np.testing.assert_allclose(a.grad, [0.0, 2.0])
    assert float(ad.mse(a, a).data) == 0.0


def test_mse_gradient_matches_fd():
    rng = np.random.default_rng(0)
    a = ad.Tensor(rng.standard_normal((4, 5)))
    b = ad.Tensor(rng.standard_normal((4, 5)))
    loss_fn = lambda: ad.mse(a, b)
    ad.backward(loss_fn())
    numeric = fd_grad(loss_fn, a)
    assert np.abs(a.grad - numeric).max() / np.abs(numeric).max() < 1e-8


def test_mse_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        ad.mse(ad.Tensor(np.ones(3)), ad.Tensor(np.ones(4)))


def test_elu_relu_values():
    x = ad.Tensor(np.array([-20.0, 0.0, 3.0]))
    e = ad.elu(x)
    np.testing.assert_allclose(e.data, [np.exp(-20) - 1, 0.0, 3.0], atol=1e-8)
    assert abs(e.data[0] + 1) < 1e-8
    r = ad.relu(x)
    np.testing.assert_array_equal(r.data, [0.0, 0.0, 3.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_elu_relu_match_the_masked_forms_bit_for_bit(dtype):
    x = np.array([0.0, -0.0, 1e-40, -1e-40, 1.0, -1.0, -200.0, np.nan], dtype=dtype)
    with ad.precision(dtype):
        e, r = ad.elu(ad.Tensor(x)).data, ad.relu(ad.Tensor(x)).data
    assert e.dtype == r.dtype == dtype
    assert e.tobytes() == np.where(x > 0, x, np.exp(np.minimum(x, 0.0)) - 1.0).tobytes()
    finite = ~np.isnan(x)   # the masked relu mapped NaN to 0
    assert r[finite].tobytes() == np.where(x > 0, x, 0.0)[finite].tobytes()


# zeros of both signs, infinities, NaN, float32 and float64 subnormals, and
# values on either side of ELU's saturation
EDGE_VALUES = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-40, -1e-40, 1e-310, -1e-310,
               1.0, -1.0, -200.0, 100.0]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", ["elu", "relu"])
def test_the_overwriting_activations_match_the_public_ops_bit_for_bit(name, dtype):
    x = np.array(EDGE_VALUES, dtype)
    g = np.linspace(-2.0, 2.0, len(x))
    with ad.precision(dtype):
        a = ad.Tensor(x.copy())
        want = getattr(ad, name)(a)
        ad.backward(total(ad.mul(want, g)))
        b = ad.Tensor(x.copy())
        got = getattr(ad, f"_{name}_into")(b, b.data)
        ad.backward(total(ad.mul(got, g)))
    assert got.data is b.data and want.data is not a.data
    assert a.data.tobytes() == x.tobytes()   # the public op leaves its input alone
    assert got.data.dtype == want.data.dtype == dtype
    assert got.data.tobytes() == want.data.tobytes()
    assert b.grad.tobytes() == a.grad.tobytes()
    if name == "relu":   # NaN propagates and -0 becomes 0
        assert np.isnan(got.data[4]) and not np.signbit(got.data[1])


def test_relu_propagates_nan():
    r = ad.relu(ad.Tensor(np.array([np.nan, -1.0, 2.0])))
    np.testing.assert_array_equal(r.data, [np.nan, 0.0, 2.0])


@pytest.mark.parametrize("op", [ad.elu, ad.relu])
def test_elementwise_gradients_match_fd(op):
    rng = np.random.default_rng(1)
    x = rng.standard_normal(40)
    x = x[np.abs(x) > 1e-3]  # stay away from the relu kink
    t = ad.Tensor(x)
    loss_fn = lambda: total(ad.mul(op(t), np.arange(1.0, 1.0 + len(x))))
    t.grad = None
    ad.backward(loss_fn())
    numeric = fd_grad(loss_fn, t)
    denom = np.maximum(np.abs(numeric), 1e-8)
    assert (np.abs(t.grad - numeric) / denom).max() < 1e-6


def test_matmul_gradients():
    rng = np.random.default_rng(2)
    a = ad.Tensor(rng.standard_normal((3, 4)))
    b = ad.Tensor(rng.standard_normal((4, 2)))
    loss_fn = lambda: total(ad.mul(ad.matmul(a, b), rng2_const))
    rng2_const = rng.standard_normal((3, 2))
    ad.backward(loss_fn())
    for t in (a, b):
        numeric = fd_grad(loss_fn, t)
        assert np.abs(t.grad - numeric).max() < 1e-7


def test_vector_matmul_gradient():
    # a vector times a matrix is the [1, k] @ [k, m] product
    rng = np.random.default_rng(3)
    x = ad.Tensor(rng.standard_normal(5))
    w = ad.Tensor(rng.standard_normal((5, 3)))
    loss_fn = lambda: total(ad.matmul(ad.reshape(x, (1, 5)), w))
    ad.backward(loss_fn())
    np.testing.assert_allclose(x.grad, fd_grad(loss_fn, x), atol=1e-7)
    np.testing.assert_allclose(w.grad, fd_grad(loss_fn, w), atol=1e-7)


def test_broadcast_add_reduces_grad():
    x = ad.Tensor(np.zeros((4, 3)))
    b = ad.Tensor(np.zeros(3))
    ad.backward(total(ad.add(x, b)))
    np.testing.assert_array_equal(b.grad, [4.0, 4.0, 4.0])


def test_concat_grads():
    a = ad.Tensor(np.ones(2))
    b = ad.Tensor(np.ones(3))
    out = ad.concat([a, b])
    ad.backward(total(ad.mul(out, np.arange(5.0))))
    np.testing.assert_array_equal(a.grad, [0.0, 1.0])
    np.testing.assert_array_equal(b.grad, [2.0, 3.0, 4.0])


def test_reshape_transpose_grads():
    x = ad.Tensor(np.arange(6.0).reshape(2, 3))
    y = ad.transpose(ad.reshape(x, (3, 2)))
    assert y.data.shape == (2, 3)
    ad.backward(total(ad.mul(y, np.arange(6.0).reshape(2, 3))))
    loss_fn = lambda: total(
        ad.mul(ad.transpose(ad.reshape(x, (3, 2))), np.arange(6.0).reshape(2, 3)))
    np.testing.assert_allclose(x.grad, fd_grad(loss_fn, x), atol=1e-7)


def test_pad_crop_grads():
    rng = np.random.default_rng(4)
    x = ad.Tensor(rng.standard_normal((3, 4, 2)))
    c = rng.standard_normal((5, 6, 2))
    loss_fn = lambda: total(ad.mul(ad.pad_tail(x, 2, 2), c))
    ad.backward(loss_fn())
    np.testing.assert_allclose(x.grad, fd_grad(loss_fn, x), atol=1e-7)

    y = ad.Tensor(rng.standard_normal((5, 6, 2)))
    c2 = rng.standard_normal((3, 4, 2))
    loss_fn2 = lambda: total(ad.mul(ad.slice2d(y, 0, 3, 0, 4), c2))
    ad.backward(loss_fn2())
    np.testing.assert_allclose(y.grad, fd_grad(loss_fn2, y), atol=1e-7)


def test_pad_rows_edge_values_and_grad():
    x = ad.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = ad.pad_rows_edge(x, 2, 1)
    np.testing.assert_array_equal(
        out.data, [[1, 2], [1, 2], [1, 2], [3, 4], [3, 4]])
    c = np.arange(10.0).reshape(5, 2)
    loss_fn = lambda: total(ad.mul(ad.pad_rows_edge(x, 2, 1), c))
    x.grad = None
    ad.backward(loss_fn())
    np.testing.assert_allclose(x.grad, fd_grad(loss_fn, x), atol=1e-7)


def test_matmul_takes_only_matrices():
    w = ad.Tensor(np.ones((5, 3)))
    for a in (np.ones(5), np.ones((1, 1, 5)), np.ones((2, 4))):
        with pytest.raises(ShapeMismatch):
            ad.matmul(a, w)


def test_only_tensors_built_directly_get_a_grad():
    x = ad.Tensor(np.array([1.0, 2.0]))
    c = ad.as_tensor(np.array([3.0, 4.0]))
    assert x.needs_grad and not c.needs_grad
    y = ad.mul(x, c)
    assert y.needs_grad and y.parents == (x, c)
    ad.backward(total(y))
    np.testing.assert_array_equal(x.grad, [3.0, 4.0])
    assert c.grad is None


def test_op_on_constants_is_a_constant_leaf():
    c = ad.as_tensor(np.array([3.0, 4.0]))
    y = ad.mul(c, 2.0)
    np.testing.assert_array_equal(y.data, [6.0, 8.0])
    assert y.parents == () and y.bwd is None and not y.needs_grad
    ad.backward(total(y))   # nothing to differentiate; no error
    assert c.grad is None


def test_no_grad_builds_no_graph():
    x = ad.Tensor(np.ones(3))
    with ad.no_grad():
        y = ad.add(x, x)
    assert y.parents == () and y.bwd is None


def test_backward_is_deterministic():
    def run():
        rng = np.random.default_rng(5)
        a = ad.Tensor(rng.standard_normal((6, 6)))
        b = ad.Tensor(rng.standard_normal((6, 6)))
        loss = ad.mse(ad.elu(ad.matmul(a, b)), ad.relu(ad.add(a, b)))
        ad.backward(loss)
        return a.grad.copy(), b.grad.copy()

    ga1, gb1 = run()
    ga2, gb2 = run()
    assert np.array_equal(ga1, ga2) and np.array_equal(gb1, gb2)


def small_graph():
    """Leaves a, b and a scalar loss over a few interior nodes."""
    rng = np.random.default_rng(7)
    a = ad.Tensor(rng.standard_normal((6, 6)))
    b = ad.Tensor(rng.standard_normal((6, 6)))
    return a, b, ad.mse(ad.elu(ad.matmul(a, b)), ad.relu(ad.add(a, b)))


def interior_nodes(loss):
    """Every node of the graph of `loss` that has a backward rule."""
    seen, stack = {id(loss): loss}, [loss]
    while stack:
        for p in stack.pop().parents:
            if id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    return [t for t in seen.values() if t.bwd is not None]


def test_backward_frees_every_interior_array():
    a, b, loss = small_graph()
    interior = interior_nodes(loss)
    data = [weakref.ref(t.data) for t in interior if t is not loss]
    grads = []
    for t in interior:   # each rule notes the gradient it is handed
        def noting(g, rule=t.bwd):
            grads.append(weakref.ref(g))
            rule(g)
        t.bwd = noting
    del interior, t
    ad.backward(loss)    # the caller still holds `loss`
    assert len(data) == 4 and len(grads) == 5   # matmul, elu, add, relu; and mse
    assert [r() is None for r in data + grads] == [True] * 9
    assert loss.grad is None and loss.parents is None and loss.bwd is None
    assert a.grad is not None and b.grad is not None


def test_second_backward_raises_and_leaves_gradients_alone():
    a, b, loss = small_graph()
    ad.backward(loss)
    ga, gb = a.grad.copy(), b.grad.copy()
    with pytest.raises(GraphReleased):
        ad.backward(loss)
    with pytest.raises(GraphReleased):   # through a node of the released graph
        ad.backward(total(ad.mul(loss, 2.0)))
    assert np.array_equal(a.grad, ga) and np.array_equal(b.grad, gb)
