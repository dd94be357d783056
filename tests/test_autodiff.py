import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from martnet.autodiff import Tensor, merge_rows
from martnet.mlp import MlpParams, mlp_forward_t, param_arrays, rebuild_params

from tape_reference import concat_cols, matmul, max_rows, mean, relu, rsub, sqrt, square


def numeric_grad(fn, x, h=1e-6):
    """Central finite differences of a scalar fn at every entry of x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        g[idx] = (fn(xp) - fn(xm)) / (2 * h)
        it.iternext()
    return g


def check_op(build, x, rtol=1e-6, atol=1e-8):
    leaf = Tensor(x, requires_grad=True)
    out = build(leaf)
    out.backward()
    fd = numeric_grad(lambda v: float(build(Tensor(v, requires_grad=True)).data), x)
    np.testing.assert_allclose(leaf.grad, fd, rtol=rtol, atol=atol)


def test_add_mul_broadcast():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 4))
    row = rng.standard_normal((1, 4))
    check_op(lambda t: mean((t + row) * 2.5 + rsub(3.0, t)), x)


def test_mul_two_tensors():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 3))
    y = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    leaf = Tensor(x, requires_grad=True)
    out = mean(leaf * y)
    out.backward()
    np.testing.assert_allclose(leaf.grad, y.data / 6)
    np.testing.assert_allclose(y.grad, x / 6)


def test_matmul():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 3))
    w = rng.standard_normal((3, 2))
    check_op(lambda t: mean(matmul(t, w)), x)


def test_relu_square_sqrt():
    rng = np.random.default_rng(3)
    x = np.abs(rng.standard_normal((3, 3))) + 0.5
    check_op(lambda t: mean(relu(t)), x)
    check_op(lambda t: mean(square(t)), x)
    check_op(lambda t: mean(sqrt(t)), x, rtol=1e-5)


def test_mean_axes():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 3))
    check_op(lambda t: mean(square(mean(t, axis=0, keepdims=True))), x)
    check_op(lambda t: mean(square(mean(t, axis=1))) * 0.1, x, rtol=1e-5)


def test_max_rows():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 4))
    check_op(lambda t: mean(max_rows(t)), x)
    # gradient concentrates on the per-row argmax
    leaf = Tensor(x, requires_grad=True)
    mean(max_rows(leaf)).backward()
    assert np.all(leaf.grad.sum(axis=1) == 1.0 / 6)
    assert np.all((leaf.grad == 0.0) | (leaf.grad == 1.0 / 6))


def test_concat_cols():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, 2))
    y = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    leaf = Tensor(x, requires_grad=True)
    out = mean(square(concat_cols([leaf, y])))
    out.backward()
    np.testing.assert_allclose(leaf.grad, 2 * x / 15)
    np.testing.assert_allclose(y.grad, 2 * y.data / 15)


def test_merge_rows_values_and_gradient():
    ia, ib = np.array([0, 2, 3]), np.array([4, 1])
    a = Tensor(np.array([[1.0], [3.0], [4.0]]), requires_grad=True)
    b = Tensor(np.array([[5.0], [2.0]]), requires_grad=True)
    out = merge_rows(ia, a, ib, b)
    np.testing.assert_array_equal(out.data[:, 0], [1.0, 2.0, 3.0, 4.0, 5.0])
    mean(out * np.arange(1.0, 6.0)[:, None]).backward()
    np.testing.assert_array_equal(a.grad[:, 0], 0.2 * np.array([1.0, 3.0, 4.0]))
    np.testing.assert_array_equal(b.grad[:, 0], 0.2 * np.array([5.0, 2.0]))
    # constants merge without a tape node, and a constant side gets no gradient
    plain = merge_rows(ia, a.data, ib, b.data)
    assert isinstance(plain, np.ndarray)
    np.testing.assert_array_equal(plain, out.data)
    mixed = merge_rows(ia, a.data, ib, b)
    assert isinstance(mixed, Tensor) and mixed._parents == (b,)


def test_quadratic_gradient_exact():
    theta = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    loss = mean(square(theta)) * 0.5
    loss.backward()
    np.testing.assert_allclose(theta.grad, theta.data / 3)


def test_cubic_scalar():
    theta = Tensor(np.array([2.0]), requires_grad=True)
    loss = mean(theta * theta * theta)
    loss.backward()
    assert abs(theta.grad[0] - 12.0) < 1e-6


def test_grad_accumulates_through_reuse():
    x = Tensor(np.array([3.0]), requires_grad=True)
    out = mean(x * 2.0 + x * 5.0)
    out.backward()
    np.testing.assert_allclose(x.grad, [7.0])


def test_add_copies_the_gradient_it_shares():
    # __add__ hands one array to both parents: each keeps its own copy, so the
    # gradient accumulated later into one never shows up in the other
    a, b = Tensor(np.ones(2), requires_grad=True), Tensor(np.ones(2), requires_grad=True)
    out = mean((a + b) * np.array([1.0, 2.0]) + a * 3.0)
    out.backward()
    assert a.grad is not b.grad
    np.testing.assert_array_equal(a.grad, [2.0, 2.5])
    np.testing.assert_array_equal(b.grad, [0.5, 1.0])


def test_getitem_gradient():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    out = mean(x[:, 1:2])
    out.backward()
    np.testing.assert_array_equal(x.grad, [[0.0, 0.5, 0.0], [0.0, 0.5, 0.0]])


def test_mixed_ndarray_tensor_operands():
    # ndarray op Tensor must come back as a Tensor, not an object array
    x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    out = np.array([[2.0, 3.0]]) * x
    assert isinstance(out, Tensor)
    out2 = np.array([[1.0, 1.0]]) + x
    assert isinstance(out2, Tensor)


# -- property tests: every tape op against central finite differences -------

_cases = dict(
    rows=st.integers(min_value=1, max_value=6),
    cols=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


def _weights(rng, shape):
    """Fixed random cotangent, so the scalar loss sees every entry."""
    return rng.standard_normal(shape)


@settings(max_examples=25)
@given(**_cases)
def test_property_merge_rows(rows, cols, seed):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(rows + 1)
    ia = perm[: rng.integers(0, rows + 2)]
    ib = np.setdiff1d(perm, ia)
    x = rng.standard_normal((rows + 1, cols))
    other = rng.standard_normal((ib.size, cols))
    w = _weights(rng, (rows + 1, cols))
    check_op(lambda t: mean(merge_rows(ia, t[ia], ib, other) * w), x)
    check_op(lambda t: mean(merge_rows(ib, other, ia, t[ia]) * w), x)


@settings(max_examples=25)
@given(**_cases)
def test_property_getitem_index_array(rows, cols, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, cols))
    idx = rng.integers(0, rows, size=rng.integers(1, 2 * rows + 1))  # repeats accumulate
    w = _weights(rng, (idx.size, cols))
    check_op(lambda t: mean(t[idx] * w), x)


@settings(max_examples=25)
@given(**_cases)
def test_property_mlp_node(rows, cols, seed):
    # the one-node network evaluation, in its taped input and in every parameter
    rng = np.random.default_rng(seed)
    widths = [cols, 3, 3, 3]
    layers = [(rng.standard_normal(wh), rng.standard_normal(wh[1])) for wh in zip(widths, widths[1:])]
    net = MlpParams(layers=layers, proj=rng.standard_normal((3, 2)))
    x = rng.standard_normal((rows, cols))
    h, pre = x, []
    for w, b in net.layers:
        pre.append(h @ w + b)
        h = np.maximum(pre[-1], 0.0)
    assume(min(np.min(np.abs(z)) for z in pre) > 1e-3)  # the relu kink is not differentiable
    w = _weights(rng, (rows, 2))
    arrays = param_arrays(net)

    def with_leaf(k, t):
        """The network with array k replaced by the Tensor t, the rest constant leaves."""
        return rebuild_params(net, [t if i == k else Tensor(a) for i, a in enumerate(arrays)])

    check_op(lambda t: mean(mlp_forward_t(with_leaf(None, t), t) * w), x)
    for k, a in enumerate(arrays):
        check_op(lambda t: mean(mlp_forward_t(with_leaf(k, t), x) * w), a)


@settings(max_examples=25)
@given(**_cases)
def test_property_concat_cols(rows, cols, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, cols))
    const = rng.standard_normal((rows, 2))
    w = _weights(rng, (rows, 2 * cols + 2))
    check_op(lambda t: mean(concat_cols([t, const, square(t)]) * w), x)


@settings(max_examples=25)
@given(**_cases)
def test_property_max_rows(rows, cols, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, cols))
    top = np.sort(x, axis=1)
    assume(cols == 1 or np.min(top[:, -1] - top[:, -2]) > 1e-3)  # ties move the argmax
    w = _weights(rng, rows)
    check_op(lambda t: mean(max_rows(t) * w), x)


@settings(max_examples=25)
@given(**_cases)
def test_property_square_sqrt(rows, cols, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, cols))
    w = _weights(rng, (rows, cols))
    check_op(lambda t: mean(square(t) * w), x)
    check_op(lambda t: mean(sqrt(t) * w), np.abs(x) + 0.1, rtol=1e-5)
