import math

import numpy as np
import pytest

from martnet import rk5
from martnet.rk5 import rk5_step, flow
from martnet.errors import NumericError

from conftest import flow_substeps


def test_tableau_weights():
    b = np.asarray(rk5.B)
    assert abs(b.sum() - 1.0) < 1e-15
    np.testing.assert_allclose(b, np.array([7.0, 0.0, 32.0, 12.0, 32.0, 7.0]) / 90.0)
    # explicit method: row i of the stage table has exactly i entries
    for i, row in enumerate(rk5.A):
        assert len(row) == i


def test_single_step_exponential():
    out = rk5_step(lambda z: z, np.array([1.0]), 0.1)
    assert abs(out[0] - math.exp(0.1)) < 1e-9


def test_zero_field_returns_x():
    x = np.array([3.0, -2.0])
    out = rk5_step(lambda z: np.zeros_like(z), x, 0.7)
    np.testing.assert_array_equal(out, x)


def test_constant_field_exact():
    # weights sum to one, so a constant field integrates exactly
    c = np.array([2.0, -1.0])
    x = np.array([1.0, 1.0])
    out = rk5_step(lambda z: c, x, 0.3)
    np.testing.assert_allclose(out, x + 0.3 * c, rtol=0.0, atol=1e-15)


def test_flow_linear_field():
    out = flow(lambda t, y: 0.32 * y, 0.0, np.array([100.0]), 1.0)
    assert abs(out[0] / (100.0 * math.exp(0.32)) - 1.0) < 1e-6


def test_flow_zero_time():
    x = np.array([5.0])
    out = flow(lambda t, y: y, 0.0, x, 0.0)
    np.testing.assert_array_equal(out, x)


def test_flow_semigroup():
    f = lambda t, y: y * y / (1.0 + y * y)
    x = np.array([1.0])
    split = flow_substeps(f, 0.0, flow_substeps(f, 0.0, x, 0.4, 2), 0.6, 2)
    joint = flow_substeps(f, 0.0, x, 1.0, 4)
    assert abs(split[0] / joint[0] - 1.0) < 1e-7


def test_flow_negative_then_positive():
    f = lambda t, y: y * y / (1.0 + y * y)
    x = np.array([1.0])
    back = flow_substeps(f, 0.0, flow_substeps(f, 0.0, x, 0.7, 2), -0.7, 2)
    assert abs(back[0] / x[0] - 1.0) < 1e-6


def test_order_ratio():
    errs = {}
    for m in (2, 4, 8, 16, 32):
        out = flow_substeps(lambda t, y: y, 0.0, np.array([1.0]), 1.0, m)
        errs[m] = abs(out[0] - math.e)
    for m in (2, 4, 8, 16):
        ratio = errs[m] / errs[2 * m]
        assert 24.0 <= ratio <= 40.0, f"m={m}: ratio {ratio}"


def test_affine_equivariance():
    # linear field: the update is a fixed polynomial in h*A, hence homogeneous
    a = 0.7
    x = np.array([1.3])
    c = 57.0
    left = rk5_step(lambda z: a * z, c * x, 0.25)
    right = c * rk5_step(lambda z: a * z, x, 0.25)
    assert abs(left[0] / right[0] - 1.0) < 1e-12


def test_nan_field_raises():
    def f(z):
        return np.full_like(z, np.nan)

    with pytest.raises(NumericError):
        rk5_step(f, np.array([1.0]), 0.1)


def test_per_path_durations():
    # flow accepts a (batch, 1) duration column
    x = np.ones((3, 1))
    tt = np.array([[0.1], [0.2], [0.3]])
    out = flow(lambda t, y: y, 0.0, x, tt)
    # a single fifth-order step over duration 0.3 carries ~4e-7 truncation
    np.testing.assert_allclose(out[:, 0], np.exp(tt[:, 0]), rtol=1e-5)


def _euler_step(f, x, h):
    """The one-stage explicit step x + h f(x) that ``rk5.EULER`` tabulates."""
    return x + h * f(x)


@pytest.mark.parametrize(
    "tableau,step", [(rk5.EULER, _euler_step), (rk5.RK5, rk5_step)], ids=["euler", "rk5"]
)
def test_rk5_vjp_matches_central_differences(tableau, step):
    # a nonlinear per-row field of two evaluations, sin(y) + a y^2, over per-row
    # step lengths; the stage inputs recorded during the step give the callback
    # each evaluation's derivative, and the adjoint matches d/dm sum(g * step(m))
    rng = np.random.default_rng(21)
    m, a = rng.uniform(-1.0, 1.0, (5, 1)), rng.uniform(-0.5, 0.5, (5, 1))
    h, g, acc = rng.uniform(0.2, 0.7, (5, 1)), rng.standard_normal((5, 1)), rng.standard_normal((5, 1))

    def field(y):
        return np.sin(y) + a * y * y

    ys, calls = [], []

    def recording(y):
        ys.append(y)
        return field(y)

    step(recording, m, h)
    assert len(ys) == len(tableau[1])

    def stage_vjp(s, kbar):
        calls.append(s)
        return [kbar * np.cos(ys[s]), kbar * (2.0 * a * ys[s])]

    got = rk5.rk5_vjp(h, g, stage_vjp, acc, tableau)
    assert calls == list(reversed(range(len(ys))))
    eps = 1e-6
    want = np.empty_like(m)
    for r in range(m.shape[0]):
        e = np.zeros_like(m)
        e[r] = eps
        want[r] = (np.sum(g * step(field, m + e, h)) - np.sum(g * step(field, m - e, h))) / (2.0 * eps)
    np.testing.assert_allclose(got, acc + want, rtol=1e-7, atol=1e-9)
