import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr

from martnet.qmc import (
    sobol_points,
    inv_normal_cdf,
    dims_for,
    draws_for,
    DrawBlock,
)
from martnet.errors import DomainError, UnknownSchemeError, UnsupportedDimensionError


def test_first_sobol_coordinates():
    pts = sobol_points(1, 3)
    np.testing.assert_allclose(pts[:, 0], [0.5, 0.75, 0.25], atol=1e-8)


def test_empty_request():
    pts = sobol_points(4, 0)
    assert pts.shape == (0, 4)


def test_points_in_open_cube():
    pts = sobol_points(8, 512, scramble_seed=3)
    assert np.all(pts > 0.0) and np.all(pts < 1.0)


def test_projection_gap():
    # max 1-D projection gap below 2/n for both coordinates
    pts = sobol_points(2, 1024)
    for j in range(2):
        s = np.concatenate([[0.0], np.sort(pts[:, j]), [1.0]])
        assert np.diff(s).max() < 2.0 / 1024


def test_digital_shift_determinism():
    a = sobol_points(6, 256, scramble_seed=11)
    b = sobol_points(6, 256, scramble_seed=11)
    c = sobol_points(6, 256, scramble_seed=12)
    np.testing.assert_array_equal(a, b)
    assert np.any(a != c)


def test_dimension_limit():
    with pytest.raises(UnsupportedDimensionError):
        sobol_points(30000, 2)


def test_inv_normal_center_and_tail():
    assert inv_normal_cdf(0.5) == 0.0
    assert abs(inv_normal_cdf(0.975) - 1.959964) < 1e-6


def test_inv_normal_antisymmetry():
    u = np.array([0.01, 0.2, 0.37, 0.64, 0.9, 0.999])
    s = inv_normal_cdf(u) + inv_normal_cdf(1.0 - u)
    assert np.max(np.abs(s)) < 1e-12


def test_inv_normal_domain():
    with pytest.raises(DomainError):
        inv_normal_cdf(0.0)
    with pytest.raises(DomainError):
        inv_normal_cdf(1.0)
    with pytest.raises(DomainError):
        inv_normal_cdf(np.array([0.5, np.nan]))


def test_dims_per_scheme():
    assert dims_for("nv", 1, 4) == 8
    assert dims_for("nn", 2, 4) == 16
    assert dims_for("em", 2, 8) == 16
    assert dims_for("cub3", 1, 8) == 8
    with pytest.raises(UnknownSchemeError):
        dims_for("heun", 1, 4)


def test_draw_shapes():
    d = draws_for("nv", 1, 4, 32, seed=0)
    assert isinstance(d, DrawBlock)
    assert d.eta.shape == (32, 4, 1)
    assert d.lam.shape == (32, 4)
    assert set(np.unique(d.lam)) <= {-1.0, 1.0}
    d2 = draws_for("nn", 2, 4, 32, seed=0)
    assert d2.eta.shape == (32, 4, 2) and d2.xi.shape == (32, 4, 2)
    d3 = draws_for("em", 1, 0, 8, seed=0)
    assert d3.eta.shape == (8, 0, 1)


def test_qmc_eta_moments():
    d = draws_for("em", 2, 4, 5000, seed=2)
    flat = d.eta.reshape(5000, -1)
    assert np.max(np.abs(flat.mean(axis=0))) < 0.02
    v = flat.var(axis=0, ddof=1)
    assert np.all(v > 0.95) and np.all(v < 1.05)


def test_lambda_balance():
    d = draws_for("nv", 1, 4, 5000, seed=5)
    assert np.max(np.abs(d.lam.mean(axis=0))) < 0.05


def test_cubature_marginals():
    d = draws_for("em", 1, 6, 100000, mode="cubature", seed=7)
    assert isinstance(d, DrawBlock)
    vals = d.eta.ravel()  # 6e5 draws
    assert vals.size == 600000
    root3 = np.sqrt(3.0)
    assert set(np.unique(vals)) <= {-root3, 0.0, root3}
    assert abs(np.mean(vals == 0.0) - 2.0 / 3.0) < 0.01


def test_cubature_moments():
    d = draws_for("em", 1, 6, 100000, mode="cubature", seed=7)
    vals = d.eta.ravel()
    assert abs(np.mean(vals**2) - 1.0) < 0.02
    assert abs(np.mean(vals**4) - 3.0) < 0.1


def test_block_determinism():
    a = draws_for("nn", 2, 3, 64, seed=9)
    b = draws_for("nn", 2, 3, 64, seed=9)
    np.testing.assert_array_equal(a.eta, b.eta)
    np.testing.assert_array_equal(a.xi, b.xi)


def test_pseudo_source():
    d = draws_for("em", 1, 4, 256, seed=1, source="pseudo")
    q = draws_for("em", 1, 4, 256, seed=1, source="qmc")
    assert np.any(d.eta != q.eta)


# -- properties of the draws layer --------------------------------------------

_open_unit = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


@given(_open_unit)
def test_inv_normal_inverts_ndtr(u):
    assert abs(ndtr(inv_normal_cdf(u)) - u) <= 1e-15


@given(st.floats(min_value=0.5, max_value=1.0, exclude_max=True))
def test_inv_normal_antisymmetric(v):
    # 1 - v is exact for v in [0.5, 1), so the two quantiles mirror
    x = inv_normal_cdf(v)
    assert abs(x + inv_normal_cdf(1.0 - v)) <= 4 * np.spacing(abs(x))


@given(_open_unit)
def test_inv_normal_scalar_in_scalar_out(u):
    x = inv_normal_cdf(u)
    assert isinstance(x, np.float64)
    assert inv_normal_cdf(np.array([u, u])).shape == (2,)


_shifted = dict(
    dim=st.integers(min_value=1, max_value=40),
    n=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=2**63 - 1),
)


@settings(max_examples=40)
@given(**_shifted)
def test_shifted_points_odd_multiples_inside_cube(dim, n, seed):
    pts = sobol_points(dim, n, scramble_seed=seed)
    assert pts.shape == (n, dim)
    assert np.all(pts > 0.0) and np.all(pts < 1.0)
    k = pts * 2.0**31
    assert np.all(k == np.floor(k)) and np.all(k.astype(np.int64) % 2 == 1)


@settings(max_examples=40)
@given(**_shifted)
def test_shifted_points_match_rounded_uint64_formula(dim, n, seed):
    raw = sobol_points(dim, n)
    shift = np.random.default_rng(seed).integers(0, 2**30, size=dim, dtype=np.uint64)
    ints = np.round(raw * 2.0**30).astype(np.uint64) ^ shift
    expected = (ints.astype(np.float64) + 0.5) / 2.0**30
    assert sobol_points(dim, n, scramble_seed=seed).tobytes() == expected.tobytes()
