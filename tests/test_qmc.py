import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr
from scipy.stats import qmc as scipy_qmc

import martnet.qmc
from martnet.qmc import (
    sobol_points,
    inv_normal_cdf,
    dims_for,
    draws_for,
    DrawBlock,
)
from martnet.errors import (
    DomainError,
    InvalidParameterError,
    MartnetError,
    NumericError,
    UnknownSchemeError,
    UnsupportedDimensionError,
)

from conftest import force_cores, traced_peak_bytes


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


def _scipy_points(dim, n):
    eng = scipy_qmc.Sobol(d=dim, scramble=False)
    eng.fast_forward(1)
    return eng.random(n)


_COUNTS = [0, 1, 2, 3, 7, 8, 9, 1000]
_GRID = [(dim, n) for dim in (1, 2, 3, 64, 195, 1024, 21201) for n in _COUNTS]
_GRID += [(dim, 2**16) for dim in (1, 2, 3, 64)]


@pytest.mark.parametrize("dim,n", _GRID)
def test_sobol_matches_scipy_bit_for_bit(dim, n):
    pts = sobol_points(dim, n)
    ref = _scipy_points(dim, n)
    assert pts.shape == ref.shape and pts.dtype == ref.dtype
    assert pts.tobytes() == ref.tobytes()


def test_direction_table_grows_to_fresh_table(monkeypatch):
    monkeypatch.setattr(martnet.qmc, "_directions", np.empty((0, 30), dtype=np.uint32))
    grown = martnet.qmc._direction_numbers(5)
    assert grown.shape == (5, 30)
    grown = martnet.qmc._direction_numbers(50).copy()
    monkeypatch.setattr(martnet.qmc, "_directions", np.empty((0, 30), dtype=np.uint32))
    fresh = martnet.qmc._direction_numbers(50)
    assert grown.dtype == fresh.dtype == np.uint32
    np.testing.assert_array_equal(grown, fresh)


def test_direction_numbers_survive_a_concurrent_smaller_table(monkeypatch):
    # A caller growing the table to 16 rows publishes while a caller growing
    # it to 64 sits on the line after its build: the 64-row caller must still
    # get 64 rows. The large caller is paused by a line tracer on its thread.
    real_block = martnet.qmc._direction_block
    small_waiting, big_built, big_paused, small_done = (threading.Event() for _ in range(4))
    got = {}

    def block(lo, hi):
        if hi == 16:
            small_waiting.set()
            big_paused.wait(10)
        out = real_block(lo, hi)
        if hi == 64:
            big_built.set()
        return out

    def pause(frame, event, arg):
        if event == "line" and big_built.is_set() and not big_paused.is_set():
            big_paused.set()
            small_done.wait(10)
        return pause

    def tracer(frame, event, arg):
        return pause if frame.f_code is martnet.qmc._direction_numbers.__code__ else None

    def grow(dim):
        got[dim] = martnet.qmc._direction_numbers(dim)

    def grow_big():
        small_waiting.wait(10)
        sys.settrace(tracer)
        try:
            grow(64)
        finally:
            sys.settrace(None)

    monkeypatch.setattr(martnet.qmc, "_directions", np.empty((0, 30), dtype=np.uint32))
    monkeypatch.setattr(martnet.qmc, "_direction_block", block)
    small = threading.Thread(target=grow, args=(16,))
    big = threading.Thread(target=grow_big)
    small.start()
    big.start()
    small.join(10)
    small_done.set()
    big.join(10)
    assert not small.is_alive() and not big.is_alive()
    assert big_paused.is_set()
    np.testing.assert_array_equal(got[16], real_block(0, 16))
    np.testing.assert_array_equal(got[64], real_block(0, 64))


def test_point_count_limit():
    # rejected before any row is allocated: 2^30 rows of one uint32 would be 4 GiB
    with pytest.raises(InvalidParameterError):
        sobol_points(1, 2**30)
    with pytest.raises(InvalidParameterError):
        sobol_points(1, -1)


def test_start_limit():
    with pytest.raises(InvalidParameterError):
        sobol_points(1, 2, start=-1)
    with pytest.raises(InvalidParameterError):
        sobol_points(1, 2, start=2**30 - 2)
    assert sobol_points(1, 1, start=2**30 - 2).shape == (1, 1)


# -- row blocks --------------------------------------------------------------

_BLOCK = 2**13
_STARTS = [0, 1, 5, _BLOCK - 1, _BLOCK, _BLOCK + 3, 3 * _BLOCK, 3 * _BLOCK + 7]
_SEEDS = [None, 17, np.random.SeedSequence(4, spawn_key=(2,))]


@pytest.mark.parametrize("seed", _SEEDS, ids=["unshifted", "int", "seedsequence"])
@pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
def test_points_from_start_are_rows_of_one_long_call(n, seed):
    full = sobol_points(7, _STARTS[-1] + n, seed)
    for start in _STARTS:
        part = sobol_points(7, n, seed, start=start)
        assert part.tobytes() == full[start : start + n].tobytes(), start


_DRAW_SHAPES = {"em": (1, 3), "cub3": (1, 3), "nv": (1, 2), "nn": (2, 2)}  # scheme: (d, steps)


@pytest.mark.parametrize("scheme", sorted(_DRAW_SHAPES))
def test_draw_blocks_same_bytes_at_any_core_count(monkeypatch, scheme):
    d, steps = _DRAW_SHAPES[scheme]
    batch = 3 * _BLOCK + 5  # four blocks, the last one short
    seed = np.random.SeedSequence(8).spawn(1)[0]

    def refuse(thread):
        raise AssertionError("a thread was started at one core")

    threads = threading.active_count()
    interval = sys.getswitchinterval()
    got = []
    for n in (1, 2, 3):
        with monkeypatch.context() as m:
            force_cores(m, n)
            if n == 1:
                m.setattr(threading.Thread, "start", refuse)
            sys.setswitchinterval(1e-6)  # switch threads often
            try:
                block = draws_for(scheme, d, steps, batch, seed=seed)
            finally:
                sys.setswitchinterval(interval)
        got.append([None if a is None else a.tobytes() for a in (block.eta, block.xi, block.lam)])
        assert threading.active_count() == threads
    assert got[0] == got[1] == got[2]
    # the blocks agree with one transform of the whole point set
    u = sobol_points(dims_for(scheme, d, steps), batch, seed).reshape(batch, steps, -1)
    if scheme == "cub3":
        expected = np.where(u < 1 / 6, -np.sqrt(3.0), np.where(u < 5 / 6, 0.0, np.sqrt(3.0)))
    else:
        expected = inv_normal_cdf(u[:, :, : 2 * d] if scheme == "nn" else u[:, :, :d])
    assert got[0][0] == np.ascontiguousarray(expected[:, :, :d]).tobytes()
    if scheme == "nn":
        assert got[0][1] == np.ascontiguousarray(expected[:, :, d:]).tobytes()
    if scheme == "nv":
        assert got[0][2] == np.where(u[:, :, d] < 0.5, -1.0, 1.0).tobytes()


def test_one_block_draw_starts_no_thread(monkeypatch):
    def refuse(thread):
        raise AssertionError("a one-block draw started a thread")

    force_cores(monkeypatch, 8)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert draws_for("nv", 2, 4, _BLOCK, seed=0).eta.shape == (_BLOCK, 4, 2)


@pytest.mark.parametrize("make", [np.random.default_rng, np.random.PCG64])
def test_generator_seed_refused(make):
    with pytest.raises(InvalidParameterError, match="SeedSequence"):
        draws_for("em", 1, 2, 3 * _BLOCK, seed=make(1))


def test_worker_block_error_reaches_caller(monkeypatch):
    # The caller's block waits until a worker has started one; every worker
    # block raises. The caller must see that very object, and no thread may
    # outlive the call.
    boom = NumericError("block failed")
    caller = threading.current_thread()
    worker_started = threading.Event()
    real_points = martnet.qmc.sobol_points

    def points(*args, **kwargs):
        if threading.current_thread() is not caller:
            worker_started.set()
            raise boom
        worker_started.wait(10)
        return real_points(*args, **kwargs)

    force_cores(monkeypatch, 2)
    monkeypatch.setattr(martnet.qmc, "sobol_points", points)
    threads = threading.active_count()
    with pytest.raises(NumericError) as info:
        draws_for("em", 1, 2, 4 * _BLOCK, seed=1)
    assert info.value is boom
    assert worker_started.is_set()
    assert threading.active_count() == threads


def test_draw_peak_memory_stays_near_its_output(monkeypatch):
    # Only one block's uint32 rows and float points are held per thread, so
    # the peak is the output plus that scratch on each thread (two here).
    force_cores(monkeypatch, 2)
    output = 2**16 * 64 * 8
    peak = traced_peak_bytes(lambda: draws_for("em", 1, 64, 2**16, seed=3))
    assert peak <= 1.6 * output


def test_missing_direction_file_names_path(monkeypatch, tmp_path):
    missing = str(tmp_path / "no_such_directions.npz")
    monkeypatch.setattr(martnet.qmc, "_DIRECTION_FILE", missing)
    monkeypatch.setattr(martnet.qmc, "_directions", np.empty((0, 30), dtype=np.uint32))
    with pytest.raises(MartnetError, match="no_such_directions.npz"):
        sobol_points(3, 4)


def test_import_leaves_scipy_stats_out():
    code = (
        "import sys\n"
        "import martnet\n"
        "assert 'scipy.stats' not in sys.modules, 'martnet'\n"
        "import martnet.cli\n"
        "assert 'scipy.stats' not in sys.modules, 'martnet.cli'\n"
    )
    src = os.path.dirname(os.path.dirname(martnet.qmc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


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
    d = draws_for("cub3", 1, 6, 100000, seed=7)
    assert isinstance(d, DrawBlock)
    vals = d.eta.ravel()  # 6e5 draws
    assert vals.size == 600000
    root3 = np.sqrt(3.0)
    assert set(np.unique(vals)) <= {-root3, 0.0, root3}
    assert abs(np.mean(vals == 0.0) - 2.0 / 3.0) < 0.01


def test_cubature_moments():
    d = draws_for("cub3", 1, 6, 100000, seed=7)
    vals = d.eta.ravel()
    assert abs(np.mean(vals**2) - 1.0) < 0.02
    assert abs(np.mean(vals**4) - 3.0) < 0.1


def test_block_determinism():
    a = draws_for("nn", 2, 3, 64, seed=9)
    b = draws_for("nn", 2, 3, 64, seed=9)
    np.testing.assert_array_equal(a.eta, b.eta)
    np.testing.assert_array_equal(a.xi, b.xi)


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
