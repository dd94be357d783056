"""End-to-end acceptance checks at desk scale.

Each test prints one [PASS] line with the measured numbers when its
assertions hold. The trained desk runs live in a session fixture so the
trend tests share them; their seeds are frozen and the runs reproduce
bit-exactly for a fixed configuration.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

import martnet as mn
from martnet.dual import (
    MartingaleNetConfig,
    BridgeParams,
    bridge_sup,
    loss_value,
    loss_and_grads,
    train,
)
from martnet.dual import _bridge_uniforms
from martnet.mlp import init_mlp, param_arrays, rebuild_params
from martnet.oracles import binomial_american_put
from martnet.qmc import draws_for
from martnet.report import plateau_iteration
from martnet.rk5 import flow

pytestmark = pytest.mark.slow

ADAM_DESK = {"alpha": 0.01}  # desk-scale step size; library default stays 0.001


@pytest.fixture(scope="session")
def desk_runs(bsm, heston):
    """The four frozen desk-scale training runs."""
    t0 = time.perf_counter()
    runs = {}

    p4 = mn.uniform_partition(1.0, 4)
    p1024 = mn.uniform_partition(1.0, 1024)

    cfg = MartingaleNetConfig(scheme="nvnet", d_M=1, partition=p4, batch=512)
    runs["bsm_nvnet"] = train(
        cfg, [init_mlp(bsm.N + 2, 1, seed=202)], 300, bsm, seed=2, bridge=True, adam_opts=ADAM_DESK
    )

    cfg = MartingaleNetConfig(scheme="resnet-em", d_M=1, partition=p1024, batch=512)
    runs["bsm_resnet"] = train(
        cfg, [init_mlp(bsm.N + 2, 1, seed=101)], 300, bsm, seed=1, bridge=True, adam_opts=ADAM_DESK
    )

    cfg = MartingaleNetConfig(scheme="nvnet", d_M=2, partition=p4, batch=512)
    runs["heston_nvnet"] = train(
        cfg,
        [init_mlp(heston.N + 2, 1, seed=202 + j) for j in range(2)],
        300,
        heston,
        seed=2,
        bridge=True,
        adam_opts=ADAM_DESK,
    )

    cfg = MartingaleNetConfig(scheme="resnet-em", d_M=2, partition=p1024, batch=512)
    runs["heston_resnet"] = train(
        cfg,
        [init_mlp(heston.N + 2, 1, seed=202 + j) for j in range(2)],
        60,
        heston,
        seed=2,
        bridge=True,
        adam_opts=ADAM_DESK,
    )

    runs["wall_seconds"] = time.perf_counter() - t0
    return runs


def test_binomial_reference_price():
    start = time.perf_counter()
    price = binomial_american_put(100.0, 100.0, 0.32, 1.0, 0.0)
    elapsed = time.perf_counter() - start
    assert abs(price - 12.66) < 0.01
    assert elapsed < 1.0
    print(f"[PASS] binomial oracle: {price:.6f} in {elapsed*1e3:.1f} ms (12.66 +- 0.01, < 1 s)")


def test_rk5_order():
    errs = {}
    for m in (2, 4, 8, 16):
        out = flow(lambda t, y: y, 0.0, np.array([1.0]), 1.0, m)
        errs[m] = abs(out[0] - math.e)
    ratios = [errs[m] / errs[2 * m] for m in (2, 4, 8)]
    assert all(24.0 <= r <= 40.0 for r in ratios)
    print(f"[PASS] rk5 order: halving ratios {[f'{r:.1f}' for r in ratios]} in [24, 40]")


def test_weak_order_euler(bsm):
    start = time.perf_counter()
    rows = mn.run_convergence(bsm, "em", [8, 16, 32, 64], 65536, seed=1)
    elapsed = time.perf_counter() - start
    slope = rows[-1].slope
    assert slope <= -0.8
    assert elapsed < 120.0
    print(f"[PASS] weak order euler: slope {slope:.3f} <= -0.8 over 8..64 at 2^16 points ({elapsed:.1f} s)")


def test_weak_order_second_order_schemes(bsm):
    for scheme in ("nv", "nn"):
        start = time.perf_counter()
        rows = mn.run_convergence(bsm, scheme, [1, 2, 4, 8], 65536, seed=0)
        elapsed = time.perf_counter() - start
        slope = rows[-1].slope
        assert slope <= -1.7, f"{scheme}: slope {slope}"
        assert elapsed < 120.0
        print(f"[PASS] weak order {scheme}: slope {slope:.3f} <= -1.7 over 1..8 at 2^16 points ({elapsed:.1f} s)")


def test_bridge_sampler_distribution():
    a, b, sigma, dt = 1.0, 2.0, 3.0, 0.25
    var = sigma * sigma * dt
    lo = max(a, b)

    def density(y):
        return (2.0 * (2.0 * y - a - b) / var) * math.exp(-2.0 * (y - a) * (y - b) / var)

    bp = BridgeParams(a=a, b=b, sigma=sigma, dt=dt)
    worst = 0.0
    for p in np.arange(0.1, 0.95, 0.1):
        g = bridge_sup(bp, float(p))
        val, _ = quad(density, lo, g, epsabs=1e-12, epsrel=1e-12)
        worst = max(worst, abs(val - p))
    assert worst < 1e-8

    u = np.random.default_rng(0).random(100000)
    samples = np.sort(np.asarray(bridge_sup(bp, u)))
    cdf = 1.0 - np.exp(-2.0 * (samples - a) * (samples - b) / var)
    n = samples.size
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    ks = max(np.max(np.abs(ecdf_hi - cdf)), np.max(np.abs(ecdf_lo - cdf)))
    assert ks < 0.01
    print(f"[PASS] bridge sampler: quantile round-trip off by {worst:.2e} (< 1e-8), ecdf sup-distance {ks:.4f} (< 0.01)")


def test_gradient_end_to_end(bsm):
    p1 = mn.uniform_partition(1.0, 1)
    cfg = MartingaleNetConfig(scheme="nvnet", d_M=1, partition=p1, batch=64)
    mlps = [init_mlp(bsm.N + 2, 1, seed=5)]
    rng = np.random.default_rng(8)
    mlps[0].proj[:] = rng.standard_normal(mlps[0].proj.shape) * 0.05
    draws = draws_for("nv", 1, 1, 64, seed=9)
    uniforms = _bridge_uniforms(9, 0, 64, 1)
    sigma_hat = np.array([20.0])

    _, grads = loss_and_grads(cfg, mlps, bsm, draws, bridge=True, uniforms=uniforms, sigma_hat=sigma_hat)
    flat = [g for per_net in grads for g in per_net]
    arrs = param_arrays(mlps[0])
    rng2 = np.random.default_rng(4)
    h = 1e-5
    worst = 0.0
    for _ in range(10):
        ai = int(rng2.integers(0, len(arrs)))
        idx = tuple(int(rng2.integers(0, s)) for s in arrs[ai].shape)

        def value(delta):
            shifted = [x.copy() for x in arrs]
            shifted[ai][idx] += delta
            nets = [rebuild_params(mlps[0], shifted)]
            return loss_value(cfg, nets, bsm, draws, bridge=True, uniforms=uniforms, sigma_hat=sigma_hat)

        fd = (value(h) - value(-h)) / (2.0 * h)
        rel = abs(fd - flat[ai][idx]) / max(1e-8, abs(fd))
        worst = max(worst, rel)
    assert worst < 1e-3
    print(f"[PASS] gradient end-to-end: worst relative error {worst:.2e} (< 1e-3) on 10 random parameters")


def test_centering_every_iteration(bsm):
    p4 = mn.uniform_partition(1.0, 4)
    cfg = MartingaleNetConfig(scheme="nvnet", d_M=1, partition=p4, batch=128)
    result = train(cfg, [init_mlp(bsm.N + 2, 1, seed=0)], 50, bsm, seed=0, bridge=True)
    worst = float(result.centering_residuals.max())
    assert result.centering_residuals.shape == (50,)
    assert worst < 1e-12
    print(f"[PASS] centering invariant: worst per-time batch mean {worst:.2e} (< 1e-12) over 50 iterations")


def test_desk_scale_lognormal_trends(desk_runs):
    nv = desk_runs["bsm_nvnet"].losses
    rs = desk_runs["bsm_resnet"].losses
    assert np.all(np.isfinite(nv)) and np.all(np.isfinite(rs))

    assert 12.0 <= nv[-1] <= 16.0 and 12.0 <= rs[-1] <= 16.0
    assert nv[249] <= rs[249]
    plateau = plateau_iteration(np.arange(1, 301), nv)
    assert plateau <= 250
    floor = min(nv.min(), rs.min())
    assert floor >= 12.16
    assert desk_runs["wall_seconds"] < 1800.0
    print(
        "[PASS] desk lognormal trends: finals "
        f"{nv[-1]:.3f}/{rs[-1]:.3f} in [12, 16]; iterate-250 ordering {nv[249]:.3f} <= {rs[249]:.3f}; "
        f"plateau {plateau} <= 250; floor {floor:.3f} >= 12.16; "
        f"all desk training {desk_runs['wall_seconds']:.0f} s (< 30 min)"
    )


def test_desk_scale_heston_trends(desk_runs):
    nv = desk_runs["heston_nvnet"].losses
    rs = desk_runs["heston_resnet"].losses
    assert np.all(np.isfinite(nv)) and np.all(np.isfinite(rs))

    ratio = abs(nv[49] / nv[299] - 1.0)
    assert ratio <= 0.02
    assert rs[49] > nv[49]
    print(
        f"[PASS] desk heston trends: iterate-50 level {nv[49]:.3f} within {100*ratio:.2f}% of "
        f"iterate-300 ({nv[299]:.3f}); slow-arm ordering {rs[49]:.3f} > {nv[49]:.3f}"
    )


def test_discrete_cubature_moments():
    draws = draws_for("cub3", 1, 6, 100000, seed=7)
    vals = draws.eta.ravel()
    assert vals.size == 600000
    m2 = float(np.mean(vals**2))
    m4 = float(np.mean(vals**4))
    assert abs(m2 - 1.0) < 0.02
    assert abs(m4 - 3.0) < 0.1
    print(f"[PASS] cubature moments: E[x^2] {m2:.4f} (1 +- 0.02), E[x^4] {m4:.4f} (3 +- 0.1) over 6e5 draws")
