import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import martnet as mn
from martnet.autodiff import Tensor
from martnet.dual import (
    _simulate_coupled,
    MartingaleNetConfig,
    BridgeParams,
    bridge_sup,
    estimate_sigma,
    center,
    rogers_loss,
    loss_value,
    loss_and_grads,
    evaluate_loss,
    train,
)
from martnet import dual
from martnet.mlp import init_mlp, params_to_tensors
from martnet.qmc import draws_for
from martnet.schemes import NN_R11, NN_R12, NN_R22
from martnet.oracles import binomial_american_put
from martnet.errors import InvalidParameterError, ShapeError

from conftest import constant_output_mlp


def constant_field_mlp(model, value):
    # the net consumes (t/T, X/x0, M/K) and its output is scaled by K,
    # so a field identically equal to `value` needs output value/K
    strike = model.payoff.strike
    return constant_output_mlp(model.N + 2, value / strike)


def test_config_validation(bsm):
    p = mn.uniform_partition(1.0, 4)
    MartingaleNetConfig(scheme="nvnet", d_M=1, partition=p, batch=8)
    with pytest.raises(InvalidParameterError):
        MartingaleNetConfig(scheme="euler", d_M=1, partition=p, batch=8)
    with pytest.raises(InvalidParameterError):
        MartingaleNetConfig(scheme="nvnet", d_M=0, partition=p, batch=8)
    with pytest.raises(InvalidParameterError):
        MartingaleNetConfig(scheme="nvnet", d_M=1, partition=p, batch=0)


# -- bridge ------------------------------------------------------------------


def test_bridge_u_zero_is_endpoint_max():
    bp = BridgeParams(a=3.0, b=5.0, sigma=2.0, dt=0.25)
    assert bridge_sup(bp, 0.0) == 5.0
    bp2 = BridgeParams(a=-1.0, b=-4.0, sigma=2.0, dt=0.25)
    assert bridge_sup(bp2, 0.0) == -1.0


def test_bridge_exponential_tail_value():
    bp = BridgeParams(a=0.0, b=0.0, sigma=1.0, dt=1.0)
    u = 1.0 - math.exp(-2.0)
    assert abs(bridge_sup(bp, u) - 1.0) < 1e-12


def test_bridge_monotone_in_u():
    bp = BridgeParams(a=1.0, b=2.5, sigma=3.0, dt=0.1)
    us = np.linspace(0.0, 0.999, 200)
    vals = np.array([bridge_sup(bp, u) for u in us])
    assert np.all(np.diff(vals) >= 0.0)
    assert np.all(vals >= 2.5)  # sup dominates both endpoints


_finite = dict(allow_nan=False, allow_infinity=False)
_bridge_cases = dict(
    a=st.floats(-1e3, 1e3, **_finite),
    b=st.floats(-1e3, 1e3, **_finite),
    sigma=st.floats(1e-3, 1e2, **_finite),
    dt=st.floats(1e-4, 1.0, **_finite),
    u=st.floats(0.0, 1.0, exclude_max=True, **_finite),
    v=st.floats(0.0, 1.0, exclude_max=True, **_finite),
)
_EPS = np.finfo(np.float64).eps


@settings(max_examples=200)
@given(**_bridge_cases)
def test_property_bridge_sup_inverts_its_cdf(a, b, sigma, dt, u, v):
    # G = bridge_sup(bp, u) solves 1 - exp(-2 (G - a)(G - b) / (sigma^2 dt)) = u. G is a
    # double, so a bound must allow its rounding at the inputs' scale, `delta`: it
    # moves the exponent by 2 (|2G - a - b| delta + delta^2) / (sigma^2 dt), which
    # outgrows 1e-12 u once sigma sqrt(dt) << |a - b|. The sum a + b + root leaves G
    # short of max(a, b) by rounding, and by up to |a - b| / 2 < 2^-511 where
    # (a - b)^2 underflows.
    bp = BridgeParams(a=a, b=b, sigma=sigma, dt=dt)
    g = float(bridge_sup(bp, u))
    assert g >= max(a, b) - 2.0 * _EPS * max(abs(a), abs(b)) - 2.0**-511
    lo, hi = sorted((u, v))
    assert bridge_sup(bp, lo) <= bridge_sup(bp, hi)
    var_dt = sigma * sigma * dt
    back = -np.expm1(-2.0 * (g - a) * (g - b) / var_dt)
    delta = 4.0 * _EPS * max(abs(a), abs(b), abs(g))
    slack = 2.0 * (1.0 - u) * (abs(2.0 * g - a - b) * delta + delta * delta) / var_dt
    assert abs(back - u) <= 1e-12 * u + slack + np.finfo(np.float64).tiny


def test_bridge_parameter_errors():
    with pytest.raises(InvalidParameterError):
        bridge_sup(BridgeParams(a=0.0, b=0.0, sigma=0.0, dt=0.1), 0.5)
    with pytest.raises(InvalidParameterError):
        bridge_sup(BridgeParams(a=0.0, b=0.0, sigma=1.0, dt=0.1), 1.0)


# -- sigma estimate ------------------------------------------------------------


def test_estimate_sigma_floor():
    pilot = np.tile(np.array([0.0, 1.0, 2.0, 3.0]), (10, 1))
    deltas = np.full(3, 0.25)
    est = estimate_sigma(pilot, deltas)
    np.testing.assert_array_equal(est, np.full(3, 1e-8))


def test_estimate_sigma_hand_value():
    # increments +h and -h across two paths: sample sd h*sqrt(2)
    h = 0.3
    pilot = np.array([[0.0, h], [0.0, -h]])
    deltas = np.array([0.25])
    est = estimate_sigma(pilot, deltas)[0]
    assert abs(est - h * math.sqrt(2.0) / 0.5) < 1e-12


def test_estimate_sigma_shape_checks():
    with pytest.raises(ShapeError):
        estimate_sigma(np.zeros((1, 4)), np.full(3, 0.25))
    with pytest.raises(ShapeError):
        estimate_sigma(np.zeros((5, 3)), np.full(3, 0.25))


def test_estimate_sigma_bsm_diagnostic(bsm):
    # payoff-process volatility near the money: about 0.58 * sigma * S0
    p8 = mn.uniform_partition(1.0, 8)
    states = mn.simulate(bsm, "em", p8, draws_for("em", 1, 8, 10, seed=3))
    Z = np.maximum(100.0 - states[:, :, 0], 0.0)
    est = estimate_sigma(Z, p8.deltas)[0]
    ref = 0.32 * 100.0 * math.sqrt(0.5 - 0.5 / math.pi)
    assert 0.5 * ref < est < 1.5 * ref


# -- centering ---------------------------------------------------------------


def test_center_identical_paths():
    m = np.tile(np.array([[1.0, 2.0, 3.0]]), (6, 1))
    np.testing.assert_array_equal(center(m), np.zeros((6, 3)))


def test_center_already_centred():
    m = np.array([[1.0, 1.0], [-1.0, -1.0]])
    np.testing.assert_array_equal(center(m), m)


def test_center_mean_zero():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((32, 9)) * 40.0
    out = center(m)
    assert np.max(np.abs(out.mean(axis=0))) < 1e-12


def test_center_taped():
    rng = np.random.default_rng(1)
    m = Tensor(rng.standard_normal((8, 4)), requires_grad=True)
    out = center(m)
    assert np.max(np.abs(out.data.mean(axis=0))) < 1e-12
    out.square().mean().backward()
    assert m.grad is not None


# -- rogers loss ---------------------------------------------------------------


def test_rogers_loss_endpoint_max():
    Z = np.array([[0.0, 5.0, 3.0]])
    M = np.zeros((1, 3))
    assert rogers_loss(Z, M) == 5.0


def test_rogers_loss_zero():
    assert rogers_loss(np.zeros((4, 3)), np.zeros((4, 3))) == 0.0


def test_rogers_loss_bridge_dominates():
    rng = np.random.default_rng(2)
    Z = np.abs(rng.standard_normal((64, 5))) * 10.0
    M = rng.standard_normal((64, 5))
    deltas = np.full(4, 0.25)
    sigma = np.full(4, 5.0)
    uniforms = rng.random((64, 4))
    off = rogers_loss(Z, M)
    on = rogers_loss(Z, M, bridge=True, sigma=sigma, uniforms=uniforms, deltas=deltas)
    assert on >= off - 1e-12


# -- provisional martingale paths ---------------------------------------------


def _mart_cols(cfg, nets, model, draws):
    """The coupled pass's martingale knots M'_{t_0..t_n} as a (batch, steps + 1) matrix."""
    _, cols = _simulate_coupled(cfg, nets, model, draws, taped=False)
    return np.concatenate(cols, axis=1)


def test_mart_paths_zero_nets(bsm):
    p = mn.uniform_partition(1.0, 4)
    cfg = MartingaleNetConfig(scheme="nvnet", d_M=1, partition=p, batch=16)
    draws = draws_for("nv", 1, 4, 16, seed=4)
    m = _mart_cols(cfg, [init_mlp(bsm.N + 2, 1, seed=0)], bsm, draws)
    np.testing.assert_array_equal(m, np.zeros((16, 5)))


def test_mart_paths_constant_field_resnet(bsm):
    p = mn.uniform_partition(1.0, 4)
    cfg = MartingaleNetConfig(scheme="resnet-em", d_M=1, partition=p, batch=16)
    draws = draws_for("em", 1, 4, 16, seed=5)
    c = 2.0
    m = _mart_cols(cfg, [constant_field_mlp(bsm, c)], bsm, draws)
    expected = np.zeros((16, 5))
    for k in range(4):
        expected[:, k + 1] = expected[:, k] + c * math.sqrt(0.25) * draws.eta[:, k, 0]
    np.testing.assert_allclose(m, expected, rtol=1e-12, atol=1e-12)


def test_mart_paths_constant_field_nvnet_single_step(bsm):
    p = mn.uniform_partition(1.0, 1)
    cfg = MartingaleNetConfig(scheme="nvnet", d_M=1, partition=p, batch=32)
    draws = draws_for("nv", 1, 1, 32, seed=6)
    c = 1.5
    m = _mart_cols(cfg, [constant_field_mlp(bsm, c)], bsm, draws)
    expected = c * math.sqrt(1.0) * draws.eta[:, 0, 0]
    np.testing.assert_allclose(m[:, 1], expected, rtol=1e-10, atol=1e-10)


def test_mart_paths_shape_checks(bsm):
    p = mn.uniform_partition(1.0, 4)
    cfg = MartingaleNetConfig(scheme="nvnet", d_M=1, partition=p, batch=16)
    draws = draws_for("nv", 1, 4, 16, seed=4)
    with pytest.raises(ShapeError):
        loss_value(cfg, [init_mlp(bsm.N + 2, 1, 0)] * 2, bsm, draws, bridge=False)
    bad = draws_for("nv", 1, 3, 16, seed=4)
    with pytest.raises(ShapeError):
        loss_value(cfg, [init_mlp(bsm.N + 2, 1, 0)], bsm, bad, bridge=False)


@pytest.mark.parametrize("taped", [False, True])
@pytest.mark.parametrize("scheme,tag", [("resnet-em", "em"), ("nvnet", "nv"), ("nnet", "nn")])
def test_coupled_pass_assets_match_plain(heston, scheme, tag, taped):
    # the martingale rides the asset kernel without feeding back into X
    p = mn.uniform_partition(1.0, 4)
    cfg = MartingaleNetConfig(scheme=scheme, d_M=2, partition=p, batch=64)
    nets = [init_mlp(heston.N + 2, 1, seed=j) for j in range(2)]
    rng = np.random.default_rng(12)
    for net in nets:
        net.proj[:] = 0.05 * rng.standard_normal(net.proj.shape)
    if taped:
        nets = [params_to_tensors(net) for net in nets]
    draws = draws_for(tag, 2, 4, 64, seed=13)
    states, cols = _simulate_coupled(cfg, nets, heston, draws, taped)
    np.testing.assert_array_equal(states, mn.simulate(heston, tag, p, draws))
    last = cols[-1].data if taped else cols[-1]
    assert len(cols) == 5 and np.abs(last).max() > 0.0


def _one_step_increment(bsm, scheme, tag, c, batch=64):
    p = mn.uniform_partition(0.25, 1)
    cfg = MartingaleNetConfig(scheme=scheme, d_M=1, partition=p, batch=batch)
    draws = draws_for(tag, 1, 1, batch, seed=15)
    m = _mart_cols(cfg, [constant_field_mlp(bsm, c)], bsm, draws)
    assert np.all(m[:, 0] == 0.0)
    return m[:, 1], draws


def test_coupled_step_constant_field_nvnet(bsm):
    c = 1.5
    got, draws = _one_step_increment(bsm, "nvnet", "nv", c)
    np.testing.assert_allclose(got, c * math.sqrt(0.25) * draws.eta[:, 0, 0], rtol=0.0, atol=1e-12)


def test_coupled_step_constant_field_nnet(bsm):
    c = 1.5
    got, draws = _one_step_increment(bsm, "nnet", "nn", c)
    r11, r22, r12 = NN_R11, NN_R22, NN_R12
    eta, xi = draws.eta[:, 0, 0], draws.xi[:, 0, 0]
    zeta = (r12 / math.sqrt(r11)) * eta + math.sqrt(r22 - r12 * r12 / r11) * xi
    np.testing.assert_allclose(got, c * math.sqrt(0.25) * (zeta + math.sqrt(r11) * eta), rtol=0.0, atol=1e-12)


# -- loss plumbing ---------------------------------------------------------------


def test_initial_loss_band(bsm):
    p = mn.uniform_partition(1.0, 4)
    cfg = MartingaleNetConfig(scheme="nvnet", d_M=1, partition=p, batch=512)
    mlps = [init_mlp(bsm.N + 2, 1, seed=0)]
    rng = np.random.default_rng(5)
    for bridge in (False, True):
        uniforms = rng.random((512, 4)) if bridge else None
        val = loss_value(
            cfg, mlps, bsm, draws_for("nv", 1, 4, 512, seed=0),
            bridge=bridge, uniforms=uniforms,
        )
        assert 12.0 <= val <= 30.0


def test_duality_direction(bsm):
    # any candidate martingale keeps the sampled dual value above price - 0.5
    tree = binomial_american_put(100.0, 100.0, 0.32, 1.0, 0.0)
    p = mn.uniform_partition(1.0, 4)
    cfg = MartingaleNetConfig(scheme="nvnet", d_M=1, partition=p, batch=512)
    mlps = [init_mlp(bsm.N + 2, 1, seed=0)]
    result = train(cfg, mlps, 20, bsm, seed=0, bridge=True)
    val = evaluate_loss(cfg, result.mlps, bsm, batch=5000, seed=123, bridge=True)
    assert val >= tree - 0.5


def test_evaluation_streams_disjoint_from_training(bsm, monkeypatch):
    # evaluate_loss(seed=s) after train(seed=s) must not reuse the training
    # draws or bridge uniforms: the bound would be partly in-sample
    p = mn.uniform_partition(1.0, 4)
    cfg = MartingaleNetConfig(scheme="nvnet", d_M=1, partition=p, batch=64)
    mlps = [init_mlp(bsm.N + 2, 1, seed=0)]
    seen = {"draws": [], "uniforms": []}
    real_draws, real_uniforms, real_value = dual.draws_for, dual._bridge_uniforms, dual.loss_value

    def spy_draws(*args, **kwargs):
        seen["draws"].append(real_draws(*args, **kwargs))
        return seen["draws"][-1]

    def spy_uniforms(*args):
        seen["uniforms"].append(real_uniforms(*args))
        return seen["uniforms"][-1]

    def spy_value(config, nets, model, draws, bridge=True, uniforms=None, sigma_hat=None):
        seen["eval"] = (draws, uniforms)
        return real_value(config, nets, model, draws, bridge=bridge, uniforms=uniforms, sigma_hat=sigma_hat)

    monkeypatch.setattr(dual, "draws_for", spy_draws)
    monkeypatch.setattr(dual, "_bridge_uniforms", spy_uniforms)
    monkeypatch.setattr(dual, "loss_value", spy_value)
    train(cfg, mlps, 1, bsm, seed=0, bridge=True)
    (train_draws,), (train_uniforms,) = seen["draws"], seen["uniforms"]
    evaluate_loss(cfg, mlps, bsm, batch=512, seed=0, bridge=True)
    eval_draws, eval_uniforms = seen["eval"]
    assert not np.any(np.all(eval_draws.eta[:64] == train_draws.eta, axis=(1, 2)))
    assert not np.any(np.all(eval_uniforms[:64] == train_uniforms, axis=1))


def test_loss_and_grads_nonzero(bsm):
    p = mn.uniform_partition(1.0, 2)
    cfg = MartingaleNetConfig(scheme="nvnet", d_M=1, partition=p, batch=64)
    mlps = [init_mlp(bsm.N + 2, 1, seed=1)]
    val, grads = loss_and_grads(
        cfg, mlps, bsm, draws_for("nv", 1, 2, 64, seed=2),
        uniforms=np.random.default_rng(6).random((64, 2)),
    )
    assert np.isfinite(val)
    total = sum(float(np.abs(g).sum()) for gl in grads for g in gl)
    assert total > 0.0


def test_train_smoke_and_residuals(bsm):
    p = mn.uniform_partition(1.0, 4)
    cfg = MartingaleNetConfig(scheme="nvnet", d_M=1, partition=p, batch=128)
    mlps = [init_mlp(bsm.N + 2, 1, seed=0)]
    result = train(cfg, mlps, 10, bsm, seed=0, bridge=True)
    assert result.losses.shape == (10,)
    assert np.all(np.isfinite(result.losses))
    assert np.all(result.centering_residuals < 1e-12)
    assert result.losses[-1] < result.losses[0]  # learning moves the loss


def test_train_reproducible(bsm):
    p = mn.uniform_partition(1.0, 2)
    cfg = MartingaleNetConfig(scheme="nvnet", d_M=1, partition=p, batch=64)
    a = train(cfg, [init_mlp(bsm.N + 2, 1, seed=3)], 5, bsm, seed=4, bridge=True)
    b = train(cfg, [init_mlp(bsm.N + 2, 1, seed=3)], 5, bsm, seed=4, bridge=True)
    np.testing.assert_array_equal(a.losses, b.losses)


def test_train_heston_smoke(heston):
    p = mn.uniform_partition(1.0, 4)
    cfg = MartingaleNetConfig(scheme="nvnet", d_M=2, partition=p, batch=64)
    mlps = [init_mlp(heston.N + 2, 1, seed=j) for j in range(2)]
    result = train(cfg, mlps, 5, heston, seed=0, bridge=True)
    assert np.all(np.isfinite(result.losses))


def test_checkpoints_written(bsm, tmp_path):
    p = mn.uniform_partition(1.0, 2)
    cfg = MartingaleNetConfig(scheme="nvnet", d_M=1, partition=p, batch=32)
    train(cfg, [init_mlp(bsm.N + 2, 1, seed=0)], 3, bsm, seed=0, out_dir=tmp_path, checkpoint_every=2)
    assert (tmp_path / "iter00002.ckpt").exists()
