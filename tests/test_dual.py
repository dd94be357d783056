import math
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import martnet as mn
from martnet.autodiff import Tensor
from martnet.dual import (
    _simulate_coupled,
    MartingaleNetConfig,
    estimate_sigma,
    center,
    rogers_loss,
    loss_value,
    loss_and_grads,
    evaluate_loss,
    train,
)
from martnet import dual
from martnet.mlp import init_mlp, load_checkpoint, param_arrays
from martnet.qmc import DrawBlock, draws_for
from martnet.schemes import NN_R11, NN_R12, NN_R22
from martnet.oracles import binomial_american_put
from martnet.errors import InvalidParameterError, NumericError, ShapeError

from conftest import bridge_sup, constant_output_mlp, count_tensors, traced_peak_bytes
import tape_reference
from tape_reference import mean, square


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
    for batch in (2.5, True):
        with pytest.raises(InvalidParameterError, match=f"batch must be an integer, got {batch!r}"):
            MartingaleNetConfig(scheme="nvnet", d_M=1, partition=p, batch=batch)


# -- bridge ------------------------------------------------------------------


def test_bridge_u_zero_is_endpoint_max():
    assert bridge_sup(3.0, 5.0, 2.0, 0.25, 0.0) == 5.0
    assert bridge_sup(-1.0, -4.0, 2.0, 0.25, 0.0) == -1.0


def test_bridge_exponential_tail_value():
    u = 1.0 - math.exp(-2.0)
    assert abs(bridge_sup(0.0, 0.0, 1.0, 1.0, u) - 1.0) < 1e-12


def test_bridge_monotone_in_u():
    us = np.linspace(0.0, 0.999, 200)
    vals = np.array([bridge_sup(1.0, 2.5, 3.0, 0.1, u) for u in us])
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
    # G = bridge_sup(a, b, sigma, dt, u) solves 1 - exp(-2 (G - a)(G - b) / (sigma^2 dt)) = u. G is a
    # double, so a bound must allow its rounding at the inputs' scale, `delta`: it
    # moves the exponent by 2 (|2G - a - b| delta + delta^2) / (sigma^2 dt), which
    # outgrows 1e-12 u once sigma sqrt(dt) << |a - b|. The sum a + b + root leaves G
    # short of max(a, b) by rounding, and by up to |a - b| / 2 < 2^-511 where
    # (a - b)^2 underflows.
    g = float(bridge_sup(a, b, sigma, dt, u))
    assert g >= max(a, b) - 2.0 * _EPS * max(abs(a), abs(b)) - 2.0**-511
    lo, hi = sorted((u, v))
    assert bridge_sup(a, b, sigma, dt, lo) <= bridge_sup(a, b, sigma, dt, hi)
    var_dt = sigma * sigma * dt
    back = -np.expm1(-2.0 * (g - a) * (g - b) / var_dt)
    delta = 4.0 * _EPS * max(abs(a), abs(b), abs(g))
    slack = 2.0 * (1.0 - u) * (abs(2.0 * g - a - b) * delta + delta * delta) / var_dt
    assert abs(back - u) <= 1e-12 * u + slack + np.finfo(np.float64).tiny


def test_bridge_parameter_errors():
    with pytest.raises(InvalidParameterError):
        bridge_sup(0.0, 0.0, 0.0, 0.1, 0.5)
    with pytest.raises(InvalidParameterError):
        bridge_sup(0.0, 0.0, 1.0, 0.1, 1.0)


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


@pytest.mark.parametrize("shape", [(3, 2), (128, 301), (8192, 5), (70000, 2)])
def test_blocked_centering_matches_center_bitwise(shape):
    # D = Z - center(knots) formed by row blocks, and the residual from column sums
    # carried across the blocks, keep the bits of the whole-array centering
    rng = np.random.default_rng(shape[0])
    knots = 20.0 * rng.standard_normal(shape) + rng.uniform(-5.0, 5.0, shape[1])
    Z = np.abs(rng.standard_normal(shape))
    D = Z.copy()
    resid = dual._center_from(D, knots)
    assert D.tobytes() == (Z - center(knots)).tobytes()
    assert np.float64(resid).tobytes() == np.float64(np.abs(center(knots).mean(axis=0)).max()).tobytes()


def test_center_taped():
    # the centering's vector-Jacobian product is the centering of the cotangent
    rng = np.random.default_rng(1)
    g = rng.standard_normal((8, 4))
    out = dual._center_vjp(g.copy())
    np.testing.assert_allclose(out, center(g), rtol=0.0, atol=1e-15)
    assert np.max(np.abs(out.sum(axis=0))) < 1e-12


@settings(max_examples=40)
@given(
    batch=st.integers(min_value=1, max_value=6),
    width=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_center_node_matches_ops_bitwise(batch, width, seed):
    # center and its VJP against concat_cols, mean and - taped op by op; the cotangent's
    # zeros give columns whose gradient sums to a signed zero
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((batch, width)) * 10.0
    cot = rng.standard_normal((batch, width)) * (rng.random((batch, width)) < 0.5)
    leaf = Tensor(m, requires_grad=True)
    out = tape_reference.center_cols([leaf])
    out.requires_grad = True  # the walk keeps the centering's cotangent
    mean(square(out) * cot).backward()
    assert center(m).tobytes() == out.data.tobytes()
    assert dual._center_vjp(out.grad.copy()).tobytes() == leaf.grad.tobytes()


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


def test_rogers_loss_bridge_gradient_at_zero_root():
    # a = b at u = 0 makes the argmax's root 0: the gradient splits evenly between the
    # endpoints instead of reading 0 / 0
    kwargs = dict(bridge=True, sigma=np.ones(2), uniforms=np.zeros((1, 2)), deltas=np.full(2, 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss, vjp = dual._rogers_and_vjp(np.array([[2.0, 2.0, 0.0]]), **kwargs)
        gm = vjp()
    assert loss == 2.0
    assert gm.tolist() == [[-0.5, -0.5, 0.0]]


def _loss_with_vjp(Z, M, **kwargs):
    """The loss as the gradient chain takes it, D = Z - M given up to it."""
    kwargs = dict(dict(bridge=False, sigma=None, uniforms=None, deltas=None), **kwargs)
    return dual._rogers_and_vjp(Z - M, **kwargs)


@pytest.mark.parametrize("with_vjp", [False, True])
def test_rogers_loss_bridge_forward_peak(with_vjp):
    # D = Z - M and the two buffers G is filled from: under 3.5 (batch, steps + 1) arrays
    batch, steps = 512, 256
    rng = np.random.default_rng(8)
    Z, M = np.abs(rng.standard_normal((batch, steps + 1))), rng.standard_normal((batch, steps + 1))
    kwargs = _bridge_args(batch, steps, rng)
    loss_fn = _loss_with_vjp if with_vjp else rogers_loss
    loss_fn(Z, M, **kwargs)  # warm-up: first-call allocations stay out of the peak
    peak = traced_peak_bytes(lambda: loss_fn(Z, M, **kwargs))
    assert peak < 3.5 * Z.nbytes, f"the loss peaks at {peak / Z.nbytes:.2f} x (batch, steps + 1) arrays"


def _bridge_args(batch, steps, rng):
    return dict(
        bridge=True,
        sigma=np.full(steps, 5.0),
        uniforms=rng.random((batch, steps)),
        deltas=np.full(steps, 1.0 / steps),
    )


_BAD_BRIDGE_SHAPES = {
    "uniforms-scalar": ("uniforms", lambda batch, steps: 0.5),
    "uniforms-per-step": ("uniforms", lambda batch, steps: np.full(steps, 0.5)),
    "uniforms-per-knot": ("uniforms", lambda batch, steps: np.full((batch, steps + 1), 0.5)),
    "sigma-scalar": ("sigma", lambda batch, steps: 5.0),
    "sigma-short": ("sigma", lambda batch, steps: np.full(steps - 1, 5.0)),
    "deltas-per-knot": ("deltas", lambda batch, steps: np.full(steps + 1, 0.25)),
}


@pytest.mark.parametrize("with_vjp", [False, True])
@pytest.mark.parametrize("case", _BAD_BRIDGE_SHAPES)
def test_rogers_loss_bridge_shapes(case, with_vjp):
    # nothing broadcasts: every path has its own uniform per step, every step one sigma
    rng = np.random.default_rng(3)
    Z, M = np.abs(rng.standard_normal((8, 5))), rng.standard_normal((8, 5))
    kwargs = _bridge_args(8, 4, rng)
    key, make = _BAD_BRIDGE_SHAPES[case]
    kwargs[key] = make(8, 4)
    with pytest.raises(ShapeError):
        (_loss_with_vjp if with_vjp else rogers_loss)(Z, M, **kwargs)


@settings(max_examples=60)
@given(
    batch=st.integers(min_value=1, max_value=6),
    steps=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    bridge=st.booleans(),
)
def test_property_loss_node_matches_ops_bitwise(batch, steps, seed, bridge):
    # the loss's VJP in the gradient chain against the loss taped op by op
    # Z - M walks the integers in nonzero steps, row 0 as 0, 1, 0, 1, ...: grid maxima tie,
    # and where u = 0 so do the bridge's G = max(a, b), while a != b keeps every root positive
    rng = np.random.default_rng(seed)
    walk = np.cumsum(rng.choice([-2.0, -1.0, 1.0, 2.0], size=(batch, steps)), axis=1)
    D = np.concatenate([np.zeros((batch, 1)), walk], axis=1) + rng.integers(-2, 3, size=(batch, 1))
    D[0] = np.arange(steps + 1) % 2
    M = rng.integers(-3, 4, size=(batch, steps + 1)).astype(np.float64)
    Z = D + M
    kwargs = {}
    if bridge:
        kwargs = _bridge_args(batch, steps, rng)
        kwargs["uniforms"][rng.random((batch, steps)) < 0.5] = 0.0
        kwargs["sigma"] = rng.uniform(0.5, 2.0, steps)

    leaf = Tensor(M, requires_grad=True)
    want = tape_reference.rogers_loss(Z, leaf, **kwargs)
    want.backward()
    loss, vjp = _loss_with_vjp(Z, M, **kwargs)
    assert np.float64(loss).tobytes() == want.data.tobytes()
    assert vjp().tobytes() == leaf.grad.tobytes()
    assert loss == rogers_loss(Z, M, **kwargs)


_NODE_CASES = [
    ("bsm", "resnet-em", "em", 64),
    ("bsm", "resnet-em", "em", 300),  # the loss's row blocks: 54, 54 and 20 of the 128 paths
    ("heston", "resnet-em", "em", 32),
    ("bsm", "nvnet", "nv", 4),
    ("heston", "nvnet", "nv", 4),
    ("bsm", "nnet", "nn", 4),
    ("heston", "nnet", "nn", 3),
]


_NODE_BATCH = 128


def test_node_cases_span_row_blocks():
    # the bit tests below reach the loss's block loop: one case takes three row
    # blocks or more, the last one partial
    blocks = [dual._row_blocks(_NODE_BATCH, steps + 1) for *_, steps in _NODE_CASES]
    assert any(len(b) >= 3 and b[-1].stop - b[-1].start < b[0].stop for b in blocks)


def _node_case(request, model_name, scheme, tag, steps, bridge):
    """Config, nets with nonzero outputs, draws and uniforms of one _NODE_CASES case."""
    model = request.getfixturevalue(model_name)
    batch = _NODE_BATCH
    cfg = MartingaleNetConfig(scheme=scheme, d_M=model.d, partition=mn.uniform_partition(1.0, steps), batch=batch)
    rng = np.random.default_rng(7)
    nets = [init_mlp(model.N + 2, 1, seed=j) for j in range(model.d)]
    for net in nets:
        net.proj[:] = 0.05 * rng.standard_normal(net.proj.shape)
        for _, b in net.layers:
            b[:] = 0.1 * rng.standard_normal(b.shape)
    draws = draws_for(tag, model.d, steps, batch, seed=3)
    uniforms = rng.random((batch, steps)) if bridge else None
    return model, cfg, nets, draws, uniforms


def _gradient_bytes(entry, bridge, model, cfg, nets, draws, uniforms):
    """The bytes of the loss and of every gradient array that ``entry`` returns."""
    value, grads = entry(cfg, nets, model, draws, bridge=bridge, uniforms=uniforms)
    return np.float64(value).tobytes(), [g.tobytes() for per_net in grads for g in per_net]


@pytest.mark.parametrize("bridge", [False, True])
@pytest.mark.parametrize("model_name,scheme,tag,steps", _NODE_CASES)
def test_one_node_tape_matches_op_by_op_bitwise(request, model_name, scheme, tag, steps, bridge):
    # the gradient chain (the loss's, the centering's and the pass's vector-Jacobian
    # products) gives the loss and every gradient array of the tape that records each
    # operation of the pass, the centering and the loss
    case = _node_case(request, model_name, scheme, tag, steps, bridge)
    if tag == "nv":
        lam = case[3].lam
        assert 0 < np.count_nonzero(lam > 0) < lam.size  # both diffusion orders run
    assert _gradient_bytes(loss_and_grads, bridge, *case) == _gradient_bytes(tape_reference.loss_and_grads, bridge, *case)


@pytest.mark.parametrize("bridge", [False, True])
def test_one_path_row_set_matches_op_by_op_bitwise(request, bridge):
    # a step whose sign puts exactly one path on one side runs that row set's
    # networks on a single row (the gemv branch of mlp._hidden_layers), and its
    # backward gathers and scatters that one row
    case = _node_case(request, "heston", "nvnet", "nv", 4, bridge)
    lam = case[3].lam
    lam[:, 0] = -1.0
    lam[5, 0] = 1.0
    assert _gradient_bytes(loss_and_grads, bridge, *case) == _gradient_bytes(tape_reference.loss_and_grads, bridge, *case)


@pytest.mark.parametrize("bridge", [False, True])
@pytest.mark.parametrize("model_name,scheme,tag,steps", _NODE_CASES)
def test_taped_loss_equals_plain_loss_bitwise(request, model_name, scheme, tag, steps, bridge):
    # the plain and the taped pass encode M as m * (1 / K) and run the same float
    # operations, so loss_value reads the loss that loss_and_grads differentiates
    model, cfg, nets, draws, uniforms = _node_case(request, model_name, scheme, tag, steps, bridge)
    taped, _ = loss_and_grads(cfg, nets, model, draws, bridge=bridge, uniforms=uniforms)
    plain = loss_value(cfg, nets, model, draws, bridge=bridge, uniforms=uniforms)
    assert np.float64(taped).tobytes() == np.float64(plain).tobytes()


@pytest.mark.parametrize("model_name", ["bsm", "heston"])
def test_resnet_em_pass_is_one_tape_node(request, monkeypatch, model_name):
    # the resnet-em pass, once a single tape node, now makes no Tensor at all: the
    # gradient is an explicit chain over plain arrays, however many steps the pass takes
    model = request.getfixturevalue(model_name)
    nets = [init_mlp(model.N + 2, 1, seed=j) for j in range(model.d)]
    made = count_tensors(monkeypatch)

    def tensors(steps):
        made.clear()
        part = mn.uniform_partition(1.0, steps)
        cfg = MartingaleNetConfig(scheme="resnet-em", d_M=model.d, partition=part, batch=16)
        draws = draws_for("em", model.d, steps, 16, seed=4)
        uniforms = np.random.default_rng(5).random((16, steps))
        loss_and_grads(cfg, nets, model, draws, bridge=True, uniforms=uniforms)
        return len(made)

    assert tensors(8) == tensors(64) == 0


@pytest.mark.parametrize("scheme,tag", [("nvnet", "nv"), ("nnet", "nn")])
@pytest.mark.parametrize("model_name", ["bsm", "heston"])
def test_nv_nn_pass_is_one_tape_node(request, monkeypatch, model_name, scheme, tag):
    # an nvnet/nnet pass, once a single tape node, now makes no Tensor at all: no
    # tensor per stage combination, product, sum, row gather or evaluation, the nv
    # split (heston) included
    model = request.getfixturevalue(model_name)
    nets = [init_mlp(model.N + 2, 1, seed=j) for j in range(model.d)]
    made = count_tensors(monkeypatch)

    def tensors(steps):
        made.clear()
        part = mn.uniform_partition(1.0, steps)
        cfg = MartingaleNetConfig(scheme=scheme, d_M=model.d, partition=part, batch=16)
        draws = draws_for(tag, model.d, steps, 16, seed=4)
        if tag == "nv" and model.d > 1:
            assert 0 < np.count_nonzero(draws.lam > 0) < draws.lam.size  # the split runs
        uniforms = np.random.default_rng(5).random((16, steps))
        loss_and_grads(cfg, nets, model, draws, bridge=True, uniforms=uniforms)
        return len(made)

    assert tensors(2) == tensors(8) == 0


def test_gradient_makes_no_tensor(bsm, heston, monkeypatch):
    # train makes no Tensor under any network scheme either; the two tests above cover
    # loss_and_grads alone
    made = count_tensors(monkeypatch)
    for model in (bsm, heston):
        nets = [init_mlp(model.N + 2, 1, seed=j) for j in range(model.d)]
        for scheme in ("resnet-em", "nvnet", "nnet"):
            cfg = MartingaleNetConfig(scheme=scheme, d_M=model.d, partition=mn.uniform_partition(1.0, 4), batch=16)
            train(cfg, nets, 2, model, seed=0)
    assert made == []
    Tensor(np.zeros(1))
    assert made == [1]  # the counter sees a Tensor when one is made


def test_loss_gives_up_z_and_m_once_d_exists(bsm):
    # past D = Z - M the loss keeps neither Z nor the centered M, and the pass's
    # backward keeps no network's hidden layers: the states and knots it keeps, D in
    # Z's buffer and the bridge's two buffers stay under 5.5 (batch,) arrays per step
    # (7.0 when Z and M are held)
    batch = 256
    net = init_mlp(bsm.N + 2, 1, seed=3)

    def peak(steps):
        part = mn.uniform_partition(1.0, steps)
        cfg = MartingaleNetConfig(scheme="resnet-em", d_M=1, partition=part, batch=batch)
        draws = draws_for("em", 1, steps, batch, seed=4)
        uniforms = np.random.default_rng(5).random((batch, steps))
        return traced_peak_bytes(lambda: loss_and_grads(cfg, [net], bsm, draws, bridge=True, uniforms=uniforms))

    peak(64)  # warm-up: first-call allocations stay out of the slope
    per_step = (peak(128) - peak(64)) / 64
    assert per_step < 5.5 * batch * 8, f"the loss holds {per_step / (batch * 8):.1f} x batch x 8 B per step"


def test_loss_blocks_hold_no_second_batch_by_steps_array(bsm):
    # with row blocks far smaller than batch x steps, the centered M, the payoff's
    # K - S and the bridge's G and root are never whole arrays: past the states and
    # knots the pass keeps, the loss holds D alone (the gradient takes its place),
    # under 4.0 (batch,) arrays per step (5.0 when the bridge fills whole arrays)
    batch = 256
    assert len(dual._row_blocks(batch, 257)) > 4
    net = init_mlp(bsm.N + 2, 1, seed=3)

    def peak(steps):
        part = mn.uniform_partition(1.0, steps)
        cfg = MartingaleNetConfig(scheme="resnet-em", d_M=1, partition=part, batch=batch)
        draws = draws_for("em", 1, steps, batch, seed=4)
        uniforms = np.random.default_rng(5).random((batch, steps))
        return traced_peak_bytes(lambda: loss_and_grads(cfg, [net], bsm, draws, bridge=True, uniforms=uniforms))

    peak(256)  # warm-up: first-call allocations stay out of the slope
    per_step = (peak(512) - peak(256)) / 256
    assert per_step < 4.0 * batch * 8, f"the loss holds {per_step / (batch * 8):.2f} x batch x 8 B per step"


# -- provisional martingale paths ---------------------------------------------


def _mart_cols(cfg, nets, model, draws):
    """The coupled pass's martingale knots M'_{t_0..t_n} as a (batch, steps + 1) matrix."""
    _, knots, _ = _simulate_coupled(cfg, nets, model, draws, need_grad=False)
    return knots


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


@pytest.mark.parametrize("need_grad", [False, True])
@pytest.mark.parametrize("scheme,tag", [("resnet-em", "em"), ("nvnet", "nv"), ("nnet", "nn")])
def test_coupled_pass_assets_match_plain(heston, scheme, tag, need_grad):
    # the martingale rides the asset kernel without feeding back into X
    p = mn.uniform_partition(1.0, 4)
    cfg = MartingaleNetConfig(scheme=scheme, d_M=2, partition=p, batch=64)
    nets = [init_mlp(heston.N + 2, 1, seed=j) for j in range(2)]
    rng = np.random.default_rng(12)
    for net in nets:
        net.proj[:] = 0.05 * rng.standard_normal(net.proj.shape)
    draws = draws_for(tag, 2, 4, 64, seed=13)
    states, knots, backward = _simulate_coupled(cfg, nets, heston, draws, need_grad)
    assert states.shape == (64, 5, heston.N + 1)
    assert states[:, :, :-1].tobytes() == mn.simulate(heston, tag, p, draws).tobytes()
    assert knots.tobytes() == np.ascontiguousarray(states[:, :, -1]).tobytes()
    assert knots.shape == (64, 5) and np.abs(knots[:, -1]).max() > 0.0
    assert (backward is not None) == need_grad


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


@pytest.mark.parametrize("mu", [0.0, 0.06])
def test_loss_discounts_the_payoff(mu):
    # Z_k = exp(-mu t_k) (K - S_k)^+ at the rate mu; at mu = 0 the factor is 1.0 and
    # Z keeps the undiscounted payoff's bits. Fresh networks make M = 0, so the grid
    # loss is the batch mean of each path's largest Z_k
    model = mn.make_bsm_model(100.0, mu, 0.32)
    p = mn.uniform_partition(1.0, 8)
    cfg = MartingaleNetConfig(scheme="resnet-em", d_M=1, partition=p, batch=64)
    draws = draws_for("em", 1, 8, 64, seed=9)
    nets = [init_mlp(model.N + 2, 1, seed=2)]
    payoff = np.maximum(100.0 - mn.simulate(model, "em", p, draws)[:, :, 0], 0.0)
    want = (np.exp(-mu * p.times) * payoff).max(axis=1).mean()
    for got in (loss_value(cfg, nets, model, draws, bridge=False), loss_and_grads(cfg, nets, model, draws, bridge=False)[0]):
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert (want == payoff.max(axis=1).mean()) == (mu == 0.0)


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


def test_train_memory_does_not_grow_with_iterations(bsm):
    # each iteration's backward, with the states, knots and draws it holds, is dropped
    # before the next forward: three iterations peak where one does
    cfg = MartingaleNetConfig(scheme="resnet-em", d_M=1, partition=mn.uniform_partition(1.0, 256), batch=256)

    def peak(iterations):
        return traced_peak_bytes(lambda: train(cfg, [init_mlp(bsm.N + 2, 1, seed=3)], iterations, bsm, seed=0))

    peak(1)  # warm-up: first-call allocations stay out of the ratio
    one, three = peak(1), peak(3)
    assert three <= 1.1 * one, f"3 iterations peak at {three / one:.2f} x 1 iteration's"


@pytest.mark.parametrize("entry", ["loss_value", "loss_and_grads"])
def test_two_dimensional_eta_is_a_shape_error(bsm, entry):
    cfg = MartingaleNetConfig(scheme="resnet-em", d_M=1, partition=mn.uniform_partition(1.0, 4), batch=8)
    call = {"loss_value": loss_value, "loss_and_grads": loss_and_grads}[entry]
    with pytest.raises(ShapeError, match="eta shaped"):
        call(cfg, [init_mlp(bsm.N + 2, 1, seed=0)], bsm, DrawBlock(eta=np.zeros((8, 4))), bridge=False)


def test_non_finite_loss_aborts(bsm, tmp_path, monkeypatch):
    # train writes the networks it was about to update and names the iteration;
    # loss_and_grads refuses to differentiate
    cfg = MartingaleNetConfig(scheme="nvnet", d_M=1, partition=mn.uniform_partition(1.0, 2), batch=16)
    net = init_mlp(bsm.N + 2, 1, seed=0)
    net.proj[:] = 0.05
    trained = train(cfg, [net], 2, bsm, seed=0).mlps  # networks that differ from a fresh init
    monkeypatch.setattr(dual, "payoff_eval", lambda payoff, states: np.full(states.shape[:2], np.nan))
    with pytest.raises(NumericError, match="iteration 0"):
        train(cfg, trained, 3, bsm, seed=0, out_dir=str(tmp_path), checkpoint_every=1)
    assert sorted(os.listdir(tmp_path)) == ["diagnostic_iter00000.ckpt"]
    (loaded,) = load_checkpoint(str(tmp_path / "diagnostic_iter00000.ckpt"))
    for got, want in zip(param_arrays(loaded), param_arrays(trained[0])):
        assert got.tobytes() == want.tobytes()
    draws = draws_for("nv", 1, 2, 16, seed=1)
    with pytest.raises(NumericError, match="non-finite"):
        loss_and_grads(cfg, trained, bsm, draws, uniforms=np.random.default_rng(2).random((16, 2)))


def test_bridge_needs_two_paths(bsm):
    # sigma is estimated across paths, so batch 1 with the bridge fails before any work
    p = mn.uniform_partition(1.0, 2)
    cfg = MartingaleNetConfig(scheme="nvnet", d_M=1, partition=p, batch=1)
    mlps = [init_mlp(bsm.N + 2, 1, seed=0)]
    with pytest.raises(InvalidParameterError, match="batch 1.*bridge"):
        train(cfg, mlps, 2, bsm, seed=0, bridge=True)
    with pytest.raises(InvalidParameterError, match="batch 1.*bridge"):
        evaluate_loss(cfg, mlps, bsm, batch=1, seed=0, bridge=True)
    assert np.isfinite(train(cfg, mlps, 2, bsm, seed=0, bridge=False).losses).all()
    assert np.isfinite(evaluate_loss(cfg, mlps, bsm, batch=1, seed=0, bridge=False))


@pytest.mark.parametrize("entry", ["evaluate_loss", "loss_value", "loss_and_grads", "train"])
def test_zero_step_partition_is_refused(bsm, entry):
    # a partition without a step has no interval for the loss's supremum: refused by
    # name when the config is built, not by np.argmax of an empty row
    mlps = [init_mlp(bsm.N + 2, 1, seed=0)]
    draws = draws_for("em", 1, 0, 8, seed=0)
    calls = {
        "evaluate_loss": lambda cfg: evaluate_loss(cfg, mlps, bsm, batch=8, seed=0),
        "loss_value": lambda cfg: loss_value(cfg, mlps, bsm, draws, uniforms=np.zeros((8, 0))),
        "loss_and_grads": lambda cfg: loss_and_grads(cfg, mlps, bsm, draws, uniforms=np.zeros((8, 0))),
        "train": lambda cfg: train(cfg, mlps, 1, bsm, seed=0),
    }
    with pytest.raises(InvalidParameterError, match="at least one step"):
        calls[entry](MartingaleNetConfig(scheme="resnet-em", d_M=1, partition=mn.uniform_partition(1.0, 0), batch=8))


@pytest.mark.parametrize("entry", ["draws_for", "train", "evaluate_loss"])
def test_negative_seed_is_refused_by_name(bsm, tmp_path, monkeypatch, entry):
    # a MartnetError naming the seed, before numpy seeds anything or a file is written
    cfg = MartingaleNetConfig(scheme="nvnet", d_M=1, partition=mn.uniform_partition(1.0, 2), batch=8)
    mlps = [init_mlp(bsm.N + 2, 1, seed=0)]

    def no_seeding(*args, **kwargs):
        raise AssertionError("a seed was built")

    monkeypatch.setattr(np.random, "SeedSequence", no_seeding)
    monkeypatch.setattr(np.random, "Philox", no_seeding)
    calls = {
        "draws_for": lambda: draws_for("nv", 1, 2, 8, seed=-1),
        "train": lambda: train(cfg, mlps, 2, bsm, seed=-1, out_dir=tmp_path, checkpoint_every=1),
        "evaluate_loss": lambda: evaluate_loss(cfg, mlps, bsm, batch=8, seed=-1),
    }
    with pytest.raises(InvalidParameterError, match="seed must be >= 0, got -1"):
        calls[entry]()
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("seed", [1.5, "abc"])
@pytest.mark.parametrize("entry", ["draws_for", "train", "evaluate_loss"])
def test_non_integer_seed_is_refused_by_name(bsm, tmp_path, entry, seed):
    cfg = MartingaleNetConfig(scheme="nvnet", d_M=1, partition=mn.uniform_partition(1.0, 2), batch=8)
    mlps = [init_mlp(bsm.N + 2, 1, seed=0)]
    calls = {
        "draws_for": lambda: draws_for("nv", 1, 2, 8, seed=seed),
        "train": lambda: train(cfg, mlps, 2, bsm, seed=seed, out_dir=tmp_path, checkpoint_every=1),
        "evaluate_loss": lambda: evaluate_loss(cfg, mlps, bsm, batch=8, seed=seed),
    }
    with pytest.raises(InvalidParameterError, match=f"integer >= 0 or a SeedSequence, got {seed!r}"):
        calls[entry]()
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "entry, name, value",
    [("train", "iterations", 2.5), ("train", "iterations", True), ("evaluate_loss", "batch", 10.5)],
)
def test_non_integer_size_is_refused_by_name(bsm, tmp_path, entry, name, value):
    # a size that is not an integer is refused naming it, not by numpy's bare TypeError
    cfg = MartingaleNetConfig(scheme="nvnet", d_M=1, partition=mn.uniform_partition(1.0, 2), batch=8)
    mlps = [init_mlp(bsm.N + 2, 1, seed=0)]
    calls = {
        "train": lambda: train(cfg, mlps, value, bsm, seed=0, out_dir=tmp_path, checkpoint_every=1),
        "evaluate_loss": lambda: evaluate_loss(cfg, mlps, bsm, batch=value, seed=0),
    }
    with pytest.raises(InvalidParameterError, match=f"{name} must be an integer, got {value!r}"):
        calls[entry]()
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "entry, seed, kinds",
    [
        ("train", None, "an integer >= 0"),
        ("train", np.random.SeedSequence(1), "an integer >= 0"),
        ("evaluate_loss", np.random.SeedSequence(1), "None or an integer >= 0"),
    ],
    ids=["train-None", "train-SeedSequence", "evaluate_loss-SeedSequence"],
)
def test_seed_dual_cannot_key_is_refused_by_name(bsm, tmp_path, monkeypatch, entry, seed, kinds):
    # check_seed accepts these; training adds the iteration to its seed and evaluation
    # pads its seed into a spawn key, so both refuse them by name before any draw or file
    cfg = MartingaleNetConfig(scheme="nvnet", d_M=1, partition=mn.uniform_partition(1.0, 2), batch=8)
    mlps = [init_mlp(bsm.N + 2, 1, seed=0)]

    def no_draws(*args, **kwargs):
        raise AssertionError("draws were made")

    monkeypatch.setattr(dual, "draws_for", no_draws)
    calls = {
        "train": lambda: train(cfg, mlps, 2, bsm, seed=seed, out_dir=tmp_path, checkpoint_every=1),
        "evaluate_loss": lambda: evaluate_loss(cfg, mlps, bsm, batch=8, seed=seed),
    }
    with pytest.raises(InvalidParameterError, match=re.escape(f"seed must be {kinds}, got {seed!r}")):
        calls[entry]()
    assert not any(tmp_path.iterdir())


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
