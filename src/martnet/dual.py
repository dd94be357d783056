"""Dual martingale learning: coupled (X, M) simulation, centering, the
Brownian-bridge supremum correction, the dual loss, and the training loop.

The martingale candidate M is driven by mlp-backed fields V^M_j(t, X_t, M_t)
as one more state component of the asset's step kernel: one kernel table
(``schemes.simulate``) serves plain and coupled simulation, and one pass of
it advances (X, M) with the same Brownian draws. Its Stratonovich drift is
zero, so under ``nv``/``nn`` M carries an O(1) Ito drift (``em``'s M is an
exact discrete martingale); per-time centering removes only that drift's
unconditional mean (ROADMAP item 2). Losses are the batch mean of per-path
suprema of Z - M, optionally refined by sampling the within-interval
supremum of a pinned bridge with volatility estimated from pilot paths.
The payoff is discounted at the model's rate mu, Z_k = exp(-mu t_k)(K - S_k)^+.

Networks read the encoded input (t/T, x/x0, m * (1/K)) and their output is
scaled by K, plain and taped alike. On the tape, a whole ``resnet-em``
martingale pass is one node over the parameter leaves: it runs the plain
Euler kernel once, keeps the states, the knots and the draws, and its
backward recomputes each step's networks from them, last step first.
Under ``nvnet``/``nnet`` each network evaluation is one node from the
encoded input to the scaled output. The centering is one node that keeps
only the martingale's columns, and the loss is one node that keeps only
each path's argmax and, with the bridge, a - b and the root there. All
give the bits of the same computation taped op by op.
"""

import os
import time
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import InvalidParameterError, NumericError, ShapeError
from .fields import payoff_eval
from .mlp import grad, mlp_forward, mlp_forward_t, mlp_vjp, param_arrays, rebuild_params, save_checkpoint
from .mlp import AdamState, adam_update, init_adam  # noqa: F401  (re-exported for callers)
from .qmc import draws_for
# Not called here: the benchmark's layer tracer rebinds martnet.dual.flow and
# fails at import when the name is missing.
from .rk5 import flow  # noqa: F401
from .schemes import simulate

PILOT_PATHS = 10
SIGMA_FLOOR = 1e-8
# Spawn-key tag of the evaluation streams. Training keys its digital shift by
# the integer seed + iteration and its bridge uniforms by [seed, iteration,
# 0xB21D9E]; an evaluation key pads the seed to four words and appends
# (_EVAL_TAG, k), so it matches no training key for any seed below 2^128.
_EVAL_TAG = 0xE7A1

_ASSET_TAG = {"resnet-em": "em", "nvnet": "nv", "nnet": "nn"}


@dataclass(frozen=True)
class MartingaleNetConfig:
    """How the martingale is built and trained.

    scheme picks both the asset-path kernel and the M-composition; d_M is
    the number of diffusion fields V^M_1..V^M_d and must match the asset
    model's driving dimension (the Brownians are shared); batch is the
    number of QMC paths per update. The drift field V^M_0 is identically
    zero, so under ``nvnet``/``nnet`` M has an O(1) Ito drift; centering
    removes only its unconditional mean (ROADMAP item 2).
    """

    scheme: str
    d_M: int
    partition: object
    batch: int

    def __post_init__(self):
        if self.scheme not in _ASSET_TAG:
            raise InvalidParameterError(f"unknown martingale scheme: {self.scheme!r}")
        if self.d_M < 1:
            raise InvalidParameterError("d_M must be >= 1")
        if self.batch < 1:
            raise InvalidParameterError("batch must be >= 1")


@dataclass(frozen=True)
class BridgeParams:
    """Endpoints, volatility and step length of one pinned-bridge interval."""

    a: object
    b: object
    sigma: object
    dt: object


def _bridge_g(a, b, var_dt, u):
    """G(u) = (a + b + sqrt((a-b)^2 - 2 sigma^2 dt log(1-u))) / 2, with the root.

    var_dt = sigma^2 * dt. Returns (G, root), the two arrays of the inputs'
    broadcast shape it allocates: (a - b)^2 is formed in G's array before G
    is written over it.
    """
    shape = np.broadcast_shapes(np.shape(a), np.shape(b), np.shape(var_dt), np.shape(u))
    root = np.negative(u, out=np.empty(shape))
    np.log1p(root, out=root)
    root *= -2.0 * var_dt
    g = np.subtract(a, b, out=np.empty(shape))
    g *= g
    root += g
    np.sqrt(root, out=root)
    np.add(a, b, out=g)
    g += root
    g *= 0.5
    return g, root


def _bridge_inputs(sigma, u):
    """sigma and u as float arrays, after the checks sigma > 0 and u in [0, 1)."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if np.any(sigma <= 0.0):
        raise InvalidParameterError("bridge volatility must be positive")
    u = np.asarray(u, dtype=np.float64)
    if np.any(u < 0.0) or np.any(u >= 1.0):
        raise InvalidParameterError("bridge uniform must lie in [0, 1)")
    return sigma, u


def bridge_sup(bp, u):
    """Sample the supremum of the bridge pinned at (a, b) over one step."""
    sigma, u = _bridge_inputs(bp.sigma, u)
    g, _ = _bridge_g(bp.a, bp.b, sigma * sigma * np.asarray(bp.dt), u)
    return g[()]  # a scalar for scalar inputs


def estimate_sigma(pilot, deltas):
    """Per-step volatility of Z - M from pilot paths.

    Sample standard deviation (ddof=1) of the step increments across the
    pilot paths, scaled by 1/sqrt(delta_k) and floored at 1e-8, one entry
    per step.
    """
    pilot = np.asarray(pilot, dtype=np.float64)
    if pilot.ndim != 2 or pilot.shape[0] < 2:
        raise ShapeError("estimate_sigma needs at least two pilot paths")
    deltas = np.asarray(deltas, dtype=np.float64)
    if pilot.shape[1] != deltas.size + 1:
        raise ShapeError("pilot paths do not match the partition")
    incr = np.diff(pilot, axis=1)
    sd = incr.std(axis=0, ddof=1) / np.sqrt(deltas)
    return np.maximum(sd, SIGMA_FLOOR)


def center(mprime):
    """Subtract the per-time batch mean; accepts ndarray or Tensor."""
    return center_cols([mprime])


def center_cols(cols):
    """The 2-D blocks ``cols`` side by side, minus their per-time batch mean.

    Blocks may be ndarrays or Tensors. With a Tensor among them the result
    is one tape node that keeps only the blocks: its backward hands each
    Tensor block its slice of g + sum(-g, axis 0) / batch, the float
    operations of concatenating, averaging and subtracting taped op by op.
    """
    datas = [c.data if isinstance(c, Tensor) else np.asarray(c, dtype=np.float64) for c in cols]
    out = np.concatenate(datas, axis=1)
    out -= out.mean(axis=0, keepdims=True)
    if not any(isinstance(c, Tensor) for c in cols):
        return out
    n = out.shape[0]
    bounds = np.cumsum([0] + [d.shape[1] for d in datas])

    def backward(g):
        g = g + (-g).sum(axis=0, keepdims=True) / n
        for c, lo, hi in zip(cols, bounds[:-1], bounds[1:]):
            if isinstance(c, Tensor):
                c._accumulate(g[:, lo:hi], own=hi - lo == bounds[-1])

    return Tensor._node(out, cols, backward)


def rogers_loss(Z, M, bridge=False, sigma=None, uniforms=None, deltas=None):
    """Sample dual loss: mean over paths of the supremum of Z - M.

    With bridge=False the supremum is the maximum over all grid points.
    With bridge=True each interval contributes a bridge-supremum sample
    G(a, b; sigma_k, delta_k, u) and the per-path supremum is the maximum
    over intervals; uniforms is shaped (batch, steps), sigma and deltas
    (steps,). G dominates both endpoints, so the grid is covered, but only
    up to rounding: at u = 0 it is (a + b + |a - b|) / 2 in floating point,
    which can fall below max(a, b) by about an ulp of |a| + |b| (ROADMAP
    item 7).

    A Tensor M gives one tape node. It keeps each path's argmax and, with
    the bridge, a - b and the root there (a - b formed again from
    D = Z - M); its backward writes the gradient at the argmax's one or two
    grid columns with the float operations of the same loss taped op by
    op. Where the root is 0 (a = b at u = 0) it takes the symmetric
    subgradient, half to each endpoint.
    """
    taped = isinstance(M, Tensor)
    md = M.data if taped else np.asarray(M, dtype=np.float64)
    if md.shape != np.shape(Z) or md.ndim != 2:
        raise ShapeError("Z and M must be congruent (batch, steps + 1) arrays")
    D = Z - md
    if bridge:
        if sigma is None or uniforms is None or deltas is None:
            raise InvalidParameterError("bridge=True needs sigma, uniforms and deltas")
        batch, steps = md.shape[0], md.shape[1] - 1
        sigma, uniforms = _bridge_inputs(sigma, uniforms)
        deltas = np.asarray(deltas, dtype=np.float64)
        if sigma.shape != (steps,) or deltas.shape != (steps,):
            raise ShapeError(f"bridge sigma and deltas must be shaped ({steps},)")
        if uniforms.shape != (batch, steps):
            raise ShapeError(f"bridge uniforms must be shaped ({batch}, {steps})")
        G, root = _bridge_g(D[:, :-1], D[:, 1:], sigma * sigma * deltas, uniforms)
    else:
        G = D
    rows = np.arange(G.shape[0])
    idx = np.argmax(G, axis=1)
    loss = G[rows, idx].mean()
    if not taped:
        return float(loss)
    shape = md.shape
    if bridge:
        diff, root = D[rows, idx] - D[rows, idx + 1], root[rows, idx]

    def backward(g):
        # d loss / d D at each path's argmax, as the op-by-op tape forms it;
        # M receives its negative
        gd = np.zeros(shape)
        gs = g / shape[0]
        if bridge:
            gs = gs * 0.5
            gdiff = np.divide(gs, 2.0 * root, out=np.zeros(shape[0]), where=root > 0.0)
            gdiff *= 2.0 * diff
            gd[rows, idx] = gs + gdiff
            gd[rows, idx + 1] = gs - gdiff
        else:
            gd[rows, idx] = gs
        M._accumulate(np.negative(gd, out=gd), own=True)

    return Tensor._node(loss, (M,), backward)


# -- coupled (X, M) simulation ----------------------------------------------


def _encoder(model, partition):
    """(encode, K): encode(t, X[, m]) is the networks' input [t/T, X/x0, m * (1/K)].

    Time is in units of the horizon, state in units of x0 and value in
    strike units K. Networks see O(1) features and produce O(1) outputs
    regardless of the currency scale of the model, which keeps the
    He-initialised layers well conditioned and the output head within a few
    optimiser steps of the magnitudes the martingale increments need.
    Without m it gives the constant block [t/T, X/x0] alone.
    """
    sx = np.abs(np.asarray(model.x0, dtype=np.float64))
    sx = np.where(sx > 0, sx, 1.0)[None, :]
    sm = float(model.payoff.strike)
    T = partition.T if partition.T > 0 else 1.0

    def encode(t, X, m=None):
        parts = [np.full((X.shape[0], 1), t / T), X / sx]
        if m is not None:
            parts.append(m * (1.0 / sm))
        return np.concatenate(parts, axis=1)

    return encode, sm


def _bind_nets(nets, taped, model, partition):
    """Callable net(j, t, x, m) = V^M_j(t, x, m): network j on the encoded input, times K.

    Taped, each evaluation is one ``mlp_forward_t`` node; plain, it is
    ``mlp_forward`` on the same input, so both give the same bits.
    """
    encode, sm = _encoder(model, partition)

    def net_fn(j, t, X, m):
        if taped:
            return mlp_forward_t(nets[j], encode(t, X), m=m, scale=sm, check=True)
        return mlp_forward(nets[j], encode(t, X, m)) * sm

    return net_fn


def _em_node(config, nets, model, draws):
    """The taped ``resnet-em`` pass: the plain Euler kernel's knots as one tape node.

    The asset and M_{k+1} = M_k + sum_i sqrt(dt_k) eta_{k,i} net_i(t_k, X_k, M_k)
    run once on arrays through ``simulate``; the node's parents are the
    parameter leaves and it keeps only the states, the knots and the draws.
    Its backward walks k = n-1 .. 0, recomputes each network at
    (t_k, X_k, M_k), feeds it the cotangent gbar_{k+1} sqrt(dt_k) eta_{k,i}
    and forms gbar_k = ((G_k + gbar_{k+1}) + dm_0) + dm_1 ..., the float
    operations of the same pass taped one node per evaluation.
    Returns (states, [knots]) with knots a (batch, steps + 1) Tensor.
    """
    plain = [rebuild_params(p, [a.data for a in param_arrays(p)]) for p in nets]
    net = _bind_nets(plain, False, model, config.partition)
    states, cols = simulate(model, "em", config.partition, draws, net=net)
    knots = np.concatenate(cols, axis=1)
    del cols
    encode, sm = _encoder(model, config.partition)
    times, deltas, eta = config.partition.times, config.partition.deltas, draws.eta

    def backward(g):
        gbar = g[:, -1:]
        for k in reversed(range(deltas.size)):
            gm = g[:, k : k + 1] + gbar if k > 0 else None  # M_0 = 0 is no Tensor
            sdt = np.sqrt(float(deltas[k]))
            xd = encode(float(times[k]), states[:, k, :], knots[:, k : k + 1])
            for i, net in enumerate(nets):
                gh = mlp_vjp(net, xd, gbar * (sdt * eta[:, k, i : i + 1]) * sm, k > 0)
                if k > 0:
                    gm += gh[:, -1:] * (1.0 / sm)
            gbar = gm

    return states, [Tensor._node(knots, [a for p in nets for a in param_arrays(p)], backward)]


def _simulate_coupled(config, nets, model, draws, taped):
    """Asset paths and provisional martingale knots M'_{t_k} in one pass.

    The martingale rides the configured scheme's kernel as one more state
    component, so both see the same draws and the same within-step asset
    trajectory; returns (states, cols), the knots as 2-D blocks side by
    side: one (batch, 1) column per knot, or under taped ``resnet-em`` one
    (batch, steps + 1) node (``_em_node``).
    """
    if taped and config.scheme == "resnet-em":
        return _em_node(config, nets, model, draws)
    net = _bind_nets(nets, taped, model, config.partition)
    return simulate(model, _ASSET_TAG[config.scheme], config.partition, draws, net=net)


def _validate_setup(config, mlps, model, draws):
    if config.d_M != model.d:
        raise ShapeError("d_M must match the asset model's driving dimension (shared Brownians)")
    if len(mlps) != config.d_M:
        raise ShapeError(f"expected {config.d_M} networks, got {len(mlps)}")
    eta = draws.eta
    n = config.partition.steps
    if eta.shape[1] != n or eta.shape[2] != model.d:
        raise ShapeError("draws do not match the partition and model dimension")


# -- loss assembly and training ----------------------------------------------


def _bridge_uniforms(seed, iteration, batch, steps):
    rng = np.random.Generator(np.random.Philox([seed, iteration, 0xB21D9E]))
    return rng.random((batch, steps))


def _check_bridge_batch(bridge, batch):
    if bridge and batch < 2:
        raise InvalidParameterError(
            f"batch {batch} is too small for the bridge: its volatility is estimated from at least two paths"
        )


def _loss_core(config, nets, model, draws, bridge, uniforms, sigma_hat, taped):
    states, cols = _simulate_coupled(config, nets, model, draws, taped)
    Z = payoff_eval(model.payoff, states)
    Z *= np.exp(-model.params.get("mu", 0.0) * config.partition.times)  # exactly 1.0 at mu = 0
    M = center_cols(cols)
    del states, cols  # past this point only the tape holds what its backward reads
    mdata = M.data if taped else M
    if bridge:
        if sigma_hat is None:
            sigma_hat = estimate_sigma(Z[:PILOT_PATHS] - mdata[:PILOT_PATHS], config.partition.deltas)
        loss = rogers_loss(
            Z, M, bridge=True, sigma=sigma_hat, uniforms=uniforms, deltas=config.partition.deltas
        )
    else:
        loss = rogers_loss(Z, M, bridge=False)
    return loss, M, sigma_hat


def loss_value(config, mlps, model, draws, bridge=True, uniforms=None, sigma_hat=None):
    """Plain numpy evaluation of one iteration's loss; returns a float."""
    _validate_setup(config, mlps, model, draws)
    loss, _, _ = _loss_core(config, mlps, model, draws, bridge, uniforms, sigma_hat, False)
    return loss


def loss_and_grads(config, mlps, model, draws, bridge=True, uniforms=None, sigma_hat=None):
    """Taped evaluation; returns (loss, gradient lists congruent to params)."""
    _validate_setup(config, mlps, model, draws)
    return grad(
        lambda tensors: _loss_core(config, tensors, model, draws, bridge, uniforms, sigma_hat, True)[0],
        mlps,
    )


def evaluate_loss(config, mlps, model, batch=5000, seed=0, bridge=True):
    """Out-of-training loss of the current networks over a fresh QMC batch.

    The digital shift and the bridge uniforms come from keys tagged for
    evaluation, so no seed makes them repeat a training iteration's.
    """
    _check_bridge_batch(bridge, batch)
    n = config.partition.steps
    shift_key, bridge_key = np.random.SeedSequence(seed, spawn_key=(_EVAL_TAG,)).spawn(2)
    draws = draws_for(_ASSET_TAG[config.scheme], model.d, n, batch, seed=shift_key)
    uniforms = np.random.Generator(np.random.Philox(bridge_key)).random((batch, n)) if bridge else None
    return loss_value(config, mlps, model, draws, bridge=bridge, uniforms=uniforms)


@dataclass
class TrainResult:
    """Loss curve plus the artefacts needed to resume or inspect a run."""

    losses: np.ndarray
    wall_ms: np.ndarray
    centering_residuals: np.ndarray
    mlps: list
    adam: AdamState


def train(
    config,
    mlps,
    iterations,
    model,
    seed=0,
    bridge=True,
    adam_opts=None,
    out_dir=None,
    checkpoint_every=100,
):
    """Adam-train the martingale networks on the dual loss.

    Each iteration draws a fresh QMC block (shift seed = seed + iteration),
    simulates the coupled (X, M) batch, centers M, evaluates the loss
    (bridge-corrected by default) and updates every network. Returns the
    loss curve; a non-finite loss aborts with a diagnostic checkpoint when
    out_dir is given.
    """
    if iterations < 1:
        raise InvalidParameterError("iterations must be >= 1")
    if len(mlps) != config.d_M or config.d_M != model.d:
        raise ShapeError("need one network per driving Brownian dimension")
    _check_bridge_batch(bridge, config.batch)
    current = list(mlps)
    counts = [len(param_arrays(p)) for p in current]
    all_arrays = [a for p in current for a in param_arrays(p)]
    state = init_adam(all_arrays, **(adam_opts or {}))
    n = config.partition.steps
    B = config.batch
    losses, wall, resid = [], [], []
    for it in range(iterations):
        t0 = time.perf_counter()
        draws = draws_for(_ASSET_TAG[config.scheme], model.d, n, B, seed=seed + it)
        uniforms = _bridge_uniforms(seed, it, B, n) if bridge else None

        def loss_fn(tensors):
            loss, M, _ = _loss_core(config, tensors, model, draws, bridge, uniforms, None, True)
            resid.append(float(np.abs(M.data.mean(axis=0)).max()))
            if not np.isfinite(loss.data):
                if out_dir:
                    save_checkpoint(os.path.join(out_dir, f"diagnostic_iter{it:05d}.ckpt"), current)
                raise NumericError(f"training loss non-finite at iteration {it}")
            return loss

        value, grads = grad(loss_fn, current)
        state, all_arrays = adam_update(state, all_arrays, [g for per_net in grads for g in per_net])
        pos = 0
        for idx, cnt in enumerate(counts):
            current[idx] = rebuild_params(current[idx], all_arrays[pos : pos + cnt])
            pos += cnt
        losses.append(value)
        wall.append((time.perf_counter() - t0) * 1000.0)
        if out_dir and checkpoint_every and (it + 1) % checkpoint_every == 0:
            save_checkpoint(os.path.join(out_dir, f"iter{it + 1:05d}.ckpt"), current)
    return TrainResult(
        losses=np.array(losses),
        wall_ms=np.array(wall),
        centering_residuals=np.array(resid),
        mlps=current,
        adam=state,
    )
