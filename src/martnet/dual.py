"""Dual martingale learning: coupled (X, M) simulation, centering, the
Brownian-bridge supremum correction, the dual loss, and the training loop.

The martingale candidate M is driven by mlp-backed fields V^M_j(t, X_t, M_t)
as one more state component of the asset's step kernel: one kernel table
(``schemes.simulate``) serves plain and coupled simulation, and one pass of
it advances (X, M) with the same Brownian draws. Its drift field is
structurally zero; the centering surrogate removes what drift the
discretisation leaks in. Losses are
evaluated over a batch as the sample mean of per-path suprema of Z - M,
optionally refined by sampling the within-interval supremum of a pinned
bridge with volatility estimated from pilot paths.
"""

import os
import time
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, concat_cols
from .errors import InvalidParameterError, NumericError, ShapeError
from .fields import payoff_eval
from .mlp import grad, mlp_forward, mlp_forward_t, param_arrays, rebuild_params, save_checkpoint
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
    zero by construction; centering removes what drift the discretisation
    leaks in.
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
    """G(u) = (a + b + sqrt((a-b)^2 - 2 sigma^2 dt log(1-u))) / 2.

    Works on ndarrays and Tensors alike; var_dt = sigma^2 * dt and u are
    always constants on the tape.
    """
    shift = -2.0 * var_dt * np.log1p(-u)
    if isinstance(a, Tensor) or isinstance(b, Tensor):
        diff = a - b
        root = (diff.square() + shift).sqrt()
    else:
        root = np.sqrt((a - b) ** 2 + shift)
    return 0.5 * (a + b + root)


def bridge_sup(bp, u):
    """Sample the supremum of the bridge pinned at (a, b) over one step."""
    sigma = np.asarray(bp.sigma, dtype=np.float64)
    if np.any(sigma <= 0.0):
        raise InvalidParameterError("bridge volatility must be positive")
    u = np.asarray(u, dtype=np.float64)
    if np.any(u < 0.0) or np.any(u >= 1.0):
        raise InvalidParameterError("bridge uniform must lie in [0, 1)")
    return _bridge_g(bp.a, bp.b, sigma * sigma * np.asarray(bp.dt), u)


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
    return mprime - mprime.mean(axis=0, keepdims=True)


def rogers_loss(Z, M, bridge=False, sigma=None, uniforms=None, deltas=None):
    """Sample dual loss: mean over paths of the supremum of Z - M.

    With bridge=False the supremum is the maximum over all grid points.
    With bridge=True each interval contributes a bridge-supremum sample
    G(a, b; sigma_k, delta_k, u) and the per-path supremum is the maximum
    over intervals (G dominates both endpoints, so the grid is covered).
    """
    taped = isinstance(M, Tensor)
    if (M.shape if taped else np.shape(M)) != np.shape(Z):
        raise ShapeError("Z and M shapes differ")
    D = Z - M
    if bridge:
        if sigma is None or uniforms is None or deltas is None:
            raise InvalidParameterError("bridge=True needs sigma, uniforms and deltas")
        D = bridge_sup(BridgeParams(D[:, :-1], D[:, 1:], sigma, deltas), uniforms)
    if taped:
        return D.max_rows().mean()
    return float(np.mean(np.max(D, axis=1)))


# -- coupled (X, M) simulation ----------------------------------------------


def _bind_nets(nets, taped, model, partition):
    """Callable net(j, t, x, m) = V^M_j(t, x, m) in a dimensionless encoding.

    Time is in units of the horizon, state in units of x0 and value in
    strike units. Networks see O(1) features and produce O(1) outputs
    regardless of the currency scale of the model, which keeps the
    He-initialised layers well conditioned and the output head within a few
    optimiser steps of the magnitudes the martingale increments need.
    """
    sx = np.abs(np.asarray(model.x0, dtype=np.float64))
    sx = np.where(sx > 0, sx, 1.0)[None, :]
    sm = float(model.payoff.strike)
    T = partition.T if partition.T > 0 else 1.0

    def net_fn(j, t, X, m):
        tcol = np.full((X.shape[0], 1), t / T)
        if taped:
            cp = np.concatenate([tcol, X / sx], axis=1)
            ms = m * (1.0 / sm)
            if isinstance(ms, Tensor):
                inp = concat_cols([cp, ms])
            else:
                inp = np.concatenate([cp, ms], axis=1)
            return mlp_forward_t(nets[j], inp, check=True) * sm
        inp = np.concatenate([tcol, X / sx, m / sm], axis=1)
        return mlp_forward(nets[j], inp) * sm

    return net_fn


def _simulate_coupled(config, nets, model, draws, taped):
    """Asset paths and provisional martingale columns M'_{t_k} in one pass.

    The martingale rides the configured scheme's kernel as one more state
    component, so both see the same draws and the same within-step asset
    trajectory; returns (states, cols) with one (batch, 1) column per knot.
    """
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


def _loss_core(config, nets, model, draws, bridge, uniforms, sigma_hat, taped):
    states, cols = _simulate_coupled(config, nets, model, draws, taped)
    Z = payoff_eval(model.payoff, states)
    if taped:
        mmat = concat_cols(cols)
    else:
        mmat = np.concatenate(cols, axis=1)
    M = center(mmat)
    mdata = M.data if taped else M
    if bridge:
        if sigma_hat is None:
            sigma_hat = estimate_sigma((Z - mdata)[:PILOT_PATHS], config.partition.deltas)
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
