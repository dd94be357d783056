"""Dual martingale learning: coupled (X, M) simulation, centering, the
Brownian-bridge supremum correction, the dual loss and its gradient, and
the training loop.

The martingale candidate M is driven by mlp-backed fields V^M_j(t, X_t, M_t)
as the last column of the joint state (``schemes.with_martingale``): one
kernel table (``schemes.simulate``) serves plain and coupled simulation, and
one pass of it advances (X, M) with the same Brownian draws. Its
Stratonovich drift is zero, so under ``nv``/``nn`` M carries an O(1) Ito
drift (``em``'s M is an exact discrete martingale); per-time centering
removes only that drift's unconditional mean (ROADMAP item 4). Losses are the batch mean of per-path
suprema of Z - M, optionally refined by sampling the within-interval
supremum of a pinned bridge with volatility estimated from pilot paths.
The payoff is discounted at the model's rate mu, Z_k = exp(-mu t_k)(K - S_k)^+.

Networks read the encoded input (t/T, x/x0, m * (1/K)), followed by a column
of ones for their packed layers, and their output is scaled by K. A pass
packs each network once (``mlp.pack``) and runs the plain kernel once.

The loss side runs in row blocks of ``LOSS_BLOCK`` elements: D = Z - M is
formed block by block in the payoff's buffer and the bridge one block at a
time, so D is the one (batch, steps + 1) array it makes.

The gradient is an explicit chain of three vector-Jacobian products, the
last operation's first: the loss's, which keeps only each path's argmax
and, with the bridge, a - b and the root there; the centering's,
g + sum(-g, axis 0) / batch in g's buffer; and the pass's. The pass's is
one walk back over flow records, each an explicit Runge-Kutta step of the
martingale (its tableau, duration, field weights, row set and encoded
inputs) replayed through the discrete Runge-Kutta adjoint ``rk5.rk5_vjp``.
Under ``nvnet``/``nnet`` the records are the RK5 flows the pass ran, made
by the kernels' ``record`` callback. Under ``resnet-em`` each Euler step is
a one-stage flow, rebuilt last step first from the states and the draws
the pass keeps.
``mlp.mlp_vjp`` adds each network's parameter gradients into plain arrays.
The chain gives the bits of the same loss taped op by op, the tests'
reference.
"""

import os
import time
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace

import numpy as np
from numpy.random import SeedSequence

from .errors import InvalidParameterError, NumericError, ShapeError, check_count
from .fields import payoff_eval
from .mlp import mlp_forward, mlp_vjp, pack, param_arrays, rebuild_params, save_checkpoint
from .mlp import AdamState, adam_update, init_adam  # noqa: F401  (re-exported for callers)
from .qmc import check_seed, draws_for
from .rk5 import EULER, RK5, rk5_vjp
from .schemes import NET_CONFIGS, SCHEMES, simulate, with_martingale

# Not called here: the benchmark's layer tracer rebinds martnet.dual.flow and
# martnet.dual.mlp_forward_t and fails at import when a name is missing.
from .mlp import mlp_forward_t  # noqa: F401
from .rk5 import flow  # noqa: F401

PILOT_PATHS = 10
SIGMA_FLOOR = 1e-8
# Elements of a (batch, steps + 1) array in one row block of the loss.
LOSS_BLOCK = 2**14
# Spawn-key tag of the evaluation streams. Training keys its digital shift by
# the integer seed + iteration and its bridge uniforms by [seed, iteration,
# 0xB21D9E]; an evaluation key pads the seed to four words and appends
# (_EVAL_TAG, k), so it matches no training key for any seed below 2^128.
_EVAL_TAG = 0xE7A1


@dataclass(frozen=True)
class MartingaleNetConfig:
    """How the martingale is built and trained.

    scheme picks both the asset-path kernel and the M-composition; d_M is
    the number of diffusion fields V^M_1..V^M_d and must match the asset
    model's driving dimension (the Brownians are shared); batch is the
    number of QMC paths per update. The drift field V^M_0 is identically
    zero, so under ``nvnet``/``nnet`` M has an O(1) Ito drift; centering
    removes only its unconditional mean (ROADMAP item 4).
    """

    scheme: str
    d_M: int
    partition: object
    batch: int

    def __post_init__(self):
        if self.scheme not in NET_CONFIGS:
            raise InvalidParameterError(f"unknown martingale scheme: {self.scheme!r}")
        check_count("d_M", self.d_M, 1)
        check_count("batch", self.batch, 1)
        if self.partition.steps < 1:
            raise InvalidParameterError("the partition must have at least one step")


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
    """M' minus its per-time batch mean, as a fresh row-major array."""
    out = np.array(mprime, dtype=np.float64, order="C")
    out -= out.mean(axis=0, keepdims=True)
    return out


def _row_blocks(batch, width):
    """Consecutive row slices covering range(batch), each of at most LOSS_BLOCK // width rows (one at least)."""
    rows = max(1, LOSS_BLOCK // width)
    return [slice(lo, min(lo + rows, batch)) for lo in range(0, batch, rows)]


def _center_from(Z, knots):
    """Z - center(knots) in Z's buffer, a row block at a time; returns the residual.

    The residual is the largest per-time |batch mean| of the centered knots.
    Their column sums are carried from block to block in row order, the
    order of numpy's axis-0 sum, so it has the bits of
    ``np.abs(center(knots).mean(axis=0)).max()`` without that array.
    """
    mu = knots.mean(axis=0, keepdims=True)
    blocks = _row_blocks(*knots.shape)
    buf = np.zeros((blocks[0].stop + 1, knots.shape[1]))  # row 0 carries the column sums
    for blk in blocks:
        part = buf[: blk.stop - blk.start + 1]
        np.subtract(knots[blk], mu, out=part[1:])
        Z[blk] -= part[1:]
        buf[0] = part.sum(axis=0)
    return float(np.abs(buf[0] / knots.shape[0]).max())


def _center_vjp(g):
    """The centering's vector-Jacobian product g + sum(-g, axis 0) / batch, in g's buffer.

    The column sum is taken of g itself, with no negated copy: a nonzero sum
    rounds the same either sign, and 0.0 - sum turns a zero sum into +0.0,
    the sign numpy gives every zero sum, so the bits are those of the sum of
    -g.
    """
    g += (0.0 - g.sum(axis=0, keepdims=True)) / g.shape[0]
    return g


def rogers_loss(Z, M, bridge=False, sigma=None, uniforms=None, deltas=None):
    """Sample dual loss: mean over paths of the supremum of Z - M.

    With bridge=False the supremum is the maximum over all grid points.
    With bridge=True each interval contributes a bridge-supremum sample
    G(a, b; sigma_k, delta_k, u) and the per-path supremum is the maximum
    over intervals; uniforms is shaped (batch, steps), sigma and deltas
    (steps,). G dominates both endpoints, so the grid is covered, but only
    up to rounding: at u = 0 it is (a + b + |a - b|) / 2 in floating point,
    which can fall below max(a, b) by about an ulp of |a| + |b| (ROADMAP
    item 9).
    """
    M = np.asarray(M, dtype=np.float64)
    if M.shape != np.shape(Z) or M.ndim != 2:
        raise ShapeError("Z and M must be congruent (batch, steps + 1) arrays")
    return _rogers_and_vjp(Z - M, bridge, sigma, uniforms, deltas)[0]


def _rogers_and_vjp(D, bridge, sigma, uniforms, deltas):
    """(loss, vjp) of ``rogers_loss`` on D = Z - M, a float array the caller gives up.

    With the bridge, G and its root are formed one row block at a time
    (``LOSS_BLOCK``), and each row keeps only its argmax, its supremum and
    the root there; D is the one (batch, steps + 1) array the loss reads.

    vjp() returns d loss / d M, a fresh array that is zero outside each
    path's argmax's one or two grid columns, formed with the float
    operations of the same loss taped op by op. It keeps only each path's
    argmax and, with the bridge, a - b and the root there, so D is freed
    with the loss. Where the root is 0 (a = b at u = 0) it takes the
    symmetric subgradient, half to each endpoint.
    """
    batch, steps = D.shape[0], D.shape[1] - 1
    rows = np.arange(batch)
    if bridge:
        if sigma is None or uniforms is None or deltas is None:
            raise InvalidParameterError("bridge=True needs sigma, uniforms and deltas")
        sigma, uniforms = _bridge_inputs(sigma, uniforms)
        deltas = np.asarray(deltas, dtype=np.float64)
        if sigma.shape != (steps,) or deltas.shape != (steps,):
            raise ShapeError(f"bridge sigma and deltas must be shaped ({steps},)")
        if uniforms.shape != (batch, steps):
            raise ShapeError(f"bridge uniforms must be shaped ({batch}, {steps})")
        var_dt = sigma * sigma * deltas
        idx, sup, root = np.empty(batch, dtype=np.intp), np.empty(batch), np.empty(batch)
        for blk in _row_blocks(batch, D.shape[1]):
            G, R = _bridge_g(D[blk, :-1], D[blk, 1:], var_dt, uniforms[blk])
            at = rows[: blk.stop - blk.start]
            idx[blk] = i = np.argmax(G, axis=1)
            sup[blk], root[blk] = G[at, i], R[at, i]
        diff = D[rows, idx] - D[rows, idx + 1]
    else:
        idx = np.argmax(D, axis=1)
        sup = D[rows, idx]
    loss = float(sup.mean())
    shape = D.shape

    def vjp():
        gd = np.zeros(shape)  # d loss / d D; M receives its negative
        gs = 1.0 / shape[0]
        if bridge:
            gs = gs * 0.5
            gdiff = np.divide(gs, 2.0 * root, out=np.zeros(shape[0]), where=root > 0.0)
            gdiff *= 2.0 * diff
            gd[rows, idx] = gs + gdiff
            gd[rows, idx + 1] = gs - gdiff
        else:
            gd[rows, idx] = gs
        return np.negative(gd, out=gd)

    return loss, vjp


# -- coupled (X, M) simulation ----------------------------------------------


def _encoder(model, partition):
    """(encode, K): encode(t, X, m) is the networks' input [t/T, X/x0, m * (1/K), 1].

    Time is in units of the horizon, state in units of x0 and value in
    strike units K. Networks see O(1) features and produce O(1) outputs
    regardless of the currency scale of the model, which keeps the
    He-initialised layers well conditioned and the output head within a few
    optimiser steps of the magnitudes the martingale increments need.

    The trailing column of ones is what ``mlp.pack``'s blocks read: each
    layer's bias rides its GEMM. encode fills one fresh (n, N + 3) array in
    place, column-major, so each column is one contiguous write; BLAS reads
    either order with the same sums, and this array is what a flow record
    keeps for the backward.
    """
    sx = np.abs(np.asarray(model.x0, dtype=np.float64))
    sx = np.where(sx > 0, sx, 1.0)[:, None]
    sm = float(model.payoff.strike)
    T = partition.T

    def encode(t, X, m):
        xt = np.empty((X.shape[1] + 3, X.shape[0]))
        xt[0] = t / T
        np.divide(X.T, sx, out=xt[1:-2])
        np.multiply(m.T, 1.0 / sm, out=xt[-2:-1])
        xt[-1] = 1.0
        return xt.T

    return encode, sm


def _bind_nets(packs, model, partition, flows=None):
    """Callable net(j, t, x, m) = V^M_j(t, x, m): packed network j on the encoded input, times K.

    Given a list ``flows`` of flow records, each evaluation appends
    (j, encoded input) to the last record's evals.
    """
    encode, sm = _encoder(model, partition)

    def net_fn(j, t, X, m):
        xd = encode(t, X, m)
        if flows is not None:
            flows[-1].evals.append((j, xd))
        return mlp_forward(packs[j], xd) * sm

    return net_fn


def _recorded_steps(flows):
    """An ``nvnet``/``nnet`` pass's flow records by step: steps(k) is step k's row sets.

    A step's flows share t_k. Its row sets, each (rows, [flow, ...]), and
    each set's flows come in the forward's order.
    """
    steps = []
    for i, f in enumerate(flows):
        if i == 0 or f.t != flows[i - 1].t:
            steps.append([])
        if not steps[-1] or steps[-1][-1][0] is not f.rows:
            steps[-1].append((f.rows, []))
        steps[-1][-1][1].append(f)
    return steps.__getitem__


def _em_steps(config, model, draws, states):
    """The ``resnet-em`` pass by step, as one-stage flow records rebuilt from its joint states and draws.

    M_{k+1} = M_k + sum_i sqrt(dt_k) eta_{k,i} net_i(t_k, X_k, M_k) is the
    one-stage explicit Runge-Kutta step m + h k_0 (``rk5.EULER``) with h = 1,
    field weights sqrt(dt_k) eta_k and every network at one encoded input.
    steps(k) rebuilds step k's record, so the backward holds one step's
    encoded input at a time.
    """
    encode, _ = _encoder(model, config.partition)
    times, deltas, eta = config.partition.times, config.partition.deltas, draws.eta

    def steps(k):
        xd = encode(float(times[k]), states[:, k, :-1], states[:, k, -1:])
        weights = np.sqrt(float(deltas[k])) * eta[:, k]
        evals = [(i, xd) for i in range(eta.shape[2])]
        return [(None, [SimpleNamespace(h=1.0, weights=weights, evals=evals, tableau=EULER)])]

    return steps


def _flow_backward(packs, steps, n, sm):
    """Backward of a pass of ``n`` steps, from its flow records: ``steps(k)`` is step k's row sets.

    backward(g, grads) takes the knots' cotangent g and replays the steps
    last first; within a step it takes the row sets in the forward's order
    and each one's flows last first, the order of the tape that records one
    node per evaluation. Per flow, ``rk5_vjp`` walks the flow's tableau
    backwards and hands each stage its cotangent kbar, and one ``mlp_vjp``
    per evaluation is fed kbar * w * K, adds network j's parameter gradients
    into ``grads[j]`` and gives the stage input its input gradient's m
    column / K. A row set's cotangent is gathered from its step's output and
    scattered into its input the way ``merge_rows`` and the tape's row
    gather do, after the knot's own cotangent. ``nv`` records a row set on
    every step, all rows when it does not split: its half drift flows pass
    M through unchanged, so the step's input takes the knot's cotangent and
    the diffusion flows' as two terms. A step recorded without a row set
    (``nn``, ``em``) starts its input's cotangent from the knot's own (the
    ``acc`` of ``rk5_vjp``). Step 0's input cotangent is formed and
    discarded: M_0 = 0 is a constant.
    """

    def backward(g, grads):
        def stage_vjp(f, s, kbar):
            per = len(f.evals) // len(f.tableau[1])
            parts = []
            for j, xd in f.evals[s * per : (s + 1) * per]:
                gk = kbar if f.weights is None else kbar * f.weights[:, j : j + 1]
                gh = mlp_vjp(packs[j], xd, gk * sm, grads[j])
                parts.append(gh[:, -1:] * (1.0 / sm))
            return parts

        def replay(seg, gout, acc):
            for i, f in reversed(list(enumerate(seg))):
                gout = rk5_vjp(f.h, gout, partial(stage_vjp, f), acc if i == 0 else None, f.tableau)
            return gout

        gbar = g[:, -1:]
        for k in reversed(range(n)):
            step = steps(k)
            if step[0][0] is None:
                gbar = replay(step[0][1], gbar, g[:, k : k + 1])
                continue
            ins = [(rows, replay(seg, gbar[rows], None)) for rows, seg in step]
            gbar = g[:, k : k + 1].copy()
            for rows, gin in ins:
                gx = np.zeros(gbar.shape)
                np.add.at(gx, rows, gin)
                gbar += gx

    return backward


def _simulate_coupled(config, nets, model, draws, need_grad):
    """Joint (X, M) paths, provisional martingale knots M'_{t_k} and the pass's backward, in one pass.

    The martingale rides the configured scheme's kernel as the last state
    column (``with_martingale``), so both see the same draws and the same
    within-step asset trajectory; returns (states, knots, backward) with
    states (batch, steps + 1, N + 1) and the knots their last column. The
    kernel runs once on arrays; with ``need_grad`` backward is the pass's
    vector-Jacobian product (``_flow_backward``), which under ``resnet-em``
    keeps the states and the draws and rebuilds each step's one-stage flow
    record from them (``_em_steps``), and under ``nvnet``/``nnet`` keeps one
    record per flow that evaluates the networks and no state
    (``_recorded_steps``); otherwise it is None.
    """
    tag = NET_CONFIGS[config.scheme].scheme
    flows = [] if need_grad and SCHEMES[tag].flows else None
    packs = [pack(p) for p in nets]  # the weights hold for the pass and its backward
    joint = with_martingale(model, _bind_nets(packs, model, config.partition, flows))

    def record(t, h, weights, rows):
        flows.append(SimpleNamespace(t=t, h=h, weights=weights, rows=rows, evals=[], tableau=RK5))

    states = simulate(joint, tag, config.partition, draws, record=None if flows is None else record)
    knots = states[:, :, -1]
    if not need_grad:
        return states, knots, None
    steps = _em_steps(config, model, draws, states) if flows is None else _recorded_steps(flows)
    return states, knots, _flow_backward(packs, steps, config.partition.steps, float(model.payoff.strike))


def _validate_setup(config, mlps, model):
    if config.d_M != model.d:
        raise ShapeError("d_M must match the asset model's driving dimension (shared Brownians)")
    if len(mlps) != config.d_M:
        raise ShapeError(f"expected {config.d_M} networks, got {len(mlps)}")


# -- loss assembly and training ----------------------------------------------


def _bridge_uniforms(seed, iteration, batch, steps):
    rng = np.random.Generator(np.random.Philox([seed, iteration, 0xB21D9E]))
    return rng.random((batch, steps))


def _check_bridge_batch(bridge, batch):
    if bridge and batch < 2:
        raise InvalidParameterError(
            f"batch {batch} is too small for the bridge: its volatility is estimated from at least two paths"
        )


def _check_key_seed(seed, none_ok):
    """``check_seed``, then refuse by name a ``SeedSequence``, and None unless ``none_ok``.

    Training adds the iteration to its seed and evaluation pads its seed
    into a spawn key, so both need an integer.
    """
    check_seed(seed)
    if isinstance(seed, SeedSequence) or (seed is None and not none_ok):
        raise InvalidParameterError(f"seed must be {'None or ' * none_ok}an integer >= 0, got {seed!r}")


def _loss_core(config, nets, model, draws, bridge, uniforms, sigma_hat, need_grad):
    """(loss, centering residual, backward) of one batch.

    The residual is the largest per-time |batch mean| of the centered M.
    D = Z - (M' - mean M') is formed in the payoff's buffer a row block at a
    time (``_center_from``), the pilot sigma reads D's first ``PILOT_PATHS``
    rows and the bridge runs by row blocks too, so past the pass D is the
    one (batch, steps + 1) array the loss makes. With ``need_grad``,
    backward() returns the gradient lists congruent to each network's
    ``param_arrays``: the loss's, the centering's and the pass's
    vector-Jacobian products in turn. It holds what the pass's backward
    reads until it is dropped. Otherwise backward is None.
    """
    states, knots, pass_vjp = _simulate_coupled(config, nets, model, draws, need_grad)
    D = payoff_eval(model.payoff, states)
    D *= np.exp(-model.params.get("mu", 0.0) * config.partition.times)  # exactly 1.0 at mu = 0
    resid = _center_from(D, knots)
    del states, knots  # past this point only pass_vjp holds what its backward reads
    if bridge and sigma_hat is None:
        sigma_hat = estimate_sigma(D[:PILOT_PATHS], config.partition.deltas)
    loss, loss_vjp = _rogers_and_vjp(D, bridge, sigma_hat, uniforms, config.partition.deltas)
    del D
    if not need_grad:
        return loss, resid, None

    def backward():
        g = _center_vjp(loss_vjp())
        grads = [[None] * len(param_arrays(p)) for p in nets]
        pass_vjp(g, grads)  # every network runs at least once a step, so every entry is filled
        return grads

    return loss, resid, backward


def loss_value(config, mlps, model, draws, bridge=True, uniforms=None, sigma_hat=None):
    """Plain numpy evaluation of one iteration's loss; returns a float."""
    _validate_setup(config, mlps, model)
    return _loss_core(config, mlps, model, draws, bridge, uniforms, sigma_hat, False)[0]


def loss_and_grads(config, mlps, model, draws, bridge=True, uniforms=None, sigma_hat=None):
    """One iteration's loss and its gradient lists, congruent to each network's ``param_arrays``."""
    _validate_setup(config, mlps, model)
    loss, _, backward = _loss_core(config, mlps, model, draws, bridge, uniforms, sigma_hat, True)
    if not np.isfinite(loss):
        raise NumericError(f"loss non-finite ({loss}): no gradient")
    return loss, backward()


def evaluate_loss(config, mlps, model, batch=5000, seed=0, bridge=True):
    """Out-of-training loss of the current networks over a fresh QMC batch.

    The digital shift and the bridge uniforms come from keys tagged for
    evaluation, so no seed makes them repeat a training iteration's.
    """
    check_count("batch", batch, 1)
    _check_bridge_batch(bridge, batch)
    _check_key_seed(seed, none_ok=True)
    n = config.partition.steps
    shift_key, bridge_key = np.random.SeedSequence(seed, spawn_key=(_EVAL_TAG,)).spawn(2)
    draws = draws_for(NET_CONFIGS[config.scheme].scheme, model.d, n, batch, seed=shift_key)
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
    check_count("iterations", iterations, 1)
    _validate_setup(config, mlps, model)
    _check_bridge_batch(bridge, config.batch)
    _check_key_seed(seed, none_ok=False)
    current = list(mlps)
    counts = [len(param_arrays(p)) for p in current]
    all_arrays = [a for p in current for a in param_arrays(p)]
    state = init_adam(all_arrays, **(adam_opts or {}))
    n = config.partition.steps
    B = config.batch
    losses, wall, resid = [], [], []
    for it in range(iterations):
        t0 = time.perf_counter()
        draws = draws_for(NET_CONFIGS[config.scheme].scheme, model.d, n, B, seed=seed + it)
        uniforms = _bridge_uniforms(seed, it, B, n) if bridge else None
        value, residual, backward = _loss_core(config, current, model, draws, bridge, uniforms, None, True)
        resid.append(residual)
        if not np.isfinite(value):
            if out_dir:
                save_checkpoint(os.path.join(out_dir, f"diagnostic_iter{it:05d}.ckpt"), current)
            raise NumericError(f"training loss non-finite at iteration {it}")
        del uniforms  # the loss keeps none of them: free them before the backward's arrays
        grads = backward()
        del backward  # it holds this pass's states and draws: drop them before the next forward
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
