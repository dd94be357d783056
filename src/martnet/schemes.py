"""Weak-approximation step kernels and the whole-path simulator.

Four kernels: the Euler update on the Ito form, and three compositions of
frozen-field flows (single-flow third-order cubature, the flow-reversal
splitting, and the two-family splitting). Flow-based kernels accept batched
states and integrate every path's flow duration in one vectorised RK5 pass.

The same kernels drive the coupled (X, M) system of the dual pricer: the
Euler, flow-reversal and two-family kernels take an optional martingale
state and its network fields, and ``simulate`` returns the martingale's
knots beside the asset paths in a single pass. The flow-reversal kernel
splits a batch by each path's sign, so every path, and every network
evaluation on it, flows through the one diffusion order its sign selects.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import merge_rows
from .errors import InvalidParameterError, ShapeError, UnknownSchemeError
from .rk5 import flow


@dataclass(frozen=True)
class Partition:
    """Ordered time grid 0 = t_0 < ... < t_n = T."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        object.__setattr__(self, "times", t)
        if t.ndim != 1 or t.size < 1:
            raise InvalidParameterError("partition needs a 1-D times array")
        if t[0] != 0.0:
            raise InvalidParameterError("partition must start at t_0 = 0")
        if np.any(np.diff(t) <= 0):
            raise InvalidParameterError("partition times must be strictly increasing")

    @property
    def deltas(self):
        return np.diff(self.times)

    @property
    def steps(self):
        return self.times.size - 1

    @property
    def T(self):
        return float(self.times[-1])


def uniform_partition(T, steps):
    if steps < 0 or T < 0:
        raise InvalidParameterError("uniform partition needs T >= 0 and steps >= 0")
    return Partition(np.linspace(0.0, T, steps + 1))


def _frozen_field(model, coeff0, weights, net=None):
    """Field z -> coeff0 * V_0(t,z) + sum_i weights[:, i] * V_i(t,z).

    With ``net`` the state is (x, m) and the martingale part of the field is
    sum_i weights[:, i] * net(i, t, x, m).
    """
    v0 = model.stratonovich_fields[0]
    diffusions = model.stratonovich_fields[1:]

    def ev(t, z):
        x, m = (z, None) if net is None else z
        out, zm = coeff0 * v0.eval(t, x), None
        for i, vi in enumerate(diffusions):
            out = out + weights[:, i : i + 1] * vi.eval(t, x)
            if net is not None:
                term = weights[:, i : i + 1] * net(i, t, x, m)
                zm = term if zm is None else zm + term
        return out if net is None else (out, zm)

    return ev


def _coupled(field, net, j):
    """Field of the state tuple (x,) or (x, m): V(x), beside net(j, t, x, m) given m."""
    if net is None:
        return lambda t, z: (field.eval(t, z[0]),)
    return lambda t, z: (field.eval(t, z[0]), net(j, t, z[0], z[1]))


def em_step(model, x, dt, eta_row, t=0.0, m=None, net=None):
    """One Euler step x + dt * V~_0(x) + sqrt(dt) sum_i V_i(x) eta^i.

    The martingale advances by sqrt(dt) sum_i eta^i net(i, t, x, m) at the
    pre-step state.
    """
    out = x + dt * model.ito_field.eval(t, x)
    sdt = np.sqrt(dt)
    acc = None
    for i, vi in enumerate(model.stratonovich_fields[1:]):
        out = out + sdt * eta_row[:, i : i + 1] * vi.eval(t, x)
        if m is not None:
            term = (sdt * eta_row[:, i : i + 1]) * net(i, t, x, m)
            acc = term if acc is None else acc + term
    return out if m is None else (out, m + acc)


def cub3_step(model, x, dt, eta_row, t=0.0):
    """Unit-time flow along the frozen field dt*V_0 + sqrt(dt) sum eta^i V_i."""
    return flow(_frozen_field(model, dt, np.sqrt(dt) * eta_row), t, x, 1.0)


def _nv_diffusions(model, state, net, tau, descending, t):
    order = range(model.d - 1, -1, -1) if descending else range(model.d)
    for i in order:
        field = _coupled(model.stratonovich_fields[1 + i], net, i)
        state = flow(field, t, state, tau[:, i : i + 1])
    return state


def nv_step(model, x, dt, eta_row, lam, t=0.0, m=None, net=None):
    """Flow-reversal splitting step.

    lam = +1 runs the half drift flow, then the diffusion flows from V_d
    down to V_1, then the half drift flow; lam = -1 reverses the diffusion
    order. lam may be a per-path array for batched states: with more than
    one diffusion field the rows are split by sign and each path flows
    through the order its sign selects only. The martingale rides the
    diffusion flows only, its drift being zero.
    """
    if np.ndim(lam) == 0 and lam not in (-1, 1):
        raise InvalidParameterError("lam must be +1 or -1")
    v0 = model.stratonovich_fields[0]
    tau = np.sqrt(dt) * eta_row
    x = flow(v0, t, x, dt / 2.0)
    state = (x,) if m is None else (x, m)
    pos = np.asarray(lam) > 0
    if model.d == 1 or pos.all() or not pos.any():
        # a single diffusion field makes both orders coincide; one sign needs no split
        state = _nv_diffusions(model, state, net, tau, model.d == 1 or bool(pos.all()), t)
    else:
        ia, ib = np.flatnonzero(pos), np.flatnonzero(~pos)
        a = _nv_diffusions(model, tuple(p[ia] for p in state), net, tau[ia], True, t)
        b = _nv_diffusions(model, tuple(p[ib] for p in state), net, tau[ib], False, t)
        state = tuple(merge_rows(ia, pa, ib, pb) for pa, pb in zip(a, b))
    x = flow(v0, t, state[0], dt / 2.0)
    return x if m is None else (x, state[1])


# Constants (c1, c2, R11, R22, R12) of the two-family splitting on its upper
# branch at u = 1/2: c1 = -sqrt((2u - 1)/2), c2 = 1 - c1, R11 = u,
# R22 = 1 + u + sqrt(2(2u - 1)), R12 = -u + c1. c1 is -0.0, as that formula
# gives it.
NN_C1 = -0.0
NN_C2 = 1.0
NN_R11 = 0.5
NN_R22 = 1.5
NN_R12 = -0.5


def nn_zeta(eta, xi):
    """The two-family scheme's second Gaussians, (R12/sqrt(R11)) eta + sqrt(R22 - R12^2/R11) xi."""
    return (NN_R12 / np.sqrt(NN_R11)) * eta + np.sqrt(NN_R22 - NN_R12 * NN_R12 / NN_R11) * xi


def nn_step(model, x, dt, eta_row, xi_row, t=0.0, m=None, net=None):
    """Two-family splitting step of Gaussian pairs (eta, zeta).

    zeta = nn_zeta(eta, xi); the step flows unit time along
    c2*dt*V_0 + sqrt(dt) sum zeta^i V_i, then along
    c1*dt*V_0 + sqrt(R11*dt) sum eta^i V_i. The martingale's field carries
    the same diffusion weights and no drift.
    """
    sdt = np.sqrt(dt)
    f_second = _frozen_field(model, NN_C2 * dt, sdt * nn_zeta(eta_row, xi_row), net)
    f_first = _frozen_field(model, NN_C1 * dt, np.sqrt(NN_R11) * sdt * eta_row, net)
    state = flow(f_second, t, x if m is None else (x, m), 1.0)
    return flow(f_first, t, state, 1.0)


def step_kernel(model, scheme, draws, net=None):
    """The scheme's one-step map step(x, m, k, t, dt) over step k of ``draws``.

    The Euler, flow-reversal and two-family kernels take an optional
    martingale state m, shaped (batch, 1), and the network callable
    net(j, t, x, m) giving its diffusion fields V^M_j. Given m, a step
    returns (x, m) advanced with the same draws, the martingale riding along
    as one more state component; otherwise it returns x alone. No network
    scheme composes the cubature kernel, so it takes no martingale.
    """
    eta, xi, lam = draws.eta, draws.xi, draws.lam
    kernels = {
        "em": lambda x, m, k, t, dt: em_step(model, x, dt, eta[:, k], t=t, m=m, net=net),
        "cub3": lambda x, m, k, t, dt: cub3_step(model, x, dt, eta[:, k], t=t),
        "nv": lambda x, m, k, t, dt: nv_step(model, x, dt, eta[:, k], lam[:, k], t=t, m=m, net=net),
        "nn": lambda x, m, k, t, dt: nn_step(model, x, dt, eta[:, k], xi[:, k], t=t, m=m, net=net),
    }
    if scheme not in kernels:
        raise UnknownSchemeError(f"unknown scheme tag: {scheme!r}")
    if scheme == "cub3" and net is not None:
        raise InvalidParameterError("the cubature kernel carries no martingale")
    return kernels[scheme]


def simulate(model, scheme, partition, draws, net=None):
    """Run the chosen kernel across the partition for every path.

    Returns the states, shaped (batch, steps + 1, N). Shapes are validated
    before any computation: eta must be (batch, steps, model.d), the
    flow-reversal scheme needs lam of shape (batch, steps), and the
    two-family scheme needs xi congruent to eta.

    Given ``net``, the martingale M (M_0 = 0) rides the same kernel as one
    more state component, and the result is (states, cols) with cols the
    (batch, 1) values M_{t_0}, ..., M_{t_n}; a taped net makes them Tensors.

    Each step reads the running state, a contiguous (batch, N) array, and
    the result is copied once into its knot of ``states``; a strided knot
    column is never a kernel's input.
    """
    step = step_kernel(model, scheme, draws, net)
    eta, xi, lam = draws.eta, draws.xi, draws.lam
    steps = partition.steps
    if eta.ndim != 3 or eta.shape[1] != steps or eta.shape[2] != model.d:
        raise ShapeError(f"eta shaped {eta.shape}, expected (batch, {steps}, {model.d})")
    nb = eta.shape[0]
    if scheme == "nv":
        if lam is None or lam.shape != (nb, steps):
            raise ShapeError("flow-reversal scheme needs lam shaped (batch, steps)")
    if scheme == "nn":
        if xi is None or xi.shape != eta.shape:
            raise ShapeError("two-family scheme needs xi congruent to eta")

    times = partition.times
    deltas = partition.deltas
    states = np.empty((nb, steps + 1, model.N))
    x = np.full((nb, model.N), model.x0)
    states[:, 0, :] = x
    m = None if net is None else np.zeros((nb, 1))
    cols = [m]
    for k in range(steps):
        out = step(x, m, k, float(times[k]), float(deltas[k]))
        if m is None:
            x = out
        else:
            x, m = out
            cols.append(m)
        states[:, k + 1, :] = x
    return states if net is None else (states, cols)
