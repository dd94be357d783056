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
A recording net (one with a ``begin_flow`` method) is told each joint flow's
time, duration, martingale field weights and row set before the flow runs.
"""

from dataclasses import dataclass
from typing import NamedTuple

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


def _joint_flow(field, t, state, h, net, weights=None, rows=None):
    """One RK5 flow of ``state`` along ``field`` for the duration ``h``.

    A recording ``net`` first gets begin_flow(t, h, weights, rows): the
    martingale part of the field is sum_j weights[:, j] * net(j, ...), or the
    one network the field names when ``weights`` is None, over the batch rows
    ``rows`` (None for all of them).
    """
    if hasattr(net, "begin_flow"):
        net.begin_flow(t, h, weights, rows)
    return flow(field, t, state, h)


def _check_martingale(kernel, m, net):
    """Refuse a martingale state without its networks, or networks without the state, naming the kernel."""
    if (m is None) != (net is None):
        missing = "m" if m is None else "net"
        raise InvalidParameterError(f"{kernel}: the martingale needs both m and net, and {missing} is missing")


def em_step(model, x, dt, eta_row, t=0.0, m=None, net=None):
    """One Euler step x + dt * V~_0(x) + sqrt(dt) sum_i V_i(x) eta^i.

    The martingale advances by sqrt(dt) sum_i eta^i net(i, t, x, m) at the
    pre-step state.
    """
    _check_martingale("em_step", m, net)
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


def _nv_diffusions(model, state, net, tau, descending, t, rows=None):
    order = range(model.d - 1, -1, -1) if descending else range(model.d)
    for i in order:
        field = _coupled(model.stratonovich_fields[1 + i], net, i)
        state = _joint_flow(field, t, state, tau[:, i : i + 1], net, rows=rows)
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
    if not np.all(np.abs(lam) == 1.0):
        raise InvalidParameterError("lam must be +1 or -1 on every path")
    _check_martingale("nv_step", m, net)
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
        a = _nv_diffusions(model, tuple(p[ia] for p in state), net, tau[ia], True, t, ia)
        b = _nv_diffusions(model, tuple(p[ib] for p in state), net, tau[ib], False, t, ib)
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
    _check_martingale("nn_step", m, net)
    sdt = np.sqrt(dt)
    w_second = sdt * nn_zeta(eta_row, xi_row)
    w_first = np.sqrt(NN_R11) * sdt * eta_row
    f_second = _frozen_field(model, NN_C2 * dt, w_second, net)
    f_first = _frozen_field(model, NN_C1 * dt, w_first, net)
    state = _joint_flow(f_second, t, x if m is None else (x, m), 1.0, net, w_second)
    return _joint_flow(f_first, t, state, 1.0, net, w_first)


def _step_sum(cols):
    """Each row's running sum over the steps k = 0, 1, ... of a (batch, steps) array.

    The order is fixed here, so the bits do not depend on the array's memory layout.
    """
    w = np.zeros(cols.shape[0])
    for k in range(cols.shape[1]):
        w += cols[:, k]
    return w


def _nn_weight(d):
    eta, xi = d.eta[:, :, 0], d.xi[:, :, 0]
    return _step_sum(np.sqrt(NN_R11) * eta + nn_zeta(eta, xi))


@dataclass(frozen=True)
class Scheme:
    """Every fact about one weak scheme that another module reads."""

    step: object  # step(model, x, dt, eta_row, [lam_row | xi_row], t, [m, net]): one kernel step
    normals: int = 1  # normal coordinates per step and Brownian dimension: eta, then xi
    sign: bool = False  # one sign coordinate per step after the normals: lam
    cubature: bool = False  # the normal coordinates map to cubature values, not normal quantiles
    martingale: bool = True  # the kernel carries a martingale state
    flows: bool = True  # the kernel is made of RK5 flows
    weight: object = lambda d: _step_sum(d.eta[:, :, 0])  # each path's Brownian weight (paired protocol)
    protocol: str = "paired"  # the convergence study's default protocol
    ladder: tuple = (1, 2, 4, 8)  # and its default step counts


SCHEMES = {
    "em": Scheme(em_step, flows=False, protocol="direct", ladder=(8, 16, 32, 64)),
    "cub3": Scheme(cub3_step, cubature=True, martingale=False),
    "nv": Scheme(nv_step, sign=True),
    "nn": Scheme(nn_step, normals=2, weight=_nn_weight),
}


class NetFamily(NamedTuple):
    config: str  # the family's MartingaleNetConfig scheme name
    scheme: str  # the asset scheme its martingale rides
    steps: int  # the default step count


# Network families by their CLI and config-file name (``--net``, ``net =``),
# then by their MartingaleNetConfig scheme name.
NETS = {
    "resnet": NetFamily("resnet-em", "em", 1024),
    "nvnet": NetFamily("nvnet", "nv", 4),
    "nnet": NetFamily("nnet", "nn", 4),
}
NET_CONFIGS = {n.config: n for n in NETS.values()}


def get_scheme(tag):
    """The record of the scheme ``tag``; raises UnknownSchemeError for any other value."""
    if tag not in SCHEMES:
        raise UnknownSchemeError(f"unknown scheme tag: {tag!r}")
    return SCHEMES[tag]


def step_kernel(model, scheme, draws, net=None):
    """The scheme's one-step map step(x, m, k, t, dt) over step k of ``draws``.

    A kernel whose record carries a martingale (all but the cubature one)
    takes an optional martingale state m, shaped (batch, 1), and the network
    callable net(j, t, x, m) giving its diffusion fields V^M_j. Given m, a
    step returns (x, m) advanced with the same draws, the martingale riding
    along as one more state component; otherwise it returns x alone.
    """
    s = get_scheme(scheme)
    # eta, then the extras the record declares, in the step's argument order
    rows = [draws.eta] + [draws.lam] * s.sign + [draws.xi] * (s.normals - 1)
    if s.martingale:
        return lambda x, m, k, t, dt: s.step(model, x, dt, *(r[:, k] for r in rows), t=t, m=m, net=net)
    if net is not None:
        raise InvalidParameterError(f"the {scheme} kernel carries no martingale")
    return lambda x, m, k, t, dt: s.step(model, x, dt, *(r[:, k] for r in rows), t=t)


def simulate(model, scheme, partition, draws, net=None):
    """Run the chosen kernel across the partition for every path.

    Returns the states, shaped (batch, steps + 1, N). Shapes are validated
    before any computation: eta must be (batch, steps, model.d), a scheme
    with a sign coordinate needs lam of shape (batch, steps), and one with
    two normals per dimension needs xi congruent to eta.

    Given ``net``, a callable on ndarrays, the martingale M (M_0 = 0) rides
    the same kernel as one more state component, and the result is
    (states, knots) with knots the (batch, steps + 1) values
    M_{t_0}, ..., M_{t_n}.

    Each step reads the running state, a contiguous (batch, N) array, and
    the result is copied once into its knot of ``states``; a strided knot
    column is never a kernel's input.
    """
    step = step_kernel(model, scheme, draws, net)
    s = SCHEMES[scheme]
    eta, xi, lam = draws.eta, draws.xi, draws.lam
    steps = partition.steps
    if eta.ndim != 3 or eta.shape[1] != steps or eta.shape[2] != model.d:
        raise ShapeError(f"eta shaped {eta.shape}, expected (batch, {steps}, {model.d})")
    nb = eta.shape[0]
    if s.sign and (lam is None or lam.shape != (nb, steps)):
        raise ShapeError(f"scheme {scheme!r} needs lam shaped (batch, steps)")
    if s.normals == 2 and (xi is None or xi.shape != eta.shape):
        raise ShapeError(f"scheme {scheme!r} needs xi congruent to eta")

    times = partition.times
    deltas = partition.deltas
    states = np.empty((nb, steps + 1, model.N))
    x = np.full((nb, model.N), model.x0)
    states[:, 0, :] = x
    m = None if net is None else np.zeros((nb, 1))
    knots = None if net is None else np.zeros((nb, steps + 1))
    for k in range(steps):
        out = step(x, m, k, float(times[k]), float(deltas[k]))
        if m is None:
            x = out
        else:
            x, m = out
            knots[:, k + 1 : k + 2] = m
        states[:, k + 1, :] = x
    return states if net is None else (states, knots)
