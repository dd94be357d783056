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
        d = np.diff(t)
        if np.any(d <= 0):
            raise InvalidParameterError("partition times must be strictly increasing")
        if abs(d.sum() - (t[-1] - t[0])) > 1e-12:
            raise InvalidParameterError("partition step sizes do not sum to T")

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


@dataclass(frozen=True)
class PathBatch:
    """Simulated states shaped [batch, steps+1, N] on a partition."""

    states: np.ndarray
    partition: Partition
    scheme: str


def _rows(x):
    """View a state as (batch, N), remembering whether it was a single row."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


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
    x2, single = _rows(x)
    eta2 = np.atleast_2d(np.asarray(eta_row, dtype=np.float64))
    out = x2 + dt * model.ito_field.eval(t, x2)
    sdt = np.sqrt(dt)
    acc = None
    for i, vi in enumerate(model.stratonovich_fields[1:]):
        out = out + sdt * eta2[:, i : i + 1] * vi.eval(t, x2)
        if m is not None:
            term = (sdt * eta2[:, i : i + 1]) * net(i, t, x2, m)
            acc = term if acc is None else acc + term
    out = out[0] if single else out
    return out if m is None else (out, m + acc)


def cub3_step(model, x, dt, eta_row, substeps=1, t=0.0):
    """Unit-time flow along the frozen field dt*V_0 + sqrt(dt) sum eta^i V_i."""
    x2, single = _rows(x)
    eta2 = np.atleast_2d(np.asarray(eta_row, dtype=np.float64))
    f = _frozen_field(model, dt, np.sqrt(dt) * eta2)
    out = flow(f, t, x2, 1.0, substeps)
    return out[0] if single else out


def _nv_diffusions(model, state, net, tau, descending, substeps, t):
    order = range(model.d - 1, -1, -1) if descending else range(model.d)
    for i in order:
        field = _coupled(model.stratonovich_fields[1 + i], net, i)
        state = flow(field, t, state, tau[:, i : i + 1], substeps)
    return state


def nv_step(model, x, dt, eta_row, lam, substeps=1, t=0.0, m=None, net=None):
    """Flow-reversal splitting step.

    lam = +1 runs the half drift flow, then the diffusion flows from V_d
    down to V_1, then the half drift flow; lam = -1 reverses the diffusion
    order. lam may be a per-path array for batched states: with more than
    one diffusion field the rows are split by sign and each path flows
    through the order its sign selects only. The martingale rides the
    diffusion flows only, its drift being zero.
    """
    x2, single = _rows(x)
    eta2 = np.atleast_2d(np.asarray(eta_row, dtype=np.float64))
    if np.ndim(lam) == 0 and lam not in (-1, 1):
        raise InvalidParameterError("lam must be +1 or -1")
    v0 = model.stratonovich_fields[0]
    tau = np.sqrt(dt) * eta2
    x2 = flow(v0, t, x2, dt / 2.0, substeps)
    state = (x2,) if m is None else (x2, m)
    pos = np.asarray(lam) > 0
    if model.d == 1 or pos.all() or not pos.any():
        # a single diffusion field makes both orders coincide; one sign needs no split
        state = _nv_diffusions(model, state, net, tau, model.d == 1 or bool(pos.all()), substeps, t)
    else:
        ia, ib = np.flatnonzero(pos), np.flatnonzero(~pos)
        a = _nv_diffusions(model, tuple(p[ia] for p in state), net, tau[ia], True, substeps, t)
        b = _nv_diffusions(model, tuple(p[ib] for p in state), net, tau[ib], False, substeps, t)
        state = tuple(merge_rows(ia, pa, ib, pb) for pa, pb in zip(a, b))
    x2, m = state if m is not None else (state[0], None)
    out = flow(v0, t, x2, dt / 2.0, substeps)
    out = out[0] if single else out
    return out if m is None else (out, m)


def nn_constants(u, sign=1):
    """Constants (c1, c2, R11, R22, R12) of the two-family splitting."""
    if u < 0.5:
        raise InvalidParameterError("the two-family scheme requires u >= 1/2")
    if sign not in (1, -1):
        raise InvalidParameterError("sign must be +1 (upper branch) or -1 (lower)")
    root = np.sqrt((2.0 * u - 1.0) / 2.0)
    c1 = -sign * root
    c2 = 1.0 - c1
    r11 = u
    r22 = 1.0 + u + sign * np.sqrt(2.0 * (2.0 * u - 1.0))
    r12 = -u - sign * root
    if r22 - r12 * r12 / r11 < 0:
        raise InvalidParameterError("residual variance negative; invalid (u, sign)")
    return c1, c2, r11, r22, r12


def nn_step(model, x, dt, eta_row, xi_row, u=0.5, sign=1, substeps=1, t=0.0, m=None, net=None):
    """Two-family splitting step of Gaussian pairs (eta, zeta).

    zeta = (R12/sqrt(R11)) eta + sqrt(R22 - R12^2/R11) xi; the step flows
    unit time along c2*dt*V_0 + sqrt(dt) sum zeta^i V_i, then along
    c1*dt*V_0 + sqrt(R11*dt) sum eta^i V_i. The martingale's field carries
    the same diffusion weights and no drift.
    """
    c1, c2, r11, r22, r12 = nn_constants(u, sign)
    x2, single = _rows(x)
    eta2 = np.atleast_2d(np.asarray(eta_row, dtype=np.float64))
    xi2 = np.atleast_2d(np.asarray(xi_row, dtype=np.float64))
    zeta = (r12 / np.sqrt(r11)) * eta2 + np.sqrt(r22 - r12 * r12 / r11) * xi2
    sdt = np.sqrt(dt)
    f_second = _frozen_field(model, c2 * dt, sdt * zeta, net)
    f_first = _frozen_field(model, c1 * dt, np.sqrt(r11) * sdt * eta2, net)
    state = flow(f_second, t, x2 if m is None else (x2, m), 1.0, substeps)
    state = flow(f_first, t, state, 1.0, substeps)
    x2, m = (state, None) if m is None else state
    out = x2[0] if single else x2
    return out if m is None else (out, m)


def step_kernel(model, scheme, draws, substeps=1, u=0.5, sign=1, net=None):
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
        "cub3": lambda x, m, k, t, dt: cub3_step(model, x, dt, eta[:, k], substeps=substeps, t=t),
        "nv": lambda x, m, k, t, dt: nv_step(
            model, x, dt, eta[:, k], lam[:, k], substeps=substeps, t=t, m=m, net=net
        ),
        "nn": lambda x, m, k, t, dt: nn_step(
            model, x, dt, eta[:, k], xi[:, k], u=u, sign=sign, substeps=substeps, t=t, m=m, net=net
        ),
    }
    if scheme not in kernels:
        raise UnknownSchemeError(f"unknown scheme tag: {scheme!r}")
    if scheme == "cub3" and net is not None:
        raise InvalidParameterError("the cubature kernel carries no martingale")
    return kernels[scheme]


def simulate(model, scheme, partition, draws, substeps=1, u=0.5, sign=1, net=None):
    """Run the chosen kernel across the partition for every path.

    Shapes are validated before any computation: eta must be
    (batch, steps, model.d), the flow-reversal scheme needs lam of shape
    (batch, steps), and the two-family scheme needs xi congruent to eta.

    Given ``net``, the martingale M (M_0 = 0) rides the same kernel as one
    more state component, and the result is (paths, cols) with cols the
    (batch, 1) values M_{t_0}, ..., M_{t_n}; a taped net makes them Tensors.

    Each step reads the running state, a contiguous (batch, N) array, and
    the result is copied once into its knot of ``states``; a strided knot
    column is never a kernel's input.
    """
    scheme = scheme.lower()
    step = step_kernel(model, scheme, draws, substeps, u, sign, net)
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
    paths = PathBatch(states=states, partition=partition, scheme=scheme)
    return paths if net is None else (paths, cols)
