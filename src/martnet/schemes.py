"""Weak-approximation step kernels and the whole-path simulator.

Four kernels: the Euler update on the Ito form, and three compositions of
frozen-field flows (single-flow third-order cubature, the flow-reversal
splitting, and the two-family splitting). Flow-based kernels accept batched
states and integrate every path's flow duration in one vectorised RK5 pass.

The same kernels drive the coupled (X, M) system of the dual pricer:
``with_martingale`` gives the model whose state carries M as its last
column, so ``simulate`` on it advances both in a single pass with the same
draws. The flow-reversal kernel splits a batch by each path's sign, so every
path, and every network evaluation on it, flows through the one diffusion
order its sign selects. The flow-reversal and two-family kernels take a
``record`` callback, told each flow's time, duration, field weights and
row set before the flow runs.
"""

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .autodiff import merge_rows
from .errors import InvalidParameterError, ShapeError, UnknownSchemeError, check_count
from .fields import VectorField
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
        if not np.all(np.isfinite(t)):
            raise InvalidParameterError(f"partition times must be finite, got {t}")
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
    check_count("steps", steps, 0)
    if not (np.isfinite(T) and T >= 0):
        raise InvalidParameterError(f"uniform partition needs a finite T >= 0, got {T!r}")
    return Partition(np.linspace(0.0, T, steps + 1))


def _frozen_field(model, coeff0, weights):
    """Field z -> coeff0 * V_0(t,z) + sum_i weights[:, i] * V_i(t,z)."""
    v0 = model.stratonovich_fields[0]
    diffusions = model.stratonovich_fields[1:]

    def ev(t, z):
        out = coeff0 * v0.eval(t, z)
        for i, vi in enumerate(diffusions):
            out = out + weights[:, i : i + 1] * vi.eval(t, z)
        return out

    return ev


def _append_column(v, col):
    """v with ``col`` (an array or a scalar) as one more last column, in one fresh array.

    The copy runs column by column: one long strided loop per column is
    about three times faster than numpy's row-by-row copy of v's block.
    """
    out = np.empty(v.shape[:-1] + (v.shape[-1] + 1,))
    for i in range(v.shape[-1]):
        out[..., i] = v[..., i]
    out[..., -1:] = col
    return out


def with_martingale(model, net):
    """The model whose state is (X, M): M rides as one more last column.

    x0 gets a trailing 0. Each diffusion field j is [V_j(x), net(j, t, x, m)],
    with x the state's first N columns and m its last one; V_0 and the Ito
    field give M the component 0. Every kernel then advances (X, M) with the
    same draws, and the X columns keep the bits of the plain pass.
    """
    n = model.N

    def zero_m(field):
        return VectorField(lambda t, z: _append_column(field.eval(t, z[..., :n]), 0.0))

    def driven(field, j):
        def ev(t, z):
            x = z[..., :n]
            return _append_column(field.eval(t, x), net(j, t, x, z[..., n:]))

        return VectorField(ev)

    v0, *diffusions = model.stratonovich_fields
    return replace(
        model,
        N=n + 1,
        stratonovich_fields=(zero_m(v0),) + tuple(driven(v, j) for j, v in enumerate(diffusions)),
        x0=np.append(model.x0, 0.0),
        ito_field=zero_m(model.ito_field),
    )


def em_step(model, x, dt, eta_row, t=0.0):
    """One Euler step x + dt * V~_0(x) + sqrt(dt) sum_i V_i(x) eta^i."""
    out = x + dt * model.ito_field.eval(t, x)
    sdt = np.sqrt(dt)
    for i, vi in enumerate(model.stratonovich_fields[1:]):
        out = out + sdt * eta_row[:, i : i + 1] * vi.eval(t, x)
    return out


def cub3_step(model, x, dt, eta_row, t=0.0):
    """Unit-time flow along the frozen field dt*V_0 + sqrt(dt) sum eta^i V_i."""
    return flow(_frozen_field(model, dt, np.sqrt(dt) * eta_row), t, x, 1.0)


def _nv_diffusions(model, x, tau, descending, t, record, rows):
    order = range(model.d - 1, -1, -1) if descending else range(model.d)
    for i in order:
        h = tau[:, i : i + 1]
        if record:
            record(t, h, None, rows)
        x = flow(model.stratonovich_fields[1 + i], t, x, h)
    return x


def nv_step(model, x, dt, eta_row, lam, t=0.0, record=None):
    """Flow-reversal splitting step.

    lam = +1 runs the half drift flow, then the diffusion flows from V_d
    down to V_1, then the half drift flow; lam = -1 reverses the diffusion
    order. lam may be a per-path array for batched states: with more than
    one diffusion field the rows are split by sign and each path flows
    through the order its sign selects only; the lam = -1 rows run first.
    ``record(t, h, None, rows)``, if given, is called before every flow with
    its duration and its row set: None for all rows, or the rows of one
    sign when the step splits.
    """
    if not np.all(np.abs(lam) == 1.0):
        raise InvalidParameterError("lam must be +1 or -1 on every path")
    v0 = model.stratonovich_fields[0]
    tau = np.sqrt(dt) * eta_row
    if record:
        record(t, dt / 2.0, None, None)
    x = flow(v0, t, x, dt / 2.0)
    pos = np.asarray(lam) > 0
    if model.d == 1 or pos.all() or not pos.any():
        # a single diffusion field makes both orders coincide; one sign needs no split
        x = _nv_diffusions(model, x, tau, model.d == 1 or bool(pos.all()), t, record, None)
    else:
        ia, ib = np.flatnonzero(pos), np.flatnonzero(~pos)
        b = _nv_diffusions(model, x[ib], tau[ib], False, t, record, ib)
        a = _nv_diffusions(model, x[ia], tau[ia], True, t, record, ia)
        x = merge_rows(ia, a, ib, b)
    if record:
        record(t, dt / 2.0, None, None)
    return flow(v0, t, x, dt / 2.0)


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


def nn_step(model, x, dt, eta_row, xi_row, t=0.0, record=None):
    """Two-family splitting step of Gaussian pairs (eta, zeta).

    zeta = nn_zeta(eta, xi); the step flows unit time along
    c2*dt*V_0 + sqrt(dt) sum zeta^i V_i, then along
    c1*dt*V_0 + sqrt(R11*dt) sum eta^i V_i. ``record(t, 1.0, weights, None)``,
    if given, is called before each flow with its diffusion weights.
    """
    sdt = np.sqrt(dt)
    for c, weights in ((NN_C2, sdt * nn_zeta(eta_row, xi_row)), (NN_C1, np.sqrt(NN_R11) * sdt * eta_row)):
        if record:
            record(t, 1.0, weights, None)
        x = flow(_frozen_field(model, c * dt, weights), t, x, 1.0)
    return x


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

    step: object  # step(model, x, dt, eta_row, [lam_row | xi_row], t, [record]): one kernel step
    normals: int = 1  # normal coordinates per step and Brownian dimension: eta, then xi
    sign: bool = False  # one sign coordinate per step after the normals: lam
    cubature: bool = False  # the normal coordinates map to cubature values, not normal quantiles
    records: bool = False  # the kernel takes a ``record`` callback (see ``step_kernel``)
    weight: object = lambda d: _step_sum(d.eta[:, :, 0])  # each path's Brownian weight (paired protocol)
    protocol: str = "paired"  # the convergence study's default protocol
    ladder: tuple = (1, 2, 4, 8)  # and its default step counts


SCHEMES = {
    "em": Scheme(em_step, protocol="direct", ladder=(8, 16, 32, 64)),
    "cub3": Scheme(cub3_step, cubature=True),
    "nv": Scheme(nv_step, sign=True, records=True),
    "nn": Scheme(nn_step, normals=2, weight=_nn_weight, records=True),
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


def step_kernel(model, scheme, draws, record=None):
    """The scheme's one-step map step(x, k, t, dt) over step k of ``draws``.

    ``record`` is passed on to a kernel that records its flows (``nv_step``,
    ``nn_step``); for any other scheme it raises InvalidParameterError.
    """
    s = get_scheme(scheme)
    if record is not None and not s.records:
        raise InvalidParameterError(f"scheme {scheme!r} records no flows: it takes no record callback")
    # eta, then the extras the record declares, in the step's argument order
    rows = [draws.eta] + [draws.lam] * s.sign + [draws.xi] * (s.normals - 1)
    kw = {} if record is None else {"record": record}
    return lambda x, k, t, dt: s.step(model, x, dt, *(r[:, k] for r in rows), t=t, **kw)


def simulate(model, scheme, partition, draws, record=None):
    """Run the chosen kernel across the partition for every path.

    Returns the states, shaped (batch, steps + 1, N). Shapes are validated
    before any computation: eta must be (batch, steps, model.d), a scheme
    with a sign coordinate needs lam of shape (batch, steps), and one with
    two normals per dimension needs xi congruent to eta. ``record`` goes to
    every step (see ``step_kernel``). On ``with_martingale(model, net)`` the
    knots M_{t_0}, ..., M_{t_n} are the states' last column.

    Each step reads the running state, a contiguous (batch, N) array, and
    the result is copied once into its knot of ``states``; a strided knot
    column is never a kernel's input.
    """
    step = step_kernel(model, scheme, draws, record)
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
    for k in range(steps):
        x = step(x, k, float(times[k]), float(deltas[k]))
        states[:, k + 1, :] = x
    return states
