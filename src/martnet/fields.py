"""Vector fields and the asset models, in Stratonovich form with their Ito drifts.

States are row vectors: every field maps (t, x) with x shaped (..., N) to an
array of the same shape, vectorised over leading batch dimensions. All types
are treated as immutable after construction and are safe to share across
workers.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import InvalidParameterError


def _sqrt_clamped(y):
    neg = y < 0.0
    if np.any(neg):
        y = np.where(neg, 0.0, y)
    return np.sqrt(y)


class VectorField:
    """A map (t, x) -> tangent vector in R^N, vectorised over batch rows."""

    __slots__ = ("eval_fn",)

    def __init__(self, eval_fn):
        self.eval_fn = eval_fn

    def eval(self, t, x):
        return self.eval_fn(t, x)


@dataclass(frozen=True)
class Payoff:
    """American put payoff Z = max(K - S, 0) on the first state coordinate."""

    strike: float

    def __post_init__(self):
        if self.strike <= 0:
            raise InvalidParameterError("strike must be positive")


def payoff_eval(p, x):
    """Evaluate the payoff at states shaped (..., N); K - S is clamped at 0 in its own buffer."""
    x = np.asarray(x, dtype=np.float64)
    z = np.subtract(p.strike, x[..., 0], out=np.empty(x.shape[:-1]))
    np.maximum(z, 0.0, out=z)
    return z if z.ndim else z[()]  # a scalar for one state


@dataclass(frozen=True)
class ModelSpec:
    """An SDE instance in Stratonovich form.

    stratonovich_fields holds V_0 (drift) followed by the d diffusion
    fields. ito_field is the hand-derived drift of the Ito form,
    V_0 + 1/2 sum_i (DV_i) V_i, used by the Euler kernel; params records the
    constructor arguments for config snapshots and closed-form references.
    """

    N: int
    d: int
    stratonovich_fields: tuple
    x0: np.ndarray
    payoff: Payoff
    ito_field: VectorField
    params: dict = dc_field(default_factory=dict)
    name: str = ""


def _check_finite(where, params):
    """Refuse by name any parameter that is not finite: a NaN passes every bound check."""
    bad = {k: v for k, v in params.items() if not np.isfinite(v)}
    if bad:
        raise InvalidParameterError(f"{where} requires finite parameters, got {bad}")


def make_bsm_model(S0, mu, sigma, strike=100.0):
    """Geometric Brownian motion in Stratonovich form.

    V_0 I(y) = (mu - sigma^2/2) y and V_1 I(y) = sigma y; the Stratonovich
    drift already carries the -sigma^2/2 so that the Ito drift is mu y.
    """
    params = {"S0": float(S0), "mu": float(mu), "sigma": float(sigma), "strike": float(strike)}
    _check_finite("make_bsm_model", params)
    if sigma <= 0 or S0 <= 0:
        raise InvalidParameterError("make_bsm_model requires sigma > 0 and S0 > 0")
    c0 = mu - 0.5 * sigma * sigma

    def lin(c):
        return VectorField(lambda t, x: c * x)

    return ModelSpec(
        N=1,
        d=1,
        stratonovich_fields=(lin(c0), lin(sigma)),
        x0=np.array([float(S0)]),
        payoff=Payoff(strike=float(strike)),
        ito_field=lin(mu),
        params=params,
        name="bsm",
    )


def make_heston_model(S0, U0, mu, theta, alpha, rho, beta, strike=100.0):
    """Heston model (price, variance) in Stratonovich form.

    The drift carries the -rho*beta/4 and -beta^2/4 corrections so the Ito
    drift comes out as (mu y1, alpha (theta - y2)). Square roots clamp
    negative variance to zero.
    """
    params = {
        "S0": float(S0),
        "U0": float(U0),
        "mu": float(mu),
        "theta": float(theta),
        "alpha": float(alpha),
        "rho": float(rho),
        "beta": float(beta),
        "strike": float(strike),
    }
    _check_finite("make_heston_model", params)
    if U0 <= 0 or beta <= 0 or alpha <= 0 or theta <= 0 or S0 <= 0:
        raise InvalidParameterError("make_heston_model requires positive S0, U0, theta, alpha, beta")
    if abs(rho) >= 1:
        raise InvalidParameterError("make_heston_model requires |rho| < 1")
    rb = rho * beta
    orth = beta * np.sqrt(1.0 - rho * rho)

    def v0_eval(t, x):
        x = np.asarray(x, dtype=np.float64)
        y1, y2 = x[..., 0], x[..., 1]
        return np.stack(
            [(mu - 0.5 * y2 - 0.25 * rb) * y1, alpha * (theta - y2) - 0.25 * beta * beta],
            axis=-1,
        )

    def v1_eval(t, x):
        x = np.asarray(x, dtype=np.float64)
        y1, y2 = x[..., 0], x[..., 1]
        sq = _sqrt_clamped(y2)
        return np.stack([y1 * sq, rb * sq], axis=-1)

    def v2_eval(t, x):
        x = np.asarray(x, dtype=np.float64)
        y1, y2 = x[..., 0], x[..., 1]
        return np.stack([np.zeros_like(y1), orth * _sqrt_clamped(y2)], axis=-1)

    def ito_eval(t, x):
        x = np.asarray(x, dtype=np.float64)
        y1, y2 = x[..., 0], x[..., 1]
        return np.stack([mu * y1, alpha * (theta - y2)], axis=-1)

    return ModelSpec(
        N=2,
        d=2,
        stratonovich_fields=(
            VectorField(v0_eval),
            VectorField(v1_eval),
            VectorField(v2_eval),
        ),
        x0=np.array([float(S0), float(U0)]),
        payoff=Payoff(strike=float(strike)),
        ito_field=VectorField(ito_eval),
        params=params,
        name="heston",
    )

