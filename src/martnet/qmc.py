"""Low-discrepancy point generation and scheme-shaped random draws.

Sobol' points come from scipy's unscrambled generator (Joe-Kuo direction
numbers, 21201 dimensions); the generalisation is a digital shift applied
here: points are exact multiples of 2^-30, so they XOR cleanly with a
per-dimension 30-bit mask drawn from the shift seed, and a half-spacing
offset keeps the result strictly inside the unit cube. The origin point is
always skipped.

The inverse normal CDF is a rational initial guess polished with one Newton
step through the high-accuracy complementary error function.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import erfc
from scipy.stats import qmc as _scipy_qmc

from .errors import DomainError, InvalidParameterError, UnknownSchemeError, UnsupportedDimensionError

_MAXDIM = 21201
_BITS = 30
_SCALE = float(2**_BITS)

SQRT3 = float(np.sqrt(3.0))


@dataclass(frozen=True)
class DrawBlock:
    """Draws shaped [batch, steps, d] plus scheme extras.

    eta (and xi) hold standard normals, or in cubature mode the discrete
    third-order cubature values {-sqrt(3), 0, +sqrt(3)} with masses
    (1/6, 2/3, 1/6), which match standard normal moments through order 5.
    xi is present for the two-family scheme only; lam holds the +-1 signs
    for the flow-reversal scheme. Entries of lam are exactly -1.0 or +1.0.
    """

    eta: np.ndarray
    xi: np.ndarray = None
    lam: np.ndarray = None


def sobol_points(dim, n, scramble_seed=None):
    """First ``n`` digitally-shifted Sobol' points in (0,1)^dim.

    Parameters
    ----------
    dim : int
        Coordinate count, at most 21201.
    n : int
        Number of points; 0 returns an empty matrix.
    scramble_seed : int, optional
        Seed of the digital shift. None applies no shift, exposing the raw
        sequence (first coordinate 0.5, 0.75, 0.25, ...).
    """
    if dim < 1 or dim > _MAXDIM:
        raise UnsupportedDimensionError(f"sobol dimension {dim} outside [1, {_MAXDIM}]")
    if n < 0:
        raise InvalidParameterError("point count must be non-negative")
    if n == 0:
        return np.empty((0, dim))
    eng = _scipy_qmc.Sobol(d=dim, scramble=False)
    eng.fast_forward(1)
    pts = eng.random(n)
    if scramble_seed is None:
        return pts
    shift = np.random.default_rng(scramble_seed).integers(0, 2**_BITS, size=dim, dtype=np.uint64)
    ints = np.round(pts * _SCALE).astype(np.uint64)
    ints ^= shift
    return (ints.astype(np.float64) + 0.5) / _SCALE


# Rational approximation constants (Acklam-class), |error| < 1.2e-9 before
# the Newton polish brings it to machine level.
_A = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
      1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
_B = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
      6.680131188771972e01, -1.328068155288572e01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
      -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
      3.754408661907416e00)
_P_LOW = 0.02425


def _poly(coeffs, x):
    out = np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        out = out * x + c
    return out


def inv_normal_cdf(u):
    """Quantile function of the standard normal, abs error < 1e-9."""
    u = np.asarray(u, dtype=np.float64)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise DomainError("inv_normal_cdf requires 0 < u < 1")
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    x = np.empty_like(u)

    low = u < _P_LOW
    high = u > 1.0 - _P_LOW
    mid = ~(low | high)
    if np.any(mid):
        q = u[mid] - 0.5
        r = q * q
        x[mid] = _poly(_A, r) * q / (_poly(_B, r) * r + 1.0)
    if np.any(low):
        q = np.sqrt(-2.0 * np.log(u[low]))
        x[low] = _poly(_C, q) / (_poly(_D, q) * q + 1.0)
    if np.any(high):
        q = np.sqrt(-2.0 * np.log(1.0 - u[high]))
        x[high] = -_poly(_C, q) / (_poly(_D, q) * q + 1.0)

    # One Newton step: Phi(x) via erfc is accurate to machine precision.
    pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    x -= (0.5 * erfc(-x / np.sqrt(2.0)) - u) / pdf
    return x[0] if scalar else x


def _cubature_map(u):
    return np.where(u < 1.0 / 6.0, -SQRT3, np.where(u < 5.0 / 6.0, 0.0, SQRT3))


def dims_for(scheme, d, steps):
    """QMC coordinates consumed per path by each scheme."""
    scheme = scheme.lower()
    if scheme in ("em", "cub3"):
        return d * steps
    if scheme == "nv":
        return (d + 1) * steps
    if scheme == "nn":
        return 2 * d * steps
    raise UnknownSchemeError(f"unknown scheme tag: {scheme!r}")


def draws_for(scheme, d, steps, batch, mode="gaussian", seed=None, source="qmc"):
    """Generate the per-path randomness a scheme consumes.

    Coordinates are allocated per step: the flow-reversal scheme takes d
    normals plus one sign coordinate (thresholded at 1/2), the two-family
    scheme takes 2d normals, the others d. In cubature mode the normal
    coordinates map to {-sqrt(3), 0, +sqrt(3)} with probabilities
    (1/6, 2/3, 1/6) instead of through the normal quantile.
    """
    if batch < 1:
        raise InvalidParameterError("batch must be >= 1")
    if steps < 0:
        raise InvalidParameterError("steps must be >= 0")
    scheme = scheme.lower()
    dim = dims_for(scheme, d, steps)
    if steps == 0:
        return DrawBlock(eta=np.empty((batch, 0, d)))

    if source == "qmc":
        u = sobol_points(dim, batch, scramble_seed=seed)
    elif source == "pseudo":
        rng = np.random.Generator(np.random.Philox(seed))
        u = rng.random((batch, dim))
        u = np.where(u == 0.0, 0.5**54, u)  # keep the open-cube invariant
    else:
        raise InvalidParameterError(f"unknown draw source: {source!r}")

    per_step = dim // steps
    u = u.reshape(batch, steps, per_step)
    if scheme == "nv":
        u_eta, u_lam = u[:, :, :d], u[:, :, d]
        lam = np.where(u_lam < 0.5, -1.0, 1.0)
        u_xi = None
    elif scheme == "nn":
        u_eta, u_xi = u[:, :, :d], u[:, :, d:]
        lam = None
    else:
        u_eta, u_xi, lam = u, None, None

    if mode == "gaussian":
        transform = inv_normal_cdf
    elif mode == "cubature":
        transform = _cubature_map
    else:
        raise InvalidParameterError(f"unknown draw mode: {mode!r}")
    xi = transform(u_xi) if u_xi is not None else None
    return DrawBlock(eta=transform(u_eta), xi=xi, lam=lam)
