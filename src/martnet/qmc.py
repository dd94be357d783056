"""Low-discrepancy point generation and scheme-shaped random draws.

Sobol' points come from scipy's unscrambled generator (Joe-Kuo direction
numbers, 21201 dimensions); the generalisation is a digital shift applied
here: points are exact multiples of 2^-30, so their 30-bit integers XOR
with a per-dimension mask drawn from the shift seed, in uint32 and in
place, and a half-spacing offset keeps the result strictly inside the unit
cube (every coordinate an odd multiple of 2^-31). The origin point is
always skipped.

The inverse normal CDF is scipy's ``ndtri``, guarded so that u outside the
open unit interval raises instead of returning an infinity.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri
from scipy.stats import qmc as _scipy_qmc

from .errors import DomainError, InvalidParameterError, UnknownSchemeError, UnsupportedDimensionError

_MAXDIM = 21201
_BITS = 30
_SCALE = 2.0**_BITS

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
    scramble_seed : int or numpy.random.SeedSequence, optional
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
    pts *= _SCALE  # exact: every point is a multiple of 2^-30
    ints = pts.astype(np.uint32)
    ints ^= shift.astype(np.uint32)
    pts[...] = ints
    pts += 0.5
    pts *= 1.0 / _SCALE
    return pts


def inv_normal_cdf(u):
    """Quantile function of the standard normal; raises unless 0 < u < 1."""
    u = np.asarray(u, dtype=np.float64)
    if not (np.all(u > 0.0) and np.all(u < 1.0)):  # NaN fails too
        raise DomainError("inv_normal_cdf requires 0 < u < 1")
    return ndtri(u)


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
