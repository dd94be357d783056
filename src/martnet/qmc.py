"""Low-discrepancy point generation and scheme-shaped random draws.

Sobol' points are built here in numpy: Joe & Kuo's (2008) direction
numbers, 21201 dimensions at 30 bits, taken in the Antonov-Saleev Gray-code
order, so the unscrambled sequence is bit for bit scipy's
``scipy.stats.qmc.Sobol(d, scramble=False)``. The polynomials and initial
direction numbers are read from the table scipy ships, located by path so
that ``scipy.stats`` is never imported; the recurrence runs once per
dimension and its table is kept for the process. The origin point is always
skipped.

The generalisation is a digital shift: every point is a 30-bit integer
times 2^-30, and the shift XORs those integers with a per-dimension mask
drawn from the shift seed. A half-spacing offset keeps the result strictly
inside the unit cube (every coordinate an odd multiple of 2^-31).

The inverse normal CDF is scipy's ``ndtri``, guarded so that u outside the
open unit interval raises instead of returning an infinity.
"""

import os
import zipfile
from dataclasses import dataclass

import numpy as np
import scipy
from scipy.special import ndtri

from .errors import (
    DomainError,
    InvalidParameterError,
    MartnetError,
    UnknownSchemeError,
    UnsupportedDimensionError,
)

_MAXDIM = 21201
_BITS = 30
_MAXN = 2**_BITS - 1  # the origin and n points fill 2^30 Gray-code rows at most
_DIRECTION_FILE = os.path.join(os.path.dirname(scipy.__file__), "stats", "_sobol_direction_numbers.npz")

SQRT3 = float(np.sqrt(3.0))

# (dim, _BITS) uint32 direction numbers, column b the integer that bit b of
# a point's Gray code XORs in; grown on demand. Concurrent callers each build
# and publish their own, so the last to publish wins, larger or not.
_directions = np.empty((0, _BITS), dtype=np.uint32)


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


def _direction_block(lo, hi):
    """Direction numbers of dimensions [lo, hi), shaped (hi - lo, _BITS).

    Dimension j > 0 has a primitive polynomial of degree s with coefficient
    bits a_1 .. a_{s-1} and initial odd integers m_1 .. m_s; later ones
    follow m_k = 2 a_1 m_{k-1} ^ 4 a_2 m_{k-2} ^ ... ^ 2^s m_{k-s} ^ m_{k-s}
    (Bratley & Fox 1988). Dimension 0 is the van der Corput sequence, every
    m_k = 1. The loops run over bit positions and polynomial terms; each
    statement acts on all dimensions at once.
    """
    try:
        with np.load(_DIRECTION_FILE) as table:
            poly = table["poly"][lo:hi].astype(np.int64)
            vinit = table["vinit"][lo:hi].astype(np.int64)
    except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise MartnetError(f"cannot read Sobol' direction numbers from {_DIRECTION_FILE}: {exc}")
    count = hi - lo
    deg = np.frexp(poly.astype(np.float64))[1] - 1  # floor(log2(poly)), exact below 2^53
    maxdeg = vinit.shape[1]
    terms = np.arange(maxdeg)
    # coef[:, k] is the coefficient of m_{j-k-1}'s term; the last one (k = s - 1) is 2^s
    coef = np.where(terms < deg[:, None], (poly[:, None] >> np.maximum(deg[:, None] - 1 - terms, 0)) & 1, 0)
    coef <<= terms + 1
    m = np.zeros((count, _BITS), dtype=np.int64)
    rows = np.arange(count)
    for j in range(_BITS):
        known = j < deg
        if j < maxdeg:
            m[known, j] = vinit[known, j]
        new = m[rows, np.maximum(j - deg, 0)]
        for k in range(min(j, maxdeg)):
            new ^= coef[:, k] * m[:, j - k - 1]
        m[~known, j] = new[~known]
    if lo == 0:
        m[0] = 1
    return (m << np.arange(_BITS - 1, -1, -1)).astype(np.uint32)


def _direction_numbers(dim):
    # Read the global once and return from that local table: a concurrent
    # caller may publish a smaller table between our publish and our return.
    global _directions
    table = _directions
    have = table.shape[0]
    if dim > have:
        table = np.concatenate([table, _direction_block(have, dim)])
        _directions = table
    return table[:dim]


def sobol_points(dim, n, scramble_seed=None):
    """First ``n`` digitally-shifted Sobol' points in (0,1)^dim.

    Parameters
    ----------
    dim : int
        Coordinate count, at most 21201.
    n : int
        Number of points, at most 2^30 - 1; 0 returns an empty matrix.
    scramble_seed : int or numpy.random.SeedSequence, optional
        Seed of the digital shift. None applies no shift, exposing the raw
        sequence (first coordinate 0.5, 0.75, 0.25, ...).
    """
    if dim < 1 or dim > _MAXDIM:
        raise UnsupportedDimensionError(f"sobol dimension {dim} outside [1, {_MAXDIM}]")
    if n < 0 or n > _MAXN:
        raise InvalidParameterError(f"point count {n} outside [0, {_MAXN}]")
    if n == 0:
        return np.empty((0, dim))
    # Row i holds 2 k_i + 1 for shifted points, 2 k_i unshifted, with k_i the
    # point's 30-bit integer: one exact product by 2^-31 then gives k_i + 1/2
    # or k_i in units of 2^-30. XOR is linear and the doubled directions are
    # even, so starting row 0 from the doubled shift shifts every row.
    directions = _direction_numbers(dim) << np.uint32(1)
    rows = np.empty((n + 1, dim), dtype=np.uint32)
    if scramble_seed is None:
        rows[0] = 0
    else:
        shift = np.random.default_rng(scramble_seed).integers(0, 2**_BITS, size=dim, dtype=np.uint64)
        rows[0] = 2 * shift + 1
    # Gray-code order: row 2^b + j is row 2^b - 1 - j with bit b's direction XORed in
    half = 1
    for b in range(_BITS):
        if half > n:
            break
        count = min(half, n + 1 - half)
        np.bitwise_xor(rows[half - count : half][::-1], directions[:, b], out=rows[half : half + count])
        half *= 2
    return np.multiply(rows[1:], 2.0 ** -(_BITS + 1), dtype=np.float64)


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


def draws_for(scheme, d, steps, batch, mode="gaussian", seed=None):
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

    u = sobol_points(dim, batch, scramble_seed=seed)
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
