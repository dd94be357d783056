"""Low-discrepancy point generation and scheme-shaped random draws.

Sobol' points are built here in numpy: Joe & Kuo's (2008) direction
numbers, 21201 dimensions at 30 bits, taken in the Antonov-Saleev Gray-code
order, so the unscrambled sequence is bit for bit scipy's
``scipy.stats.qmc.Sobol(d, scramble=False)``. The polynomials and initial
direction numbers are read from the table scipy ships, located by path so
that ``scipy.stats`` is never imported; the recurrence runs once per
dimension and its table is kept for the process. The origin point is always
skipped.

Row r of the Gray-code table XORs in the direction numbers of the bits of
r ^ (r >> 1). Any aligned block of 2^m rows is a small table XOR one row
(Antonov & Saleev 1979): with r = k 2^m + j, the Gray code of r is that of
j XOR ((k << 1) ^ k) << (m - 1), so row r is T[j] ^ base_k, where T holds
the first 2^m unshifted rows and base_k is the shift row XOR the directions
of the bits of ((k << 1) ^ k) << (m - 1). ``sobol_points`` therefore
returns any run of points, starting anywhere, from at most two blocks,
and builds each by reflected doubling up to the last row it needs. The
table is built dimension-major, a (dim, rows) array: the doubling is the
same XOR taken along the other axis, so each coordinate's points come out
contiguous and a step-major consumer reads them without a gather.

The generalisation is a digital shift: every point is a 30-bit integer
times 2^-30, and the shift XORs those integers with a per-dimension mask
drawn from the shift seed. A half-spacing offset keeps the result strictly
inside the unit cube (every coordinate an odd multiple of 2^-31).

The inverse normal CDF is scipy's ``ndtri``, guarded so that u outside the
open unit interval raises instead of returning an infinity.

``draws_for`` allocates its output arrays once, step-major, and fills them
in blocks of 2^13 points: each block gets its points, quantiles (or
cubature values) and signs, and only the current block is held as uint32
rows and float points.
The blocks run on a pool of min(blocks, cores) threads that the caller
waits on (``parallel.run_shared``); ``ndtri`` and the XOR and multiply
passes release the GIL. A draw of one block starts no thread. Every block
does the arithmetic a whole-range draw does on its rows, so the bits do not
depend on the block size or the thread count.
"""

import os
import zipfile
from dataclasses import dataclass

import numpy as np
import scipy
from numpy.random import SeedSequence
from scipy.special import ndtri

from .errors import (
    DomainError,
    InvalidParameterError,
    MartnetError,
    UnsupportedDimensionError,
    check_count,
)
from .parallel import run_shared
from .schemes import get_scheme

_MAXDIM = 21201
_BITS = 30
_MAXN = 2**_BITS - 1  # the origin and n points fill 2^30 Gray-code rows at most
_DIRECTION_FILE = os.path.join(os.path.dirname(scipy.__file__), "stats", "_sobol_direction_numbers.npz")

SQRT3 = float(np.sqrt(3.0))

_BLOCK = 2**13  # points per draw block: one block's scratch per thread

# (dim, _BITS) uint32 direction numbers, column b the integer that bit b of
# a point's Gray code XORs in; grown on demand. Concurrent callers each build
# and publish their own, so the last to publish wins, larger or not.
_directions = np.empty((0, _BITS), dtype=np.uint32)


@dataclass(frozen=True)
class DrawBlock:
    """Draws shaped [batch, steps, d] plus the extras the scheme's record declares.

    The shapes are logical. ``draws_for`` stores each array step-major, as
    the transpose of a C-contiguous (steps, d, batch) buffer ((steps,
    batch) for lam), so the per-step slices ``eta[:, k]``, ``xi[:, k]`` and
    ``lam[:, k]`` that the kernels read are unit-stride columns. Code that
    indexes the arrays logically sees no difference; a reduction over the
    steps should fix its order (``schemes`` sums over k = 0, 1, ...), since
    numpy's sum order follows the memory layout.

    eta (and xi) hold standard normals, or under ``cubature`` the discrete
    third-order cubature values {-sqrt(3), 0, +sqrt(3)} with masses
    (1/6, 2/3, 1/6), which match standard normal moments through order 5.
    lam, under ``sign``, holds signs that are exactly -1.0 or +1.0.
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


def _gray_rows(directions, first, count):
    """Rows 0 .. count - 1 of an aligned Gray-code block whose row 0 is ``first``, dimension-major.

    Returns a (dim, count) table: column r is row r. Reflected doubling:
    row 2^b + j is row 2^b - 1 - j with bit b's direction XORed in.
    """
    rows = np.empty((directions.shape[0], count), dtype=np.uint32)
    rows[:, 0] = first
    half = 1
    for b in range(_BITS):
        if half >= count:
            break
        span = min(half, count - half)
        np.bitwise_xor(rows[:, half - span : half][:, ::-1], directions[:, b : b + 1], out=rows[:, half : half + span])
        half *= 2
    return rows


def sobol_points(dim, n, scramble_seed=None, start=0):
    """Points ``start`` .. ``start + n - 1`` of the digitally-shifted Sobol' sequence in (0,1)^dim.

    Parameters
    ----------
    dim : int
        Coordinate count, at most 21201.
    n : int
        Number of points, at most 2^30 - 1; 0 returns an empty matrix.
    scramble_seed : int or numpy.random.SeedSequence, optional
        Seed of the digital shift. None applies no shift, exposing the raw
        sequence (first coordinate 0.5, 0.75, 0.25, ...).
    start : int, optional
        Index of the first point returned; ``start + n`` is at most 2^30 - 1.
        Point 0 is the first after the skipped origin.

    Returns
    -------
    numpy.ndarray
        (n, dim) float64, the transpose of a C-contiguous (dim, n) buffer:
        each coordinate's points are contiguous, and ``.T`` is a free view.
    """
    if dim < 1 or dim > _MAXDIM:
        raise UnsupportedDimensionError(f"sobol dimension {dim} outside [1, {_MAXDIM}]")
    if n < 0 or n > _MAXN:
        raise InvalidParameterError(f"point count {n} outside [0, {_MAXN}]")
    if start < 0 or start > _MAXN - n:
        raise InvalidParameterError(f"start {start} outside [0, {_MAXN - n}] for {n} points")
    for name, value, least in (("dim", dim, 1), ("n", n, 0), ("start", start, 0)):
        check_count(name, value, least)  # in range, but a bool or a float such as 2.5 is no count
    check_seed(scramble_seed)
    if n == 0:
        return np.empty((dim, 0)).T
    # Row r holds 2 k_r + 1 for shifted points, 2 k_r unshifted, with k_r the
    # point's 30-bit integer: one exact product by 2^-31 then gives k_r + 1/2
    # or k_r in units of 2^-30. Row 0 is the origin, so point p is row p + 1.
    directions = _direction_numbers(dim) << np.uint32(1)
    if scramble_seed is None:
        shift = np.zeros(dim, dtype=np.uint32)
    else:
        shift = np.random.default_rng(scramble_seed).integers(0, 2**_BITS, size=dim, dtype=np.uint64)
        shift = (2 * shift + 1).astype(np.uint32)
    # Blocks of 2^m >= n rows, so the call's rows lie in at most two. Row
    # k 2^m + j is T[j] ^ base_k (see the module docstring); the doubling
    # started from base_k instead of 0 yields T ^ base_k, XOR being linear.
    m = int(max(n - 1, 1)).bit_length()
    first, stop = start + 1, start + n + 1
    out = np.empty((dim, n))
    for k in range(first >> m, ((stop - 1) >> m) + 1):
        code = ((k << 1) ^ k) << (m - 1)
        bits = [b for b in range(_BITS) if code >> b & 1]
        base = shift ^ np.bitwise_xor.reduce(directions[:, bits], axis=1)
        lo, hi = max(first, k << m), min(stop, (k + 1) << m)
        rows = _gray_rows(directions, base, hi - (k << m))
        np.multiply(rows[:, lo - (k << m) :], 2.0 ** -(_BITS + 1), out=out[:, lo - first : hi - first])
    return out.T


def inv_normal_cdf(u, out=None):
    """Quantile function of the standard normal; raises unless 0 < u < 1.

    ``out``, when given, receives the quantiles and is returned.
    """
    u = np.asarray(u, dtype=np.float64)
    if not (np.all(u > 0.0) and np.all(u < 1.0)):  # NaN fails too
        raise DomainError("inv_normal_cdf requires 0 < u < 1")
    return ndtri(u, out=out)


def _cubature_map(u, out):
    out[...] = SQRT3
    np.copyto(out, 0.0, where=u < 5.0 / 6.0)
    np.copyto(out, -SQRT3, where=u < 1.0 / 6.0)
    return out


def check_seed(seed):
    """Refuse any seed but None, an integer >= 0 or a ``SeedSequence``, naming it.

    numpy's seeding would refuse the others with a bare ValueError or
    TypeError. A generator is refused too: its state would give every draw
    block, in thread order, its own shift.
    """
    if seed is None or isinstance(seed, SeedSequence):
        return
    if not isinstance(seed, (int, np.integer)):
        raise InvalidParameterError(f"seed must be None, an integer >= 0 or a SeedSequence, got {seed!r}")
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")


def dims_for(scheme, d, steps):
    """QMC coordinates consumed per path by each scheme."""
    s = get_scheme(scheme)
    return (s.normals * d + s.sign) * steps


def draws_for(scheme, d, steps, batch, seed=None):
    """Generate the per-path randomness a scheme consumes.

    Coordinates are allocated per step as the scheme's record
    (``schemes.SCHEMES``) lays them out; a sign coordinate is thresholded
    at 1/2 (see ``DrawBlock``). The arrays are stored step-major, so
    ``eta[:, k]`` is a unit-stride column.

    The outputs are allocated once and filled in blocks of 2^13 points on
    a thread pool the caller waits on (``parallel.run_shared``).
    The seed is None, an int >= 0 or a ``SeedSequence`` (see ``check_seed``):
    each block draws the same shift from it.
    """
    check_count("d", d, 1)
    check_count("batch", batch, 1)
    check_count("steps", steps, 0)
    check_seed(seed)
    s = get_scheme(scheme)
    # step-major storage: the transposes of (steps, d, batch) and (steps, batch) buffers
    eta = np.empty((steps, d, batch)).transpose(2, 0, 1)
    xi = np.empty((steps, d, batch)).transpose(2, 0, 1) if s.normals == 2 else None
    lam = np.empty((steps, batch)).T if s.sign else None
    if steps == 0:
        return DrawBlock(eta=eta, xi=xi, lam=lam)

    dim = dims_for(scheme, d, steps)
    # module globals read per call (as is sobol_points in fill), so a rebinding
    # such as the benchmark's layer tracer sees every block
    transform = _cubature_map if s.cubature else inv_normal_cdf

    def fill(lo):
        hi = min(lo + _BLOCK, batch)
        # (steps, coordinates per step, points), C-contiguous like the buffers
        u = sobol_points(dim, hi - lo, seed, start=lo).T.reshape(steps, -1, hi - lo)
        transform(u[:, :d], out=eta[lo:hi].transpose(1, 2, 0))
        if xi is not None:
            transform(u[:, d : 2 * d], out=xi[lo:hi].transpose(1, 2, 0))
        if lam is not None:
            lam[lo:hi] = np.where(u[:, s.normals * d] < 0.5, -1.0, 1.0).T

    run_shared(fill, range(0, batch, _BLOCK))
    return DrawBlock(eta=eta, xi=xi, lam=lam)
