"""Explicit fixed-step Runge-Kutta integration of order 5.

Used to realise the frozen-field flows exp(V)x that the splitting schemes
compose. The step kernel is generic over the state container: plain
ndarrays (possibly batched) and autodiff Tensors both work, and the step
length may be a per-path column so a whole batch of flows with different
durations integrates in one call. A joint state is a tuple of parts, for
example (X, m) with the martingale beside the asset; its field returns one
derivative per part and the stages combine the parts one by one.
"""

import numpy as np

from .autodiff import Tensor
from .errors import InvalidParameterError, NumericError

# 6-stage tableau; the weights sum to one and the resulting update matches
# the exponential series through h^5 (the h^6 coefficient is 1/1280, the
# order-5 defect checked by the order tests).
A = (
    (),
    (2 / 5,),
    (11 / 64, 5 / 64),
    (0.0, 0.0, 1 / 2),
    (3 / 64, -15 / 64, 3 / 8, 9 / 16),
    (0.0, 5 / 7, 6 / 7, -12 / 7, 8 / 7),
)
B = (7 / 90, 0.0, 32 / 90, 12 / 90, 32 / 90, 7 / 90)

STAGES = len(B)


def _finite(z):
    if isinstance(z, tuple):
        return all(_finite(part) for part in z)
    data = z.data if isinstance(z, Tensor) else z
    return np.all(np.isfinite(data))


def _axpy(y, c, z):
    """y + c * z, part by part for a joint state."""
    if isinstance(y, tuple):
        return tuple(a + c * b for a, b in zip(y, z))
    return y + c * z


def rk5_step(f, x, h):
    """Advance ``x`` by one RK5 step of length ``h`` along ``f``.

    Parameters
    ----------
    f : callable
        Maps a state to its derivative; time is already bound.
    x : ndarray, Tensor, or a tuple of them
        State, shaped (..., N) or scalar-like; a tuple is a joint state and
        ``f`` then returns a tuple of congruent derivatives.
    h : float or ndarray
        Step length; may be negative, and may be a (batch, 1) column to
        advance each row by its own duration.

    Returns
    -------
    State of the same kind as ``x``.
    """
    stages = []
    for i in range(STAGES):
        y = x
        for j, aij in enumerate(A[i]):
            if aij != 0.0:
                y = _axpy(y, h * aij, stages[j])
        z = f(y)
        if not _finite(z):
            raise NumericError(f"rk5 stage {i + 1} produced non-finite values")
        stages.append(z)
    out = x
    for j, bj in enumerate(B):
        if bj != 0.0:
            out = _axpy(out, h * bj, stages[j])
    return out


def flow(field, t_eval, x, total_time, substeps=1):
    """Approximate exp(total_time * field) applied to ``x``.

    Parameters
    ----------
    field : VectorField or callable
        Evaluated as ``field.eval(t_eval, z)`` (or ``field(t_eval, z)``).
    t_eval : float
        Time label passed through to the field.
    x : ndarray, Tensor, or a tuple of them
        Starting state; a tuple is a joint state (see ``rk5_step``).
    total_time : float or ndarray
        Flow duration, possibly per-path (batch, 1).
    substeps : int
        Number of equal RK5 steps covering the duration.
    """
    if substeps < 1:
        raise InvalidParameterError("substeps must be >= 1")
    eval_fn = field.eval if hasattr(field, "eval") else field

    def f(z):
        return eval_fn(t_eval, z)

    h = total_time / substeps if substeps > 1 else total_time
    for _ in range(substeps):
        x = rk5_step(f, x, h)
    return x
