"""Explicit fixed-step Runge-Kutta integration of order 5, and its adjoint.

Used to realise the frozen-field flows exp(V)x that the splitting schemes
compose, one RK5 step per flow. The step kernel is generic over the state
container: plain ndarrays (possibly batched), and the autodiff Tensors of
the tests' reference tape, and the step length may be a per-path column so
a whole batch of flows with different durations integrates in one call.
``rk5_vjp`` runs a tableau's stages backwards for the martingale column of
a recorded step, the discrete Runge-Kutta adjoint of ``dual``'s gradient
chain: ``RK5`` for a flow, ``EULER`` for an Euler step.
"""

import numpy as np

from .autodiff import Tensor
from .errors import NumericError

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

RK5 = (A, B)
EULER = (((),), (1.0,))  # the one-stage explicit step m + h k_0


def _finite(z):
    data = z.data if isinstance(z, Tensor) else z
    return np.all(np.isfinite(data))


def rk5_step(f, x, h):
    """Advance ``x`` by one RK5 step of length ``h`` along ``f``.

    Parameters
    ----------
    f : callable
        Maps a state to its derivative; time is already bound.
    x : ndarray or Tensor
        State, shaped (..., N) or scalar-like.
    h : float or ndarray
        Step length; may be negative, and may be a (batch, 1) column to
        advance each row by its own duration.

    Returns
    -------
    State of the same kind as ``x``.
    """
    stages = []
    for i in range(len(B)):
        y = x
        for j, aij in enumerate(A[i]):
            if aij != 0.0:
                y = y + (h * aij) * stages[j]
        z = f(y)
        if not _finite(z):
            raise NumericError(f"rk5 stage {i + 1} produced non-finite values")
        stages.append(z)
    out = x
    for j, bj in enumerate(B):
        if bj != 0.0:
            out = out + (h * bj) * stages[j]
    return out


def rk5_vjp(h, g, stage_vjp, acc=None, tableau=RK5):
    """The cotangent of one explicit Runge-Kutta step's input column, given its output's cotangent ``g``.

    The step, by default ``rk5_step``, applies the tableau (a, b) to one
    column m of a state: stage inputs y_s = m + sum_{l<s} h a_sl k_l and output
    m + sum_s h b_s k_s. ``stage_vjp(s, kbar)`` is called for the last stage
    s down to 0 with the stage's cotangent
    kbar_s = g h b_s + sum_{l>s} ybar_l h a_ls (l descending), and returns
    the cotangents its evaluations give y_s, in evaluation order. The
    input's cotangent is acc + g + ybar_{last} + ... + ybar_1, then stage
    0's cotangents one by one, with ybar_s the sum of stage s's. These are
    the float operations, in the order, of the step taped op by op.
    """
    a, b = tableau
    ybar = [None] * len(b)
    for s in reversed(range(len(b))):
        kbar = g * (h * b[s]) if b[s] != 0.0 else None
        for l in range(len(b) - 1, s, -1):
            if a[l][s] != 0.0:
                term = ybar[l] * (h * a[l][s])
                kbar = term if kbar is None else np.add(kbar, term, out=kbar)
        parts = stage_vjp(s, kbar)
        if s > 0:
            ybar[s] = parts[0]
            for p in parts[1:]:
                ybar[s] += p
    out = g.copy() if acc is None else acc + g
    for s in range(len(b) - 1, 0, -1):
        out += ybar[s]
    for p in parts:  # stage 0's, the loop's last
        out += p
    return out


def flow(field, t_eval, x, total_time):
    """Approximate exp(total_time * field) applied to ``x`` by one RK5 step.

    Parameters
    ----------
    field : VectorField or callable
        Evaluated as ``field.eval(t_eval, z)`` (or ``field(t_eval, z)``).
    t_eval : float
        Time label passed through to the field.
    x : ndarray or Tensor
        Starting state.
    total_time : float or ndarray
        Flow duration, possibly per-path (batch, 1).
    """
    eval_fn = field.eval if hasattr(field, "eval") else field
    return rk5_step(lambda z: eval_fn(t_eval, z), x, total_time)
