"""Independent reference prices: CRR binomial American put, Black-Scholes put.

The binomial default of 64 steps reproduces the reference value 12.66 for
the (100, 100, 0.32, 1, 0) configuration; the tree converges to
the continuous-time price as steps grow (at r = 0 that limit coincides with
the European value), so callers wanting the converged figure should pass a
large explicit step count.
"""

import math

import numpy as np
from scipy.special import erfc

from .errors import InvalidParameterError

DEFAULT_TREE_STEPS = 64


def binomial_american_put(S0, K, sigma, T, r, steps=DEFAULT_TREE_STEPS):
    """CRR tree price with early exercise at every node.

    u = exp(sigma sqrt(T/steps)), d = 1/u, p = (exp(r dt) - d)/(u - d);
    backward induction takes max(continuation, K - S) nodewise.
    """
    if steps < 1:
        raise InvalidParameterError("binomial tree needs steps >= 1")
    if S0 <= 0 or K <= 0 or T <= 0:
        raise InvalidParameterError("binomial tree needs positive S0, K, T")
    if sigma < 0:
        raise InvalidParameterError("binomial tree needs sigma >= 0")
    dt = T / steps
    if sigma * math.sqrt(dt) < 1e-12:
        # degenerate tree: the asset is deterministic
        return max(K - S0, 0.0)
    u = math.exp(sigma * math.sqrt(dt))
    d = 1.0 / u
    p = (math.exp(r * dt) - d) / (u - d)
    if not 0.0 < p < 1.0:
        raise InvalidParameterError(f"risk-neutral weight p={p:.4f} outside (0,1); step too coarse")
    disc = math.exp(-r * dt)
    j = np.arange(steps + 1)
    stock = S0 * u**j * d ** (steps - j)
    value = np.maximum(K - stock, 0.0)
    for i in range(steps - 1, -1, -1):
        value = disc * (p * value[1 : i + 2] + (1.0 - p) * value[: i + 1])
        stock = S0 * u ** np.arange(i + 1) * d ** (i - np.arange(i + 1))
        value = np.maximum(value, K - stock)
    return float(value[0])


def _phi(x):
    return 0.5 * erfc(-x / math.sqrt(2.0))


def bs_european_put(S0, K, sigma, T, r):
    """Black-Scholes put via the high-accuracy complementary error function."""
    if sigma <= 0 or T <= 0:
        raise InvalidParameterError("bs_european_put needs sigma > 0 and T > 0")
    if S0 <= 0 or K <= 0:
        raise InvalidParameterError("bs_european_put needs positive S0 and K")
    v = sigma * math.sqrt(T)
    d1 = (math.log(S0 / K) + (r + 0.5 * sigma * sigma) * T) / v
    d2 = d1 - v
    return float(K * math.exp(-r * T) * _phi(-d2) - S0 * _phi(-d1))

