import math
import time

import numpy as np
import pytest
from scipy.stats import binom

from martnet.oracles import (
    binomial_american_put,
    bs_european_put,
    DEFAULT_TREE_STEPS,
    _phi,
)
from martnet.errors import InvalidParameterError


def test_binomial_atm_reference():
    price = binomial_american_put(100.0, 100.0, 0.32, 1.0, 0.0)
    assert abs(price - 12.66) < 0.01


def test_binomial_runtime():
    start = time.perf_counter()
    binomial_american_put(100.0, 100.0, 0.32, 1.0, 0.0)
    assert time.perf_counter() - start < 1.0


def test_binomial_deep_itm():
    # far in the money: early exercise pins the intrinsic value
    price = binomial_american_put(1.0, 100.0, 0.32, 1.0, 0.05, steps=200)
    assert abs(price - 99.0) < 0.5


def test_binomial_zero_vol_limit():
    price = binomial_american_put(80.0, 100.0, 1e-8, 1.0, 0.0, steps=100)
    assert abs(price - 20.0) < 1e-6


def test_binomial_convergence_plateau():
    a = binomial_american_put(100.0, 100.0, 0.32, 1.0, 0.0, steps=2000)
    b = binomial_american_put(100.0, 100.0, 0.32, 1.0, 0.0, steps=4000)
    assert abs(a - b) < 0.02


def test_american_dominates_european():
    # price the European on the same tree so discretisation bias cancels
    steps = 500
    for r in (0.0, 0.03, 0.08):
        am = binomial_american_put(100.0, 100.0, 0.32, 1.0, r, steps=steps)
        dt = 1.0 / steps
        u = np.exp(0.32 * np.sqrt(dt))
        d = 1.0 / u
        p = (np.exp(r * dt) - d) / (u - d)
        j = np.arange(steps + 1)
        terminal = np.maximum(100.0 - 100.0 * u**j * d ** (steps - j), 0.0)
        eu = np.exp(-r) * float(binom.pmf(j, steps, p) @ terminal)
        assert am >= eu - 1e-9


def test_binomial_monotone_in_vol():
    prices = [
        binomial_american_put(100.0, 100.0, s, 1.0, 0.0, steps=300)
        for s in (0.1, 0.2, 0.32, 0.5)
    ]
    assert all(a < b for a, b in zip(prices, prices[1:]))


def test_bs_put_frozen_value():
    assert abs(bs_european_put(100.0, 100.0, 0.32, 1.0, 0.0) - 12.7118925783) < 1e-9


def bs_european_call(S0, K, sigma, T, r):
    """Black-Scholes call, the put's parity partner: S0 N(d1) - K exp(-rT) N(d2)."""
    v = sigma * math.sqrt(T)
    d1 = (math.log(S0 / K) + (r + 0.5 * sigma * sigma) * T) / v
    d2 = d1 - v
    return float(S0 * _phi(d1) - K * math.exp(-r * T) * _phi(d2))


def test_bs_put_call_parity():
    S0, K, sigma, T, r = 105.0, 98.0, 0.27, 1.3, 0.04
    c = bs_european_call(S0, K, sigma, T, r)
    p = bs_european_put(S0, K, sigma, T, r)
    assert abs((c - p) - (S0 - K * np.exp(-r * T))) < 1e-10


def test_bs_put_bounds():
    p = bs_european_put(100.0, 100.0, 0.32, 1.0, 0.0)
    assert 0.0 < p < 100.0
    # vanishing volatility: ATM put worthless at r=0
    assert bs_european_put(100.0, 100.0, 1e-9, 1.0, 0.0) < 1e-6


def test_default_steps_constant():
    assert DEFAULT_TREE_STEPS == 64
    explicit = binomial_american_put(100.0, 100.0, 0.32, 1.0, 0.0, steps=64)
    default = binomial_american_put(100.0, 100.0, 0.32, 1.0, 0.0)
    assert explicit == default


def test_oracle_parameter_validation():
    with pytest.raises(InvalidParameterError):
        binomial_american_put(100.0, 100.0, -0.1, 1.0, 0.0)
    with pytest.raises(InvalidParameterError):
        binomial_american_put(100.0, 100.0, 0.32, 1.0, 0.0, steps=0)
    with pytest.raises(InvalidParameterError):
        bs_european_put(-1.0, 100.0, 0.32, 1.0, 0.0)
