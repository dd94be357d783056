"""Empirical weak-order measurement on the one-dimensional lognormal model.

The study prices a European put at T under each scheme across a ladder of
step counts and regresses log2 |error| on log2 steps. Two protocols:

direct
    Error against the closed-form put value. The QMC integration error
    floors this protocol; push the point count up when the discretisation
    error is small.
paired
    Error against the exact lognormal terminal state built from the same
    driving draws. Common draws cancel the integration error, leaving the
    scheme's own defect, so coarse ladders resolve cleanly. The exact
    reference exponent sums the per-step Brownian weights: the Gaussian
    (or cubature) draws themselves, or the combined two-factor increment
    for the split-Gaussian scheme.

A ladder draws once, at its top rung, and every rung runs on the first
``steps`` steps of that block. Those are exactly the draws the rung would
make alone: coordinates are allocated per step, unscrambled Sobol'
dimensions do not depend on how many follow, and the digital shift's
per-dimension masks come from one generator stream whose first k values do
not depend on how many are asked for.
"""

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .oracles import bs_european_put
from .qmc import DrawBlock, draws_for
from .schemes import nn_constants, simulate, uniform_partition

_SCHEMES = ("em", "cub3", "nv", "nn")


@dataclass(frozen=True)
class ConvergenceRow:
    """One ladder rung: step count, absolute error, shared fitted slope."""

    steps: int
    abs_err: float
    slope: object


def _terminal_weights(scheme, draws, u, sign):
    if scheme != "nn":
        return draws.eta[:, :, 0].sum(axis=1)
    _, _, r11, r22, r12 = nn_constants(u, sign)
    zeta = (r12 / np.sqrt(r11)) * draws.eta + np.sqrt(r22 - r12 * r12 / r11) * draws.xi
    return (np.sqrt(r11) * draws.eta[:, :, 0] + zeta[:, :, 0]).sum(axis=1)


def run_convergence(
    model,
    scheme,
    step_counts,
    qmc_points,
    seed=0,
    protocol="auto",
    substeps=1,
    u=0.5,
    sign=1,
):
    """Weak-error ladder for a scheme on the lognormal model.

    Returns a list of ConvergenceRow, one per step count, each carrying the
    common least-squares slope (None when the ladder has a single rung).
    """
    if getattr(model, "name", None) != "bsm":
        raise UsageError("convergence study supports the lognormal model only")
    if scheme not in _SCHEMES:
        raise UsageError(f"unknown scheme for convergence study: {scheme!r}")
    counts = [int(c) for c in step_counts]
    if not counts or any(c < 1 for c in counts):
        raise UsageError("step counts must be positive")
    if sorted(set(counts)) != counts:
        raise UsageError("step counts must be strictly ascending")
    if substeps < 1 or qmc_points < 1:
        raise UsageError("substeps and the point count must be >= 1")
    if protocol not in ("auto", "direct", "paired"):
        raise UsageError(f"unknown protocol: {protocol!r}")
    proto = protocol if protocol != "auto" else ("direct" if scheme == "em" else "paired")

    s0 = float(model.params["S0"])
    mu = float(model.params["mu"])
    sigma = float(model.params["sigma"])
    strike = float(model.payoff.strike)
    T = 1.0
    # Undiscounted E[max(K - S_T, 0)] under drift mu equals the rate-mu
    # Black-Scholes put compounded forward.
    ref_direct = float(np.exp(mu * T) * bs_european_put(s0, strike, sigma, T, r=mu))

    mode = "cubature" if scheme == "cub3" else "gaussian"
    top = draws_for(scheme, model.d, counts[-1], qmc_points, mode=mode, seed=seed)
    errs = []
    for steps in counts:
        part = uniform_partition(T, steps)
        draws = DrawBlock(*(a if a is None else a[:, :steps] for a in (top.eta, top.xi, top.lam)))
        paths = simulate(model, scheme, part, draws, substeps=substeps, u=u, sign=sign)
        terminal = paths.states[:, -1, 0]
        price = float(np.maximum(strike - terminal, 0.0).mean())
        if proto == "direct":
            err = abs(price - ref_direct)
        else:
            w = _terminal_weights(scheme, draws, u, sign)
            dt = T / steps
            exact = s0 * np.exp((mu - 0.5 * sigma * sigma) * T + sigma * np.sqrt(dt) * w)
            ref = float(np.maximum(strike - exact, 0.0).mean())
            err = abs(price - ref)
        errs.append(max(err, 1e-16))

    slope = None
    if len(counts) >= 2:
        slope = float(np.polyfit(np.log2(counts), np.log2(errs), 1)[0])
    return [ConvergenceRow(steps=c, abs_err=e, slope=slope) for c, e in zip(counts, errs)]
