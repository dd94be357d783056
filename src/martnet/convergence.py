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
not depend on how many are asked for. A rung steps its running state
through the scheme's kernel and keeps only the terminal state.

The rungs of a ladder run concurrently. The draws are made first, in row
blocks shared by the calling thread and a pool (see ``qmc``). Then the
rungs go to ``parallel.run_shared``, longest first: the longest runs on the
calling thread, the others on a thread pool with one worker fewer than
min(rungs, cores), and the caller takes queued rungs from the shortest end
once its own is done; with one core or one rung no thread is started.
Numpy's elementwise ufuncs release the GIL on arrays this size, so rungs
overlap. The bits do not depend on the thread count: each rung does the
same arithmetic, in the same order, on arrays of its own, reading but never
writing the shared draw block, and the errors are put back in step-count
order before the fit. That holds only while rung code touches no module
state.
"""

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .oracles import bs_european_put
from .parallel import run_shared
from .qmc import DrawBlock, draws_for
from .schemes import NN_R11, nn_zeta, step_kernel, uniform_partition
# Not called here: the benchmark's layer tracer rebinds
# martnet.convergence.simulate and fails at import when the name is missing.
from .schemes import simulate  # noqa: F401

_SCHEMES = ("em", "cub3", "nv", "nn")


@dataclass(frozen=True)
class ConvergenceRow:
    """One ladder rung: step count, absolute error, shared fitted slope."""

    steps: int
    abs_err: float
    slope: object


def _terminal_weights(scheme, draws):
    if scheme != "nn":
        return draws.eta[:, :, 0].sum(axis=1)
    zeta = nn_zeta(draws.eta, draws.xi)
    return (np.sqrt(NN_R11) * draws.eta[:, :, 0] + zeta[:, :, 0]).sum(axis=1)


def run_convergence(model, scheme, step_counts, qmc_points, seed=0, protocol="auto"):
    """Weak-error ladder for a scheme on the lognormal model.

    Returns a list of ConvergenceRow, one per step count, each carrying the
    common least-squares slope (None when the ladder has a single rung).

    The rungs run through ``parallel.run_shared``, longest first on the
    calling thread, so the errors are bit for bit those of a serial ladder
    whatever the core count. An exception in any rung is re-raised here,
    and rungs not yet started are cancelled.
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
    if qmc_points < 1:
        raise UsageError("the point count must be >= 1")
    if protocol not in ("auto", "direct", "paired"):
        raise UsageError(f"unknown protocol: {protocol!r}")
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
    proto = protocol if protocol != "auto" else ("direct" if scheme == "em" else "paired")

    s0 = float(model.params["S0"])
    mu = float(model.params["mu"])
    sigma = float(model.params["sigma"])
    strike = float(model.payoff.strike)
    T = 1.0
    # Undiscounted E[max(K - S_T, 0)] under drift mu equals the rate-mu
    # Black-Scholes put compounded forward.
    ref_direct = float(np.exp(mu * T) * bs_european_put(s0, strike, sigma, T, r=mu))

    top = draws_for(scheme, model.d, counts[-1], qmc_points, seed=seed)

    def rung(steps):
        part = uniform_partition(T, steps)
        draws = DrawBlock(*(a if a is None else a[:, :steps] for a in (top.eta, top.xi, top.lam)))
        step = step_kernel(model, scheme, draws)
        times, deltas = part.times, part.deltas
        x = np.full((qmc_points, model.N), model.x0)
        for k in range(steps):
            x = step(x, None, k, float(times[k]), float(deltas[k]))
        terminal = x[:, 0]
        price = float(np.maximum(strike - terminal, 0.0).mean())
        if proto == "direct":
            err = abs(price - ref_direct)
        else:
            w = _terminal_weights(scheme, draws)
            dt = T / steps
            exact = s0 * np.exp((mu - 0.5 * sigma * sigma) * T + sigma * np.sqrt(dt) * w)
            ref = float(np.maximum(strike - exact, 0.0).mean())
            err = abs(price - ref)
        return max(err, 1e-16)

    errs = run_shared(rung, counts[::-1])[::-1]

    slope = None
    if len(counts) >= 2:
        slope = float(np.polyfit(np.log2(counts), np.log2(errs), 1)[0])
    return [ConvergenceRow(steps=c, abs_err=e, slope=slope) for c, e in zip(counts, errs)]
