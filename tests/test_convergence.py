import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import martnet as mn
import martnet.convergence
import martnet.parallel
from martnet.convergence import _terminal_weights
from martnet.errors import NumericError, UsageError
from martnet.qmc import draws_for
from martnet.schemes import simulate, uniform_partition

from conftest import force_cores as _force_cores

LADDERS = {"em": [2, 4, 8], "cub3": [1, 2, 4], "nv": [1, 2, 4], "nn": [1, 3, 4]}
POINTS = 2**11


def _reference_ladder(model, scheme, counts, points, seed, proto):
    """The ladder with a fresh draw block per rung, written out in full."""
    s0, mu, sigma = (float(model.params[k]) for k in ("S0", "mu", "sigma"))
    strike = float(model.payoff.strike)
    ref_direct = float(np.exp(mu) * mn.bs_european_put(s0, strike, sigma, 1.0, r=mu))
    errs = []
    for steps in counts:
        draws = draws_for(scheme, model.d, steps, points, seed=seed)
        states = simulate(model, scheme, uniform_partition(1.0, steps), draws)
        price = float(np.maximum(strike - states[:, -1, 0], 0.0).mean())
        if proto == "direct":
            err = abs(price - ref_direct)
        else:
            w = _terminal_weights(scheme, draws)
            exact = s0 * np.exp(mu - 0.5 * sigma * sigma + sigma * np.sqrt(1.0 / steps) * w)
            err = abs(price - float(np.maximum(strike - exact, 0.0).mean()))
        errs.append(max(err, 1e-16))
    slope = float(np.polyfit(np.log2(counts), np.log2(errs), 1)[0])
    return errs, slope


@pytest.mark.parametrize("proto", ["direct", "paired"])
@pytest.mark.parametrize("scheme", sorted(LADDERS))
def test_ladder_equals_per_rung_draws(bsm, scheme, proto):
    # one draw block per ladder, each rung its prefix: the same bits as a block per rung
    counts = LADDERS[scheme]
    rows = mn.run_convergence(bsm, scheme, counts, POINTS, seed=5, protocol=proto)
    errs, slope = _reference_ladder(bsm, scheme, counts, POINTS, 5, proto)
    assert [r.steps for r in rows] == counts
    assert [r.abs_err for r in rows] == errs
    assert all(r.slope == slope for r in rows)


@pytest.mark.parametrize("proto", ["direct", "paired"])
@pytest.mark.parametrize("scheme", sorted(LADDERS))
def test_core_count_does_not_change_rows(bsm, monkeypatch, scheme, proto):
    counts = LADDERS[scheme]
    real_start = threading.Thread.start
    starts = []

    def refuse(thread):
        raise AssertionError("a thread was started at one core")

    def count(thread):
        starts.append(thread)
        real_start(thread)

    with monkeypatch.context() as m:
        _force_cores(m, 1)
        m.setattr(threading.Thread, "start", refuse)
        serial = mn.run_convergence(bsm, scheme, counts, POINTS, seed=5, protocol=proto)
    interval = sys.getswitchinterval()
    with monkeypatch.context() as m:
        _force_cores(m, 8)
        m.setattr(threading.Thread, "start", count)
        sys.setswitchinterval(1e-6)  # more threads than cores, switching often
        try:
            pooled = mn.run_convergence(bsm, scheme, counts, POINTS, seed=5, protocol=proto)
        finally:
            sys.setswitchinterval(interval)
    assert 1 <= len(starts) <= len(counts) - 1
    errs, slope = _reference_ladder(bsm, scheme, counts, POINTS, 5, proto)
    for rows in (serial, pooled):
        assert [r.steps for r in rows] == counts
        assert [r.abs_err for r in rows] == errs
        assert all(r.slope == slope for r in rows)


@pytest.mark.parametrize("failing", ["caller", "worker"])
def test_rung_error_propagates_and_cancels_queued_rungs(bsm, monkeypatch, failing):
    # At two cores one worker takes rungs 4, 2, 1 in turn while the caller
    # runs 8, which waits until the held rung has started. The failing rung
    # raises; the held rung waits until the pool is shutting down, by which
    # time every rung still queued must be cancelled.
    fail_at, held, expected = {"caller": (8, 4, [4, 8]), "worker": (4, 2, [2, 4, 8])}[failing]
    boom = NumericError("rung failed")
    started = []
    worker_busy, shutting_down = threading.Event(), threading.Event()
    real_kernel = martnet.convergence.step_kernel

    def kernel(model, scheme, draws, *args):
        steps = draws.eta.shape[1]
        started.append(steps)
        if steps == 8:
            worker_busy.wait(10)
        if steps == held:
            worker_busy.set()
            shutting_down.wait(10)
        if steps != fail_at:
            return real_kernel(model, scheme, draws, *args)

        def failing_step(*step_args):
            raise boom

        return failing_step

    class Pool(ThreadPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait=False, cancel_futures=cancel_futures)
            shutting_down.set()
            super().shutdown(wait=wait)

    _force_cores(monkeypatch, 2)
    monkeypatch.setattr(martnet.convergence, "step_kernel", kernel)
    monkeypatch.setattr(martnet.parallel, "ThreadPoolExecutor", Pool)
    threads = threading.active_count()
    with pytest.raises(NumericError) as info:
        mn.run_convergence(bsm, "nv", [1, 2, 4, 8], 64, protocol="paired")
    assert info.value is boom
    assert sorted(started) == expected
    assert threading.active_count() == threads


@settings(max_examples=30)
@given(
    scheme=st.sampled_from(["em", "cub3", "nv", "nn"]),
    d=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    top=st.integers(min_value=1, max_value=12),
    data=st.data(),
)
def test_draws_are_prefix_stable(scheme, d, seed, top, data):
    s = data.draw(st.integers(min_value=0, max_value=top), label="s")
    full = draws_for(scheme, d, top, 64, seed=seed)
    part = draws_for(scheme, d, s, 64, seed=seed)
    for name in ("eta", "xi", "lam"):
        a, b = getattr(full, name), getattr(part, name)
        if s == 0 or a is None:
            assert b is None or b.size == 0
        else:
            assert b.shape == a[:, :s].shape
            assert b.tobytes() == np.ascontiguousarray(a[:, :s]).tobytes()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"scheme": "euler"},
        {"step_counts": [2, 1]},
        {"step_counts": [1, 1]},
        {"protocol": "exact"},
        {"qmc_points": 0},
    ],
    ids=["unknown-scheme", "descending", "repeated", "bad-protocol", "points-0"],
)
def test_usage_errors(bsm, kwargs):
    args = {"model": bsm, "scheme": "nv", "step_counts": [1, 2], "qmc_points": 64, **kwargs}
    with pytest.raises(UsageError):
        mn.run_convergence(**args)


def test_heston_is_a_usage_error(heston):
    with pytest.raises(UsageError):
        mn.run_convergence(heston, "nv", [1, 2], 64)
