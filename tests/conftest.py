import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

import martnet as mn
import martnet.parallel
from martnet import dual
from martnet.autodiff import Tensor
from martnet.mlp import MlpParams, DEPTH, HIDDEN
from martnet.rk5 import flow

# Property tests run numpy work of uneven cost, so no per-example deadline;
# a failing run prints the blob that reproduces its example.
settings.register_profile("martnet", deadline=None, print_blob=True)
settings.load_profile("martnet")


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Fail any test that leaves more or fewer threads running than it found."""
    before = threading.active_count()
    yield
    assert threading.active_count() == before, f"threads left running: {threading.enumerate()}"


@pytest.fixture(scope="session")
def bsm():
    return mn.make_bsm_model(100.0, 0.0, 0.32)


@pytest.fixture(scope="session")
def heston():
    return mn.make_heston_model(100.0, 0.32, 0.0, 0.25, 3.0, 0.3, 0.4)


def constant_output_mlp(in_dim, value):
    """Hand-built net whose forward pass is `value` for every input.

    Zero first-layer weights with unit biases drive every hidden unit to 1
    through the ReLU stack; the projection then sums to the target value.
    """
    layers = []
    fan_in = in_dim
    for _ in range(DEPTH):
        layers.append((np.zeros((fan_in, HIDDEN)), np.ones(HIDDEN)))
        fan_in = HIDDEN
    proj = np.full((HIDDEN, 1), value / HIDDEN)
    return MlpParams(layers=layers, proj=proj, seed=0)


def bridge_sup(a, b, sigma, dt, u):
    """A supremum sample of the bridge pinned at (a, b) over a step dt, as the loss forms it: G(u)."""
    sigma, u = dual._bridge_inputs(sigma, u)
    return dual._bridge_g(a, b, sigma * sigma * np.asarray(dt), u)[0][()]  # a scalar for scalar inputs


def traced_peak_bytes(fn):
    """Peak bytes that tracemalloc sees while ``fn()`` runs; tracing always stops."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def force_cores(monkeypatch, n):
    """Make the process report ``n`` usable CPUs for the monkeypatch's lifetime."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)


def pool_shutting_down(monkeypatch):
    """An event set once ``run_shared``'s pool has begun to shut down.

    A shutdown that cancels the queued items does so before the event is set,
    so an item that waits on it holds its thread until nothing queued can start.
    """
    event = threading.Event()

    class Pool(martnet.parallel.ThreadPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait=False, cancel_futures=cancel_futures)
            event.set()
            super().shutdown(wait=wait)

    monkeypatch.setattr(martnet.parallel, "ThreadPoolExecutor", Pool)
    return event


def flow_substeps(field, t, x, total_time, substeps):
    """``substeps`` equal RK5 flows covering ``total_time``; ``rk5.flow`` takes one."""
    h = total_time / substeps if substeps > 1 else total_time
    for _ in range(substeps):
        x = flow(field, t, x, h)
    return x


def count_tensors(monkeypatch):
    """A list that gains one entry per Tensor made for the monkeypatch's lifetime."""
    made = []
    real_init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        made.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    return made
