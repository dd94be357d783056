import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

import martnet as mn
from martnet.mlp import MlpParams, DEPTH, HIDDEN

# Property tests run numpy work of uneven cost, so no per-example deadline;
# a failing run prints the blob that reproduces its example.
settings.register_profile("martnet", deadline=None, print_blob=True)
settings.load_profile("martnet")


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


def traced_peak_bytes(fn):
    """Peak bytes that tracemalloc sees while ``fn()`` runs; tracing always stops."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
