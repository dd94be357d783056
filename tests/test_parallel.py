import threading

import pytest

from martnet.parallel import run_shared

from conftest import force_cores


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_item_runs_once_and_results_keep_item_order(monkeypatch, n):
    force_cores(monkeypatch, n)
    ran = []
    lock = threading.Lock()

    def square(x):
        with lock:
            ran.append(x)
        return x * x

    threads = threading.active_count()
    assert run_shared(square, range(10)) == [x * x for x in range(10)]
    assert sorted(ran) == list(range(10))
    assert run_shared(square, []) == []
    assert threading.active_count() == threads
