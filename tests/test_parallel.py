import threading

import pytest

from martnet.parallel import run_shared

from conftest import force_cores, pool_shutting_down


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
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


@pytest.mark.parametrize("n, items", [(1, 10), (2, 1), (8, 1)])
def test_one_core_or_one_item_starts_no_thread(monkeypatch, n, items):
    def refuse(thread):
        raise AssertionError("a thread was started")

    force_cores(monkeypatch, n)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    caller = threading.current_thread()
    assert run_shared(lambda x: (x, threading.current_thread() is caller), range(items)) == [
        (x, True) for x in range(items)
    ]


@pytest.mark.parametrize("n", [1, 2, 8])
def test_failure_is_reraised_and_queued_items_never_start(monkeypatch, n):
    # Items 0 .. n - 1 fill the n threads; item n - 1 raises once all of them
    # have started, and the others hold their threads until the pool shuts
    # down. The freed thread may take item n (which then holds too) before the
    # caller sees the failure; nothing queued behind it may start.
    force_cores(monkeypatch, n)
    shutting_down = pool_shutting_down(monkeypatch)
    boom = ValueError("item failed")
    first_wave = threading.Barrier(n)
    started = []
    lock = threading.Lock()

    def item(x):
        with lock:
            started.append(x)
        if x < n:
            first_wave.wait(10)
        if x == n - 1:
            raise boom
        shutting_down.wait(10)
        return x

    threads = threading.active_count()
    with pytest.raises(ValueError) as info:
        run_shared(item, range(n + 3))
    assert info.value is boom
    assert set(range(n)) <= set(started) <= set(range(n + 1 if n > 1 else n))
    assert len(started) == len(set(started))
    assert threading.active_count() == threads
