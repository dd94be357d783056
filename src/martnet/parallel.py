"""One thread-pool helper, shared by the weak-order ladders and the QMC draws.

``run_shared(fn, items)`` calls ``fn`` on every item and returns the results
in item order. The calling thread runs the first item while a pool of
min(items, cores) - 1 threads takes the others from the front of the queue;
then the caller takes queued items from the back, one at a time, until none
is left, and waits for the rest. With one core or one item no thread is
started.

An exception in any item is re-raised on the caller as the same object.
The caller checks for one before each item it takes from the queue, and
then cancels every item still queued. The pool is shut down and joined
before ``run_shared`` returns or raises, so no thread outlives the call.

Which thread runs an item never changes its result as long as ``fn`` writes
only to storage of its own item.
"""

import os
from concurrent.futures import ThreadPoolExecutor


def cores():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _raise_failed(futures):
    for f in futures:
        if f.done() and not f.cancelled() and f.exception() is not None:
            raise f.exception()


def run_shared(fn, items):
    """``[fn(item) for item in items]``, with the caller and a pool sharing the work."""
    items = list(items)
    workers = min(len(items), cores()) - 1
    if workers < 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(workers) as pool:
        try:
            futures = [pool.submit(fn, item) for item in items[1:]]
            done = {0: fn(items[0])}
            for i in range(len(futures), 0, -1):
                _raise_failed(futures)
                if not futures[i - 1].cancel():  # a worker has it, and every item before it
                    break
                done[i] = fn(items[i])
            return [done[i] if i in done else futures[i - 1].result() for i in range(len(items))]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
