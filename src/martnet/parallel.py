"""One thread-pool helper, shared by the weak-order ladders and the QMC draws.

``run_shared(fn, items)`` calls ``fn`` on every item and returns the results
in item order. The caller submits every item, in order, to a pool of
min(items, cores) threads and waits; with one core or one item no thread is
started and the items run on the caller.

The caller takes the items as they finish. The first exception it meets is
re-raised as the same object, once every item still queued is cancelled and
the running ones have ended. The pool is shut down and joined before
``run_shared`` returns or raises, so no thread outlives the call.

Which thread runs an item never changes its result as long as ``fn`` writes
only to storage of its own item.
"""

import os
from concurrent.futures import ThreadPoolExecutor, as_completed


def cores():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_shared(fn, items):
    """``[fn(item) for item in items]``, on a pool the caller waits on."""
    items = list(items)
    workers = min(len(items), cores())
    if workers < 2:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(fn, item) for item in items]
        try:
            for f in as_completed(futures):
                f.result()
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return [f.result() for f in futures]
