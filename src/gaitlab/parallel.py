"""One ordered map over independent jobs, spread over the usable CPUs.

Workers are forked, so they start with the caller's modules and state; a
job and its item are pickled to a worker and its result back. Run
``taskset -c 0 gaitlab ...`` for one process.
"""

from __future__ import annotations

import os
import threading

FILE_CHUNK = 8  # files a worker process takes at a time in extract and synth


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where that is unknown (no
    os.sched_getaffinity, as on macOS and Windows) or where another thread
    runs, since forking a threaded process is unsafe."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def ordered_map(fn, items, chunksize: int = 1):
    """Yield fn(item) for each item in order, as the builtin map does. With 2
    or more items and CPUs, forked worker processes run the items, ``chunksize``
    at a time; an error is raised when its chunk's turn comes, and then, as
    when the caller stops early, pending chunks are cancelled and every worker
    is joined before the error leaves."""
    items = list(items)
    workers = min(len(items), usable_cpus())
    if workers < 2:
        yield from map(fn, items)
        return
    chunksize = min(chunksize, -(-len(items) // workers))  # a chunk for every worker
    import multiprocessing  # 12 ms and 2 MB that a serial run does not pay
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        yield from pool.map(fn, items, chunksize=chunksize)
    finally:
        pool.shutdown(cancel_futures=True)
