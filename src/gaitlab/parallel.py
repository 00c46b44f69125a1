"""One ordered map over independent jobs, spread over the usable CPUs.

Workers are forked and take the job and the item list through the fork,
unpickled, so a job may be any callable; only item indices go to a worker
and only outcomes come back. A job does all of its item's work in the
worker, down to the text the parent writes, so the parent only collects and
writes. Workers run without the cyclic garbage collector: gaitlab starts
them, runs only its own jobs in them and ends them, so what few reference
cycles those jobs leave go with the worker, and the collector's passes over
the many small objects of parsing buy nothing there. The caller's collector
is never touched. Run ``taskset -c 0 gaitlab ...`` for one process.
"""

from __future__ import annotations

import gc
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


def _outcome(fn, item):
    """fn(item), or the Exception it raised."""
    try:
        return fn(item)
    except Exception as exc:
        return exc


_job = _items = None  # set in a worker only, by _start_worker


def _start_worker(fn, items):
    """A worker's initializer: the fork start method hands a child its
    Process arguments in memory, so fn and items reach it unpickled."""
    global _job, _items
    gc.disable()
    _job, _items = fn, items


def _run(i):
    """A worker's outcome for item i."""
    return _outcome(_job, _items[i])


def ordered_map(fn, items, chunksize: int = 1):
    """Yield each item's outcome in item order: fn(item), or the Exception it
    raised, which the caller decides what to do with; a BaseException that is
    not an Exception propagates. With 2 or more items and CPUs, forked worker
    processes run the items, ``chunksize`` at a time, and an outcome that
    does not pickle raises there; when the caller stops early, or an error
    propagates, pending chunks are cancelled and every worker is joined
    before the generator closes."""
    items = list(items)
    workers = min(len(items), usable_cpus())
    if workers < 2:
        for item in items:
            yield _outcome(fn, item)
        return
    chunksize = min(chunksize, -(-len(items) // workers))  # a chunk for every worker
    import multiprocessing  # 12 ms and 2 MB that a serial run does not pay
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(fn, items))
    try:
        yield from pool.map(_run, range(len(items)), chunksize=chunksize)
    finally:
        pool.shutdown(cancel_futures=True)
