"""One ordered map over independent jobs, spread over the usable CPUs.

The map forks its workers itself, and a worker takes the job and the item
list through the fork, unpickled, so a job may be any callable. Each worker
has two pipes. Its task pipe carries chunk numbers down, 4 bytes each: the
parent hands a worker its next chunk as it returns the last one, so a chunk
goes to whichever worker is idle and none waits behind a long one. The
parent closes the task pipe when no chunk is left, which ends the worker.
Its result pipe carries each chunk's outcomes back up as one pickle after
an 8-byte length, or the exception the parent is to raise in their place.
The parent waits on the result pipes with ``selectors`` and holds chunks
that finish early until their turn; it starts no thread. A new worker
closes the parent's ends of the pipes of every live worker, its own and
those of every other map, so a worker whose parent closes its task pipe or
dies sees that pipe end, or its result pipe break, and exits; a worker that
dies makes the parent raise instead of wait. A job does all of its item's
work in the worker, down to the text the parent writes, so the parent only
collects and writes. Workers run without the cyclic garbage collector:
gaitlab starts them, runs only its own jobs in them and ends them, so what
few reference cycles those jobs leave go with the worker, and the
collector's passes over the many small objects of parsing buy nothing
there. The caller's collector is never touched. Run
``taskset -c 0 gaitlab ...`` for one process.
"""

from __future__ import annotations

import gc
import os
import pickle
import selectors
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


def _serve(fn, items, chunksize, tasks, results):
    """A worker's loop: run each chunk whose number comes down ``tasks`` and
    write its outcomes to ``results``, until ``tasks`` ends."""
    gc.disable()
    while number := os.read(tasks, 4):
        start = int.from_bytes(number, "little") * chunksize
        try:
            outcomes = [_outcome(fn, item) for item in items[start:start + chunksize]]
        except BaseException as exc:  # raised by the parent in this chunk's turn
            outcomes = exc
        try:
            data = pickle.dumps(outcomes)
        except Exception as exc:  # an outcome that does not pickle
            data = pickle.dumps(exc)
        for part in (len(data).to_bytes(8, "little"), data):
            view = memoryview(part)
            while view:
                view = view[os.write(results, view):]


def _read(fd, n):
    """n bytes from fd, or None if it ends first."""
    data = bytearray(n)
    view, got = memoryview(data), 0
    while got < n:
        read = os.readv(fd, [view[got:]])
        if not read:
            return None
        got += read
    return data


_parent_ends = set()  # the parent's pipe ends of every live worker, of every map


class _Worker:
    """A forked worker, seen from the parent: its pid, the parent's ends of
    its task and result pipes, and the number of the chunk it runs, or None
    while it is idle."""

    def __init__(self, fn, items, chunksize):
        task_r, self.task = os.pipe()
        self.result, result_w = os.pipe()
        self.chunk = None
        _parent_ends.update((self.task, self.result))
        try:
            self.pid = os.fork()
        except BaseException:
            _parent_ends.difference_update((self.task, self.result))
            for fd in (task_r, self.task, self.result, result_w):
                os.close(fd)
            raise
        if self.pid == 0:
            status = 1
            try:
                for fd in _parent_ends:
                    os.close(fd)
                _parent_ends.clear()
                _serve(fn, items, chunksize, task_r, result_w)
                status = 0
            finally:
                os._exit(status)
        os.close(task_r)
        os.close(result_w)

    def send(self, chunk):
        """Hand the idle worker chunk number ``chunk``; None closes its task
        pipe, which ends it."""
        if chunk is not None:
            self.chunk = chunk
            try:
                os.write(self.task, chunk.to_bytes(4, "little"))
            except BrokenPipeError:  # it died: receive says how
                pass
        elif self.task is not None:
            _parent_ends.discard(self.task)
            os.close(self.task)
            self.task = None

    def receive(self):
        """(chunk number, its outcomes or the exception to raise) of the
        chunk it ran, which leaves it idle; a RuntimeError if it died first."""
        head = _read(self.result, 8)
        data = head and _read(self.result, int.from_bytes(head, "little"))
        if data is None:
            _, status = os.waitpid(self.pid, 0)
            self.pid = None
            raise RuntimeError(f"a worker process ended with exit status "
                               f"{os.waitstatus_to_exitcode(status)} before returning its items")
        chunk, self.chunk = self.chunk, None
        return chunk, pickle.loads(data)

    def close(self):
        """Close the parent's ends: the worker stops after its current chunk."""
        self.send(None)
        _parent_ends.discard(self.result)
        os.close(self.result)

    def reap(self):
        if self.pid is not None:
            os.waitpid(self.pid, 0)


def ordered_map(fn, items, chunksize: int = 1):
    """Yield each item's outcome in item order: fn(item), or the Exception it
    raised, which the caller decides what to do with; a BaseException that is
    not an Exception is raised in its chunk's turn. With 2 or more items and
    CPUs, forked worker processes run the items, ``chunksize`` at a time; an
    outcome that does not pickle raises, and so does a worker that dies.
    When the caller stops early, or an error propagates, the chunks not yet
    started are cancelled and every worker is reaped before the generator
    closes."""
    items = list(items)
    n_workers = min(len(items), usable_cpus())
    if n_workers < 2:
        for item in items:
            yield _outcome(fn, item)
        return
    chunksize = min(chunksize, -(-len(items) // n_workers))  # a chunk for every worker
    n_chunks = -(-len(items) // chunksize)
    sent = 0  # chunks sent, in chunk order
    ready = {}  # chunk number -> what it returned, until its turn
    workers = []

    def feed(worker):
        """Hand an idle worker the next chunk, or close its task pipe once no
        chunk is left."""
        nonlocal sent
        if sent == n_chunks:
            worker.send(None)
        else:
            worker.send(sent)
            sent += 1

    try:
        for _ in range(n_workers):
            workers.append(_Worker(fn, items, chunksize))
        with selectors.DefaultSelector() as selector:
            for worker in workers:
                selector.register(worker.result, selectors.EVENT_READ, worker)
                feed(worker)
            for turn in range(n_chunks):
                while turn not in ready:
                    for key, _ in selector.select():
                        worker = key.data
                        chunk, ready[chunk] = worker.receive()
                        feed(worker)
                        if worker.chunk is None:
                            selector.unregister(worker.result)
                outcomes = ready.pop(turn)
                if isinstance(outcomes, BaseException):
                    raise outcomes
                yield from outcomes
    finally:
        for worker in workers:
            worker.close()
        for worker in workers:
            worker.reap()
