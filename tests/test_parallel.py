import contextlib
import gc
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from gaitlab import classify, errors, parallel

SRC = Path(__file__).resolve().parent.parent / "src"


def _square_and_pid(x):
    return x * x, os.getpid()


def _refuse_three(x):
    if x == 3:
        raise errors.ParseError("refused", line=x)
    return x


def _mark_and_refuse_first(item):
    path, i = item
    if i == 0:
        raise ValueError("first item refused")
    time.sleep(0.05)
    Path(path, str(i)).touch()
    return i


class _Halt(BaseException):
    pass


def _halt_at_three(x):
    if x == 3:
        raise _Halt(x)
    return x


def _collector_is_on(_):
    return gc.isenabled()


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPU count that ordered_map sees."""
    def set_cpus(n):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: n)
    return set_cpus


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("chunksize", [1, 3])
def test_ordered_map_keeps_item_order(cpus, n, chunksize):
    """Results come in item order on both paths; with 2 CPUs forked workers run
    the items, with 1 the calling process does."""
    cpus(n)
    results = list(parallel.ordered_map(_square_and_pid, range(10), chunksize))
    assert [square for square, _ in results] == [x * x for x in range(10)]
    pids = {pid for _, pid in results}
    assert (os.getpid() in pids) == (n == 1)
    assert multiprocessing.active_children() == []


def test_ordered_map_runs_one_item_in_this_process(cpus):
    cpus(2)
    assert [pid for _, pid in parallel.ordered_map(_square_and_pid, [4])] == [os.getpid()]


@pytest.mark.parametrize("n", [1, 2])
def test_ordered_map_yields_a_job_error_in_item_order(cpus, n):
    """The items before the failing one are yielded first, the error comes in
    its item's place, keeping its type, message and attributes across the
    process boundary, and the items after it still run."""
    cpus(n)
    outcomes = parallel.ordered_map(_refuse_three, range(8))
    assert [next(outcomes) for _ in range(3)] == [0, 1, 2]
    error = next(outcomes)
    assert type(error) is errors.ParseError
    assert str(error) == "line 3: refused" and error.line == 3
    assert list(outcomes) == [4, 5, 6, 7]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("n", [1, 2])
def test_ordered_map_lets_a_base_exception_propagate(cpus, n):
    """A BaseException that is not an Exception is no outcome: it leaves the
    map in its item's turn, and every worker is joined first."""
    cpus(n)
    outcomes = parallel.ordered_map(_halt_at_three, range(8))
    assert [next(outcomes) for _ in range(3)] == [0, 1, 2]
    with pytest.raises(_Halt):
        next(outcomes)
    assert multiprocessing.active_children() == []


def test_ordered_map_cancels_pending_items_after_an_error(cpus, tmp_path):
    """A caller that raises the first error and closes the map, as extract
    and synth do, cancels the items not yet started, and every worker is
    joined before the error reaches the caller's caller."""
    cpus(2)
    with pytest.raises(ValueError, match="first item refused"):
        items = [(tmp_path, i) for i in range(40)]
        with contextlib.closing(parallel.ordered_map(_mark_and_refuse_first, items)) as outcomes:
            for outcome in outcomes:
                if isinstance(outcome, Exception):
                    raise outcome
    assert multiprocessing.active_children() == []
    assert len(list(tmp_path.iterdir())) < 39


@pytest.mark.parametrize("caller_collects", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("n", [1, 2])
def test_workers_run_without_the_collector_and_the_caller_keeps_its_own(cpus, n,
                                                                        caller_collects):
    """Forked workers run with the cyclic collector off; the serial path runs
    in the caller's own state, and the caller's state is the same afterwards."""
    cpus(n)
    was = gc.isenabled()
    (gc.enable if caller_collects else gc.disable)()
    try:
        outcomes = list(parallel.ordered_map(_collector_is_on, range(2)))
        assert gc.isenabled() is caller_collects
    finally:
        (gc.enable if was else gc.disable)()
    assert outcomes == ([False, False] if n == 2 else [caller_collects] * 2)
    assert multiprocessing.active_children() == []


def test_ordered_map_joins_its_workers_when_the_caller_stops_early(cpus):
    cpus(2)
    results = parallel.ordered_map(_square_and_pid, range(20))
    assert next(results)[0] == 0
    results.close()
    assert multiprocessing.active_children() == []


def test_usable_cpus_is_one_without_affinity_or_beside_another_thread(monkeypatch):
    """Forking is unsafe in a threaded process and the CPU set is unknown
    without os.sched_getaffinity (macOS, Windows): either runs serially."""
    if hasattr(os, "sched_getaffinity"):
        assert parallel.usable_cpus() == len(os.sched_getaffinity(0))
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert parallel.usable_cpus() == 1
    finally:
        stop.set()
        thread.join()
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert parallel.usable_cpus() == 1


def test_import_gaitlab_does_not_import_multiprocessing():
    """A serial run, and the import itself, pay nothing for the pool."""
    code = "import sys, gaitlab; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, encoding="utf-8", check=True).stdout
    assert out == "False\n"


# every gaitlab error a worker can hand back, with its attributes
PICKLED_ERRORS = {
    "ParseError": lambda: errors.ParseError("bad input"),
    "InsufficientDataError": lambda: errors.InsufficientDataError("too few rows"),
    "ParseError-placed": lambda: errors.ParseError("227 cells, expected 228", path="f.csv",
                                                    line=4),
    "ParseError-no-reason": lambda: errors.ParseError(line=7),
    "ParseError-duplicate-frame": lambda: errors.ParseError("duplicate frame index 2", line=3),
    "ParseError-of-a-video": lambda: errors.ParseError("frame 0 has non-finite features",
                                                       source_id="normal_000"),
    "TooFewValidFrames": lambda: errors.TooFewValidFrames(3, 10),
    "SchemaMismatch": lambda: errors.SchemaMismatch("abc", "def"),
    "UnscorableRow": lambda: classify.UnscorableRow(2, "class scores"),
}


@pytest.mark.parametrize("make", PICKLED_ERRORS.values(), ids=PICKLED_ERRORS)
@pytest.mark.parametrize("named", [False, True], ids=["as-raised", "named-by-file"])
def test_errors_survive_pickling(make, named):
    """The type, message, exit code and every attribute survive a pickle round
    trip, also after a caller set the place fields, as the CLI does: the file,
    and for a row that cannot be scored its video."""
    error = make()
    if named:
        error.path = Path("corpus/a.kp.jsonl")
        if isinstance(error, classify.UnscorableRow):
            error.source_id = "normal_003"
        assert str(error).startswith(str(error.path))
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error) and copy.args == error.args and str(copy) == str(error)
    assert vars(copy) == vars(error)
    assert getattr(copy, "exit_code", None) == getattr(error, "exit_code", None)
