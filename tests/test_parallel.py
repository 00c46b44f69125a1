import contextlib
import gc
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from gaitlab import classify, errors, evaluate, parallel
from gaitlab.video_features import FeatureTable

from helpers import assert_no_child_left, make_separable_items

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


PICKLED = []  # the values of the _Recorded objects pickled in this process


class _Recorded:
    """An object that records its value in PICKLED whenever it is pickled."""

    def __init__(self, value):
        self.value = value

    def __reduce__(self):
        PICKLED.append(self.value)
        return type(self), (self.value,)


class _RecordedJob(_Recorded):
    def __call__(self, item):
        return self.value * item.value


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
    assert_no_child_left()


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
    assert_no_child_left()


@pytest.mark.parametrize("n", [1, 2])
def test_ordered_map_lets_a_base_exception_propagate(cpus, n):
    """A BaseException that is not an Exception is no outcome: it leaves the
    map in its item's turn, and every worker is joined first."""
    cpus(n)
    outcomes = parallel.ordered_map(_halt_at_three, range(8))
    assert [next(outcomes) for _ in range(3)] == [0, 1, 2]
    with pytest.raises(_Halt):
        next(outcomes)
    assert_no_child_left()


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
    assert_no_child_left()
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
    assert_no_child_left()


def test_workers_are_never_sent_the_job_or_an_item(cpus):
    """Workers take the job and the items through the fork: neither is
    pickled in the caller, only the outcomes cross back, and the caller keeps
    no reference to either afterwards."""
    job, items = _RecordedJob(10), [_Recorded(i) for i in range(6)]
    cpus(1)
    serial = list(parallel.ordered_map(job, items, 2))
    cpus(2)
    PICKLED.clear()
    assert list(parallel.ordered_map(job, items, 2)) == serial == [0, 10, 20, 30, 40, 50]
    assert PICKLED == []
    refs = [weakref.ref(x) for x in (job, *items)]
    del job, items
    assert [ref() for ref in refs] == [None] * 7
    assert_no_child_left()


def test_a_job_that_cannot_be_pickled_runs_in_workers(cpus):
    """A lambda closing over a local is a job like any other."""
    offset = 7
    outcomes = {}
    for n in (1, 2):
        cpus(n)
        outcomes[n] = list(parallel.ordered_map(lambda x: (x + offset, os.getpid()), range(6), 2))
    assert [x for x, _ in outcomes[2]] == [x for x, _ in outcomes[1]] == list(range(7, 13))
    assert os.getpid() not in {pid for _, pid in outcomes[2]}


def test_an_outcome_that_does_not_pickle_raises_in_workers(cpus):
    cpus(2)
    with pytest.raises((AttributeError, pickle.PicklingError), match="pickle"):
        list(parallel.ordered_map(lambda x: lambda: x, range(2)))
    assert_no_child_left()


def test_run_task_sends_its_workers_no_feature_table(cpus, monkeypatch):
    """eval's workers read the training and test tables they forked with;
    only the algorithm's index goes down the pipe."""
    table = FeatureTable.from_rows(make_separable_items(np.random.default_rng(0), 8))
    cpus(1)
    serial = evaluate.run_task("multi", ["gnb", "tree"], table, folds=2)
    pickled = []

    def reduce_ex(self, protocol):
        pickled.append(len(self))
        return object.__reduce_ex__(self, protocol)

    monkeypatch.setattr(FeatureTable, "__reduce_ex__", reduce_ex)
    cpus(2)
    assert evaluate.run_task("multi", ["gnb", "tree"], table, folds=2) == serial
    assert pickled == []


def test_ordered_map_joins_its_workers_when_the_caller_stops_early(cpus):
    cpus(2)
    results = parallel.ordered_map(_square_and_pid, range(20))
    assert next(results)[0] == 0
    results.close()
    assert_no_child_left()


def _exit_at_three(x):
    if x == 3:
        os._exit(3)
    time.sleep(0.05)
    return x


def test_a_dead_worker_makes_the_map_raise(cpus):
    """A worker that dies in the middle of a chunk makes the map raise a
    RuntimeError within seconds instead of hanging, and every other worker is
    reaped."""
    cpus(2)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="exit status 3"):
        list(parallel.ordered_map(_exit_at_three, range(12)))
    assert time.monotonic() - start < 5
    assert_no_child_left()


BIG = 5_000_000  # bytes of an outcome, far beyond a 64 KiB pipe buffer


def _big(x):
    return bytes([x]) * BIG


def test_an_outcome_larger_than_a_pipe_buffer_comes_back_intact(cpus):
    cpus(2)
    assert list(parallel.ordered_map(_big, range(3))) == [bytes([x]) * BIG for x in range(3)]
    assert_no_child_left()


def _small_then_big(x):
    if x == 0:
        return 0
    time.sleep(0.2)
    return _big(x)


def test_closing_the_map_while_a_worker_writes_a_large_outcome(cpus):
    """The caller closes the map while a worker is still writing an outcome
    that nothing reads any more: the close returns promptly and leaves no
    child."""
    cpus(2)
    outcomes = parallel.ordered_map(_small_then_big, range(2))
    assert next(outcomes) == 0
    time.sleep(0.5)  # the second worker is writing its outcome by now
    start = time.monotonic()
    outcomes.close()
    assert time.monotonic() - start < 2
    assert_no_child_left()


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


def _running(pid):
    """Whether process pid exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text(encoding="utf-8")
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] not in ("Z", "X")


def _pipes_held(_=None):
    """The pipes this process holds open, by inode."""
    pipes = set()
    for fd in os.listdir("/proc/self/fd"):
        with contextlib.suppress(FileNotFoundError):  # the listing's own descriptor
            pipes.add(os.readlink(f"/proc/self/fd/{fd}"))
    return {link for link in pipes if link.startswith("pipe:")}


@pytest.mark.skipif(not Path("/proc/self/fd").exists(), reason="reads /proc")
def test_each_worker_holds_only_its_own_pipes(cpus):
    """Besides what the caller holds, a worker holds one end of its task pipe
    and one of its result pipe, and no end of another worker's."""
    cpus(2)
    callers = _pipes_held()
    held = [pipes - callers for pipes in parallel.ordered_map(_pipes_held, range(2))]
    assert [len(pipes) for pipes in held] == [2, 2] and not held[0] & held[1]


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
@pytest.mark.parametrize("slow", ["items", "caller"])
def test_a_killed_caller_leaves_no_worker(tmp_path, slow):
    """A caller killed in the middle of a map leaves no worker running. With
    slow items the workers are busy when it dies, and each ends on writing
    its chunk's outcomes; with a slow caller they wait for their next chunk,
    and each ends on its task pipe's end of file, which comes only if no
    other worker holds that pipe open."""
    code = f"""
import os, sys, time
from pathlib import Path
from gaitlab import parallel
parallel.usable_cpus = lambda: 2

def job(x):
    Path(sys.argv[1], str(os.getpid())).touch()
    time.sleep({0.5 if slow == "items" else 0})
    return x

for x in parallel.ordered_map(job, range(40)):
    time.sleep({0 if slow == "items" else 30})
"""
    caller = subprocess.Popen([sys.executable, "-c", code, str(tmp_path)],
                              env={**os.environ, "PYTHONPATH": str(SRC)})
    try:
        deadline = time.monotonic() + 10
        while len(list(tmp_path.iterdir())) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        time.sleep(0.2)
    finally:
        caller.kill()
        caller.wait()
    pids = [int(path.name) for path in tmp_path.iterdir()]
    deadline = time.monotonic() + 5
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in pids if _running(pid)]
    for pid in left:  # so that a failure leaves no stray process behind
        os.kill(pid, signal.SIGKILL)
    assert len(pids) == 2 and left == []


def test_two_live_maps_end_apart(tmp_path):
    """A map's workers end when it is closed, also while another map whose
    workers were forked after them is still live: those workers hold none of
    the first map's pipes open."""
    code = """
import os
from gaitlab import parallel
parallel.usable_cpus = lambda: 2
first = parallel.ordered_map(abs, range(20))
second = parallel.ordered_map(abs, range(20))
assert next(first) == 0 and next(second) == 0
first.close()
assert next(second) == 1
second.close()
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, encoding="utf-8", check=True, timeout=30).stdout
    assert out == "no child left\n"


def test_import_gaitlab_does_not_import_multiprocessing(tmp_path):
    """A serial run, and the import itself, pay nothing for a pool; synth,
    extract and eval on 2 CPUs load no pool machinery and start no thread."""
    code = """
import sys, threading, gaitlab
print('multiprocessing' in sys.modules)
from gaitlab import cli, parallel
parallel.usable_cpus = lambda: 2
out = sys.argv[1]
for argv in (["synth", "--counts", "Normal=6,Parkinson=6", "--frames", "12", "--out", out + "/c"],
             ["extract", "--in", out + "/c", "--out", out + "/f.csv"],
             ["eval", "--features", out + "/f.csv", "--folds", "2", "--report", out + "/r.json"]):
    assert cli.main(argv) == 0, argv
print(sorted({"multiprocessing", "concurrent.futures"} & set(sys.modules)), threading.active_count())
"""
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                         env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, encoding="utf-8", check=True).stdout.splitlines()
    assert (out[0], out[-1]) == ("False", "[] 1")


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
