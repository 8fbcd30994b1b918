"""split_map returns [work(x) for x in items] whether or not its worker runs,
raises what the serial loop raises, and leaves no process behind. Each test
starts at most one child at a time."""

import os
import pickle
import signal
import time
import warnings

import numpy as np
import pytest

from recurrisk import errors
from recurrisk.errors import PipelineError, RecurriskError
from recurrisk.workers import split_map


@pytest.fixture
def two_cpus(monkeypatch):
    """Take the forked path on any Linux machine, however many CPUs it has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def raise_at(*bad, kind=ValueError):
    def work(x):
        if x in bad:
            raise kind(f"item {x}")
        return x
    return work


def test_outcomes_come_back_in_item_order_from_two_processes(two_cpus):
    out = split_map(lambda x: (x * x, os.getpid()), range(7))
    assert [value for value, _ in out] == [x * x for x in range(7)]
    assert {pid for _, pid in out[0::2]} == {os.getpid()}
    child = {pid for _, pid in out[1::2]}
    assert len(child) == 1 and os.getpid() not in child
    assert_no_child()


@pytest.mark.parametrize("bad, first", [((1, 2), 1), ((2, 3), 2), ((0, 1), 0), ((3,), 3)])
def test_the_lowest_failing_item_raises_whichever_process_ran_it(two_cpus, bad, first):
    with pytest.raises(PipelineError) as exc:
        split_map(raise_at(*bad, kind=lambda m: PipelineError("fold", m)), range(5))
    assert str(exc.value) == f"fold: item {first}" and exc.value.step == "fold"
    assert_no_child()


class NeedsTwoArguments(Exception):
    """Pickles, but cannot be rebuilt from its args."""

    def __init__(self, message, extra):
        super().__init__(message)


def test_a_child_exception_that_does_not_survive_a_pickle_comes_back_named(two_cpus):
    class LocalError(Exception):
        """Cannot be pickled: pickle finds classes by module-level name."""

    for kind, name in ((LocalError, "LocalError"),
                       (lambda m: NeedsTwoArguments(m, 0), "NeedsTwoArguments")):
        with pytest.raises(PipelineError) as exc:
            split_map(raise_at(1, kind=kind), range(4))
        assert str(exc.value) == f"worker: {name}: item 1"
        assert_no_child()


def test_a_child_that_dies_without_replying_raises_a_worker_error(two_cpus):
    def work(x):
        if x == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    with pytest.raises(PipelineError, match=r"^worker: .* status -9 before it replied$"):
        split_map(work, range(4))
    assert_no_child()


def test_an_interrupted_caller_kills_and_reaps_the_child(two_cpus):
    parent = os.getpid()

    def work(x):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        split_map(work, range(2))
    assert time.monotonic() - start < 30
    assert_no_child()


def test_one_cpu_or_one_item_runs_in_this_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert split_map(lambda x: (x, os.getpid()), range(5)) == [(x, os.getpid()) for x in range(5)]
    with pytest.raises(ValueError, match="item 1"):
        split_map(raise_at(1, 2), range(4))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert split_map(lambda x: os.getpid(), [None]) == [os.getpid()]
    assert split_map(abs, []) == []


def test_no_fork_warning_after_the_blas_threads_started(two_cpus):
    # Python 3.12 warns when a process with more than one thread forks;
    # numpy's OpenBLAS stops its thread pool before a fork.
    a = np.ones((300, 300))
    a @ a
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert split_map(abs, [-1, -2]) == [1, 2]
    assert [str(w.message) for w in caught] == []
    assert_no_child()


ERROR_ARGS = {errors.RowParseError: (3, "x", "m"), errors.PipelineError: ("screening", "m"),
              errors.NonconvergenceError: ("m", [1.0, 2.0]),
              errors.TrainingError: ("m", [3.0, 2.5])}
ERROR_CLASSES = [cls for cls in vars(errors).values()
                 if isinstance(cls, type) and issubclass(cls, RecurriskError)]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_survives_a_pickle(cls):
    exc = cls(*ERROR_ARGS.get(cls, ("m",)))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls and str(back) == str(exc)
    for attr in ("step", "row", "column", "last_iterate", "trace"):
        assert getattr(back, attr, None) == getattr(exc, attr, None)
