"""Map a function over a list on two cores: this process and one forked child.

`split_map(work, items)` returns exactly `[work(x) for x in items]`. The
calling process runs `items[0::2]`; one child made by `os.fork()` runs
`items[1::2]` and sends its outcomes back as one pickle through a pipe. The
child starts as a copy of the caller, so `work` and everything it reads
(the cohort, the config, a test's monkeypatched learner) are never pickled;
only the outcomes are, so `work` should return plain arrays and values,
never a fitted model. The outcomes, and so every output built from them, do
not depend on whether the child ran.

It forks only on Linux (Windows has no fork, and macOS is fork-unsafe once
its Accelerate framework is loaded), when this process may run on at least
two CPUs (`os.sched_getaffinity`) and when there are at least two items.
Otherwise it runs the plain list comprehension, so `taskset -c 0` gives one
process. It never starts more than one child. A fork copies only the
calling thread, so it is safe only while no other thread holds a lock: the
package starts no thread, and numpy's OpenBLAS stops its thread pool before
a fork and restarts it on the next call.

Failures read as in the serial loop: each side stops at its first item
that raises an `Exception`, and the exception of the lowest-indexed failing
item is raised, whichever process ran it. A child exception that does not
survive a pickle comes back as a PipelineError naming its type and message;
a child that ends without a full reply raises PipelineError("worker", ...)
with its exit status. The child leaves only through `os._exit`, so it runs
no exit handlers and flushes none of the copied output buffers, and the
caller reaps it on every path, killing it first if the caller's own share
is interrupted.
"""

import os
import pickle
import signal
import sys

from .errors import PipelineError


def split_map(work, items) -> list:
    """[work(x) for x in items], with every other item run in a forked child."""
    items = list(items)
    if sys.platform != "linux" or len(items) < 2 or len(os.sched_getaffinity(0)) < 2:
        return [work(x) for x in items]
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(_reply(*_share(work, items[1::2])))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            done, error = _share(work, items[0::2])
            reply = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise PipelineError("worker", f"the worker process ended with status {code} "
                                      f"before it replied")
    child_done, child_error = pickle.loads(reply)
    failures = [(index, exc) for index, exc in ((2 * len(done), error),
                                                 (2 * len(child_done) + 1, child_error))
                if exc is not None]
    if failures:
        raise min(failures)[1]     # the indices differ, so min never compares exceptions
    out = [None] * len(items)
    out[0::2], out[1::2] = done, child_done
    return out


def _share(work, items):
    """(the outcomes of `items` before the first that raises, that exception
    or None)."""
    done = []
    for x in items:
        try:
            done.append(work(x))
        except Exception as exc:
            return done, exc
    return done, None


def _reply(done, error) -> bytes:
    """The child's outcomes and exception as one pickle; an exception that
    does not survive the round trip travels as a PipelineError."""
    try:
        pickle.loads(pickle.dumps(error))
    except Exception:
        error = PipelineError("worker", f"{type(error).__name__}: {error}")
    return pickle.dumps((done, error))
