"""A forked child for work large enough to pay for the fork, and its pipe."""

import os
import sys
from contextlib import contextmanager
from typing import Any, Callable, Iterator


def may_fork(size: int, gate: int) -> bool:
    """Whether work of ``size`` goes to a forked child: it reaches ``gate``, the
    platform has fork and no other thread runs, whose locks a child inherits."""
    threading = sys.modules.get("threading")
    alone = threading is None or threading.active_count() == 1
    return size >= gate and hasattr(os, "fork") and alone


@contextmanager
def forked(work: Callable[[], object]) -> Iterator[Callable[[], int]]:
    """Run ``work`` in a forked child while the ``with`` block runs. The block
    gets a function that waits for the child and returns its exit code: 0
    when ``work`` returned, 1 when it raised or no process could be forked.
    The child ends in ``os._exit``, so it never returns into the caller,
    flushes stdio or runs exit handlers. A child the block did not wait for
    is killed when the block ends, by an exception too, and is reaped."""
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the caller finds the work undone
        pid = -1
    if pid == 0:
        code = 1
        try:
            work()
            code = 0
        finally:
            os._exit(code)
    exit_code = 1 if pid < 0 else None

    def wait() -> int:
        nonlocal exit_code
        if exit_code is None:
            exit_code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        return exit_code

    try:
        yield wait
    finally:
        if exit_code is None:
            from signal import SIGKILL  # only here: keeps the import out of start-up

            os.kill(pid, SIGKILL)
            wait()


@contextmanager
def piped(work: Callable[[Any], object]) -> Iterator[tuple[Any, Callable[[], int]]]:
    """``forked`` with a pipe: ``work`` gets its write end, the block its read end."""
    read_fd, write_fd = os.pipe()
    with open(read_fd, "rb") as pipe, open(write_fd, "wb") as sink:
        with forked(lambda: work(sink)) as wait:
            sink.close()
            yield pipe, wait
