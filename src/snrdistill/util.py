"""Small shared helpers: seeded RNG streams, CSV formatting and forked children."""

from __future__ import annotations

import contextlib
import os
import signal
import zlib
from collections.abc import Callable
from typing import BinaryIO

import numpy as np


def child_rng(root_seed: int, *tags: int | str) -> np.random.Generator:
    """Derive an independent generator from a root seed and a tag path.

    Tags keep the streams of unrelated stages (init, batches, evaluation
    noise, ...) decoupled: changing how often one stage draws never shifts
    another stage's stream. Strings are hashed with crc32, which is stable
    across platforms and Python versions.
    """
    entropy = [int(root_seed) & 0xFFFFFFFF]
    for tag in tags:
        if isinstance(tag, str):
            entropy.append(zlib.crc32(tag.encode("utf-8")))
        else:
            entropy.append(int(tag) & 0xFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def fmt_float(x: float) -> str:
    """Shortest decimal string that round-trips the float64 exactly."""
    return repr(float(x))


def _fork(work: Callable[[BinaryIO], None]) -> tuple[int, BinaryIO]:
    """Runs `work(pipe)` in a forked child, `pipe` being the write end of a
    new pipe; returns the child's pid and the read end.

    The child must not run the caller's cleanup or flush the caller's
    buffers, so it leaves through os._exit alone: with status 0 once `work`
    returns, and 1 if it raises. A child whose reader has gone meets
    BrokenPipeError at its next write, and so exits at once. Where os.fork
    raises, both ends of the pipe are closed and the error propagates.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        # No child (at the process limit, say, BlockingIOError): no pipe.
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                work(pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _kill(pid: int, pipe: BinaryIO) -> None:
    """Closes the read end of a `_fork` child's pipe, then kills and reaps the child."""
    pipe.close()
    with contextlib.suppress(ProcessLookupError, ChildProcessError):
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
