"""Where a loop runs: in this process, or in a forked child of its own.

``apart(loops)`` yields one iterator per loop, over its values in order.
``loops[0]`` runs in this process as its values are read. With two or more
usable CPUs each other loop runs in a ``fork`` child, which sends each
value through a pipe as the loop yields it, then an end marker. A child
waits while its unread values fill the pipe (64 KiB on Linux), so a loop
that is read only after this process's own work should yield once, at its
end. A child's exception is raised here as its own type, and a child that
ends early raises ChildProcessError. When the block ends, on every path
(``KeyboardInterrupt`` included), each child is terminated, then joined:
what the block did not read is dropped, as a loop run here stops where
its reader stops. With one usable CPU, or one loop, ``apart`` yields the
loops themselves and forks nothing.

Each process is meant to keep one CPU busy, so while children run numpy's
OpenBLAS, where it can be found, runs one thread in this process and in
the children: two processes whose BLAS each runs a thread per CPU contend
for the same CPUs, and a default-config training step took 150 ms split
that way against 95 ms unsplit and 47 ms split with one BLAS thread each
(2-CPU machine). A GEMM's result does not depend on the thread count, so
outputs do not change.
"""

from __future__ import annotations

import contextlib
import ctypes
import multiprocessing
import os
from typing import Iterator


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot tell."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@contextlib.contextmanager
def apart(loops: list[Iterator]) -> Iterator[list[Iterator]]:
    """One iterator per loop for the block's duration (see the module docstring)."""
    if len(loops) < 2 or usable_cpus() < 2:
        yield loops
        return
    # a fork Process flushes sys.stdout and sys.stderr before it forks and ends in os._exit,
    # so the child writes no buffered text and runs no atexit handler of this process
    context = multiprocessing.get_context("fork")
    children = []
    with _one_blas_thread():
        try:
            for loop in loops[1:]:
                receiver, sender = context.Pipe(duplex=False)
                process = context.Process(target=_child_main, args=(sender, loop))
                process.start()
                children.append((process, receiver))
                sender.close()  # the child's copy stays open: EOF here means it ended early
            yield [loops[0], *(_received(process, receiver) for process, receiver in children)]
        finally:
            for process, receiver in children:
                process.terminate()  # what the block did not read is dropped (see the module docstring)
                receiver.close()
                process.join()


def _child_main(conn, loop: Iterator) -> None:
    """A forked child's side of ``apart``: sends (True, value) per value of
    loop, then the end marker (False, None), or (False, exception)."""
    try:
        for value in loop:
            conn.send((True, value))
        conn.send((False, None))
    except BaseException as exc:  # _received raises it in the caller
        conn.send((False, exc))


def _received(process, receiver) -> Iterator:
    """A forked loop's values, read as they arrive, up to its end marker."""
    while True:
        try:
            ok, payload = receiver.recv()
        except EOFError:
            process.join()
            raise ChildProcessError(f"a forked loop ended early, exit code {process.exitcode}") from None
        if ok:
            yield payload
        elif payload is None:
            return
        else:
            raise payload


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[None]:
    """OpenBLAS on one thread in this process (and children forked meanwhile), restored after."""
    functions = _openblas_threads()
    if functions is None:
        yield
        return
    get, set_threads = functions
    before = get()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS this process has
    loaded (numpy's), or None where there is none or the platform cannot list
    the loaded libraries."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "64_"), ("openblas", "")):
            get = getattr(library, f"{prefix}_get_num_threads{suffix}", None)
            set_threads = getattr(library, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_threads is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                return get, set_threads
    return None
