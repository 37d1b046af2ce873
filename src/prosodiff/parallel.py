"""Work in forked child processes: sampling shares and a training member.

``forked`` starts one ``fork`` child per target while its block runs. A
child runs ``target(send)`` on a copy of this process's memory and sends
each value back through a pipe; this process reads them in order with
``Child.recv``. A child's exception comes back as its own type. Every
child is joined on every path, and terminated first when the block
raises (``KeyboardInterrupt`` included).

Each process is meant to keep one CPU busy, so while the block runs
numpy's OpenBLAS, where it can be found, runs one thread in this process
and in the children: two processes whose BLAS each runs a thread per CPU
contend for the same CPUs, and a default-config training step took 150
ms split that way against 95 ms unsplit and 47 ms split with one BLAS
thread each (2-CPU machine). A GEMM's result does not depend on the
thread count, so outputs do not change.
"""

from __future__ import annotations

import contextlib
import ctypes
import multiprocessing
import os
from typing import Callable, Iterator


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot tell."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


class Child:
    """This process's end of one forked child's pipe."""

    def __init__(self, process, receiver):
        self.process = process
        self.receiver = receiver

    def recv(self):
        """The child's next value. Raises the child's exception, or
        ChildProcessError if the child ended without sending one."""
        try:
            ok, payload = self.receiver.recv()
        except EOFError:
            self.process.join()
            message = f"a forked process ended without a result, exit code {self.process.exitcode}"
            raise ChildProcessError(message) from None
        if not ok:
            raise payload
        return payload


@contextlib.contextmanager
def forked(targets: list[Callable[[Callable[[object], None]], None]]) -> Iterator[list[Child]]:
    """One forked child per target, running ``target(send)``, for the block's duration."""
    # a fork Process flushes sys.stdout and sys.stderr before it forks and ends in os._exit,
    # so the child writes no buffered text and runs no atexit handler of this process
    context = multiprocessing.get_context("fork")
    children: list[Child] = []
    with _one_blas_thread():
        try:
            for target in targets:
                receiver, sender = context.Pipe(duplex=False)
                process = context.Process(target=_child_main, args=(sender, target))
                process.start()
                children.append(Child(process, receiver))
                sender.close()  # the child's copy stays open: EOF here means it ended without sending
            yield children
        except BaseException:
            for child in children:
                child.process.terminate()
            raise
        finally:
            for child in children:
                child.receiver.close()
                child.process.join()


def _child_main(conn, target: Callable[[Callable[[object], None]], None]) -> None:
    """A forked child's side of ``forked``: sends (True, value) per value, or (False, exception)."""
    try:
        target(lambda value: conn.send((True, value)))
    except BaseException as exc:  # this process's Child.recv raises it
        conn.send((False, exc))


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
