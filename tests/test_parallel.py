import os

import numpy as np
import pytest

from prosodiff import parallel

from helpers import assert_no_child_process


class LoopFailed(Exception):
    pass


@pytest.fixture
def blas_threads():
    """OpenBLAS's thread-count getter, with the count set to 2 for the test so
    that a drop to one thread shows; the count is restored after."""
    functions = parallel._openblas_threads()
    if functions is None:
        pytest.skip("no OpenBLAS found in this process")
    get, set_threads = functions
    before = get()
    set_threads(2)
    if get() != 2:
        set_threads(before)
        pytest.skip("this OpenBLAS cannot run two threads")
    yield get
    set_threads(before)


def test_blas_runs_one_thread_while_children_run(blas_threads, monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    with parallel.apart([iter([]), (blas_threads() for _ in range(1))]) as (_, child):
        assert (blas_threads(), *child) == (1, 1)
    assert blas_threads() == 2
    assert_no_child_process()


def test_each_loop_yields_its_values_in_order(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    large = [np.arange(100_000) * k for k in range(4)]  # each larger than a pipe's buffer
    loops = [iter(range(3)), (os.getpid() for _ in range(2)), iter(large)]
    with parallel.apart(loops) as loops:
        assert list(loops[0]) == [0, 1, 2]
        pids = list(loops[1])
        assert len(set(pids)) == 1 and pids[0] != os.getpid()
        received = list(loops[2])
        assert len(received) == 4 and all(np.array_equal(a, b) for a, b in zip(received, large))
        assert list(loops[2]) == []  # an ended loop stays ended
    assert_no_child_process()


def test_block_that_stops_reading_early_ends_cleanly(monkeypatch, capfd):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    with parallel.apart([iter([]), (np.zeros(100_000) for _ in range(50))]) as (_, child):
        assert next(child).shape == (100_000,)
    assert capfd.readouterr() == ("", "")
    assert_no_child_process()


@pytest.mark.parametrize("cpus, count", [(1, 2), (2, 1)], ids=["one-cpu", "one-loop"])
def test_nothing_forks_with_one_cpu_or_one_loop(blas_threads, monkeypatch, cpus, count):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    loops = [(os.getpid() for _ in range(2)) for _ in range(count)]
    with parallel.apart(loops) as got:
        assert got is loops
        assert blas_threads() == 2
        assert_no_child_process()
        assert [list(loop) for loop in got] == [[os.getpid()] * 2] * count
    assert blas_threads() == 2


def failing_loop():
    yield 1
    raise LoopFailed("raised in the child")


def test_loop_raising_in_a_child_raises_its_own_type(blas_threads, monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    with pytest.raises(LoopFailed, match="raised in the child"):
        with parallel.apart([iter([]), failing_loop()]) as (_, child):
            assert next(child) == 1
            next(child)
    assert blas_threads() == 2
    assert_no_child_process()


def test_child_ending_early(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    with pytest.raises(ChildProcessError, match="exit code 3"):
        with parallel.apart([iter([]), (os._exit(3) for _ in range(1))]) as (_, child):
            list(child)
    assert_no_child_process()
