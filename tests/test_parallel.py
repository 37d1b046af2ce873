import pytest

from prosodiff import parallel

from helpers import assert_no_child_process


def test_blas_runs_one_thread_while_children_run():
    functions = parallel._openblas_threads()
    if functions is None:
        pytest.skip("no OpenBLAS found in this process")
    get, _ = functions
    before = get()
    with parallel.forked([lambda send: send(get())]) as (child,):
        assert (get(), child.recv()) == (1, 1)
    assert get() == before
    assert_no_child_process()
