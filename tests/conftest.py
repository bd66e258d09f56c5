"""Fixtures shared across test modules."""

import ctypes

import pytest

from dimer_nm import opalg


def _blas_threads(lib):
    """Thread count an OpenBLAS handle reports."""
    for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            return fn()
    raise AssertionError(f"{lib} reports no thread count")


@pytest.fixture
def blas_counts():
    """A reader of the thread count of every loaded OpenBLAS, scipy's
    too, each set to 3 threads for the test and restored after it."""
    import scipy.sparse.linalg  # noqa: F401  (loads scipy's OpenBLAS)

    with opalg._blas_lock:
        libs = opalg._openblas_libs()
    if not libs:
        pytest.skip("no OpenBLAS with openblas_set_num_threads_local is loaded")
    before = [lib.openblas_set_num_threads_local(3) for lib in libs]
    yield lambda: [_blas_threads(lib) for lib in libs]
    for lib, count in zip(libs, before):
        lib.openblas_set_num_threads_local(count)
