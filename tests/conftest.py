import ctypes

import numpy as np
import pytest

from itkrm.linalg import Dictionary


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_dictionary(d, k, rng):
    atoms = rng.standard_normal((d, k))
    return Dictionary.from_columns(atoms)


def openblas_thread_count():
    """numpy's OpenBLAS (get, set) thread-count functions, or None for a
    BLAS without scipy-openblas's symbols."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    try:
        get_threads = lib.scipy_openblas_get_num_threads64_
        set_threads = lib.scipy_openblas_set_num_threads64_
    except AttributeError:
        return None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get_threads, set_threads


@pytest.fixture
def one_blas_thread():
    """numpy's OpenBLAS at one thread for the test, its old count after.

    With more threads OpenBLAS splits a product among them at columns that
    depend on the product's width, so a block need not give the bytes the
    whole batch gives (README, "Determinism").
    """
    threads = openblas_thread_count()
    if threads is None:
        pytest.skip("numpy's BLAS cannot be set to one thread here")
    get_threads, set_threads = threads
    old = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(old)
