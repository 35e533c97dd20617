"""One BLAS thread for every BLAS call whose bits reach the output.

A threaded BLAS splits a large GEMM or eigensolve across threads, and the
last bits of the result can then depend on the thread count: on two cores
``eechain ee --n 2000 --na 300 --z 1 --beta 100`` printed 9.58136684996 on
two OpenBLAS threads and 9.58136684995 on one.  These run inside
one_blas_thread, so identical inputs give identical bytes on any core
count:

* entropy.hermitian_eigenvalues: numpy's real or complex singular-value
  solves and eigvalsh, of the whole blocks or of the blocks of their
  sublattice split, whichever the blocks take;
* lattice._partial_dft: the phase-table GEMMs;
* oracle._ground_vector: the Lanczos GEMVs and tridiagonal eigh of a
  ground state;
* oracle.many_body_state: the particle-number sector eigh and block
  products of a Gibbs state;
* oracle.reduced_entropy: the singular values of a ground state's vector,
  or the eigvalsh of a Gibbs state's reduced density matrix.

Only numpy's OpenBLAS is pinned, and numpy is eechain's one numeric
dependency: a library with its own BLAS (scipy ships one) would bring a
thread count this module does not set.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os

import numpy as np

# Thread-count symbols of numpy's bundled OpenBLAS: ILP64 wheels prefix and
# suffix them, older wheels do not.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def openblas_threads():
    """(get, set) for the thread count of numpy's bundled OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for get_name, put_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, put_name):
                get, put = getattr(lib, get_name), getattr(lib, put_name)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, where it can be set.

    Where numpy's OpenBLAS cannot be found its thread count is left alone.
    """
    control = openblas_threads()
    saved = control[0]() if control is not None else 1
    if saved == 1:
        yield
        return
    control[1](1)
    try:
        yield
    finally:
        control[1](saved)
