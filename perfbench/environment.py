"""What a result was measured on: cores, BLAS and library versions."""

import ctypes
import os
import platform

import numpy as np
import scipy

# thread-count queries of the BLAS builds numpy links against: numpy's
# bundled scipy-openblas, system OpenBLAS (64- and 32-bit integer), MKL
THREAD_QUERIES = ("scipy_openblas_get_num_threads64_",
                  "openblas_get_num_threads64_", "openblas_get_num_threads",
                  "MKL_Get_Max_Threads")


def blas_threads():
    """Thread count of the BLAS that numpy loaded, asked of the library
    itself; None when no loaded library answers any of THREAD_QUERIES."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "blas" in line.lower() or "mkl" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in THREAD_QUERIES:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def describe():
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }
