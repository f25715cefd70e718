"""The OpenBLAS kernel the sha256 pins were recorded under, and the one this
host runs, for the pins' assertion messages.  OpenBLAS picks a kernel for
the CPU (``OPENBLAS_CORETYPE`` overrides it), and kernels round float64
products differently, so a pin can fail on another kernel with no change to
the code.  The kernel is read from the loaded library, as
``perfbench/child.blas_info`` reads its thread count."""

import ctypes
import glob
import os

import numpy as np

RECORDED = "SkylakeX"


def kernel() -> str | None:
    """The core name numpy's OpenBLAS reports, or None if it reports none."""
    libs_dir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "scipy_openblas_get_corename", "openblas_get_corename"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_char_p
                getter.argtypes = []
                return getter().decode()
    return None


PINNED = f"recorded under {RECORDED}; this host runs {kernel()}"
