"""The numeric-kernel family a test run computes with, and pins of output bits keyed by it.

A family is numpy's version, the SIMD targets numpy dispatches to and the
OpenBLAS core: together they decide the last bits of the pinned outputs.  A
pin is a dict from family to value; :func:`pinned` returns this run's value,
or skips, naming the family, where none was taken.
"""

import ctypes
import glob
import os

import numpy as np
import pytest

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__


def openblas_core() -> str:
    """The core OpenBLAS picked at load time, read as CI's fingerprint step reads it."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                       "numpy.libs", "libscipy_openblas*.so")):
        core = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if core is not None:
            core.argtypes, core.restype = [], ctypes.c_char_p
            return core().decode()
    return "unknown"


FAMILY = (f"numpy {np.__version__}; SIMD"
          f" {' '.join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))};"
          f" OpenBLAS {openblas_core()}")

# The families the pins were taken in, both on one AVX-512 host: its default
# kernels, and an AVX2 host's emulated by OPENBLAS_CORETYPE=Haswell and
# NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR".
AVX512 = "numpy 2.4.6; SIMD X86_V3 X86_V4 AVX512_ICL AVX512_SPR; OpenBLAS SkylakeX"
AVX2 = "numpy 2.4.6; SIMD X86_V3; OpenBLAS Haswell"


def pinned(pins: dict):
    """pins[FAMILY], or a skip naming FAMILY where no pin was taken in it."""
    if FAMILY not in pins:
        pytest.skip(f"no pin was taken in the numeric-kernel family {FAMILY!r}")
    return pins[FAMILY]
