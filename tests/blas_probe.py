"""numpy's bundled OpenBLAS, probed with numpy and ctypes alone, so that a
runner's versions can be printed even when the package cannot import."""

import ctypes
import glob
import os

import numpy as np


# the spellings of an OpenBLAS function's symbol across numpy's builds
OPENBLAS_SYMBOLS = ("scipy_openblas_{}64_", "openblas_{}64_", "openblas_{}")


def bundled_openblas() -> list:
    """Paths of the OpenBLAS libraries bundled with numpy, none without."""
    return glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))


def openblas_config() -> str:
    """Configuration string (core and kernel) of numpy's bundled OpenBLAS,
    "unknown" when numpy bundles none."""
    for lib in bundled_openblas():
        handle = ctypes.CDLL(lib)
        for fmt in OPENBLAS_SYMBOLS:
            get = getattr(handle, fmt.format("get_config"), None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_char_p
                return get().decode()
    return "unknown"
