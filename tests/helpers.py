"""Maps and probes shared by the test modules."""

import contextlib
import ctypes
import glob
import os
import threading

import numpy as np
import pytest

from corrverify.core import CorrespondenceMap


def identity_map(h: int, w: int) -> CorrespondenceMap:
    """Map whose coordinates are the grid positions themselves."""
    xs, ys = np.meshgrid(np.arange(w, dtype=np.float64),
                         np.arange(h, dtype=np.float64))
    return CorrespondenceMap(np.stack([xs, ys], axis=2), np.ones((h, w), dtype=bool))


def count_threads(monkeypatch):
    """Record every thread started in the process until the test ends."""
    started = []
    start = threading.Thread.start

    def record(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", record)
    return started


def bundled_openblas() -> list:
    """Paths of the OpenBLAS libraries bundled with numpy, none without."""
    return glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))


@contextlib.contextmanager
def one_blas_thread():
    """Run the block on one thread of numpy's bundled OpenBLAS, then restore
    its thread count; skip the test when numpy bundles no OpenBLAS."""
    for lib in bundled_openblas():
        handle = ctypes.CDLL(lib)
        for fmt in ("scipy_openblas_{}64_", "openblas_{}64_", "openblas_{}"):
            get = getattr(handle, fmt.format("get_num_threads"), None)
            set_ = getattr(handle, fmt.format("set_num_threads"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                before = get()
                set_(1)
                try:
                    yield
                finally:
                    set_(before)
                return
    pytest.skip("numpy bundles no OpenBLAS whose thread count can be set")
