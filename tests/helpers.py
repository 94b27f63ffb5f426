"""Maps and probes shared by the test modules."""

import contextlib
import ctypes
import threading

import numpy as np
import pytest

from blas_probe import OPENBLAS_SYMBOLS, bundled_openblas
from corrverify.core import CorrespondenceMap
from corrverify.synth import warp_points


def identity_map(h: int, w: int) -> CorrespondenceMap:
    """Map whose coordinates are the grid positions themselves."""
    xs, ys = np.meshgrid(np.arange(w, dtype=np.float64),
                         np.arange(h, dtype=np.float64))
    return CorrespondenceMap(np.stack([xs, ys], axis=2), np.ones((h, w), dtype=bool))


def backward_map(spec) -> CorrespondenceMap:
    """Ground truth on a warp's source grid into its warped frame, the
    reverse of ``apply_warp``'s forward map; a pixel warped out of frame is
    invalid."""
    h, w = spec.frame_h, spec.frame_w
    dst = warp_points(spec, identity_map(h, w).coords.reshape(-1, 2)).reshape(h, w, 2)
    return CorrespondenceMap.from_coords(dst, (h, w))


def count_threads(monkeypatch):
    """Record every thread started in the process until the test ends."""
    started = []
    start = threading.Thread.start

    def record(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", record)
    return started


@contextlib.contextmanager
def one_blas_thread():
    """Run the block on one thread of numpy's bundled OpenBLAS, then restore
    its thread count; skip the test when numpy bundles no OpenBLAS."""
    for lib in bundled_openblas():
        handle = ctypes.CDLL(lib)
        for fmt in OPENBLAS_SYMBOLS:
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
