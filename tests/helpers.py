"""Maps and probes shared by the test modules."""

import threading
import types

import numpy as np

from corrverify import core
from corrverify.core import CorrespondenceMap


def identity_map(h: int, w: int) -> CorrespondenceMap:
    """Map whose coordinates are the grid positions themselves."""
    xs, ys = np.meshgrid(np.arange(w, dtype=np.float64),
                         np.arange(h, dtype=np.float64))
    return CorrespondenceMap(np.stack([xs, ys], axis=2), np.ones((h, w), dtype=bool))


def count_threads(monkeypatch):
    """Record every thread the package starts."""
    started = []

    class Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(core, "threading", types.SimpleNamespace(Thread=Thread))
    return started
