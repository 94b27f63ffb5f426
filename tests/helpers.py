"""Maps shared by the test modules."""

import numpy as np

from corrverify.core import CorrespondenceMap


def identity_map(h: int, w: int) -> CorrespondenceMap:
    """Map whose coordinates are the grid positions themselves."""
    xs, ys = np.meshgrid(np.arange(w, dtype=np.float64),
                         np.arange(h, dtype=np.float64))
    return CorrespondenceMap(np.stack([xs, ys], axis=2), np.ones((h, w), dtype=bool))
