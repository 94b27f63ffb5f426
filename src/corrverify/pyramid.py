"""Deterministic multi-resolution descriptor pyramid.

A hand-crafted stand-in for a CNN encoder: per-pixel descriptors are
Gaussian-weighted soft-binned gradient-orientation histograms concatenated
with windowed intensity mean/std, L2-normalized per pixel.
Five levels halve the working resolution down to 1/16 (240 -> 15), keeping
the coarse global-correlation problem at 15x15 cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import correlate1d

from .core import FeatureMap, GlobalDescriptor, Image, resize_grid, resize_image, to_grayscale

WORKING_SIZE = 240
NUM_LEVELS = 5
# per-pixel descriptor: orientation histogram bins, then the radius and
# sigma of the Gaussian window the votes and intensity stats are pooled in
ORIENTATION_BINS = 8
WINDOW_RADIUS = 4
GAUSSIAN_SIGMA = 2.0
# generalized-mean exponent of the global descriptor
GEM_POWER = 3.0


@dataclass(frozen=True)
class FeaturePyramid:
    """Per-level unit-normalized feature maps, coarsest first."""

    levels: tuple
    constant_input: bool = False

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise ValueError("pyramid needs at least one level")

    @property
    def level_resolutions(self):
        return tuple((fm.height, fm.width) for fm in self.levels)

    @property
    def coarsest(self) -> FeatureMap:
        return self.levels[0]


def level_sizes(working_size: int = WORKING_SIZE):
    """Grid sizes coarsest-first: working/16 ... working."""
    if working_size % 16 != 0 or working_size < 16 * 8:
        raise ValueError("working size must be a multiple of 16 and >= 128")
    return tuple(working_size >> s for s in range(NUM_LEVELS - 1, -1, -1))


def _gaussian_kernel(radius: int, sigma: float) -> np.ndarray:
    d = np.arange(-radius, radius + 1, dtype=np.float64)
    return np.exp(-(d * d) / (2.0 * sigma * sigma))


def _window_sum(arr: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Separable weighted window sum, truncated at borders (zero outside)."""
    tmp = correlate1d(arr, kernel, axis=0, mode="constant", cval=0.0)
    return correlate1d(tmp, kernel, axis=1, mode="constant", cval=0.0)


def dense_descriptors(gray: np.ndarray) -> FeatureMap:
    """Per-pixel descriptor map for one pyramid level.

    Gradients are central differences on a replicate-padded image.  Each
    gradient votes its magnitude into the two nearest orientation bins
    (linear soft assignment over [0, 2pi)); votes are accumulated under a
    truncated Gaussian window, followed by the window's intensity mean and
    standard deviation.
    """
    img = np.asarray(gray, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("dense_descriptors expects a grayscale (H, W) array")
    h, w = img.shape
    nb = ORIENTATION_BINS

    padded = np.pad(img, 1, mode="edge")
    gx = (padded[1:-1, 2:] - padded[1:-1, :-2]) * 0.5
    gy = (padded[2:, 1:-1] - padded[:-2, 1:-1]) * 0.5
    mag = np.hypot(gx, gy)
    ang = np.arctan2(gy, gx)

    t = np.mod(ang, 2.0 * np.pi) / (2.0 * np.pi / nb)
    b0 = np.floor(t).astype(np.int64) % nb
    w1 = t - np.floor(t)
    w0 = 1.0 - w1
    b1 = (b0 + 1) % nb

    kernel = _gaussian_kernel(WINDOW_RADIUS, GAUSSIAN_SIGMA)
    channels = []
    for b in range(nb):
        votes = mag * (w0 * (b0 == b) + w1 * (b1 == b))
        channels.append(_window_sum(votes, kernel))

    wsum = _window_sum(np.ones((h, w)), kernel)
    m1 = _window_sum(img, kernel) / wsum
    m2 = _window_sum(img * img, kernel) / wsum
    sd = np.sqrt(np.maximum(m2 - m1 * m1, 0.0))
    channels.extend([m1, sd])

    desc = np.stack(channels, axis=2)
    norms = np.linalg.norm(desc, axis=2, keepdims=True)
    out = np.divide(desc, norms, out=np.zeros_like(desc), where=norms > 1e-12)
    return FeatureMap(out.astype(np.float32), unit_normalized=True)


def build_pyramid(image: Image, working_size: int = WORKING_SIZE) -> FeaturePyramid:
    """Descriptor pyramid of an image at the working resolution.

    The image is converted to grayscale and resized to working_size^2; level
    images are produced by successive bilinear halving (an exact 2x2 box
    average), which keeps coarse levels anti-aliased.
    """
    if image.height < 8 or image.width < 8:
        raise ValueError("pyramid input must be at least 8x8")
    gray = to_grayscale(image)
    working = resize_image(gray, working_size, working_size)
    constant = float(np.ptp(working.pixels)) < 1e-12

    sizes = level_sizes(working_size)
    images = [working.pixels]
    cur = working
    for s in reversed(sizes[:-1]):
        cur = resize_image(cur, s, s)
        images.append(cur.pixels)
    images.reverse()  # coarsest first

    levels = tuple(dense_descriptors(im) for im in images)
    return FeaturePyramid(levels, constant_input=constant)


def _normalize_rows(arr: np.ndarray) -> None:
    """In-place per-pixel L2 normalization; zero vectors stay zero."""
    sq = np.einsum("hwc,hwc->hw", arr, arr)
    nrm = np.sqrt(sq, dtype=arr.dtype)[..., None]
    np.divide(arr, nrm, out=arr, where=nrm > 1e-12)
    arr[(nrm <= 1e-12)[..., 0]] = 0


def extract_hypercolumn(pyramid: FeaturePyramid, target_hw=(480, 480)) -> FeatureMap:
    """Concatenated multi-level descriptors at one resolution, unit rows.

    Each level is bilinearly upsampled to the target grid and per-pixel
    renormalized before concatenation; the concatenated vector is normalized
    again so every non-degenerate pixel has unit norm.
    """
    th, tw = target_hw
    ch, cw = pyramid.coarsest.height, pyramid.coarsest.width
    if th < ch or tw < cw:
        raise ValueError("target resolution must be at least the coarsest level")
    total_c = sum(fm.channels for fm in pyramid.levels)
    out = np.empty((th, tw, total_c), dtype=np.float32)
    ofs = 0
    for fm in pyramid.levels:
        up = resize_grid(fm.values, th, tw)
        _normalize_rows(up)
        out[:, :, ofs : ofs + fm.channels] = up
        ofs += fm.channels
    _normalize_rows(out)
    return FeatureMap(out, unit_normalized=True)


def compute_global_descriptor(pyramid: FeaturePyramid) -> GlobalDescriptor:
    """Generalized-mean pooling of the coarsest level, L2-normalized.

    All-zero feature maps fall back to the all-equal-components unit vector.
    """
    v = pyramid.coarsest.values.astype(np.float64)
    m = np.mean(np.sign(v) * np.abs(v) ** GEM_POWER, axis=(0, 1))
    pooled = np.sign(m) * np.abs(m) ** (1.0 / GEM_POWER)
    n = np.linalg.norm(pooled)
    if n <= 1e-12:
        dim = pooled.size
        return GlobalDescriptor(np.full(dim, 1.0 / np.sqrt(dim)))
    return GlobalDescriptor(pooled / n)
