"""Deterministic multi-resolution descriptor pyramid.

A hand-crafted stand-in for a CNN encoder: per-pixel descriptors are
Gaussian-weighted soft-binned gradient-orientation histograms concatenated
with windowed intensity mean/std, L2-normalized per pixel.
A pyramid is a tuple of ``FeatureMap``s, coarsest first: five levels from
1/16 of the working resolution up to the full one (15, 30, 60, 120 and 240
cells a side at 240), each with the same 10 descriptor channels.
A hypercolumn concatenates every level upsampled to one target grid; it is
built in cache-sized blocks of rows, the top half of the rows on a one-thread
executor while the caller fills the rest: the only thread the package starts.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .core import (
    BLOCK_BYTES,
    FeatureMap,
    GlobalDescriptor,
    Image,
    _resize_rows,
    resize_image,
)
from .rng import _integer

WORKING_SIZE = 240
NUM_LEVELS = 5
# per-pixel descriptor: orientation histogram bins, then the radius and
# sigma of the Gaussian window the votes and intensity stats are pooled in
ORIENTATION_BINS = 8
WINDOW_RADIUS = 4
GAUSSIAN_SIGMA = 2.0
# generalized-mean exponent of the global descriptor
GEM_POWER = 3.0
# the hypercolumn is built in blocks of rows whose output holds at most this
# many bytes (43 rows of a 480-wide, 50-channel float32 grid); of 1 to 8 MiB,
# 3 to 6 MiB ran fastest on a 2-vCPU Xeon, and 1 MiB ~40% slower
HYPERCOLUMN_BLOCK_BYTES = 4 << 20


def level_sizes(working_size: int = WORKING_SIZE):
    """Grid sizes coarsest-first: working/16 ... working."""
    if working_size % 16 != 0 or working_size < 16 * 8:
        raise ValueError("working size must be a multiple of 16 and >= 128")
    return tuple(working_size >> s for s in range(NUM_LEVELS - 1, -1, -1))


def _gaussian_kernel(radius: int, sigma: float) -> np.ndarray:
    d = np.arange(-radius, radius + 1, dtype=np.float64)
    return np.exp(-(d * d) / (2.0 * sigma * sigma))


def _symmetric_taps(padded: np.ndarray, kernel: np.ndarray, out: np.ndarray) -> None:
    """Symmetric-kernel correlation along axis 0 of ``padded``, which holds
    r = len(kernel) // 2 extra rows at each end, into ``out``."""
    n = out.shape[0]
    r = len(kernel) // 2
    # laid out as out is, which keeps the column pass's adds in stride
    scratch = np.empty_like(out)
    np.multiply(padded[r:r + n], kernel[r], out=out)
    for j in range(r, 0, -1):
        np.add(padded[r - j:r - j + n], padded[r + j:r + j + n], out=scratch)
        scratch *= kernel[r - j]
        out += scratch


def _window_sum(padded: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Separable weighted window sum, rows then columns, of a float64 array
    (H, W, ...) with a symmetric odd-length kernel; ``padded`` is the array
    with its zero border of r = len(kernel) // 2 rows and columns each side.

    Along each axis every output is ``kernel[r] * x[i]``, then for j from
    r down to 1 ``+= kernel[r - j] * (x[i - j] + x[i + j])``: the order in
    which the ``correlate1d`` reference of tests/test_pyramid.py folds a
    symmetric kernel.  Floating-point addition does not associate, so
    another order would move the last bits of the descriptors and break the
    digests pinned on them; keep it.
    The rows are summed in blocks of about BLOCK_BYTES of output, so every
    pass stays in cache, and the result does not depend on the block size.
    """
    r = len(kernel) // 2
    out = np.empty((padded.shape[0] - 2 * r, padded.shape[1] - 2 * r) + padded.shape[2:])
    step = max(1, BLOCK_BYTES // out[0].nbytes)
    cols = np.empty((step,) + padded.shape[1:])
    for b0 in range(0, len(out), step):
        n = min(step, len(out) - b0)
        _symmetric_taps(padded[b0:b0 + n + 2 * r], kernel, cols[:n])
        _symmetric_taps(cols[:n].swapaxes(0, 1), kernel, out[b0:b0 + n].swapaxes(0, 1))
    return out


def dense_descriptors(gray: np.ndarray) -> FeatureMap:
    """Per-pixel descriptor map for one pyramid level.

    Gradients are central differences on a replicate-padded image.  Each
    gradient votes its magnitude into the two nearest orientation bins
    (linear soft assignment over [0, 2pi)); votes are accumulated under a
    truncated Gaussian window, followed by the window's intensity mean and
    standard deviation.  Each pixel's descriptor has L2 norm 1 within
    1e-5, or is zero where the window holds no signal.
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
    t = np.mod(np.arctan2(gy, gx), 2.0 * np.pi) / (2.0 * np.pi / nb)
    b0 = np.floor(t).astype(np.int64) % nb
    w1 = t - np.floor(t)
    w0 = 1.0 - w1
    b1 = (b0 + 1) % nb

    # one window-sum pass, on a stack that carries its border of r zeros, over
    # the 8 orientation votes, the intensity, its square and the window
    # weight; each pixel votes into exactly 2 bins
    r = WINDOW_RADIUS
    stack = np.zeros((h + 2 * r, w + 2 * r, nb + 3))
    inner = stack[r:r + h, r:r + w]
    np.put_along_axis(inner, b0[..., None], (mag * w0)[..., None], axis=2)
    np.put_along_axis(inner, b1[..., None], (mag * w1)[..., None], axis=2)
    inner[..., nb] = img
    inner[..., nb + 1] = img * img
    inner[..., nb + 2] = 1.0
    sums = _window_sum(stack, _gaussian_kernel(WINDOW_RADIUS, GAUSSIAN_SIGMA))

    wsum = sums[..., nb + 2]
    m1 = sums[..., nb] / wsum
    m2 = sums[..., nb + 1] / wsum
    sd = np.sqrt(np.maximum(m2 - m1 * m1, 0.0))
    desc = np.concatenate([sums[..., :nb], m1[..., None], sd[..., None]], axis=2)
    norms = np.linalg.norm(desc, axis=2, keepdims=True)
    out = np.divide(desc, norms, out=np.zeros_like(desc), where=norms > 1e-12)
    return FeatureMap(out.astype(np.float32))


def build_pyramid(image: Image, working_size: int = WORKING_SIZE) -> tuple:
    """Descriptor pyramid of an image at the working resolution: a tuple of
    ``FeatureMap``s, coarsest first.

    The grayscale image is resized to working_size^2; level images are
    produced by successive bilinear halving (an exact 2x2 box average),
    which keeps coarse levels anti-aliased.
    """
    if image.height < 8 or image.width < 8:
        raise ValueError("pyramid input must be at least 8x8")
    images = [resize_image(image, working_size, working_size)]
    for s in reversed(level_sizes(working_size)[:-1]):
        images.append(resize_image(images[-1], s, s))
    return tuple(dense_descriptors(im.pixels) for im in reversed(images))


def _normalize_rows(arr: np.ndarray) -> None:
    """In-place per-pixel L2 normalization of non-negative values; a pixel
    of norm at most 1e-12 is divided by inf, so it becomes +0."""
    nrm = np.sqrt(np.einsum("hwc,hwc->hw", arr, arr), dtype=arr.dtype)[..., None]
    np.divide(arr, np.where(nrm > 1e-12, nrm, np.inf), out=arr)


def extract_hypercolumn(pyramid: tuple, target_hw=None) -> FeatureMap:
    """Concatenated multi-level descriptors at one resolution, unit rows.

    ``pyramid`` is a tuple of ``FeatureMap``s, coarsest first.  Each level
    is bilinearly upsampled to the target grid ``target_hw``, by default the
    finest level's (height, width), and per-pixel renormalized
    before concatenation; the concatenated vector is normalized again so
    every pixel has L2 norm 1 within 1e-5, or is exactly zero where every
    upsampled level is zero.

    Every pixel is computed on its own, so the grid is filled in blocks of
    rows (HYPERCOLUMN_BLOCK_BYTES of output each) that stay in cache, the
    top half of the rows on a thread started for the call, the bottom half
    on the caller; either half's exception reaches the caller, and the
    result equals one pass over the whole grid bit for bit.
    A pyramid with no levels, or a target that is not two integers
    (numbers.Integral, not bool) at least the coarsest level's, raises
    ValueError.
    """
    if not pyramid:
        raise ValueError("empty pyramid")
    total_c = sum(fm.channels for fm in pyramid)
    th, tw = (pyramid[-1].height, pyramid[-1].width) if target_hw is None else target_hw
    ch, cw = pyramid[0].height, pyramid[0].width
    if _integer(th, "target height") < ch or _integer(tw, "target width") < cw:
        raise ValueError("target resolution must be at least the coarsest level")
    out = np.empty((th, tw, total_c), dtype=np.float32)
    step = max(1, HYPERCOLUMN_BLOCK_BYTES // (tw * total_c * out.itemsize))

    def rows(r0, r1):
        for b0 in range(r0, r1, step):
            b1 = min(b0 + step, r1)
            ofs = 0
            for fm in pyramid:
                up = _resize_rows(fm.values, th, tw, b0, b1)
                _normalize_rows(up)
                out[b0:b1, :, ofs : ofs + fm.channels] = up
                ofs += fm.channels
            _normalize_rows(out[b0:b1])

    # the worker runs private helpers only, so public functions are entered
    # on the calling thread alone, which a tracer that wraps them relies on
    with ThreadPoolExecutor(1) as pool:
        top = pool.submit(rows, 0, th // 2)
        rows(th // 2, th)
    top.result()
    return FeatureMap(out)


def compute_global_descriptor(pyramid: tuple) -> GlobalDescriptor:
    """Generalized-mean pooling of the coarsest level (``pyramid[0]`` of a
    tuple of ``FeatureMap``s, coarsest first), L2-normalized.

    All-zero feature maps fall back to the all-equal-components unit vector.
    An empty pyramid raises ValueError.
    """
    if not pyramid:
        raise ValueError("empty pyramid")
    v = pyramid[0].values.astype(np.float64)
    m = np.mean(np.sign(v) * np.abs(v) ** GEM_POWER, axis=(0, 1))
    pooled = np.sign(m) * np.abs(m) ** (1.0 / GEM_POWER)
    n = np.linalg.norm(pooled)
    if n <= 1e-12:
        dim = pooled.size
        return GlobalDescriptor(np.full(dim, 1.0 / np.sqrt(dim)))
    return GlobalDescriptor(pooled / n)
