"""Core value types, coordinate conventions, bilinear sampling and file I/O.

Conventions used throughout the package:

* pixel centers sit at integer coordinates, (0, 0) is the top-left pixel
  center, x indexes columns and y indexes rows;
* a correspondence map defined on image B's grid stores, per pixel, the
  absolute (x, y) coordinate of the matching point in image A, so sampling
  A at those coordinates warps A into B's frame;
* out-of-bounds samples are treated as invalid rather than clamped.

CMAP, FMAP and GDSC files share one container: a 4-byte magic, a u32
version (1), u32 dimensions, then a little-endian payload.  CMAP (H, W):
f32 (x, y) per pixel, then u8 valid per pixel.  FMAP (H, W, C): f32 H x W x C.
GDSC (D): f32 D.
"""

from __future__ import annotations

import math
import os
import struct
import threading
from dataclasses import dataclass, field

import numpy as np


class ParseError(ValueError):
    """Malformed binary payload; message carries the failing byte offset."""


# ---------------------------------------------------------------------------
# two-way concurrency
# ---------------------------------------------------------------------------

def _halves(part, n: int):
    """(part(0, n // 2), part(n // 2, n)), run at once: the first half on a
    thread started for this call, the second on the calling thread.  The
    thread is joined before returning and its exception re-raised.

    Callers split work whose items are computed independently, so the
    joined halves equal one serial pass bit for bit.  The halves run private
    helpers only, at three call sites: rows of resample_map, rows of
    extract_hypercolumn (pyramid's _resize_rows and _normalize_rows over row
    blocks) and _read_binary's payload reads.  The package's public
    functions and the LCG are entered on the calling thread alone, so their
    calls nest as in a serial run, which a tracer that wraps them relies on.
    """
    out = []

    def run():
        try:
            out.append((True, part(0, n // 2)))
        except BaseException as exc:
            out.append((False, exc))

    thread = threading.Thread(target=run)
    thread.start()
    try:
        mine = part(n // 2, n)
    finally:
        thread.join()
    ok, theirs = out[0]
    if not ok:
        raise theirs
    return theirs, mine


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Image:
    """Intensity image, values in [0, 1], grayscale (H, W) or RGB (H, W, 3).

    Pipeline entry points (resizing to the working resolution, pyramid
    construction) require at least 8x8 pixels; tiny images are still
    representable so the file I/O round-trips anything a PNM file encodes.
    """

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float64)
        if not (px.ndim == 2 or (px.ndim == 3 and px.shape[2] == 3)):
            raise ValueError(f"image must be (H, W) or (H, W, 3), got {px.shape}")
        px = px.copy()
        if px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError(f"empty image {px.shape}")
        if not np.isfinite(px).all():
            raise ValueError("image contains non-finite pixels")
        if px.min() < 0.0 or px.max() > 1.0:
            raise ValueError("pixel values must lie in [0, 1]")
        px.flags.writeable = False
        object.__setattr__(self, "pixels", px)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return 1 if self.pixels.ndim == 2 else 3


@dataclass(frozen=True)
class Mask:
    """Per-pixel boolean grid annotating a map or feature grid."""

    bits: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bits, dtype=bool).copy()
        if b.ndim != 2:
            raise ValueError(f"mask must be 2-D, got {b.shape}")
        b.flags.writeable = False
        object.__setattr__(self, "bits", b)

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    def count(self) -> int:
        return int(self.bits.sum())


@dataclass(frozen=True)
class CorrespondenceMap:
    """Dense per-pixel mapping from this grid into a source image's frame.

    ``coords[y, x]`` holds the absolute (x_src, y_src) coordinate matched to
    grid pixel (x, y); ``valid`` is False where no in-bounds correspondence
    exists.  Coordinates at invalid pixels are stored as 0, whatever was
    passed, so no sample ever weights a non-finite value.
    """

    coords: np.ndarray  # (H, W, 2) float64, channel order (x, y)
    valid: np.ndarray   # (H, W) bool

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=np.float64).copy()
        v = np.asarray(self.valid, dtype=bool).copy()
        if c.ndim != 3 or c.shape[2] != 2:
            raise ValueError(f"coords must be (H, W, 2), got {c.shape}")
        if v.shape != c.shape[:2]:
            raise ValueError("valid mask shape does not match coords grid")
        c[~v] = 0.0
        if not np.isfinite(c).all():
            raise ValueError("coords must be finite wherever valid")
        c.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "coords", c)
        object.__setattr__(self, "valid", v)

    @property
    def height(self) -> int:
        return self.coords.shape[0]

    @property
    def width(self) -> int:
        return self.coords.shape[1]

    @classmethod
    def from_coords(cls, coords, source_hw) -> "CorrespondenceMap":
        """Build a map marking valid exactly the in-bounds coordinates."""
        coords = np.asarray(coords, dtype=np.float64)
        return cls(coords, _in_bounds(coords[..., 0], coords[..., 1], *source_hw))


@dataclass(frozen=True)
class FeatureMap:
    """Dense descriptor grid, (H, W, C) float32, finite and read-only.

    A C-contiguous float32 input is kept (``values is a``) and made
    read-only, so a hypercolumn or an FMAP payload is never copied; any
    other input is copied, as every other value type copies its input.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float32)
        if v.ndim != 3:
            raise ValueError(f"feature map must be (H, W, C), got {v.shape}")
        # min and max propagate nan and report +-inf, without the boolean
        # temporary of isfinite (11 MiB for a 480^2 x 50 hypercolumn)
        if v.size and not (math.isfinite(v.min()) and math.isfinite(v.max())):
            raise ValueError("feature map contains non-finite values")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def channels(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True)
class GlobalDescriptor:
    """Whole-image descriptor vector with unit L2 norm."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).copy()
        if v.ndim != 1 or v.size == 0:
            raise ValueError("descriptor must be a non-empty vector")
        n = np.linalg.norm(v)
        if not np.isfinite(n) or abs(n - 1.0) > 1e-6:
            raise ValueError(f"descriptor norm {n} not within 1e-6 of 1")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.size


# ---------------------------------------------------------------------------
# bilinear sampling
# ---------------------------------------------------------------------------

def _in_bounds(xs, ys, h: int, w: int) -> np.ndarray:
    """Positions that are finite and lie in [0, w-1] x [0, h-1]."""
    with np.errstate(invalid="ignore"):
        return np.isfinite(xs) & np.isfinite(ys) \
            & (xs >= 0.0) & (xs <= w - 1.0) & (ys >= 0.0) & (ys <= h - 1.0)


def bilinear_sample_grid(values, xs, ys):
    """Vectorized bilinear sampling with an out-of-bounds validity mask.

    Returns (samples, ok) in float64; samples are 0 where ok is False.
    """
    values = np.asarray(values)
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    h, w = values.shape[:2]
    ok = _in_bounds(xs, ys, h, w)
    cx = np.where(ok, xs, 0.0)
    cy = np.where(ok, ys, 0.0)
    x0 = np.minimum(np.floor(cx).astype(np.int64), max(w - 2, 0))
    y0 = np.minimum(np.floor(cy).astype(np.int64), max(h - 2, 0))
    fx = cx - x0
    fy = cy - y0
    x1 = np.minimum(x0 + 1, w - 1)
    row0 = y0 * w
    row1 = np.minimum(y0 + 1, h - 1) * w
    if values.ndim == 3:
        fx = fx[..., None]
        fy = fy[..., None]
    # corners are gathered with np.take from the (H*W, ...) rows, which is
    # faster than 2-D fancy indexing; the float64 weights promote only the
    # gathered corners, never the grid
    flat = values.reshape((h * w,) + values.shape[2:])
    top = flat.take(row0 + x0, axis=0) * (1.0 - fx) + flat.take(row0 + x1, axis=0) * fx
    bot = flat.take(row1 + x0, axis=0) * (1.0 - fx) + flat.take(row1 + x1, axis=0) * fx
    out = top * (1.0 - fy) + bot * fy
    out[~ok] = 0.0
    return out, ok


def half_pixel(x, n, new_n):
    """Coordinates on an axis of n pixels moved to an axis of new_n pixels
    spanning the same extent (half-pixel, area-centered mapping)."""
    return (np.asarray(x, dtype=np.float64) + 0.5) * (new_n / n) - 0.5


def half_pixel_axis(n: int, new_n: int) -> np.ndarray:
    """Positions on an n-pixel axis of the new_n pixels of a resampled axis,
    clipped to [0, n-1]."""
    return np.clip(half_pixel(np.arange(new_n), new_n, n), 0.0, n - 1.0)


def resize_grid(values, new_h: int, new_w: int) -> np.ndarray:
    """Separable bilinear resampling of a (H, W) or (H, W, C) grid onto the
    half-pixel tensor grid, rows first, in the grid's own dtype.

    Always returns a new array.  Target dimensions below 1 raise ValueError.
    """
    if new_h < 1 or new_w < 1:
        raise ValueError(f"target dims must be >= 1, got {new_h}x{new_w}")
    return _resize_rows(np.ascontiguousarray(values), new_h, new_w, 0, new_h)


def _resize_rows(v: np.ndarray, new_h: int, new_w: int, r0: int, r1: int) -> np.ndarray:
    """Rows r0:r1 of resize_grid(v, new_h, new_w) for a C-contiguous v; each
    output pixel is computed as in the whole grid."""
    h, w = v.shape[:2]
    if (new_h, new_w) == (h, w):
        return v[r0:r1].copy()
    ys = half_pixel_axis(h, new_h)[r0:r1]
    xs = half_pixel_axis(w, new_w)
    y0 = np.minimum(np.floor(ys).astype(np.int64), max(h - 2, 0))
    x0 = np.minimum(np.floor(xs).astype(np.int64), max(w - 2, 0))
    trail = (1,) * (v.ndim - 2)
    fy = (ys - y0).astype(v.dtype).reshape((-1, 1) + trail)
    fx = (xs - x0).astype(v.dtype).reshape((-1,) + trail)
    rows = v[y0] * (1 - fy) + v[np.minimum(y0 + 1, h - 1)] * fy
    return rows[:, x0] * (1 - fx) + rows[:, np.minimum(x0 + 1, w - 1)] * fx


def _valid_samples(stacked: np.ndarray, ok=True):
    """Coordinates and ok of an interpolated np.dstack([coords, valid]) of a
    map: ok also needs every pixel with a nonzero weight to be valid, and
    coordinates are 0 where not ok."""
    ok = ok & (stacked[..., 2] >= 1.0 - 1e-9)
    coords = stacked[..., :2]
    coords[~ok] = 0.0
    return coords, ok


def sample_map(cmap: CorrespondenceMap, xs, ys):
    """Sample a correspondence map at real-valued grid positions, with one
    scattered gather (`bilinear_sample_grid`) of coordinates and validity.

    A sample is ok only when the position is in bounds and every grid pixel
    contributing a nonzero interpolation weight is itself valid.
    """
    return _valid_samples(*bilinear_sample_grid(np.dstack([cmap.coords, cmap.valid]), xs, ys))


# ---------------------------------------------------------------------------
# image operations
# ---------------------------------------------------------------------------

GRAY_WEIGHTS = (0.299, 0.587, 0.114)


def to_grayscale(image: Image) -> Image:
    if image.channels == 1:
        return image
    r, g, b = GRAY_WEIGHTS
    px = image.pixels
    gray = r * px[..., 0] + g * px[..., 1] + b * px[..., 2]
    return Image(np.clip(gray, 0.0, 1.0))


def resize_image(image: Image, new_h: int, new_w: int) -> Image:
    """Bilinear resampling with half-pixel (area-centered) mapping."""
    if new_h < 8 or new_w < 8:
        raise ValueError(f"target dims must be >= 8, got {new_h}x{new_w}")
    if (new_h, new_w) == (image.height, image.width):
        return image
    return Image(np.clip(resize_grid(image.pixels, new_h, new_w), 0.0, 1.0))


def resample_map(cmap: CorrespondenceMap, new_h: int, new_w: int) -> CorrespondenceMap:
    """Resample a correspondence map onto a new grid with the separable
    tensor-grid resizer (`resize_grid`), rescaling both the grid positions
    and the stored source coordinates by the half-pixel mapping.

    Pixels whose interpolation touches any invalid prior pixel are invalid,
    so a map with no valid pixel gives all-invalid, zero coordinates, which
    are returned without resampling.  The top and the bottom half of the new
    rows are resampled at once (see _halves).  Target dimensions below 1
    raise ValueError.
    """
    if new_h < 1 or new_w < 1:
        raise ValueError(f"target dims must be >= 1, got {new_h}x{new_w}")
    h, w = cmap.height, cmap.width
    if (new_h, new_w) == (h, w):
        return cmap
    if not cmap.valid.any():
        return CorrespondenceMap(np.zeros((new_h, new_w, 2)), np.zeros((new_h, new_w), dtype=bool))
    grid = np.dstack([cmap.coords, cmap.valid])

    def rows(r0, r1):
        stacked = _resize_rows(grid, new_h, new_w, r0, r1)
        # source coordinates rescale with the same half-pixel convention
        stacked[..., :2] = half_pixel(stacked[..., :2], np.array([w, h]), np.array([new_w, new_h]))
        return stacked

    return CorrespondenceMap(*_valid_samples(np.concatenate(_halves(rows, new_h))))


# ---------------------------------------------------------------------------
# PGM / PPM (binary P5 / P6, maxval 255)
# ---------------------------------------------------------------------------

def _read_pnm_token(buf: bytes, pos: int):
    """Next whitespace-delimited header token, skipping '#' comments."""
    n = len(buf)
    while pos < n:
        c = buf[pos:pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            while pos < n and buf[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
        else:
            break
    if pos >= n:
        raise ParseError(f"unexpected end of header at byte {pos}")
    start = pos
    while pos < n and not buf[pos:pos + 1].isspace():
        pos += 1
    return buf[start:pos], pos


def load_image(path) -> Image:
    with open(path, "rb") as f:
        buf = f.read()
    if len(buf) < 2:
        raise ParseError("truncated file at byte 0")
    magic = buf[:2]
    if magic not in (b"P5", b"P6"):
        raise ParseError(f"unsupported magic {magic!r} at byte 0")
    pos = 2
    fields = []
    for _ in range(3):
        tok, pos = _read_pnm_token(buf, pos)
        if not tok.isdigit():
            raise ParseError(f"non-numeric header token {tok!r} at byte {pos - len(tok)}")
        fields.append(int(tok))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ParseError(f"bad dimensions {width}x{height} at byte {pos}")
    if maxval != 255:
        raise ParseError(f"unsupported maxval {maxval} at byte {pos}")
    if pos >= len(buf) or not buf[pos:pos + 1].isspace():
        raise ParseError(f"missing raster separator at byte {pos}")
    pos += 1
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    raster = buf[pos:pos + need]
    if len(raster) < need:
        raise ParseError(f"truncated raster at byte {pos + len(raster)}")
    data = np.frombuffer(raster, dtype=np.uint8).astype(np.float64) / 255.0
    if channels == 1:
        return Image(data.reshape(height, width))
    return Image(data.reshape(height, width, 3))


def save_image(image: Image, path) -> None:
    q = np.rint(np.clip(image.pixels, 0.0, 1.0) * 255.0).astype(np.uint8)
    magic = b"P5" if image.channels == 1 else b"P6"
    header = magic + b"\n%d %d\n255\n" % (image.width, image.height)
    with open(path, "wb") as f:
        f.write(header)
        f.write(q)


# ---------------------------------------------------------------------------
# CMAP / FMAP / GDSC binary formats
# ---------------------------------------------------------------------------

_MAX_DIM = 1 << 20

# payloads of at least this many bytes (FMAPs) are read in two halves at
# once; smaller ones (CMAPs and GDSCs) in one read on the calling thread
SPLIT_READ_BYTES = 1 << 20


def _write_binary(path, magic: bytes, dims, *arrays) -> None:
    """Write the container: magic, version 1, dims, then the arrays' bytes."""
    with open(path, "wb") as f:
        f.write(magic + struct.pack("<%dI" % (1 + len(dims)), 1, *dims))
        for a in arrays:
            f.write(a)


def _read_binary(path, magic: bytes, n_dims: int, cell_bytes: int):
    """(dims, payload) of a container file, payload a flat uint8 array of
    cell_bytes per cell.  The header, then the payload size against the
    file's size, are checked before the payload is allocated, so a malformed
    file costs no more memory than its header; the payload is then read
    straight into the array (see SPLIT_READ_BYTES)."""
    pos = 4 + 4 * (1 + n_dims)
    with open(path, "rb") as f:
        head = f.read(pos)
        size = os.fstat(f.fileno()).st_size
    if len(head) < len(magic) and magic.startswith(head):
        raise ParseError(f"truncated header at byte {len(head)}")
    if head[:4] != magic:
        raise ParseError(f"wrong magic {head[:4]!r} at byte 0, expected {magic!r}")
    if len(head) < pos:
        raise ParseError(f"truncated header at byte {len(head)}")
    version, *dims = struct.unpack_from("<%dI" % (1 + n_dims), head, 4)
    if version != 1:
        raise ParseError(f"unsupported version {version} at byte 4")
    for i, d in enumerate(dims):
        if d == 0 or d > _MAX_DIM:
            raise ParseError(f"dimension {d} out of range at byte {8 + 4 * i}")
    need = cell_bytes * math.prod(dims)
    if size - pos < need:
        raise ParseError(f"truncated payload at byte {size}")
    payload = np.empty(need, dtype=np.uint8)

    def read(lo, hi):
        with open(path, "rb") as f:
            f.seek(pos + lo)
            got = f.readinto(payload[lo:hi])
        if got != hi - lo:
            # the file shrank after its size was read
            raise ParseError(f"truncated payload at byte {pos + lo + got}")

    if need < SPLIT_READ_BYTES:
        read(0, need)
    else:
        _halves(read, need)
    return dims, payload


def write_cmap(cmap: CorrespondenceMap, path) -> None:
    _write_binary(path, b"CMAP", (cmap.height, cmap.width),
                  np.ascontiguousarray(cmap.coords, dtype="<f4"),
                  np.ascontiguousarray(cmap.valid, dtype=np.uint8))


def read_cmap(path) -> CorrespondenceMap:
    (h, w), payload = _read_binary(path, b"CMAP", 2, 9)
    coords = payload[:8 * h * w].view("<f4").astype(np.float64).reshape(h, w, 2)
    return CorrespondenceMap(coords, payload[8 * h * w:].reshape(h, w) != 0)


def write_fmap(fmap: FeatureMap, path) -> None:
    _write_binary(path, b"FMAP", fmap.values.shape, np.ascontiguousarray(fmap.values, dtype="<f4"))


def read_fmap(path) -> FeatureMap:
    (h, w, c), payload = _read_binary(path, b"FMAP", 3, 4)
    return FeatureMap(payload.view("<f4").reshape(h, w, c))


def write_gdsc(desc: GlobalDescriptor, path) -> None:
    _write_binary(path, b"GDSC", (desc.dim,), np.ascontiguousarray(desc.values, dtype="<f4"))


def read_gdsc(path) -> GlobalDescriptor:
    _, payload = _read_binary(path, b"GDSC", 1, 4)
    # f32 quantization of a unit vector keeps the norm well within the 1e-6
    # tolerance, so the payload is returned bit-faithfully
    return GlobalDescriptor(payload.view("<f4").astype(np.float64))
