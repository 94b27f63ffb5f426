"""Core value types, coordinate conventions, bilinear sampling and file I/O.

Conventions used throughout the package:

* pixel centers sit at integer coordinates, (0, 0) is the top-left pixel
  center, x indexes columns and y indexes rows;
* a correspondence map defined on image B's grid stores, per pixel, the
  absolute (x, y) coordinate of the matching point in image A, so sampling
  A at those coordinates warps A into B's frame;
* out-of-bounds samples are treated as invalid rather than clamped.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np


class ParseError(ValueError):
    """Malformed binary payload; message carries the failing byte offset."""


class InvalidSampleError(ValueError):
    """Requested sample coordinate falls outside the grid."""


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
    exists.  Coordinates at invalid pixels are not meaningful.
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
        if not np.isfinite(c[v]).all():
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
        sh, sw = source_hw
        with np.errstate(invalid="ignore"):
            valid = (
                np.isfinite(coords).all(axis=2)
                & (coords[..., 0] >= 0.0) & (coords[..., 0] <= sw - 1.0)
                & (coords[..., 1] >= 0.0) & (coords[..., 1] <= sh - 1.0)
            )
        safe = np.where(valid[..., None], coords, 0.0)
        return cls(safe, valid)


@dataclass(frozen=True)
class FeatureMap:
    """Dense descriptor grid, (H, W, C) float32.

    When ``unit_normalized`` each per-pixel channel vector has L2 norm 1
    within 1e-5, except texture-free pixels which stay exactly zero.
    """

    values: np.ndarray
    unit_normalized: bool = False

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float32)
        if v.ndim != 3:
            raise ValueError(f"feature map must be (H, W, C), got {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("feature map contains non-finite values")
        if self.unit_normalized:
            sq = np.einsum("hwc,hwc->hw", v, v)
            bad = (sq > 1e-14) & (np.abs(sq - 1.0) > 2.5e-5)
            if bad.any():
                raise ValueError("feature map flagged unit-normalized has off-norm pixels")
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

def bilinear_sample(values, x: float, y: float):
    """Bilinear interpolation of a (H, W) or (H, W, C) grid at one point.

    Exact at integer coordinates.  Raises InvalidSampleError outside
    [0, W-1] x [0, H-1].
    """
    values = np.asarray(values)
    h, w = values.shape[:2]
    if not (0.0 <= x <= w - 1.0 and 0.0 <= y <= h - 1.0):
        raise InvalidSampleError(f"sample ({x}, {y}) outside [0,{w - 1}]x[0,{h - 1}]")
    out, _ = bilinear_sample_grid(values, [x], [y])
    return out[0]


def bilinear_sample_grid(values, xs, ys):
    """Vectorized bilinear sampling with an out-of-bounds validity mask.

    Returns (samples, ok) in float64; samples are 0 where ok is False.
    """
    values = np.asarray(values)
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    h, w = values.shape[:2]
    with np.errstate(invalid="ignore"):
        ok = np.isfinite(xs) & np.isfinite(ys) \
            & (xs >= 0.0) & (xs <= w - 1.0) & (ys >= 0.0) & (ys <= h - 1.0)
    cx = np.where(ok, xs, 0.0)
    cy = np.where(ok, ys, 0.0)
    x0 = np.minimum(np.floor(cx).astype(np.int64), max(w - 2, 0))
    y0 = np.minimum(np.floor(cy).astype(np.int64), max(h - 2, 0))
    fx = cx - x0
    fy = cy - y0
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    if values.ndim == 3:
        fx = fx[..., None]
        fy = fy[..., None]
    # the float64 weights promote only the gathered corners, never the grid
    top = values[y0, x0] * (1.0 - fx) + values[y0, x1] * fx
    bot = values[y1, x0] * (1.0 - fx) + values[y1, x1] * fx
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

    Always returns a new array.
    """
    v = np.ascontiguousarray(values)
    h, w = v.shape[:2]
    if (new_h, new_w) == (h, w):
        return v.copy()
    ys = half_pixel_axis(h, new_h)
    xs = half_pixel_axis(w, new_w)
    y0 = np.minimum(np.floor(ys).astype(np.int64), max(h - 2, 0))
    x0 = np.minimum(np.floor(xs).astype(np.int64), max(w - 2, 0))
    trail = (1,) * (v.ndim - 2)
    fy = (ys - y0).astype(v.dtype).reshape((-1, 1) + trail)
    fx = (xs - x0).astype(v.dtype).reshape((-1,) + trail)
    rows = v[y0] * (1 - fy) + v[np.minimum(y0 + 1, h - 1)] * fy
    return rows[:, x0] * (1 - fx) + rows[:, np.minimum(x0 + 1, w - 1)] * fx


def sample_map(cmap: CorrespondenceMap, xs, ys):
    """Sample a correspondence map at real-valued grid positions.

    A sample is ok only when the position is in bounds and every grid pixel
    contributing a nonzero interpolation weight is itself valid.
    """
    coords, ok = bilinear_sample_grid(cmap.coords, xs, ys)
    vfrac, _ = bilinear_sample_grid(cmap.valid, xs, ys)
    ok = ok & (vfrac >= 1.0 - 1e-9)
    coords[~ok] = 0.0
    return coords, ok


def identity_map(h: int, w: int) -> CorrespondenceMap:
    """Map whose coordinates are the grid positions themselves."""
    xs, ys = np.meshgrid(np.arange(w, dtype=np.float64),
                         np.arange(h, dtype=np.float64))
    return CorrespondenceMap(np.stack([xs, ys], axis=2), np.ones((h, w), dtype=bool))


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
    """Resample a correspondence map onto a new grid, rescaling both the
    grid positions (half-pixel mapping) and the stored source coordinates.

    Pixels whose interpolation touches any invalid prior pixel are invalid.
    """
    h, w = cmap.height, cmap.width
    if (new_h, new_w) == (h, w):
        return cmap
    gx, gy = np.meshgrid(half_pixel_axis(w, new_w), half_pixel_axis(h, new_h))
    coords, ok = sample_map(cmap, gx, gy)
    # source coordinates rescale with the same half-pixel convention
    coords = half_pixel(coords, np.array([w, h]), np.array([new_w, new_h]))
    coords[~ok] = 0.0
    return CorrespondenceMap(coords, ok)


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
        f.write(q.tobytes())


# ---------------------------------------------------------------------------
# CMAP / FMAP / GDSC binary formats (little-endian)
# ---------------------------------------------------------------------------

_MAX_DIM = 1 << 20


def _read_header(buf: bytes, magic: bytes, n_dims: int):
    if buf[:4] != magic:
        raise ParseError(f"wrong magic {buf[:4]!r} at byte 0, expected {magic!r}")
    need = 4 + 4 * (1 + n_dims)
    if len(buf) < need:
        raise ParseError(f"truncated header at byte {len(buf)}")
    vals = struct.unpack_from("<%dI" % (1 + n_dims), buf, 4)
    if vals[0] != 1:
        raise ParseError(f"unsupported version {vals[0]} at byte 4")
    for i, d in enumerate(vals[1:]):
        if d == 0 or d > _MAX_DIM:
            raise ParseError(f"dimension {d} out of range at byte {8 + 4 * i}")
    return vals[1:], need


def write_cmap(cmap: CorrespondenceMap, path) -> None:
    h, w = cmap.height, cmap.width
    with open(path, "wb") as f:
        f.write(b"CMAP" + struct.pack("<III", 1, h, w))
        f.write(cmap.coords.astype("<f4").tobytes())
        f.write(cmap.valid.astype(np.uint8).tobytes())


def read_cmap(path) -> CorrespondenceMap:
    with open(path, "rb") as f:
        buf = f.read()
    (h, w), pos = _read_header(buf, b"CMAP", 2)
    n = h * w
    need = 8 * n + n
    if len(buf) - pos < need:
        raise ParseError(f"truncated payload at byte {len(buf)}")
    coords = np.frombuffer(buf, dtype="<f4", count=2 * n, offset=pos)
    coords = coords.astype(np.float64).reshape(h, w, 2)
    flags = np.frombuffer(buf, dtype=np.uint8, count=n, offset=pos + 8 * n)
    valid = flags.reshape(h, w) != 0
    coords = coords.copy()
    coords[~valid] = 0.0
    return CorrespondenceMap(coords, valid)


def write_fmap(fmap: FeatureMap, path) -> None:
    h, w, c = fmap.values.shape
    with open(path, "wb") as f:
        f.write(b"FMAP" + struct.pack("<IIII", 1, h, w, c))
        f.write(fmap.values.astype("<f4").tobytes())


def read_fmap(path) -> FeatureMap:
    with open(path, "rb") as f:
        buf = f.read()
    (h, w, c), pos = _read_header(buf, b"FMAP", 3)
    n = h * w * c
    if len(buf) - pos < 4 * n:
        raise ParseError(f"truncated payload at byte {len(buf)}")
    values = np.frombuffer(buf, dtype="<f4", count=n, offset=pos).reshape(h, w, c)
    return FeatureMap(values)


def write_gdsc(desc: GlobalDescriptor, path) -> None:
    with open(path, "wb") as f:
        f.write(b"GDSC" + struct.pack("<II", 1, desc.dim))
        f.write(desc.values.astype("<f4").tobytes())


def read_gdsc(path) -> GlobalDescriptor:
    with open(path, "rb") as f:
        buf = f.read()
    (dim,), pos = _read_header(buf, b"GDSC", 1)
    if len(buf) - pos < 4 * dim:
        raise ParseError(f"truncated payload at byte {len(buf)}")
    values = np.frombuffer(buf, dtype="<f4", count=dim, offset=pos).astype(np.float64)
    # f32 quantization of a unit vector keeps the norm well within the 1e-6
    # tolerance, so the payload is returned bit-faithfully
    return GlobalDescriptor(values)
