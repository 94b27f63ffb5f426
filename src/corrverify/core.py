"""Core value types, coordinate conventions, bilinear sampling and file I/O.

Conventions used throughout the package:

* pixel centers sit at integer coordinates, (0, 0) is the top-left pixel
  center, x indexes columns and y indexes rows;
* a correspondence map defined on image B's grid stores, per pixel, the
  absolute (x, y) coordinate of the matching point in image A, so sampling
  A at those coordinates warps A into B's frame;
* out-of-bounds samples are treated as invalid rather than clamped;
* a point with no image (``sample_map``, ``verify.project``,
  ``synth.warp_points``) is a nan row; a sampled value with no sample
  (``bilinear_sample_grid``) is 0.

CMAP, FMAP and GDSC files share one container: a 4-byte magic, a u32
version (1), u32 dimensions, then a little-endian payload.  CMAP (H, W):
f32 (x, y) per pixel, then u8 valid per pixel.  FMAP (H, W, C): f32 H x W x C.
GDSC (D): f32 D.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .rng import _integer


# a pass that walks rows or pixels in blocks to stay in cache keeps each
# block's float64 working set to about this many bytes: S_L's gathered
# planes (a 480^2 planar pair has ~215k masked pixels of 50 channels, 86 MB
# per plane if gathered at once), RANSAC's scoring planes, the descriptor
# window sum, FeatureMap's finiteness check and the TPS basis planes of
# synth's warps (4 MiB per plane for a 240^2 grid against 9 controls)
BLOCK_BYTES = 400 << 10


class ParseError(ValueError):
    """Malformed binary payload; message carries the failing byte offset."""


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Image:
    """Grayscale intensity image, (H, W), values in [0, 1].

    Pipeline entry points (resizing to the working resolution, pyramid
    construction) require at least 8x8 pixels; tiny images are still
    representable so the file I/O round-trips anything a PGM file encodes.
    """

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float64)
        if px.ndim != 2:
            raise ValueError(f"image must be (H, W), got {px.shape}")
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
        c = np.asarray(self.coords, dtype=np.float64)
        v = np.asarray(self.valid, dtype=bool).copy()
        if c.ndim != 3 or c.shape[2] != 2 or 0 in c.shape:
            raise ValueError(f"coords must be (H, W, 2) with H, W >= 1, got {c.shape}")
        if v.shape != c.shape[:2]:
            raise ValueError("valid mask shape does not match coords grid")
        # copy and zero in one pass: c[~v] = 0 would build an index array
        c = np.where(v[..., None], c, 0.0)
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
        """Build a map marking valid exactly the coordinates in bounds of a
        source frame source_hw = (h, w).  Dims that are not integers >= 1
        (numbers.Integral, not bool) raise ValueError naming source_hw."""
        h, w = source_hw
        if _integer(h, "source_hw") < 1 or _integer(w, "source_hw") < 1:
            raise ValueError(f"source_hw must be >= 1, got {source_hw}")
        coords = np.asarray(coords, dtype=np.float64)
        return cls(coords, _in_bounds(coords[..., 0], coords[..., 1], h, w))


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
        if v.ndim != 3 or 0 in v.shape:
            raise ValueError(f"feature map must be (H, W, C) with H, W >= 1 and C >= 1, "
                             f"got {v.shape}")
        # min and max propagate nan and report +-inf, without the boolean
        # temporary of isfinite (11 MiB for a 480^2 x 50 hypercolumn); taken
        # block by block, max reads each block from cache after min
        flat, step = v.reshape(-1), BLOCK_BYTES // v.itemsize
        for i in range(0, flat.size, step):
            block = flat[i:i + step]
            if not (math.isfinite(block.min()) and math.isfinite(block.max())):
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
    """Positions that are finite and lie in [0, w-1] x [0, h-1] (nan fails
    every comparison and +-inf one of them)."""
    with np.errstate(invalid="ignore"):
        return (xs >= 0.0) & (xs <= w - 1.0) & (ys >= 0.0) & (ys <= h - 1.0)


def _corners(pos, n: int):
    """Bilinear corners of positions in [0, n-1] on an n-pixel axis: the
    lower pixel i0 (at most n-2, so position n-1 takes i0 = n-2 with weight
    1), the step to the upper pixel (0 on a one-pixel axis) and the upper
    weight pos - i0.  Truncation is floor on [0, n-1]."""
    i0 = np.minimum(pos.astype(np.int64), max(n - 2, 0))
    return i0, int(n > 1), pos - i0


def _stencil(xs, ys, h: int, w: int):
    """Bilinear stencil of positions on an (h, w) grid: ok (in bounds), the
    flat index of each (y0, x0) corner, the offsets from it to the (y0, x0),
    (y0, x1), (y1, x0) and (y1, x1) corners, and the weights 1-fx, fx, 1-fy,
    fy; positions not ok take those of (0, 0).  Empty grids raise ValueError."""
    if h < 1 or w < 1:
        raise ValueError(f"cannot sample an empty {h}x{w} grid")
    xs, ys = (np.asarray(p, dtype=np.float64) for p in (xs, ys))
    ok = _in_bounds(xs, ys, h, w)
    x0, dx, fx = _corners(np.where(ok, xs, 0.0), w)
    y0, dy, fy = _corners(np.where(ok, ys, 0.0), h)
    y0 *= w
    y0 += x0
    return ok, y0, (0, dx, dy * w, dy * w + dx), (1.0 - fx, fx, 1.0 - fy, fy)


def _interpolate(values, stencil) -> np.ndarray:
    """The library's one bilinear gather: an (H, W) or (H, W, C) grid at a
    _stencil of it, in float64, 0 where the stencil is not ok.  Each corner
    is read with np.take from the (H*W, ...) rows, widened to float64 by one
    copy (the corners, never the grid) and weighted in place, in three
    float64 planes.  The pinned digests depend on this order, bit for bit:
    ((v00*(1-fx) + v01*fx) * (1-fy)) + ((v10*(1-fx) + v11*fx) * fy)."""
    ok, index, offsets, weights = stencil
    flat = values.reshape((values.shape[0] * values.shape[1],) + values.shape[2:])
    wx0, wx1, wy0, wy1 = (wt.reshape(wt.shape + (1,) * (values.ndim - 2)) for wt in weights)
    top, bot, tmp = (np.empty(ok.shape + values.shape[2:]) for _ in range(3))
    for row, k, wy in ((top, 0, wy0), (bot, 2, wy1)):
        for plane, j, wx in ((row, k, wx0), (tmp, k + 1, wx1)):
            # every index is in range: clip changes no value, at half raise's time
            np.copyto(plane, flat[offsets[j]:].take(index, axis=0, mode="clip"))
            plane *= wx
        row += tmp
        row *= wy
    top += bot
    top[~ok] = 0.0
    return top


def bilinear_sample_grid(values, xs, ys):
    """Vectorized bilinear sampling, in float64, 0 where a position is out
    of bounds or not finite.  An empty grid raises ValueError."""
    values = np.asarray(values)
    return _interpolate(values, _stencil(xs, ys, *values.shape[:2]))


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

    Always returns a new array, interpolated at every size (at the grid's
    own size each weight is 0 or 1).  An empty grid, or target dims that
    are not integers >= 1 (numbers.Integral, not bool), raise ValueError.
    """
    if 0 in np.shape(values)[:2]:
        raise ValueError(f"cannot resize an empty {np.shape(values)[:2]} grid")
    if _integer(new_h, "new_h") < 1 or _integer(new_w, "new_w") < 1:
        raise ValueError(f"target dims must be >= 1, got {new_h}x{new_w}")
    return _resize_rows(np.ascontiguousarray(values), new_h, new_w, 0, new_h)


def _resize_rows(v: np.ndarray, new_h: int, new_w: int, r0: int, r1: int) -> np.ndarray:
    """Rows r0:r1 of resize_grid(v, new_h, new_w) for a C-contiguous v, as a
    new array; each output pixel is computed as in the whole grid."""
    h, w = v.shape[:2]
    y0, dy, fy = _corners(half_pixel_axis(h, new_h)[r0:r1], h)
    x0, dx, fx = _corners(half_pixel_axis(w, new_w), w)
    trail = (1,) * (v.ndim - 2)
    fy = fy.astype(v.dtype).reshape((-1, 1) + trail)
    fx = fx.astype(v.dtype).reshape((-1,) + trail)
    # the bits of a * wa + b * wb, with each product and sum taken in place
    rows = v[y0] * (1 - fy)
    rows += v[y0 + dy] * fy
    out, right = rows[:, x0], rows[:, x0 + dx]
    out *= 1 - fx
    right *= fx
    out += right
    return out


def sample_map(cmap: CorrespondenceMap, xs, ys):
    """Sample a correspondence map at real-valued grid positions, plane by
    plane: one _stencil of the positions, then `_interpolate` of the
    validity plane and of each coordinate plane.

    Returns the (..., 2) sampled coordinates, with a nan row where the
    sample is not ok: the position is out of bounds, or its interpolated
    validity is below 1 - 1e-9.  So an invalid grid pixel may contribute a
    weight of up to ~1e-9, on purpose: rounding moves positions just off a
    pixel centre (``half_pixel_axis(7, 25)`` puts one 4.4e-16 past a
    centre), and such a position must not lose its sample to an invalid
    neighbour it barely draws on.
    """
    stencil = _stencil(xs, ys, cmap.height, cmap.width)
    ok = stencil[0] & (_interpolate(cmap.valid, stencil) >= 1.0 - 1e-9)
    coords = np.stack([_interpolate(cmap.coords[..., k], stencil) for k in range(2)], axis=-1)
    coords[~ok] = np.nan
    return coords


# ---------------------------------------------------------------------------
# image operations
# ---------------------------------------------------------------------------

def resize_image(image: Image, new_h: int, new_w: int) -> Image:
    """Bilinear resampling with half-pixel (area-centered) mapping; target
    dims that are not integers >= 8 (numbers.Integral, not bool) raise
    ValueError."""
    if _integer(new_h, "new_h") < 8 or _integer(new_w, "new_w") < 8:
        raise ValueError(f"target dims must be >= 8, got {new_h}x{new_w}")
    if (new_h, new_w) == (image.height, image.width):
        return image
    return Image(np.clip(resize_grid(image.pixels, new_h, new_w), 0.0, 1.0))


def resample_map(cmap: CorrespondenceMap, new_h: int, new_w: int) -> CorrespondenceMap:
    """Resample a correspondence map onto a new grid with the separable
    tensor-grid resizer (`resize_grid`), rescaling both the grid positions
    and the stored source coordinates by the half-pixel mapping.

    Pixels whose interpolation touches an invalid prior pixel are invalid,
    with sample_map's validity tolerance, so a map with no valid pixel
    gives all-invalid, zero coordinates, which are returned without
    resampling.  It works plane by plane, on the calling
    thread: one resize_grid pass of the validity plane (as float64) and of
    each coordinate plane.  Target dimensions that are not integers >= 1
    (numbers.Integral, not bool) raise ValueError.
    """
    if _integer(new_h, "new_h") < 1 or _integer(new_w, "new_w") < 1:
        raise ValueError(f"target dims must be >= 1, got {new_h}x{new_w}")
    h, w = cmap.height, cmap.width
    if (new_h, new_w) == (h, w):
        return cmap
    if not cmap.valid.any():
        return CorrespondenceMap(np.zeros((new_h, new_w, 2)), np.zeros((new_h, new_w), dtype=bool))
    ok = resize_grid(cmap.valid.astype(np.float64), new_h, new_w) >= 1.0 - 1e-9
    # source coordinates rescale with the same half-pixel convention
    return CorrespondenceMap(np.stack([
        half_pixel(resize_grid(cmap.coords[..., k], new_h, new_w), n, new_n)
        for k, (n, new_n) in enumerate(((w, new_w), (h, new_h)))], axis=-1), ok)


# ---------------------------------------------------------------------------
# PGM / PPM: reads binary P5 and P6, writes P5 (maxval 255)
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


GRAY_WEIGHTS = (0.299, 0.587, 0.114)


def load_image(path) -> Image:
    """Image of a binary PGM (P5) or PPM (P6) file, maxval 255; a P6
    raster becomes luma via GRAY_WEIGHTS, clipped to [0, 1]."""
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
    if channels == 3:
        r, g, b = GRAY_WEIGHTS
        data = np.clip(r * data[0::3] + g * data[1::3] + b * data[2::3], 0.0, 1.0)
    return Image(data.reshape(height, width))


def save_image(image: Image, path) -> None:
    q = np.rint(np.clip(image.pixels, 0.0, 1.0) * 255.0).astype(np.uint8)
    header = b"P5\n%d %d\n255\n" % (image.width, image.height)
    with open(path, "wb") as f:
        f.write(header)
        f.write(q)


# ---------------------------------------------------------------------------
# CMAP / FMAP / GDSC binary formats
# ---------------------------------------------------------------------------

_MAX_DIM = 1 << 20


def _write_binary(path, magic: bytes, dims, *arrays) -> None:
    """Write the container: magic, version 1, dims, then the arrays' bytes.
    A dimension the reader refuses raises ValueError before the file opens."""
    if not all(1 <= d <= _MAX_DIM for d in dims):
        raise ValueError(f"dimensions {tuple(dims)} must lie in [1, {_MAX_DIM}]")
    with open(path, "wb") as f:
        f.write(magic + struct.pack("<%dI" % (1 + len(dims)), 1, *dims))
        for a in arrays:
            f.write(a)


def _read_binary(path, magic: bytes, n_dims: int, cell_bytes: int):
    """(dims, payload) of a container file, payload a flat uint8 array of
    cell_bytes per cell.  The file is opened once.  The header, then the
    payload size against the file's size, are checked before the payload is
    allocated, so a malformed file costs no more memory than its header; the
    payload is then read straight into the array with one readinto, on the
    calling thread."""
    pos = 4 + 4 * (1 + n_dims)
    with open(path, "rb") as f:
        head = f.read(pos)
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
        size = os.fstat(f.fileno()).st_size
        if size - pos < need:
            raise ParseError(f"truncated payload at byte {size}")
        payload = np.empty(need, dtype=np.uint8)
        got = f.readinto(payload)
    if got != need:
        # the file shrank after its size was read
        raise ParseError(f"truncated payload at byte {pos + got}")
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
