"""Core types, sampling, resizing and file formats."""

import os
import struct
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrverify import core
from corrverify.core import (
    CorrespondenceMap,
    GlobalDescriptor,
    FeatureMap,
    Image,
    Mask,
    ParseError,
    bilinear_sample_grid,
    load_image,
    read_cmap,
    read_fmap,
    read_gdsc,
    half_pixel,
    half_pixel_axis,
    resample_map,
    resize_grid,
    resize_image,
    sample_map,
    save_image,
    write_cmap,
    write_fmap,
    write_gdsc,
)
from corrverify.verify import RansacConfig, fit_homography_dlt, ransac_homography

from helpers import count_threads, identity_map


def naive_bilinear(values, x, y):
    """Independent 4-term bilinear formula."""
    x0, y0 = int(np.floor(x)), int(np.floor(y))
    x0 = min(x0, values.shape[1] - 2)
    y0 = min(y0, values.shape[0] - 2)
    fx, fy = x - x0, y - y0
    return (
        values[y0, x0] * (1 - fx) * (1 - fy)
        + values[y0, x0 + 1] * fx * (1 - fy)
        + values[y0 + 1, x0] * (1 - fx) * fy
        + values[y0 + 1, x0 + 1] * fx * fy
    )


class TestBilinearSample:
    def test_integer_coordinate_is_identity(self):
        rng = np.random.default_rng(0)
        grid = rng.random((8, 8))
        out = bilinear_sample_grid(grid, [3], [5])
        assert out[0] == grid[5, 3]

    def test_corner_midpoint_symmetry(self):
        grid = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = bilinear_sample_grid(grid, [0.5], [0.5])
        assert out[0] == pytest.approx(0.5)

    def test_matches_hand_computed_weighted_sum(self):
        rng = np.random.default_rng(7)
        grid = rng.random((4, 4))
        out = bilinear_sample_grid(grid, [1.25], [2.75])
        assert out[0] == pytest.approx(naive_bilinear(grid, 1.25, 2.75), abs=1e-12)

    def test_out_of_bounds_is_invalid_and_zero(self):
        grid = np.ones((4, 4))
        out = bilinear_sample_grid(grid, [-0.01, 0, 3.01, 0, np.nan, np.inf],
                                   [0, -0.01, 0, 3.01, 1, 1])
        assert np.all(out == 0.0)

    def test_linear_along_axis(self):
        rng = np.random.default_rng(3)
        grid = rng.random((5, 5))
        ts = np.array([0.2, 0.5, 0.9])
        v0, v1 = bilinear_sample_grid(grid, [1.0, 2.0], [2, 2])
        out = bilinear_sample_grid(grid, 1.0 + ts, np.full(3, 2))
        assert out == pytest.approx(v0 + ts * (v1 - v0))

    def test_channels_match_hand_computed_and_flag_oob(self):
        rng = np.random.default_rng(11)
        grid = rng.random((6, 7, 3))
        xs = np.array([0.0, 5.9, -1.0, 3.25])
        ys = np.array([0.0, 4.9, 2.0, 1.5])
        out = bilinear_sample_grid(grid, xs, ys)
        assert np.allclose(out[1], naive_bilinear(grid, 5.9, 4.9))
        assert np.allclose(out[3], naive_bilinear(grid, 3.25, 1.5))
        assert np.all(out[2] == 0.0)

    @given(st.integers(0, 6), st.integers(0, 6))
    @settings(max_examples=25, deadline=None)
    def test_exact_at_grid_points(self, ix, iy):
        rng = np.random.default_rng(ix * 31 + iy)
        grid = rng.random((7, 7))
        out = bilinear_sample_grid(grid, [ix], [iy])
        assert out[0] == grid[iy, ix]


class TestImageType:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Image(np.full((8, 8), 1.5))
        with pytest.raises(ValueError):
            Image(np.full((8, 8), np.nan))

    def test_rejects_rgb(self):
        # colour enters only through load_image, which reduces it to luma
        with pytest.raises(ValueError, match=r"\(H, W\)"):
            Image(np.zeros((8, 8, 3)))


EMPTY_GRIDS = [(0, 5), (5, 0), (0, 0)]


class TestEmptyGridRejected:
    """Like Image, the map types reject a grid with no rows or no columns,
    and FeatureMap one with no channels.  Unchecked, sample_map raised
    IndexError on such a map, the global descriptor of such a level took the
    mean of an empty slice, and a map with no channels was written to an
    FMAP file that read_fmap refused."""

    @pytest.mark.parametrize("hw", EMPTY_GRIDS)
    def test_feature_map(self, hw):
        with pytest.raises(ValueError, match="H, W >= 1"):
            FeatureMap(np.zeros(hw + (3,), np.float32))

    def test_feature_map_no_channels(self):
        with pytest.raises(ValueError, match="C >= 1"):
            FeatureMap(np.zeros((4, 4, 0), np.float32))

    @pytest.mark.parametrize("hw", EMPTY_GRIDS)
    def test_correspondence_map(self, hw):
        with pytest.raises(ValueError, match="H, W >= 1"):
            CorrespondenceMap(np.zeros(hw + (2,)), np.zeros(hw, dtype=bool))


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0), (0, 5, 2)])
class TestEmptyRawGridRejected:
    """A raw array with no rows or no columns gets a ValueError from the
    samplers, not the IndexError of an empty take."""

    def test_resize_grid(self, shape):
        with pytest.raises(ValueError, match="empty"):
            resize_grid(np.zeros(shape), 3, 3)

    def test_bilinear_sample_grid(self, shape):
        with pytest.raises(ValueError, match="empty"):
            bilinear_sample_grid(np.zeros(shape), [0.0], [0.0])


class TestPnmIO:
    def test_p5_scaling(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        img = load_image(p)
        assert img.pixels.tolist() == [[0.0, 1.0], [128 / 255, 64 / 255]]

    def test_round_trip_bit_exact_after_quantization(self, tmp_path):
        rng = np.random.default_rng(5)
        img = Image(rng.random((9, 12)))
        p = tmp_path / "r.pgm"
        save_image(img, p)
        back = load_image(p)
        save_image(back, tmp_path / "r2.pgm")
        assert (tmp_path / "r.pgm").read_bytes() == (tmp_path / "r2.pgm").read_bytes()
        assert np.abs(back.pixels - img.pixels).max() <= 0.5 / 255 + 1e-12

    def test_ppm_loads_as_luma(self, tmp_path):
        q = np.random.default_rng(6).integers(0, 256, (7, 9, 3), dtype=np.uint8)
        q[0, :3] = [[255, 255, 255], [255, 0, 0], [0, 0, 0]]
        p = tmp_path / "c.ppm"
        p.write_bytes(b"P6\n9 7\n255\n" + q.tobytes())
        px = q.astype(np.float64) / 255.0
        r, g, b = core.GRAY_WEIGHTS
        expect = np.clip(r * px[..., 0] + g * px[..., 1] + b * px[..., 2], 0.0, 1.0)
        back = load_image(p)
        assert back.pixels.shape == (7, 9)
        assert back.pixels.tobytes() == expect.tobytes()
        assert back.pixels[0, :3].tolist() == [pytest.approx(1.0), 0.299, 0.0]

    def test_maxval_rejected(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
        with pytest.raises(ParseError, match="maxval"):
            load_image(p)

    def test_truncated_payload_reports_offset(self, tmp_path):
        p = tmp_path / "short.pgm"
        p.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(ParseError, match="byte"):
            load_image(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
        with pytest.raises(ParseError):
            load_image(p)

    def test_header_comments_skipped(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# a comment\n2 1 # inline\n255\n" + bytes([10, 20]))
        img = load_image(p)
        assert img.width == 2 and img.height == 1


class TestCmapIO:
    def test_identity_round_trip(self, tmp_path):
        m = identity_map(4, 4)
        p = tmp_path / "m.cmap"
        write_cmap(m, p)
        back = read_cmap(p)
        assert np.array_equal(back.coords, m.coords)
        assert np.array_equal(back.valid, m.valid)

    def test_invalid_pixels_preserved(self, tmp_path):
        m = identity_map(5, 3)
        valid = m.valid.copy()
        valid[0, 0] = valid[2, 1] = valid[4, 2] = False
        m = CorrespondenceMap(m.coords, valid)
        p = tmp_path / "m.cmap"
        write_cmap(m, p)
        back = read_cmap(p)
        assert back.valid.sum() == m.valid.sum() == 12
        assert np.array_equal(back.valid, valid)

    def test_wrong_magic_rejected(self, tmp_path):
        p = tmp_path / "x.cmap"
        import struct

        p.write_bytes(b"XMAP" + struct.pack("<III", 1, 2, 2) + bytes(2 * 2 * 8 + 4))
        with pytest.raises(ParseError, match="magic"):
            read_cmap(p)

    def test_short_read_rejected(self, tmp_path):
        import struct

        p = tmp_path / "x.cmap"
        p.write_bytes(b"CMAP" + struct.pack("<III", 1, 4, 4) + bytes(10))
        with pytest.raises(ParseError):
            read_cmap(p)

    @pytest.mark.parametrize("seed", range(12))
    def test_round_trip_random_tensors(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        coords = rng.random((h, w, 2), dtype=np.float32).astype(np.float64) * 100
        coords = coords.astype(np.float32).astype(np.float64)  # f32-representable
        valid = rng.random((h, w)) < 0.8
        m = CorrespondenceMap(np.where(valid[..., None], coords, 0.0), valid)
        p = tmp_path / "r.cmap"
        write_cmap(m, p)
        back = read_cmap(p)
        assert np.array_equal(back.coords[back.valid], m.coords[m.valid])
        assert np.array_equal(back.valid, m.valid)


class TestFmapGdscIO:
    def test_fmap_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        fm = FeatureMap(rng.standard_normal((5, 6, 7), dtype=np.float32))
        p = tmp_path / "f.fmap"
        write_fmap(fm, p)
        back = read_fmap(p)
        assert np.array_equal(back.values, fm.values)

    def test_gdsc_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        v = rng.standard_normal(16)
        v = (v / np.linalg.norm(v)).astype(np.float32).astype(np.float64)
        d = GlobalDescriptor(v / np.linalg.norm(v))
        p = tmp_path / "g.gdsc"
        write_gdsc(d, p)
        back = read_gdsc(p)
        write_gdsc(back, tmp_path / "g2.gdsc")
        assert (tmp_path / "g.gdsc").read_bytes() == (tmp_path / "g2.gdsc").read_bytes()
        assert np.allclose(back.values, d.values, atol=1e-6)

    def test_fmap_wrong_magic(self, tmp_path):
        p = tmp_path / "bad.fmap"
        p.write_bytes(b"GARB" + bytes(32))
        with pytest.raises(ParseError):
            read_fmap(p)

    # a 480^2 x 50 hypercolumn: 46 MB, whose isfinite mask alone is 11 MiB
    HYPERCOLUMN = (480, 480, 50)

    def test_feature_map_check_allocates_nothing(self):
        v = np.full(self.HYPERCOLUMN, 0.5, dtype=np.float32)
        tracemalloc.start()
        try:
            fm = FeatureMap(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fm.values is v and peak < 1 << 20

    def test_read_fmap_peak_is_payload(self, tmp_path):
        p = tmp_path / "h.fmap"
        write_fmap(FeatureMap(np.full(self.HYPERCOLUMN, 0.5, dtype=np.float32)), p)
        tracemalloc.start()
        try:
            fm = read_fmap(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fm.values.shape == self.HYPERCOLUMN
        assert peak < fm.values.nbytes + (1 << 20)


class TestWriterBytes:
    """Each writer's file is a hand-assembled header plus the payload."""

    def test_fmap(self, tmp_path):
        v = np.random.default_rng(40).standard_normal((5, 6, 7), dtype=np.float32)
        write_fmap(FeatureMap(v), tmp_path / "f.fmap")
        expect = b"FMAP" + struct.pack("<IIII", 1, 5, 6, 7) + v.astype("<f4").tobytes()
        assert (tmp_path / "f.fmap").read_bytes() == expect

    def test_gdsc(self, tmp_path):
        v = np.random.default_rng(41).standard_normal(16)
        v /= np.linalg.norm(v)
        write_gdsc(GlobalDescriptor(v), tmp_path / "g.gdsc")
        expect = b"GDSC" + struct.pack("<II", 1, 16) + v.astype("<f4").tobytes()
        assert (tmp_path / "g.gdsc").read_bytes() == expect

    def test_cmap(self, tmp_path):
        rng = np.random.default_rng(42)
        coords = rng.random((4, 3, 2)) * 50
        valid = rng.random((4, 3)) < 0.7
        m = CorrespondenceMap(coords, valid)
        write_cmap(m, tmp_path / "m.cmap")
        # invalid pixels are stored (and written) as 0, not as given
        expect = (b"CMAP" + struct.pack("<III", 1, 4, 3) + m.coords.astype("<f4").tobytes()
                  + valid.astype(np.uint8).tobytes())
        assert (tmp_path / "m.cmap").read_bytes() == expect

    @pytest.mark.parametrize("write, value", [
        (write_fmap, lambda: FeatureMap(np.zeros((1, 1, (1 << 20) + 1), np.float32))),
        (write_cmap, lambda: CorrespondenceMap(np.zeros((1, (1 << 20) + 1, 2)),
                                               np.zeros((1, (1 << 20) + 1), bool)))],
        ids=["FMAP", "CMAP"])
    def test_dimension_the_reader_refuses(self, write, value, tmp_path):
        # the readers refuse a dimension above 2**20, so the writers do too,
        # before a file exists
        with pytest.raises(ValueError, match="1048577"):
            write(value(), tmp_path / "x.bin")
        assert not (tmp_path / "x.bin").exists()

    # P5 is the only format written; a P6 file loads as luma
    @pytest.mark.parametrize("shape, magic", [((5, 7), b"P5")])
    def test_pnm(self, shape, magic, tmp_path):
        px = np.random.default_rng(43).random(shape)
        save_image(Image(px), tmp_path / "i.pnm")
        q = np.rint(px * 255.0).astype(np.uint8)
        expect = magic + b"\n%d %d\n255\n" % (shape[1], shape[0]) + q.tobytes()
        assert (tmp_path / "i.pnm").read_bytes() == expect


READERS = {
    "FMAP": (read_fmap, 3),
    "GDSC": (read_gdsc, 1),
    "CMAP": (read_cmap, 2),
}


def binary_file(magic, version, dims, payload):
    return magic.encode() + struct.pack("<%dI" % (1 + len(dims)), version, *dims) + bytes(payload)


def random_container(fmt, dims, seed):
    """A random FMAP / CMAP / GDSC value of the given dims, and its writer."""
    rng = np.random.default_rng(seed)
    if fmt == "FMAP":
        return FeatureMap(rng.standard_normal(dims, dtype=np.float32)), write_fmap
    if fmt == "CMAP":
        valid = rng.random(dims) < 0.8
        return CorrespondenceMap(rng.random(dims + (2,)) * 100, valid), write_cmap
    v = rng.standard_normal(dims[0])
    return GlobalDescriptor(v / np.linalg.norm(v)), write_gdsc


# payloads from one cell to just over 1 MiB, of cells of 4 and of 9 bytes
PAYLOADS = [
    ("FMAP", (1, 1, 1)), ("FMAP", (1, 1, 3)), ("FMAP", (3, 1, 1)), ("FMAP", (5, 6, 7)),
    ("FMAP", (1, 262143, 1)), ("FMAP", (1, 262145, 1)),
    ("CMAP", (1, 1)), ("CMAP", (1, 116508)), ("CMAP", (341, 342)),
    ("GDSC", (1,)), ("GDSC", (262143,)), ("GDSC", (262145,)),
]
PAYLOAD_IDS = [fmt + "-" + "x".join(map(str, dims)) for fmt, dims in PAYLOADS]


def payload_bytes(fmt, dims):
    return {"FMAP": 4, "CMAP": 9, "GDSC": 4}[fmt] * int(np.prod(dims))


class TestBinaryPayload:
    """Every reader fills its payload through one path: one read on the
    calling thread, whatever the payload's size."""

    @pytest.mark.parametrize("fmt, dims", PAYLOADS, ids=PAYLOAD_IDS)
    def test_payload_bitwise(self, fmt, dims, tmp_path, monkeypatch):
        value, write = random_container(fmt, dims, 8)
        write(value, tmp_path / "a.bin")
        started = count_threads(monkeypatch)
        back = READERS[fmt][0](tmp_path / "a.bin")
        assert started == []
        write(back, tmp_path / "b.bin")
        assert (tmp_path / "b.bin").read_bytes() == (tmp_path / "a.bin").read_bytes()

    @pytest.mark.parametrize("fmt, dims", PAYLOADS, ids=PAYLOAD_IDS)
    def test_shrunk_while_read(self, fmt, dims, tmp_path, monkeypatch):
        # the size check passes, then the read comes up short
        value, write = random_container(fmt, dims, 9)
        p = tmp_path / "a.bin"
        write(value, p)
        size = p.stat().st_size
        os.truncate(p, size - 1)
        real = core.os.fstat
        monkeypatch.setattr(core.os, "fstat", lambda fd: types.SimpleNamespace(
            st_size=max(real(fd).st_size, size)))
        with pytest.raises(ParseError, match=f"truncated payload at byte {size - 1}$"):
            READERS[fmt][0](p)


class TestBinaryReaderRejections:
    """Malformed FMAP / GDSC / CMAP files raise ParseError at a byte offset."""

    @pytest.fixture(params=sorted(READERS))
    def fmt(self, request):
        return request.param

    def reject(self, fmt, data, offset, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(data)
        with pytest.raises(ParseError, match=f"at byte {offset}$"):
            READERS[fmt][0](p)

    def test_truncated_header(self, fmt, tmp_path):
        n_dims = READERS[fmt][1]
        data = binary_file(fmt, 1, [2] * n_dims, 0)[:-2]
        self.reject(fmt, data, len(data), tmp_path)

    @pytest.mark.parametrize("keep", [0, 1, 2, 3])
    def test_truncated_inside_magic(self, fmt, keep, tmp_path):
        # a prefix of the right magic is a short header, not a wrong magic
        self.reject(fmt, fmt.encode()[:keep], keep, tmp_path)

    @pytest.mark.parametrize("data", [b"X", b"XY", b"CX", b"FMX", b"GDSX"])
    def test_short_wrong_magic(self, fmt, data, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(data)
        with pytest.raises(ParseError, match=f"wrong magic {data!r} at byte 0,"):
            READERS[fmt][0](p)

    def test_truncated_payload(self, fmt, tmp_path):
        n_dims = READERS[fmt][1]
        data = binary_file(fmt, 1, [2] * n_dims, 3)
        self.reject(fmt, data, len(data), tmp_path)

    def test_version_2(self, fmt, tmp_path):
        n_dims = READERS[fmt][1]
        self.reject(fmt, binary_file(fmt, 2, [2] * n_dims, 64), 4, tmp_path)

    @pytest.mark.parametrize("claim", ["wrong magic", "dims past the end"])
    def test_rejected_before_payload_allocated(self, fmt, claim, tmp_path):
        # sparse files: a 64 MiB one with a wrong magic, and a header whose
        # dims need one byte more than the file holds
        n_dims = READERS[fmt][1]
        p = tmp_path / "x.bin"
        if claim == "wrong magic":
            p.write_bytes(b"GARB")
            os.truncate(p, 64 << 20)
            error = "wrong magic b'GARB' at byte 0,"
        else:
            dims = [1 << 20] + [1] * (n_dims - 1)
            p.write_bytes(binary_file(fmt, 1, dims, 0))
            size = 4 + 4 * (1 + n_dims) + payload_bytes(fmt, dims) - 1
            os.truncate(p, size)
            error = f"truncated payload at byte {size}$"
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=error):
                READERS[fmt][0](p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("bad", [0, (1 << 20) + 1])
    def test_dimension_out_of_range(self, fmt, bad, tmp_path):
        n_dims = READERS[fmt][1]
        dims = [2] * n_dims
        dims[-1] = bad
        self.reject(fmt, binary_file(fmt, 1, dims, 64), 8 + 4 * (n_dims - 1), tmp_path)


class TestNonFinitePayload:
    """Well-formed files whose payload holds nan or inf: the value types
    the readers build reject them, except at a CMAP's invalid pixels,
    whose coordinates are stored as 0."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, [np.inf, -np.inf]])
    def test_fmap(self, bad, tmp_path):
        v = np.ones((2, 3, 4), dtype="<f4")
        v[1, 2, 4 - np.size(bad):] = bad
        p = tmp_path / "x.fmap"
        p.write_bytes(binary_file("FMAP", 1, v.shape, v.tobytes()))
        with pytest.raises(ValueError, match="non-finite"):
            read_fmap(p)

    @pytest.mark.parametrize("where", [0, -1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_feature_map_checked_in_every_block(self, bad, where):
        # 2.5 blocks of core.BLOCK_BYTES: the last block is partial
        v = np.full((160, 160, 10), 0.5, dtype=np.float32)
        assert v.size == 2.5 * (core.BLOCK_BYTES // v.itemsize)
        v.reshape(-1)[where] = bad
        with pytest.raises(ValueError, match="non-finite"):
            FeatureMap(v)

    def cmap_with_nan(self, tmp_path, valid_there):
        coords = np.ones((2, 3, 2), dtype="<f4")
        coords[1, 2] = np.nan
        valid = np.ones((2, 3), dtype=np.uint8)
        valid[1, 2] = valid_there
        p = tmp_path / "x.cmap"
        p.write_bytes(binary_file("CMAP", 1, (2, 3), coords.tobytes() + valid.tobytes()))
        return p

    def test_cmap_nan_at_valid_pixel(self, tmp_path):
        with pytest.raises(ValueError, match="finite wherever valid"):
            read_cmap(self.cmap_with_nan(tmp_path, 1))

    def test_cmap_nan_at_invalid_pixel_reads_as_zero(self, tmp_path):
        m = read_cmap(self.cmap_with_nan(tmp_path, 0))
        assert m.valid.sum() == 5 and not m.valid[1, 2]
        assert m.coords[1, 2].tolist() == [0.0, 0.0]
        assert (m.coords[m.valid] == 1.0).all()

    def test_gdsc(self, tmp_path):
        v = np.full(4, 0.5, dtype="<f4")
        v[2] = np.nan
        p = tmp_path / "x.gdsc"
        p.write_bytes(binary_file("GDSC", 1, (4,), v.tobytes()))
        with pytest.raises(ValueError, match="norm nan"):
            read_gdsc(p)


def naive_resize(px, new_h, new_w):
    """Brute-force per-pixel half-pixel bilinear resampler."""
    h, w = px.shape
    out = np.empty((new_h, new_w))
    for i in range(new_h):
        for j in range(new_w):
            y = min(max((i + 0.5) * h / new_h - 0.5, 0.0), h - 1.0)
            x = min(max((j + 0.5) * w / new_w - 0.5, 0.0), w - 1.0)
            out[i, j] = naive_bilinear(px, x, y)
    return out


class TestResize:
    def test_constant_stays_constant(self):
        img = Image(np.full((11, 17), 0.5))
        out = resize_image(img, 240, 240)
        assert np.all(out.pixels == 0.5)

    def test_halving_block_constant_preserves_blocks(self):
        rng = np.random.default_rng(12)
        blocks = rng.random((8, 8))
        img = Image(np.kron(blocks, np.ones((2, 2))))
        out = resize_image(img, 8, 8)
        assert np.allclose(out.pixels, blocks, atol=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(13)
        img = Image(rng.random((17, 13)))
        out = resize_image(img, 240, 240)
        oracle = naive_resize(img.pixels, 240, 240)
        assert np.allclose(out.pixels, oracle, atol=1e-12)

    def test_small_target_rejected(self):
        img = Image(np.zeros((16, 16)))
        with pytest.raises(ValueError, match=">= 8, got 7x16"):
            resize_image(img, 7, 16)

    def test_zero_grid_target_rejected(self):
        # the half-pixel mapping divides by each target dimension
        with pytest.raises(ValueError, match=">= 1, got 0x3"):
            resize_grid(np.zeros((4, 5)), 0, 3)

    @pytest.mark.parametrize("new_h, new_w, match", [
        (2.5, 3, "new_h must be an integer"), (3, True, "new_w must be an integer"),
        (3, "3", "new_w must be an integer")])
    def test_grid_target_not_integer_rejected(self, new_h, new_w, match):
        with pytest.raises(ValueError, match=match):
            resize_grid(np.zeros((4, 5)), new_h, new_w)

    @pytest.mark.parametrize("new_h, new_w, match", [
        (8.0, 16, "new_h must be an integer"), (16, True, "new_w must be an integer")])
    def test_image_target_not_integer_rejected(self, new_h, new_w, match):
        with pytest.raises(ValueError, match=match):
            resize_image(Image(np.zeros((16, 16))), new_h, new_w)

    def test_numpy_integer_targets_accepted(self):
        values = np.random.default_rng(16).random((9, 7))
        got = resize_grid(values, np.int64(5), np.int32(4))
        assert got.tobytes() == resize_grid(values, 5, 4).tobytes()
        img = Image(values)
        assert np.array_equal(resize_image(img, np.int64(12), 8).pixels,
                              resize_image(img, 12, 8).pixels)


class TestSharedSamplingKernels:
    @pytest.mark.parametrize("seed", range(6))
    def test_resizer_matches_scattered_gather(self, seed):
        rng = np.random.default_rng(300 + seed)
        h, w = rng.integers(1, 40, 2)
        new_h, new_w = rng.integers(1, 90, 2)
        shape = (h, w) if seed % 2 else (h, w, int(rng.integers(1, 5)))
        values = rng.normal(size=shape)
        gx, gy = np.meshgrid(half_pixel_axis(w, new_w), half_pixel_axis(h, new_h))
        gathered = bilinear_sample_grid(values, gx, gy)
        assert np.abs(resize_grid(values, new_h, new_w) - gathered).max() <= 1e-12

    def test_float32_gather_bitwise_equals_float64_copy(self):
        rng = np.random.default_rng(310)
        values = rng.normal(size=(23, 31, 6)).astype(np.float32)
        xs = rng.uniform(-2, 32, 500)
        ys = rng.uniform(-2, 24, 500)
        got = bilinear_sample_grid(values, xs, ys)
        want = bilinear_sample_grid(values.astype(np.float64), xs, ys)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()


def fancy_index_gather(values, xs, ys):
    """bilinear_sample_grid with its corners read by 2-D fancy indexing."""
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
    top = values[y0, x0] * (1.0 - fx) + values[y0, x1] * fx
    bot = values[y1, x0] * (1.0 - fx) + values[y1, x1] * fx
    out = top * (1.0 - fy) + bot * fy
    out[~ok] = 0.0
    return out, ok


class TestFlatGather:
    """The np.take gather against the 2-D fancy-index form, bitwise."""

    @staticmethod
    def positions(rng, h, w, shape):
        xs = rng.uniform(-1.5, w + 0.5, shape)
        ys = rng.uniform(-1.5, h + 0.5, shape)
        flat_x, flat_y = xs.reshape(-1), ys.reshape(-1)
        # grid corners and edges, then non-finite positions
        flat_x[:6] = [0.0, w - 1.0, w - 1.0, 0.0, (w - 1) / 2, w - 1.0]
        flat_y[:6] = [0.0, h - 1.0, 0.0, h - 1.0, h - 1.0, (h - 1) / 2]
        flat_x[6:10] = [np.nan, np.inf, -np.inf, 1.0]
        flat_y[6:10] = [1.0, 0.0, 0.0, np.nan]
        return xs, ys

    @pytest.mark.parametrize("shape, dtype", [
        ((17, 23), np.float64),
        ((17, 23, 3), np.float64),
        ((480, 480, 50), np.float32),
        ((19, 1), np.float64),
        ((1, 19, 3), np.float64),
        ((1, 1, 2), np.float32),
    ])
    def test_matches_fancy_index_gather(self, shape, dtype):
        rng = np.random.default_rng(sum(shape))
        values = rng.normal(size=shape).astype(dtype)
        h, w = shape[:2]
        for pos_shape in [(2000,), (40, 30)]:
            xs, ys = self.positions(rng, h, w, pos_shape)
            got = bilinear_sample_grid(values, xs, ys)
            want, want_ok = fancy_index_gather(values, xs, ys)
            assert want_ok.any() and not want_ok.all()
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def sample_map_oracle(cmap, xs, ys):
    """sample_map with coordinates and validity gathered one at a time: the
    coordinates, a nan row where the sample is not ok."""
    coords = bilinear_sample_grid(cmap.coords, xs, ys)
    # an out-of-bounds validity sample is 0, so this tests the bounds too
    ok = bilinear_sample_grid(cmap.valid, xs, ys) >= 1.0 - 1e-9
    coords[~ok] = np.nan
    return coords


def resample_oracle(cmap, new_h, new_w):
    """resample_map as a scattered gather on the half-pixel tensor grid,
    then the half-pixel rescale of the stored coordinates."""
    h, w = cmap.height, cmap.width
    gx, gy = np.meshgrid(half_pixel_axis(w, new_w), half_pixel_axis(h, new_h))
    coords = sample_map_oracle(cmap, gx, gy)
    ok = np.isfinite(coords).all(axis=-1)
    coords = half_pixel(coords, np.array([w, h]), np.array([new_w, new_h]))
    coords[~ok] = 0.0
    return coords, ok


class TestSampleMap:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_separate_gathers(self, seed):
        rng = np.random.default_rng(330 + seed)
        h, w = rng.integers(2, 30, 2)
        coords = np.stack([rng.uniform(0, w - 1, (h, w)), rng.uniform(0, h - 1, (h, w))], axis=2)
        valid = rng.random((h, w)) > 0.2
        cmap = CorrespondenceMap(np.where(valid[..., None], coords, 0.0), valid)
        xs, ys = rng.uniform(-2, w + 1, (40, 50)), rng.uniform(-2, h + 1, (40, 50))
        want = sample_map_oracle(cmap, xs, ys)
        got = sample_map(cmap, xs, ys)
        ok = np.isfinite(got).all(axis=-1)
        # nan rows exactly where the oracle's are, finite rows bitwise equal
        assert np.array_equal(got, want, equal_nan=True) and 0 < ok.sum() < ok.size
        assert got[ok].tobytes() == want[ok].tobytes()

    def test_invalid_pixel_weight_tolerance(self):
        # an invalid pixel may carry a weight of up to ~1e-9: 1e-12 keeps the
        # sample, 1e-6 does not
        valid = np.ones((3, 4), dtype=bool)
        valid[1, 2] = False
        cmap = CorrespondenceMap(identity_map(3, 4).coords, valid)
        got = sample_map(cmap, np.array([1.0 + 1e-12, 1.0 + 1e-6]), np.array([1.0, 1.0]))
        assert np.isfinite(got[0]).all() and np.isnan(got[1]).all()
        # the reason: half_pixel_axis(7, 25) puts output pixel 12 just past
        # source pixel 3, so resample_map keeps it beside an invalid pixel 4
        assert half_pixel_axis(7, 25)[12] - 3.0 == 2.0 ** -51
        valid = np.ones((1, 7), dtype=bool)
        valid[0, 4] = False
        out = resample_map(CorrespondenceMap(identity_map(1, 7).coords, valid), 1, 25)
        assert out.valid[0, 12] and not out.valid[0, 13]


class TestResampleMap:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_gather_oracle(self, seed):
        rng = np.random.default_rng(320 + seed)
        h, w = rng.integers(2, 40, 2)
        new_h, new_w = rng.integers(1, 90, 2)
        coords = np.stack([rng.uniform(0, w - 1, (h, w)), rng.uniform(0, h - 1, (h, w))], axis=2)
        valid = rng.random((h, w)) > 0.1
        valid[: h // 3, : w // 4] = False
        cmap = CorrespondenceMap(np.where(valid[..., None], coords, 0.0), valid)
        got = resample_map(cmap, new_h, new_w)
        want, want_ok = resample_oracle(cmap, new_h, new_w)
        assert (got.height, got.width) == (new_h, new_w)
        assert np.array_equal(got.valid, want_ok)
        assert np.abs(got.coords - want).max() <= 1e-12

    @pytest.mark.parametrize("new_h, new_w", [(1, 5), (2, 3), (7, 40), (61, 60), (480, 480)])
    def test_equals_one_resize_pass(self, new_h, new_w):
        # the map equals one resize of its stacked coordinates and validity,
        # rescaled, bit for bit
        rng = np.random.default_rng(new_h)
        h, w = 30, 40
        coords = np.stack([rng.uniform(0, w - 1, (h, w)), rng.uniform(0, h - 1, (h, w))], axis=2)
        valid = rng.random((h, w)) > 0.1
        cmap = CorrespondenceMap(coords, valid)
        whole = resize_grid(np.dstack([cmap.coords, cmap.valid]), new_h, new_w)
        want_ok = whole[..., 2] >= 1.0 - 1e-9
        want = half_pixel(whole[..., :2], np.array([w, h]), np.array([new_w, new_h]))
        want[~want_ok] = 0.0
        got = resample_map(cmap, new_h, new_w)
        assert np.array_equal(got.valid, want_ok)
        assert got.coords.tobytes() == want.tobytes()

    def test_identity_size_returns_input(self):
        cmap = identity_map(7, 9)
        assert resample_map(cmap, 7, 9) is cmap

    @pytest.mark.parametrize("new_h, new_w", [(0, 0), (-1, 4)])
    def test_target_below_one_rejected(self, new_h, new_w):
        with pytest.raises(ValueError, match=f">= 1, got {new_h}x{new_w}"):
            resample_map(identity_map(7, 9), new_h, new_w)

    @pytest.mark.parametrize("new_h, new_w, name", [
        (True, 3, "new_h"), (2.5, 3, "new_h"), (3, 4.0, "new_w")])
    def test_target_not_integer_rejected(self, new_h, new_w, name):
        # unchecked, (True, 3) returned a 1x3 map and (2.5, 3) raised a
        # TypeError on a slice index
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            resample_map(identity_map(7, 9), new_h, new_w)

    @pytest.mark.parametrize("new_h, new_w", [(1, 5), (13, 7), (480, 480)])
    def test_all_invalid_map_skips_resampling(self, monkeypatch, new_h, new_w):
        cmap = CorrespondenceMap(np.ones((11, 9, 2)), np.zeros((11, 9), dtype=bool))
        want, want_ok = resample_oracle(cmap, new_h, new_w)

        def no_resize(*args):
            raise AssertionError("resample_map resampled an all-invalid map")

        monkeypatch.setattr(core, "_resize_rows", no_resize)
        got = resample_map(cmap, new_h, new_w)
        assert np.array_equal(got.valid, want_ok) and not want_ok.any()
        assert got.coords.shape == want.shape and got.coords.tobytes() == want.tobytes()

    def test_invalid_source_pixel_invalidates_its_footprint(self):
        valid = np.ones((4, 4), dtype=bool)
        valid[1, 1] = False
        cmap = CorrespondenceMap(identity_map(4, 4).coords, valid)
        out = resample_map(cmap, 8, 8)
        # grid pixel i of the 8-pixel axis sits at 0.5 i - 0.25 (clipped to
        # [0, 3]); it draws on source pixel 1 iff that position is in (0, 2)
        touches = (np.arange(8) >= 1) & (np.arange(8) <= 4)
        assert np.array_equal(out.valid, ~(touches[:, None] & touches[None, :]))
        # the identity's coordinates are the clipped positions, rescaled
        axis = half_pixel(half_pixel_axis(4, 8), 4, 8)
        want = np.stack(np.meshgrid(axis, axis), axis=2)
        assert np.abs(out.coords[out.valid] - want[out.valid]).max() <= 1e-12
        assert not out.coords[~out.valid].any()


class TestMapComposition:
    def test_identity_composition_returns_own_coordinates(self):
        rng = np.random.default_rng(14)
        h, w = 9, 11
        coords = np.stack(
            [rng.uniform(0, w - 1, (h, w)), rng.uniform(0, h - 1, (h, w))], axis=2
        )
        m = CorrespondenceMap.from_coords(coords, (h, w))
        ident = identity_map(h, w)
        got = sample_map(ident, m.coords[..., 0], m.coords[..., 1])
        assert np.isfinite(got).all()
        assert np.abs(got - m.coords).max() < 1e-6

    def test_from_coords_composes_nan_encoded_samples(self):
        # m1 then m2: the nan rows of sample_map and m1's invalid pixels
        # both become invalid pixels of the composed map
        rng = np.random.default_rng(15)
        h, w = 12, 10
        frame = (7, 9)
        m1 = CorrespondenceMap.from_coords(
            np.stack([rng.uniform(-1, w, (h, w)), rng.uniform(-1, h, (h, w))], axis=2), (h, w))
        m2 = CorrespondenceMap.from_coords(
            np.stack([rng.uniform(-1, 9, (h, w)), rng.uniform(-1, 7, (h, w))], axis=2), frame)
        back = sample_map(m2, *m1.coords.transpose(2, 0, 1))
        ok = np.isfinite(back).all(axis=-1)
        composed = CorrespondenceMap.from_coords(
            np.where(m1.valid[..., None], back, np.nan), frame)
        assert np.array_equal(composed.valid, m1.valid & ok)
        assert 0 < composed.valid.sum() < composed.valid.size and (m1.valid & ~ok).any()
        assert composed.coords[composed.valid].tobytes() == back[composed.valid].tobytes()

    def test_from_coords_marks_out_of_bounds_invalid(self):
        coords = np.zeros((4, 4, 2))
        coords[0, 0] = (-0.1, 0)
        coords[1, 1] = (3.0, 3.01)
        coords[2, 2] = (2.5, 2.5)
        m = CorrespondenceMap.from_coords(coords, (4, 4))
        assert not m.valid[0, 0]
        assert not m.valid[1, 1]
        assert m.valid[2, 2]

    @pytest.mark.parametrize("source_hw, match", [
        ((2.5, 3), "source_hw must be an integer, got 2.5"),
        ((True, 3), "source_hw must be an integer, got True"),
        ((3, 0), r"source_hw must be >= 1, got \(3, 0\)")])
    def test_from_coords_frame_dims_checked(self, source_hw, match):
        # unchecked, (2.5, 3) marked coordinates up to 1.5 valid and
        # (True, 3) acted as a frame of height 1
        with pytest.raises(ValueError, match=match):
            CorrespondenceMap.from_coords(np.zeros((2, 2, 2)), source_hw)


class TestMask:
    def test_count(self):
        m = Mask(np.eye(5, dtype=bool))
        assert m.count() == 5


# (constructor, its array arguments, the fields that store them); FeatureMap
# copies a float64 input and a non-contiguous float32 one
VALUE_TYPES = {
    "Image": (Image, lambda r: (r.random((4, 5)),), ["pixels"]),
    "Mask": (Mask, lambda r: (r.random((4, 5)) < 0.5,), ["bits"]),
    "CorrespondenceMap": (CorrespondenceMap,
                          lambda r: (r.random((4, 5, 2)) * 3, np.ones((4, 5), bool)),
                          ["coords", "valid"]),
    "FeatureMap-float64": (FeatureMap, lambda r: (r.standard_normal((4, 5, 3)),), ["values"]),
    "FeatureMap-strided": (FeatureMap,
                           lambda r: (r.standard_normal((4, 10, 3), dtype=np.float32)[:, ::2],),
                           ["values"]),
    "GlobalDescriptor": (GlobalDescriptor, lambda r: (np.full(4, 0.5),), ["values"]),
}


class TestValueOwnership:
    @pytest.mark.parametrize("name", sorted(VALUE_TYPES))
    def test_read_only_and_detached_from_input(self, name):
        cls, make, fields = VALUE_TYPES[name]
        args = make(np.random.default_rng(60))
        value = cls(*args)
        kept = [getattr(value, f).copy() for f in fields]
        for f in fields:
            with pytest.raises(ValueError, match="read-only"):
                getattr(value, f)[...] = 0
        for a in args:
            a.fill(0)
        for f, want in zip(fields, kept):
            assert getattr(value, f).any() and np.array_equal(getattr(value, f), want)

    def test_fitted_models_read_only(self):
        # a homography model is a bare (3, 3) float64 array, returned
        # read-only by the DLT fit and by RANSAC
        pts = np.array([[0.0, 0], [10, 0], [10, 10], [0, 10], [4, 7]])
        fitted = fit_homography_dlt(pts, 1.5 * pts + [2.0, -3.0])
        found, _ = ransac_homography(identity_map(40, 40), RansacConfig())
        for model in (fitted, found):
            assert model.shape == (3, 3) and model.dtype == np.float64
            kept = model.copy()
            with pytest.raises(ValueError, match="read-only"):
                model[...] = 0
            assert np.array_equal(model, kept)

    def test_feature_map_keeps_c_contiguous_float32(self):
        # the one exception: no copy of a hypercolumn or an FMAP payload,
        # but the caller's array becomes read-only
        a = np.random.default_rng(61).standard_normal((4, 5, 3), dtype=np.float32)
        fm = FeatureMap(a)
        assert fm.values is a and not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0, 0] = 1.0
