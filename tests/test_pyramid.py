"""Descriptor pyramid, hypercolumns and global descriptors."""

import hashlib
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.ndimage import correlate1d

from corrverify import pyramid
from corrverify.core import FeatureMap, Image, bilinear_sample_grid, resize_image
from corrverify.pyramid import (
    GAUSSIAN_SIGMA,
    ORIENTATION_BINS,
    WINDOW_RADIUS,
    build_pyramid,
    compute_global_descriptor,
    dense_descriptors,
    extract_hypercolumn,
    level_sizes,
)
from corrverify.synth import make_texture

from helpers import count_threads


def naive_descriptor(img, py, px):
    """Brute-force single-pixel descriptor straight from the definition."""
    h, w = img.shape
    padded = np.pad(img, 1, mode="edge")
    nb = ORIENTATION_BINS
    rad = WINDOW_RADIUS
    sig = GAUSSIAN_SIGMA
    hist = np.zeros(nb)
    wsum = m1 = m2 = 0.0
    for dy in range(-rad, rad + 1):
        for dx in range(-rad, rad + 1):
            y, x = py + dy, px + dx
            if not (0 <= y < h and 0 <= x < w):
                continue
            wgt = np.exp(-(dy * dy) / (2 * sig * sig)) * np.exp(-(dx * dx) / (2 * sig * sig))
            gx = (padded[y + 1, x + 2] - padded[y + 1, x]) / 2
            gy = (padded[y + 2, x + 1] - padded[y, x + 1]) / 2
            mag = np.hypot(gx, gy)
            t = np.mod(np.arctan2(gy, gx), 2 * np.pi) / (2 * np.pi / nb)
            b0 = int(np.floor(t)) % nb
            frac = t - np.floor(t)
            hist[b0] += wgt * mag * (1 - frac)
            hist[(b0 + 1) % nb] += wgt * mag * frac
            wsum += wgt
            m1 += wgt * img[y, x]
            m2 += wgt * img[y, x] ** 2
    mu = m1 / wsum
    v = np.array(list(hist) + [mu, np.sqrt(max(m2 / wsum - mu * mu, 0.0))])
    n = np.linalg.norm(v)
    return v / n if n > 1e-12 else v


def per_bin_descriptors(img):
    """Reference dense descriptors with one window sum per orientation bin
    and per intensity statistic, eleven in all."""
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

    d = np.arange(-WINDOW_RADIUS, WINDOW_RADIUS + 1, dtype=np.float64)
    kernel = np.exp(-(d * d) / (2.0 * GAUSSIAN_SIGMA * GAUSSIAN_SIGMA))

    def window_sum(arr):
        return correlate1d_window_sum(arr, kernel)

    channels = [window_sum(mag * (w0 * (b0 == b) + w1 * (b1 == b))) for b in range(nb)]
    wsum = window_sum(np.ones((h, w)))
    m1 = window_sum(img) / wsum
    m2 = window_sum(img * img) / wsum
    channels.extend([m1, np.sqrt(np.maximum(m2 - m1 * m1, 0.0))])
    desc = np.stack(channels, axis=2)
    norms = np.linalg.norm(desc, axis=2, keepdims=True)
    out = np.divide(desc, norms, out=np.zeros_like(desc), where=norms > 1e-12)
    return out.astype(np.float32)


def step_edge(h, w):
    img = np.full((h, w), 0.2)
    img[:, w // 3:] = 0.9
    return img


ORACLE_IMAGES = (
    [make_texture(s, s, seed=s).pixels for s in (15, 30, 60, 120, 240)]
    + [make_texture(h, w, seed=h * w).pixels for h, w in ((17, 23), (31, 9), (61, 45))]
    + [np.random.default_rng(s).random((s, s + 2)) for s in (13, 40)]
    + [np.full((30, 30), 0.37), step_edge(30, 30), step_edge(33, 47).T]
)


class TestDescriptorOracle:
    @pytest.mark.parametrize("idx", range(len(ORACLE_IMAGES)))
    def test_bitwise_equal_to_per_bin_window_sums(self, idx):
        img = ORACLE_IMAGES[idx]
        assert np.array_equal(dense_descriptors(img).values, per_bin_descriptors(img))

    @pytest.mark.parametrize("seed", range(2))
    def test_pyramid_and_hypercolumn_bitwise_equal(self, seed):
        pyr = build_pyramid(make_texture(200, 170, seed=seed))
        working = resize_image(make_texture(200, 170, seed=seed), 240, 240)
        images = [working]
        for s in reversed(level_sizes(240)[:-1]):
            images.append(resize_image(images[-1], s, s))
        oracle = tuple(FeatureMap(per_bin_descriptors(im.pixels)) for im in reversed(images))
        assert len(pyr) == len(oracle)
        for fm, ref in zip(pyr, oracle):
            assert np.array_equal(fm.values, ref.values)
        assert np.array_equal(extract_hypercolumn(pyr, (96, 96)).values,
                              extract_hypercolumn(oracle, (96, 96)).values)


def correlate1d_window_sum(arr, kernel):
    tmp = correlate1d(arr, kernel, axis=0, mode="constant", cval=0.0)
    return correlate1d(tmp, kernel, axis=1, mode="constant", cval=0.0)


WINDOW_KERNEL = pyramid._gaussian_kernel(WINDOW_RADIUS, GAUSSIAN_SIGMA)


def bordered(arr):
    """arr with the window sum's border of WINDOW_RADIUS zero rows and columns."""
    r = WINDOW_RADIUS
    return np.pad(arr, ((r, r), (r, r), (0, 0)))


class TestWindowSum:
    """The numpy window sum adds in correlate1d's order, so on the bordered
    array it equals two correlate1d calls bit for bit, at any block size."""

    @pytest.mark.parametrize("rows", [1, 7, None])
    @pytest.mark.parametrize("h", [1, 4, 5, 9, 10, 17])
    @pytest.mark.parametrize("w", [1, 4, 9, 23])
    def test_bitwise_equal_to_correlate1d(self, monkeypatch, rows, h, w):
        # rows=1 gives one-row blocks, 7 a ragged last block from 9 rows on
        if rows is not None:
            monkeypatch.setattr(pyramid, "BLOCK_BYTES", rows * w * 3 * 8)
        arr = np.random.default_rng(h * 100 + w).random((h, w, 3))
        assert np.array_equal(pyramid._window_sum(bordered(arr), WINDOW_KERNEL),
                              correlate1d_window_sum(arr, WINDOW_KERNEL))

    @pytest.mark.parametrize("rows", [1, None])
    def test_working_size_bitwise_equal(self, monkeypatch, rows):
        # at the default budget a block is 19 rows, so the last of 240 holds 12
        row = 240 * 11 * 8
        assert pyramid.BLOCK_BYTES // row == 19
        if rows is not None:
            monkeypatch.setattr(pyramid, "BLOCK_BYTES", rows * row)
        arr = np.random.default_rng(25).random((240, 240, 11))
        assert np.array_equal(pyramid._window_sum(bordered(arr), WINDOW_KERNEL),
                              correlate1d_window_sum(arr, WINDOW_KERNEL))


class TestDenseDescriptors:
    def test_constant_image_mean_channel_only(self):
        fm = dense_descriptors(np.full((16, 16), 0.6))
        d = fm.values[8, 8]
        assert np.all(d[:ORIENTATION_BINS] == 0)
        assert d[ORIENTATION_BINS] == pytest.approx(1.0)  # mean channel, normalized
        assert d[ORIENTATION_BINS + 1] == pytest.approx(0.0, abs=1e-6)

    def test_vertical_step_edge_concentrates_horizontal_bins(self):
        img = np.zeros((16, 16))
        img[:, 8:] = 1.0
        fm = dense_descriptors(img)
        # gradient points along +x everywhere it is nonzero -> only bin 0
        d = fm.values[8, 7]
        assert d[0] > 0.1
        assert np.all(np.abs(d[1:ORIENTATION_BINS]) < 1e-6)
        # mirrored pixels across the edge carry identical histograms; only
        # the intensity stats (and so the overall scale) differ
        hist_a = fm.values[8, 7, :ORIENTATION_BINS]
        hist_b = fm.values[8, 8, :ORIENTATION_BINS]
        assert np.allclose(hist_a / np.linalg.norm(hist_a),
                           hist_b / np.linalg.norm(hist_b), atol=1e-6)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(21)
        img = rng.random((16, 16))
        fm = dense_descriptors(img)
        for py, px in [(8, 8), (0, 0), (15, 3), (2, 15)]:
            expect = naive_descriptor(img, py, px)
            assert np.allclose(fm.values[py, px], expect, atol=1e-6), (py, px)

    def test_unit_norm_invariant(self):
        rng = np.random.default_rng(22)
        fm = dense_descriptors(rng.random((24, 24)))
        norms = np.linalg.norm(fm.values.astype(np.float64), axis=2)
        assert np.all((norms == 0) | (np.abs(norms - 1) < 1e-5))

    def test_translation_equivariance_interior(self):
        rng = np.random.default_rng(23)
        big = rng.random((40, 40))
        dy, dx = 3, 5
        a = dense_descriptors(big[: 32, : 32])
        b = dense_descriptors(big[dy : 32 + dy, dx : 32 + dx])
        band = WINDOW_RADIUS + 1
        inner_a = a.values[dy + band : 32 - band, dx + band : 32 - band]
        inner_b = b.values[band : 32 - band - dy, band : 32 - band - dx]
        assert np.allclose(inner_a, inner_b, atol=1e-6)


class TestBuildPyramid:
    def test_level_resolutions(self):
        assert level_sizes(240) == (15, 30, 60, 120, 240)
        rng = np.random.default_rng(24)
        pyr = build_pyramid(Image(rng.random((100, 130))))
        resolutions = tuple((fm.height, fm.width) for fm in pyr)
        assert resolutions == ((15, 15), (30, 30), (60, 60), (120, 120), (240, 240))


class TestHypercolumn:
    def _unit_field(self, seed, h, w, c):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((h, w, c))
        v /= np.linalg.norm(v, axis=2, keepdims=True)
        return FeatureMap(v.astype(np.float32))

    def test_identical_levels_scale_halves(self):
        fm = self._unit_field(30, 12, 12, 6)
        pyr = (fm, fm)
        hyper = extract_hypercolumn(pyr, (12, 12))
        expect = fm.values / np.sqrt(2)
        assert np.allclose(hyper.values[:, :, :6], expect, atol=1e-6)
        assert np.allclose(hyper.values[:, :, 6:], expect, atol=1e-6)

    def test_single_level_identity(self):
        fm = self._unit_field(31, 10, 14, 5)
        hyper = extract_hypercolumn((fm,), (10, 14))
        assert np.allclose(hyper.values, fm.values, atol=1e-6)

    def test_norms_and_spot_pixel_recompute(self):
        rng = np.random.default_rng(32)
        pyr = build_pyramid(Image(rng.random((64, 64))))
        hyper = extract_hypercolumn(pyr, (480, 480))
        norms = np.linalg.norm(hyper.values.astype(np.float64), axis=2)
        assert np.all((norms == 0) | (np.abs(norms - 1) < 1e-5))

        # independent recompute of one pixel through the stated pipeline
        ty, tx = 123, 321
        parts = []
        for fm in pyr:
            h, w = fm.height, fm.width
            sy = np.clip((ty + 0.5) * h / 480 - 0.5, 0, h - 1)
            sx = np.clip((tx + 0.5) * w / 480 - 0.5, 0, w - 1)
            (v,), _ = bilinear_sample_grid(fm.values, [sx], [sy])
            n = np.linalg.norm(v)
            parts.append(v / n if n > 1e-12 else v)
        expect = np.concatenate(parts)
        expect /= np.linalg.norm(expect)
        assert np.allclose(hyper.values[ty, tx], expect, atol=1e-5)

    def test_target_below_coarsest_rejected(self):
        fm = self._unit_field(33, 15, 15, 4)
        with pytest.raises(ValueError):
            extract_hypercolumn((fm,), (8, 8))

    def test_empty_pyramid_rejected(self):
        with pytest.raises(ValueError, match="empty pyramid"):
            extract_hypercolumn(())

    def test_default_grid_is_finest_level(self):
        pyr = build_pyramid(make_texture(150, 130, seed=34), working_size=128)
        hyper = extract_hypercolumn(pyr)
        assert hyper.values.shape == (128, 128, 50)
        assert np.array_equal(hyper.values, extract_hypercolumn(pyr, (128, 128)).values)
        # a hand-built pyramid whose finest level is not square
        levels = (self._unit_field(35, 5, 7, 3), self._unit_field(36, 10, 14, 4))
        assert extract_hypercolumn(levels).values.shape == (10, 14, 7)


def texture_pyramid(seed):
    return build_pyramid(make_texture(480, 480, seed=seed))


def zero_level_pyramid(seed):
    levels = list(texture_pyramid(seed))
    levels[2] = FeatureMap(np.zeros_like(levels[2].values))
    return tuple(levels)


def constant_pyramid(value):
    return build_pyramid(Image(np.full((64, 64), value)))


PYRAMIDS = {"texture": texture_pyramid, "zero_level": zero_level_pyramid,
            "constant": constant_pyramid}

# sha256 of extract_hypercolumn(...).values, computed before the hypercolumn
# was built in row blocks.  43 rows of a 480-wide grid are one block at
# HYPERCOLUMN_BLOCK_BYTES; 86 rows give each half one block.  (240, 240)
# equals the finest level, which _resize_rows interpolates with weights of
# exactly 0 and 1, giving the level's own values.  The all-zero level
# and the black image have zero-norm pixels, which _normalize_rows divides
# by inf to +0.
HYPERCOLUMN_DIGESTS = [
    ("texture", 141, (480, 480), "fe564b9aee4e1822cc276f14b6f6ffe199f54be05a40f583a1d662b71c24bca3"),
    ("texture", 141, (96, 96), "4a95258414edf2268497321a084341b1ace1fb27a842eb74263f02ae26c75bc7"),
    ("texture", 142, (480, 480), "e2c2a2a4e09177ebcdfce239e0c49eea9c498a31b9f5204cccf0fa5191b79844"),
    ("texture", 142, (96, 96), "406d06d26650b764887816a5545a7f0c092e609bab6c3580857ba6881a03c3e9"),
    ("texture", 141, (97, 131), "c244dc9eba3cf58a1cc050c5e449a0e17326eb3102e9492aa62f06e9c1940e36"),
    ("texture", 141, (240, 240), "2996afea41095763cff2c308301c211cb8e70cf2a243dd561539c9d4e94a4cca"),
    ("texture", 141, (42, 480), "54aaed59a043e90991ce4337487dad2439ecfb04ef526767dbc30b3487ad3c34"),
    ("texture", 141, (43, 480), "669deea4373880216e34d20ddfc7c47e5c4e758343b31a46e96ec2cc319911e9"),
    ("texture", 141, (44, 480), "a3ec872164ac02eef57fded68f33c217cf008266ba01484827059a6b1349df50"),
    ("texture", 141, (85, 480), "c1ced8ebff34d5c89a484d5c8e6f67ed11403586e286ac562a641aac6a95048e"),
    ("texture", 141, (86, 480), "3b19e86afdd29bef4531f754ceb2d1f8af0f5dcace105d616ee8f57a73af3b02"),
    ("texture", 141, (87, 480), "8cc3b68a2c482b520d5811bc87e930caa3341adc17e0f4e99e2d5bb3e8d0249f"),
    ("zero_level", 141, (480, 480), "621bb00e1bcb720377cdee59b64839af3fc80f59fa9f11ab766913e93399fbcf"),
    ("constant", 0.0, (480, 480), "6f4dd7db11c1a99aae413783048d9ecad6fce43c3bcfc36ab7031953d073242e"),
    ("constant", 0.5, (480, 480), "b82a97d4955910cf1650846c3e5def6e56e02211e44cc4a6b1798c829b8de49b"),
]


def hypercolumn_digest(pyr, target_hw):
    values = extract_hypercolumn(pyr, target_hw).values
    assert values.shape[:2] == target_hw and values.dtype == np.float32
    return hashlib.sha256(values.tobytes()).hexdigest()


class TestHypercolumnBlocks:
    """The hypercolumn is filled in row blocks, two halves at once; it must
    equal the single whole-grid pass it replaced, bit for bit."""

    @pytest.mark.parametrize("kind, arg, target_hw, digest", HYPERCOLUMN_DIGESTS)
    def test_pinned(self, kind, arg, target_hw, digest):
        assert hypercolumn_digest(PYRAMIDS[kind](arg), target_hw) == digest

    def test_pinned_heights_straddle_block_edges(self):
        row = 480 * 50 * 4
        assert pyramid.HYPERCOLUMN_BLOCK_BYTES // row == 43

    @pytest.mark.parametrize("rows", [1, 7, 16, 32, 480])
    def test_any_block_size(self, monkeypatch, rows):
        monkeypatch.setattr(pyramid, "HYPERCOLUMN_BLOCK_BYTES", rows * 480 * 50 * 4)
        real = pyramid._resize_rows
        blocks = []

        def resize_rows(v, new_h, new_w, r0, r1):
            blocks.append((r0, r1))
            return real(v, new_h, new_w, r0, r1)

        monkeypatch.setattr(pyramid, "_resize_rows", resize_rows)
        kind, arg, target_hw, digest = HYPERCOLUMN_DIGESTS[0]
        assert hypercolumn_digest(PYRAMIDS[kind](arg), target_hw) == digest
        # each half of 240 rows in blocks of at most `rows`, once per level
        assert len(blocks) == 5 * 2 * -(-240 // rows)
        assert max(r1 - r0 for r0, r1 in blocks) == min(rows, 240)

    def test_peak_memory(self):
        pyr = texture_pyramid(141)
        tracemalloc.start()
        try:
            hyper = extract_hypercolumn(pyr, (480, 480))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hyper.values.nbytes == 480 * 480 * 50 * 4
        # the output is 43.9 MiB; a whole-grid pass peaked at 83.5 MiB
        assert peak < 60 << 20

    def test_one_thread_started_and_joined(self, monkeypatch):
        pyr = texture_pyramid(141)
        started = count_threads(monkeypatch)
        before = threading.active_count()
        extract_hypercolumn(pyr, (97, 131))
        assert threading.active_count() == before
        assert len(started) == 1 and not started[0].is_alive()

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_half_error_reaches_caller(self, monkeypatch, failing):
        pyr = texture_pyramid(141)
        real = pyramid._resize_rows
        caller = threading.current_thread()

        def resize_rows(*args):
            if (threading.current_thread() is caller) == (failing == "caller"):
                raise RuntimeError("half failed")
            return real(*args)

        started = count_threads(monkeypatch)
        monkeypatch.setattr(pyramid, "_resize_rows", resize_rows)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="half failed"):
            extract_hypercolumn(pyr, (480, 480))
        assert threading.active_count() == before
        assert len(started) == 1 and not started[0].is_alive()


class TestGlobalDescriptor:
    def test_constant_coarsest_returns_renormalized_vector(self):
        v = np.tile(np.array([0.6, 0.8, 0.0], dtype=np.float32), (15, 15, 1))
        pyr = (FeatureMap(v),)
        g = compute_global_descriptor(pyr)
        assert np.allclose(g.values, [0.6, 0.8, 0.0], atol=1e-6)

    def test_identical_images_distance_zero(self):
        rng = np.random.default_rng(34)
        img = Image(rng.random((50, 50)))
        g1 = compute_global_descriptor(build_pyramid(img))
        g2 = compute_global_descriptor(build_pyramid(img))
        assert np.linalg.norm(g1.values - g2.values) == 0.0

    def test_matches_bruteforce_pooling(self):
        rng = np.random.default_rng(35)
        pyr = build_pyramid(Image(rng.random((64, 48))))
        g = compute_global_descriptor(pyr)
        v = pyr[0].values.astype(np.float64)
        pooled = np.zeros(v.shape[2])
        for c in range(v.shape[2]):
            acc = 0.0
            for i in range(v.shape[0]):
                for j in range(v.shape[1]):
                    acc += v[i, j, c] ** 3
            pooled[c] = np.cbrt(acc / (v.shape[0] * v.shape[1]))
        pooled /= np.linalg.norm(pooled)
        assert np.allclose(g.values, pooled, atol=1e-9)

    def test_zero_features_fallback(self):
        z = FeatureMap(np.zeros((15, 15, 4), dtype=np.float32))
        g = compute_global_descriptor((z,))
        assert np.allclose(g.values, 0.5)

    def test_empty_pyramid_rejected(self):
        with pytest.raises(ValueError, match="empty pyramid"):
            compute_global_descriptor(())
