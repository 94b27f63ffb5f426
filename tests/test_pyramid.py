"""Descriptor pyramid, hypercolumns and global descriptors."""

import numpy as np
import pytest

from corrverify.core import FeatureMap, Image, bilinear_sample
from corrverify.pyramid import (
    GAUSSIAN_SIGMA,
    ORIENTATION_BINS,
    WINDOW_RADIUS,
    FeaturePyramid,
    build_pyramid,
    compute_global_descriptor,
    dense_descriptors,
    extract_hypercolumn,
    level_sizes,
)


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
        assert pyr.level_resolutions == ((15, 15), (30, 30), (60, 60), (120, 120), (240, 240))
        assert not pyr.constant_input

    def test_constant_flag(self):
        pyr = build_pyramid(Image(np.full((64, 64), 0.3)))
        assert pyr.constant_input


class TestHypercolumn:
    def _unit_field(self, seed, h, w, c):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((h, w, c))
        v /= np.linalg.norm(v, axis=2, keepdims=True)
        return FeatureMap(v.astype(np.float32), unit_normalized=True)

    def test_identical_levels_scale_halves(self):
        fm = self._unit_field(30, 12, 12, 6)
        pyr = FeaturePyramid((fm, fm))
        hyper = extract_hypercolumn(pyr, (12, 12))
        expect = fm.values / np.sqrt(2)
        assert np.allclose(hyper.values[:, :, :6], expect, atol=1e-6)
        assert np.allclose(hyper.values[:, :, 6:], expect, atol=1e-6)

    def test_single_level_identity(self):
        fm = self._unit_field(31, 10, 14, 5)
        hyper = extract_hypercolumn(FeaturePyramid((fm,)), (10, 14))
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
        for fm in pyr.levels:
            h, w = fm.height, fm.width
            sy = np.clip((ty + 0.5) * h / 480 - 0.5, 0, h - 1)
            sx = np.clip((tx + 0.5) * w / 480 - 0.5, 0, w - 1)
            v = bilinear_sample(fm.values, sx, sy)
            n = np.linalg.norm(v)
            parts.append(v / n if n > 1e-12 else v)
        expect = np.concatenate(parts)
        expect /= np.linalg.norm(expect)
        assert np.allclose(hyper.values[ty, tx], expect, atol=1e-5)

    def test_target_below_coarsest_rejected(self):
        fm = self._unit_field(33, 15, 15, 4)
        with pytest.raises(ValueError):
            extract_hypercolumn(FeaturePyramid((fm,)), (8, 8))


class TestGlobalDescriptor:
    def test_constant_coarsest_returns_renormalized_vector(self):
        v = np.tile(np.array([0.6, 0.8, 0.0], dtype=np.float32), (15, 15, 1))
        pyr = FeaturePyramid((FeatureMap(v),))
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
        v = pyr.coarsest.values.astype(np.float64)
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
        g = compute_global_descriptor(FeaturePyramid((z,)))
        assert np.allclose(g.values, 0.5)
