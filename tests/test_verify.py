"""Homography fitting, RANSAC, cyclic consistency and similarity scores."""

import hashlib
import math
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrverify import core, pyramid, verify
from corrverify.core import (
    CorrespondenceMap,
    FeatureMap,
    GlobalDescriptor,
    Mask,
    bilinear_sample_grid,
    sample_map,
)
from corrverify.rng import Lcg64
from corrverify.synth import (
    WarpSpec,
    apply_warp,
    inverse_warp_points,
    make_texture,
    random_warp,
    warp_points,
)
from corrverify.verify import (
    MAX_ITERATIONS,
    DegenerateModelError,
    Homography,
    RansacConfig,
    _batch_dlt,
    _count_inliers,
    _map_correspondences,
    cyclic_mask,
    fit_homography_dlt,
    project,
    ransac_homography,
    score_g,
    score_pair_s,
    score_s,
    score_s_f,
    score_s_l,
    verify_direction,
)

from helpers import count_threads, identity_map


def symmetric_transfer_error(h: Homography, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """max(forward, backward) transfer distance per correspondence, inf where
    a point maps to the horizon: the hypot reference RANSAC's inlier test is
    checked against."""
    with np.errstate(invalid="ignore", over="ignore"):
        df = project(h.matrix, src) - dst
        db = project(np.linalg.inv(h.matrix), dst) - src
        err = np.maximum(np.hypot(df[:, 0], df[:, 1]), np.hypot(db[:, 0], db[:, 1]))
    return np.where(np.isfinite(err), err, np.inf)


class TestDlt:
    def test_unit_square_identity(self):
        pts = np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]])
        h = fit_homography_dlt(pts, pts)
        assert np.abs(h.matrix - np.eye(3)).max() < 1e-9

    def test_recovers_known_homography(self):
        rng = np.random.default_rng(0)
        true = np.array([[1.1, 0.02, 4.0], [-0.03, 0.95, -2.0], [1e-4, -2e-4, 1.0]])
        src = rng.uniform(0, 200, (8, 2))
        dst = project(true, src)
        h = fit_homography_dlt(src, dst)
        assert np.abs(h.matrix - true).max() < 1e-6

    def test_exact_four_point_projective(self):
        # 4 pairs give an 8x9 system whose null vector is the 9th right
        # singular vector; an 8-point fit would not exercise that case
        true = np.array([[0.9, 0.1, 5.0], [-0.2, 1.2, -3.0], [2e-3, -1e-3, 1.0]])
        src = np.array([[0.0, 0], [100, 0], [100, 100], [0, 100]])
        dst = project(true, src)
        h = fit_homography_dlt(src, dst)
        assert np.abs(h.matrix - true).max() < 1e-9

    def test_batch_matches_single_fit(self):
        rng = np.random.default_rng(7)
        k = 32
        trues = np.tile(np.eye(3), (k, 1, 1))
        trues[:, :2, :] += rng.uniform(-0.2, 0.2, (k, 2, 3))
        trues[:, :2, 2] += rng.uniform(-10, 10, (k, 2))
        trues[:, 2, :2] = rng.uniform(-1e-3, 1e-3, (k, 2))
        src = rng.uniform(0, 200, (k, 4, 2))
        dst = np.stack([project(t, s) for t, s in zip(trues, src)])
        src[-1] = [[0.0, 0], [1, 1], [2, 2], [3, 3]]
        dst[-1] = [[0.0, 0], [10, 0], [10, 10], [0, 10]]
        out = _batch_dlt(src, dst)
        assert np.isnan(out[-1]).all()
        for i in range(k - 1):
            single = fit_homography_dlt(src[i], dst[i]).matrix
            assert np.abs(out[i] - single).max() < 1e-9
            assert np.abs(out[i] - trues[i]).max() < 1e-9

    def test_collinear_targets_degenerate(self):
        src = np.array([[0.0, 0], [10, 0], [10, 10], [0, 10]])
        dst = np.array([[0.0, 0], [1, 1], [2, 2], [3, 3]])
        with pytest.raises(DegenerateModelError):
            fit_homography_dlt(src, dst)

    def test_collinear_sources_degenerate(self):
        src = np.array([[0.0, 0], [1, 1], [2, 2], [3, 3]])
        dst = np.array([[0.0, 0], [10, 0], [10, 10], [0, 10]])
        with pytest.raises(DegenerateModelError):
            fit_homography_dlt(src, dst)

    @pytest.mark.parametrize("collinear", ["sources", "targets"])
    def test_large_collinear_system_degenerate(self, collinear):
        # the refit solves systems of thousands of points; 64 collinear
        # points leave its model as ambiguous as 4 do
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 200, 64)
        line = np.stack([x, 0.5 * x + 3], axis=1)
        spread = rng.uniform(0, 200, (64, 2))
        src, dst = (line, spread) if collinear == "sources" else (spread, line)
        with pytest.raises(DegenerateModelError):
            fit_homography_dlt(src, dst)

    def test_too_few_points(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ValueError):
            fit_homography_dlt(pts, pts)


class TestProject:
    def test_matches_synth_homography_warps(self):
        spec = random_warp("homography", 0.5, seed=31)
        h = np.asarray(spec.params["matrix"])
        pts = np.random.default_rng(32).uniform(-50, 290, (400, 2))
        fwd = project(h, pts)
        assert np.allclose(fwd, warp_points(spec, pts), rtol=1e-12, atol=1e-9)
        back, ok = inverse_warp_points(spec, pts)
        assert ok.all()
        assert np.allclose(back, project(np.linalg.inv(h), pts), rtol=1e-12, atol=1e-9)
        # a stack of models projects model by model
        both = project(np.stack([h, np.eye(3)]), pts)
        assert both.shape == (2, 400, 2)
        assert np.array_equal(both[0], fwd) and np.array_equal(both[1], pts)

    def test_horizon_points_are_nan(self):
        h = np.array([[1.0, 0, 0], [0, 1, 0], [-0.01, 0, 1]])
        pts = np.array([[100.0, 5.0], [50.0, 5.0]])
        out = project(h, pts)
        assert np.isnan(out[0]).all()
        assert np.allclose(out[1], [100.0, 10.0])
        spec = WarpSpec("homography", {"matrix": h}, seed=0, magnitude=0.0)
        assert np.array_equal(warp_points(spec, pts), out, equal_nan=True)
        inv_spec = WarpSpec("homography", {"matrix": np.linalg.inv(h)}, seed=0, magnitude=0.0)
        back, ok = inverse_warp_points(inv_spec, pts)
        assert ok.tolist() == [False, True]
        assert np.allclose(back[1], out[1])


class TestScoreS:
    def test_full_consistency_is_inv_e(self):
        assert abs(score_s(57600, 57600, 57600.0) - math.exp(-1)) < 1e-12

    def test_zero_counts_give_zero(self):
        assert score_s(1000, 0, 57600.0) == 0.0
        assert score_s(0, 0, 57600.0) == 0.0

    def test_hand_evaluated_value(self):
        expect = 0.5 * math.exp(-115.2)
        assert score_s(1000, 500, 57600.0) == pytest.approx(expect, rel=1e-12)

    @given(st.integers(1, 2000), st.integers(1, 2000), st.integers(2, 5))
    @settings(max_examples=200, deadline=None)
    def test_equal_scaling_increases(self, c, extra, k):
        i = c + extra
        beta = 57600.0
        lo, hi = score_s(i, c, beta), score_s(k * i, k * c, beta)
        # strictness is observable only where exp(-beta/C) does not underflow
        assert hi > lo if lo > 0.0 else hi >= lo

    def test_monotone_in_consistent_count(self):
        beta = 57600.0
        i = 800
        vals = [score_s(i, c, beta) for c in range(1, i + 1)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        positive = [v for v in vals if v > 0]
        assert all(b > a for a, b in zip(positive, positive[1:]))

    def test_monotone_in_ratio(self):
        beta = 57600.0
        c = 300
        vals = [score_s(i, c, beta) for i in range(c, 2000)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    @given(st.integers(1, 600), st.integers(1, 600), st.data())
    @settings(max_examples=300, deadline=None)
    def test_cyclic_count_bounds_s(self, h, w, data):
        # verify_direction skips RANSAC when score_s(k, k, beta) == 0: then
        # every |I| = i and |C| = c <= min(k, i) must give S == 0 too
        beta = verify.beta_for_working_size(h, w)
        k = data.draw(st.integers(0, min(h * w, int(beta / 745.13) + 2)))
        c = data.draw(st.integers(0, k))
        i = data.draw(st.integers(c, h * w))
        if score_s(k, k, beta) == 0.0:
            assert score_s(i, c, beta) == 0.0

    def test_skip_boundary_at_240(self):
        beta = verify.beta_for_working_size(240, 240)
        assert score_s(77, 77, beta) == 0.0
        assert score_s(78, 78, beta) > 0.0


class TestScoreSF:
    def test_forced_value(self):
        v, flag = score_s_f(10.0, 1.0, 0.0)
        assert abs(v - 1.0) < 1e-12
        assert not flag

    def test_unit_product_zero_for_any_g(self):
        for g in (0.0, 0.5, 1.0, 2.0):
            v, _ = score_s_f(4.0, 0.25, g)
            assert abs(v) < 1e-12

    def test_hand_evaluated(self):
        v, flag = score_s_f(5000.0, 0.3, 1.2)
        assert v == pytest.approx(math.log10(1500.0) * 10 ** (-1.2), rel=1e-12)
        assert not flag

    def test_zero_product_sentinel(self):
        v, flag = score_s_f(0.0, 0.5, 1.0)
        assert v == float("-inf") and not flag
        v, _ = score_s_f(-3.0, 0.5, 1.0)
        assert v == float("-inf")

    def test_damped_regime_flagged(self):
        v, flag = score_s_f(0.5, 0.5, 2.0)
        assert flag and v < 0


class TestScoreG:
    def test_identical_zero(self):
        v = np.ones(8) / np.sqrt(8)
        assert score_g(GlobalDescriptor(v), GlobalDescriptor(v)) == 0.0

    def test_orthogonal_sqrt2(self):
        a = np.zeros(4)
        a[0] = 1.0
        b = np.zeros(4)
        b[1] = 1.0
        assert score_g(GlobalDescriptor(a), GlobalDescriptor(b)) == pytest.approx(math.sqrt(2))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(16)
        a /= np.linalg.norm(a)
        b = rng.standard_normal(16)
        b /= np.linalg.norm(b)
        expect = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
        assert score_g(GlobalDescriptor(a), GlobalDescriptor(b)) == pytest.approx(expect, rel=1e-12)


def unit_field(seed, h, w, c):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((h, w, c))
    v /= np.linalg.norm(v, axis=2, keepdims=True)
    return FeatureMap(v.astype(np.float32))


class TestScoreSL:
    def test_self_similarity_counts_mask(self):
        f = unit_field(2, 8, 8, 6)
        mask = np.zeros((8, 8), dtype=bool)
        mask[2:5, 3:7] = True  # 12 pixels
        got = score_s_l(f, f, identity_map(8, 8), Mask(mask))
        assert got == pytest.approx(12.0, abs=1e-4)

    def test_orthogonal_fields_zero(self):
        a = np.zeros((8, 8, 4), dtype=np.float32)
        a[..., 0] = 1.0
        b = np.zeros((8, 8, 4), dtype=np.float32)
        b[..., 1] = 1.0
        got = score_s_l(FeatureMap(a), FeatureMap(b),
                        identity_map(8, 8), Mask(np.ones((8, 8), bool)))
        assert got == pytest.approx(0.0, abs=1e-6)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(3)
        fa = unit_field(4, 8, 8, 5)
        fb = unit_field(5, 8, 8, 5)
        coords = np.stack(
            [rng.uniform(0, 7, (8, 8)), rng.uniform(0, 7, (8, 8))], axis=2)
        cmap = CorrespondenceMap.from_coords(coords, (8, 8))
        mask = rng.random((8, 8)) < 0.6
        got = score_s_l(fa, fb, cmap, Mask(mask))
        expect = 0.0
        for y in range(8):
            for x in range(8):
                if not (mask[y, x] and cmap.valid[y, x]):
                    continue
                cx, cy = cmap.coords[y, x]
                (v,), _ = bilinear_sample_grid(fa.values, [cx], [cy])
                n = np.linalg.norm(v)
                if n > 1e-12:
                    expect += float(np.dot(v / n, fb.values[y, x].astype(np.float64)))
        assert got == pytest.approx(expect, abs=1e-6)

    def test_empty_mask_zero(self):
        f = unit_field(6, 8, 8, 3)
        got = score_s_l(f, f, identity_map(8, 8), Mask(np.zeros((8, 8), bool)))
        assert got == 0.0

    def test_disjoint_masks_sum_linearly(self):
        f = unit_field(7, 10, 10, 4)
        g = unit_field(8, 10, 10, 4)
        rng = np.random.default_rng(9)
        m1 = rng.random((10, 10)) < 0.3
        m2 = (rng.random((10, 10)) < 0.3) & ~m1
        ident = identity_map(10, 10)
        s1 = score_s_l(f, g, ident, Mask(m1))
        s2 = score_s_l(f, g, ident, Mask(m2))
        s12 = score_s_l(f, g, ident, Mask(m1 | m2))
        assert s12 == pytest.approx(s1 + s2, abs=1e-9)

    def test_zero_channels_zero(self):
        f = FeatureMap(np.zeros((8, 8, 0), np.float32))
        assert score_s_l(f, f, identity_map(8, 8), Mask(np.ones((8, 8), bool))) == 0.0

    # block boundaries: B is the block size in pixels at 50 channels
    CHANNELS = 50
    B = verify.S_L_BLOCK_BYTES // (8 * CHANNELS)

    def block_fixture(self):
        """Fields on a (3B+7)-pixel grid whose map sends masked pixel 5 out
        of bounds and pixel 2B+3 to a zero-descriptor region of hyper_a."""
        n = 3 * self.B + 7
        w = 64
        h = -(-n // w)
        fa = unit_field(41, h, w, self.CHANNELS).values.copy()
        fa[:3, :3] = 0.0
        fb = unit_field(42, h, w, self.CHANNELS)
        rng = np.random.default_rng(43)
        coords = np.stack([rng.uniform(3, w - 1, (h, w)), rng.uniform(3, h - 1, (h, w))], axis=2)
        flat = coords.reshape(-1, 2)
        flat[5] = [w + 2.5, 1.0]
        flat[2 * self.B + 3] = [0.5, 1.25]
        cmap = CorrespondenceMap(coords, np.ones((h, w), bool))
        sampled, ok = verify.bilinear_sample_grid(fa, flat[:, 0], flat[:, 1])
        assert not ok[5] and ok[2 * self.B + 3] and not sampled[2 * self.B + 3].any()
        return FeatureMap(fa), fb, cmap

    @pytest.mark.parametrize("blocks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 7)])
    def test_blocks_bitwise_equal_unchunked(self, blocks, extra):
        n = blocks * self.B + extra
        fa, fb, cmap = self.block_fixture()
        bits = np.zeros(fb.height * fb.width, bool)
        bits[:n] = True
        mask = Mask(bits.reshape(fb.height, fb.width))
        got = score_s_l(fa, fb, cmap, mask)
        assert got == unchunked_s_l(fa, fb, cmap, mask)
        if n == 3 * self.B + 7:
            assert got == pytest.approx(bruteforce_s_l(fa, fb, cmap, mask), abs=1e-6)

    def test_no_ok_sample_is_zero(self):
        fa, fb, cmap = self.block_fixture()
        outside = CorrespondenceMap(cmap.coords + [[[fa.width + 1.0, 0.0]]], cmap.valid)
        mask = Mask(np.ones((fb.height, fb.width), bool))
        assert score_s_l(fa, fb, outside, mask) == 0.0
        assert unchunked_s_l(fa, fb, outside, mask) == 0.0

    def test_memory_bounded(self):
        # 480^2 x 50 fields, near-identity map: ~229k masked pixels, which an
        # unchunked gather promotes to ~350 MiB of float64 planes
        fa = unit_field(44, 480, 480, 50)
        fb = unit_field(45, 480, 480, 50)
        gx, gy = np.meshgrid(np.arange(480.0), np.arange(480.0))
        cmap = CorrespondenceMap.from_coords(np.stack([gx + 0.3, gy - 0.4], axis=2), (480, 480))
        mask = Mask(cmap.valid)
        assert mask.count() >= 200_000
        tracemalloc.start()
        try:
            got = score_s_l(fa, fb, cmap, mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert abs(got) < mask.count()


def unchunked_s_l(hyper_a, hyper_b, o_ab, mask):
    """score_s_l gathering every masked pixel at once."""
    sel = mask.bits & o_ab.valid
    if not sel.any():
        return 0.0
    ys, xs = np.nonzero(sel)
    coords = o_ab.coords[ys, xs]
    sampled, ok = verify.bilinear_sample_grid(hyper_a.values, coords[:, 0], coords[:, 1])
    if not ok.any():
        return 0.0
    norms = np.linalg.norm(sampled, axis=1)
    good = ok & (norms > 1e-12)
    target = hyper_b.values[ys[good], xs[good]].astype(np.float64)
    dots = np.einsum("nc,nc->n", sampled[good] / norms[good, None], target)
    return float(dots.sum())


def bruteforce_s_l(hyper_a, hyper_b, o_ab, mask):
    """S_L with one pixel at a time, skipping out-of-bounds and zero samples."""
    total = 0.0
    for y, x in zip(*np.nonzero(mask.bits & o_ab.valid)):
        v, ok = verify.bilinear_sample_grid(hyper_a.values, o_ab.coords[y, x, :1],
                                            o_ab.coords[y, x, 1:])
        n = np.linalg.norm(v[0])
        if ok[0] and n > 1e-12:
            total += float(np.dot(v[0] / n, hyper_b.values[y, x].astype(np.float64)))
    return total


class TestCyclicMask:
    def test_identity_maps_all_set(self):
        ident = identity_map(32, 32)
        assert cyclic_mask(ident, ident, 2.0).count() == 32 * 32

    def test_opposite_shifts_interior_set(self):
        h = w = 32
        t = 5.0
        gx, gy = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
        fwd = CorrespondenceMap.from_coords(
            np.stack([gx + t, gy], axis=2), (h, w))
        bwd = CorrespondenceMap.from_coords(
            np.stack([gx - t, gy], axis=2), (h, w))
        m = cyclic_mask(fwd, bwd, 0.5)
        assert m.bits[:, : w - 5].all()
        assert not m.bits[:, w - 5 :].any()  # forward shift leaves the frame

    def test_random_backward_map_chance_level(self):
        h = w = 64
        eps = 2.0
        rng = np.random.default_rng(10)
        ident = identity_map(h, w)
        coords = np.stack(
            [rng.uniform(0, w - 1, (h, w)), rng.uniform(0, h - 1, (h, w))], axis=2)
        rand_bwd = CorrespondenceMap.from_coords(coords, (h, w))
        frac = cyclic_mask(ident, rand_bwd, eps).count() / (h * w)
        expect = math.pi * eps * eps / (h * w)
        assert frac == pytest.approx(expect, abs=3 * math.sqrt(expect / (h * w)) + 2e-3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_at_invalid_pixel_is_inert(self, bad):
        # a zero bilinear weight times nan or inf is nan: whatever sits at an
        # invalid pixel must not reach a neighbour's sample
        coords = identity_map(6, 6).coords.copy()
        valid = np.ones((6, 6), dtype=bool)
        valid[2, 3] = False
        coords[2, 3] = bad
        m = CorrespondenceMap(coords, valid)
        coords[2, 3] = 0.0
        ref = CorrespondenceMap(coords, valid)
        xs, ys = np.meshgrid(np.arange(0, 5.01, 0.5), np.arange(0, 5.01, 0.5))
        got, ok = sample_map(m, xs, ys)
        want, want_ok = sample_map(ref, xs, ys)
        assert np.array_equal(ok, want_ok) and np.array_equal(got, want)
        assert ok[4, 4] and np.array_equal(got[4, 4], [2.0, 2.0])
        assert np.array_equal(cyclic_mask(m, m).bits, cyclic_mask(ref, ref).bits)
        assert cyclic_mask(m, m).count() == 35


def gt_maps_for(kind, seed, magnitude=0.4):
    img = make_texture(240, 240, seed=seed)
    spec = random_warp(kind, magnitude, seed=seed)
    _, gt_fwd, gt_bwd = apply_warp(img, spec)
    return spec, gt_fwd, gt_bwd


class TestRansac:
    def test_identity_map_recovers_identity(self):
        ident = identity_map(64, 64)
        model, inliers = ransac_homography(ident, RansacConfig(iterations=100, seed=1))
        assert model is not None
        assert np.abs(model.matrix - np.eye(3)).max() < 1e-6
        assert inliers.count() == 64 * 64

    def test_exact_homography_map_recovered(self):
        spec, gt_fwd, _ = gt_maps_for("homography", seed=13)
        model, inliers = ransac_homography(gt_fwd, RansacConfig(seed=2))
        assert model is not None
        assert inliers.count() / gt_fwd.valid.sum() >= 0.99
        # the map points warped->source, so the model approximates W^-1
        hinv = np.linalg.inv(np.asarray(spec.params["matrix"]))
        corners = np.array([[0.0, 0], [239, 0], [239, 239], [0, 239]])
        expect = project(hinv, corners)
        got = project(model.matrix, corners)
        assert np.linalg.norm(got - expect, axis=1).max() <= 0.5

    def test_uniform_random_map_rejected_or_chance(self):
        rng = np.random.default_rng(3)
        coords = np.stack(
            [rng.uniform(0, 239, (240, 240)), rng.uniform(0, 239, (240, 240))], axis=2)
        cmap = CorrespondenceMap.from_coords(coords, (240, 240))
        model, inliers = ransac_homography(cmap, RansacConfig(seed=4))
        if model is not None:
            assert inliers.count() / cmap.valid.sum() <= 0.05

    def test_deterministic_under_seed(self):
        _, gt_fwd, _ = gt_maps_for("homography", seed=17)
        a_model, a_mask = ransac_homography(gt_fwd, RansacConfig(seed=5))
        b_model, b_mask = ransac_homography(gt_fwd, RansacConfig(seed=5))
        assert np.array_equal(a_mask.bits, b_mask.bits)
        assert a_model.matrix.tobytes() == b_model.matrix.tobytes()

    def test_dense_scoring_memory_bounded(self):
        # 1000 hypotheses scored against every valid pixel: 1000 x 12,697 pairs
        img = make_texture(120, 120, 3)
        _, gt_fwd, _ = apply_warp(img, random_warp("affine", 0.3, 5, (120, 120)))
        pts, coords = _map_correspondences(gt_fwd, 1)
        assert len(pts) == 12697
        rng = Lcg64(0)
        quads = np.array([rng.sample_distinct(len(pts), 4) for _ in range(1000)])
        models = _batch_dlt(pts[quads], coords[quads])
        tracemalloc.start()
        try:
            counts = _count_inliers(models, pts, coords, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        # the hypot reference's row-wise counts for these hypotheses
        assert hashlib.sha256(counts.astype(np.int64).tobytes()).hexdigest() == \
            "0de8c0493f911bd579fa1a64d6458790f131b1325c7b8a3851782f21979d7328"

    def test_too_few_valid_pixels_no_model(self):
        coords = np.zeros((30, 30, 2))
        valid = np.zeros((30, 30), bool)
        valid[0, :10] = True
        cmap = CorrespondenceMap(coords, valid)
        model, inliers = ransac_homography(cmap, RansacConfig(seed=6))
        assert model is None and inliers.count() == 0

    @staticmethod
    def one_row_map():
        """40x40 identity map valid on one subgrid row only: every 4-point
        draw is collinear, so every hypothesis is nan and counts 0."""
        valid = np.zeros((40, 40), dtype=bool)
        valid[10] = True
        cmap = CorrespondenceMap(identity_map(40, 40).coords, valid)
        assert len(_map_correspondences(cmap, verify.SAMPLE_STRIDE)[0]) == 20
        return cmap

    @pytest.mark.parametrize("min_inliers", [0, 1, 2, 3])
    def test_below_four_inliers_no_model(self, min_inliers):
        cfg = RansacConfig(iterations=50, min_inliers=min_inliers)
        model, inliers = ransac_homography(self.one_row_map(), cfg)
        assert model is None
        assert inliers.bits.shape == (40, 40) and not inliers.bits.any()

    def test_below_four_inliers_pair_scores_zero(self, monkeypatch):
        cmap = self.one_row_map()
        entered = count_ransac(monkeypatch)
        s, r_ab, r_ba = score_pair_s(cmap, cmap, RansacConfig(iterations=50, min_inliers=0))
        # the 40 cyclically consistent pixels do not trigger the skip
        assert len(entered) == 2 and s == 0.0
        for r in (r_ab, r_ba):
            assert r.homography is None and r.num_inliers == r.num_consistent == 0


class TestRansacConfig:
    @pytest.mark.parametrize("field, value", [
        ("iterations", 0), ("inlier_threshold", 0.0), ("inlier_threshold", math.nan),
        ("inlier_threshold", math.inf), ("min_inliers", -1),
        ("iterations", 10.5), ("iterations", 1000.0), ("iterations", True),
        ("min_inliers", 2.5), ("min_inliers", False), ("seed", 1.5), ("seed", None),
        ("seed", np.float64(1.0))])
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            RansacConfig(**{field: value})

    def test_accepts_numpy_integers(self):
        cfg = RansacConfig(iterations=np.int64(40), min_inliers=np.int64(4),
                           seed=np.int64(7))
        model, _ = ransac_homography(identity_map(40, 40), cfg)
        assert model is not None
        assert cfg == RansacConfig(iterations=40, min_inliers=4, seed=7)

    def test_iterations_capped(self):
        assert RansacConfig(iterations=MAX_ITERATIONS).iterations == MAX_ITERATIONS
        with pytest.raises(ValueError, match="iterations"):
            RansacConfig(iterations=MAX_ITERATIONS + 1)

    def test_accepts_smallest_values(self):
        cfg = RansacConfig(iterations=1, min_inliers=0)
        model, inliers = ransac_homography(identity_map(40, 40), cfg)
        assert model is not None and inliers.count() == 40 * 40


def reference_counts(models, src, dst, t):
    """Row-wise inlier counts by the hypot reference; rows that are not a
    valid homography (nan, singular) count nothing."""
    counts = []
    for m in models:
        try:
            h = Homography(m)
        except ValueError:
            counts.append(0)
            continue
        assert h.matrix.tobytes() == m.tobytes()
        counts.append(int((symmetric_transfer_error(h, src, dst) <= t).sum()))
    return np.array(counts)


def boundary_pairs(t, rng):
    """Pairs at distance t from the origin, one ulp either side, and at
    random angles (where dx*dx + dy*dy and hypot may round apart)."""
    d = [t, np.nextafter(t, 0), np.nextafter(t, np.inf)]
    axis = [(s * r, 0.0) for r in d for s in (1, -1)] + [(0.0, s * r) for r in d for s in (1, -1)]
    ang = rng.uniform(0, 2 * np.pi, 1000)
    rim = np.stack([t * np.cos(ang), t * np.sin(ang)], axis=1)
    rim = np.concatenate([rim, np.nextafter(rim, 0), np.nextafter(rim, np.inf)])
    dst = np.concatenate([np.array(axis), rim])
    return np.zeros_like(dst), dst


class TestInlierKernel:
    @pytest.mark.parametrize("t", [3.0, 0.75, 1e-200, 1e200])
    def test_counts_match_hypot_reference(self, t):
        rng = np.random.default_rng(41)
        truth = np.array([[1.02, 0.03, 4.0], [-0.02, 0.97, -3.0], [1e-4, -5e-5, 1.0]])
        src = rng.uniform(0, 120, (500, 2))
        dst = project(truth, src) + rng.normal(0, 2.0, src.shape)
        dst[:100] = rng.uniform(0, 120, (100, 2))
        b_src, b_dst = boundary_pairs(t, rng)
        # horizon: w = 0 exactly, and an exact correspondence at w = 2**-40
        horizon = np.array([[1.0, 0, 0], [0, 1, 0], [2.0 ** -10, 0, 1]])
        near = -1024.0 + 2.0 ** -30
        h_src = np.array([[-1024.0, 5.0], [near, 3.0]])
        h_dst = np.array([[1.0, 1.0], [near * 2.0 ** 40, 3.0 * 2.0 ** 40]])
        src = np.concatenate([src, b_src, h_src])
        dst = np.concatenate([dst, b_dst, h_dst])

        step = verify.SCORE_CHUNK_BYTES // (8 * len(src))
        k = 2 * step + 7
        assert k % step
        quads = rng.integers(0, 500, (k - 5, 4))
        quads[:3] = quads[:3, :1]           # repeated points: nan rows
        models = _batch_dlt(src[quads], dst[quads])
        models = np.concatenate([models, [np.eye(3), horizon, np.full((3, 3), np.nan),
                                          np.diag([1.0, 1.0, 0.0]), truth]])
        assert np.isnan(models[:3]).all()
        got = _count_inliers(models, src, dst, t)
        assert np.array_equal(got, reference_counts(models, src, dst, t))
        assert got[-5] > 0 and got[-4] > 0 and got[-3] == got[-2] == 0

    @pytest.mark.parametrize("threshold", [3.0, 1.0])
    def test_ransac_mask_matches_reference(self, threshold):
        img = make_texture(120, 120, 43)
        _, fwd, _ = apply_warp(img, random_warp("tps", 0.5, 43, (120, 120)))
        coords = fwd.coords + np.random.default_rng(43).normal(0, 1.0, fwd.coords.shape)
        cmap = CorrespondenceMap(coords, fwd.valid)
        model, inliers = ransac_homography(cmap, RansacConfig(seed=3, inlier_threshold=threshold))
        ys, xs = np.nonzero(cmap.valid)
        err = symmetric_transfer_error(model, np.stack([xs, ys], axis=1).astype(float),
                                       cmap.coords[ys, xs])
        expect = np.zeros_like(inliers.bits)
        expect[ys, xs] = err <= threshold
        assert np.array_equal(inliers.bits, expect)
        assert 0 < inliers.count() < cmap.valid.sum()


def noisy_pair(kind, seed, magnitude, size=48):
    """Ground-truth maps of a seeded warp, the forward map jittered and given
    an outlier patch so that I, C and the two directions differ."""
    img = make_texture(size, size, seed)
    _, fwd, bwd = apply_warp(img, random_warp(kind, magnitude, seed, (size, size)))
    rng = np.random.default_rng(seed)
    coords = fwd.coords + rng.normal(0, 0.7, fwd.coords.shape)
    y, x = rng.integers(0, size // 2, 2)
    coords[y:y + size // 3, x:x + size // 3] = rng.uniform(0, size - 1, (size // 3, size // 3, 2))
    return CorrespondenceMap(coords, fwd.valid), bwd


class TestScoreInvariants:
    @settings(max_examples=8, deadline=None)
    @given(st.sampled_from(["affine", "tps"]), st.integers(0, 2 ** 16),
           st.floats(0.1, 0.6), st.integers(0, 2 ** 16))
    def test_pair_score_invariants(self, kind, seed, magnitude, ransac_seed):
        fwd, bwd = noisy_pair(kind, seed, magnitude)
        cfg = RansacConfig(iterations=200, seed=ransac_seed)
        s, r_ab, r_ba = score_pair_s(fwd, bwd, cfg)
        assert 0.0 <= s <= math.exp(-1)
        for r in (r_ab, r_ba):
            assert not (r.consistent_mask.bits & ~r.inlier_mask.bits).any()
        # symmetric under swapping the pair
        s_swap, q_ba, q_ab = score_pair_s(bwd, fwd, cfg)
        assert s_swap == s
        assert np.array_equal(q_ab.inlier_mask.bits, r_ab.inlier_mask.bits)
        assert np.array_equal(q_ba.consistent_mask.bits, r_ba.consistent_mask.bits)
        # seeded determinism
        s_again, a_ab, a_ba = score_pair_s(fwd, bwd, cfg)
        assert s_again == s
        for a, r in ((a_ab, r_ab), (a_ba, r_ba)):
            assert np.array_equal(a.inlier_mask.bits, r.inlier_mask.bits)
            assert np.array_equal(a.consistent_mask.bits, r.consistent_mask.bits)
            assert (a.homography is None) == (r.homography is None)
            if a.homography is not None:
                assert a.homography.matrix.tobytes() == r.homography.matrix.tobytes()


class TestVerifyDirection:
    def test_consistent_subset_of_inliers(self):
        _, gt_fwd, gt_bwd = gt_maps_for("homography", seed=19)
        res = verify_direction(gt_fwd, gt_bwd, RansacConfig(seed=7))
        assert not (res.consistent_mask.bits & ~res.inlier_mask.bits).any()
        assert res.num_consistent <= res.num_inliers
        assert res.num_consistent > 0

    def test_score_pair_direction_swap_symmetric(self):
        _, gt_fwd, gt_bwd = gt_maps_for("homography", seed=23)
        cfg = RansacConfig(seed=8)
        s1, _, _ = score_pair_s(gt_fwd, gt_bwd, cfg)
        s2, _, _ = score_pair_s(gt_bwd, gt_fwd, cfg)
        assert s1 == s2

    def test_perfect_pair_score_in_expected_band(self):
        _, gt_fwd, gt_bwd = gt_maps_for("homography", seed=29, magnitude=0.3)
        s, r_ab, r_ba = score_pair_s(gt_fwd, gt_bwd, RansacConfig(seed=9))
        assert 0.2 <= s <= math.exp(-1) + 1e-9

    def test_symmetric_transfer_error_identity(self):
        h = Homography(np.eye(3))
        src = np.array([[1.0, 2], [30, 40]])
        err = symmetric_transfer_error(h, src, src + [3.0, 4.0])
        assert np.allclose(err, 5.0)


def pair_digest(s, r_ab, r_ba):
    """sha256 over S and both directions' models, inlier and consistent masks."""
    h = hashlib.sha256(np.float64(s).tobytes())
    for r in (r_ab, r_ba):
        h.update(r.homography.matrix.tobytes() if r.homography is not None else b"none")
        h.update(np.packbits(r.inlier_mask.bits).tobytes())
        h.update(np.packbits(r.consistent_mask.bits).tobytes())
    return h.hexdigest()


# pair digests of score_pair_s at TestSplitKernels.CFG, taken before any
# kernel was split and kept since; 128^2 maps take the prescreen path
PINNED_PAIRS = [
    ("affine", 61, "85fc3a452a6189250b7415ad7bb1928a6c42985f9f5c899d78658de7e80da8a3"),
    ("tps", 62, "f0e9b7e45dbb98cdc23ad82354251ba64b8eb92c18785293b2207e9e732422ae"),
]


class TestSplitKernels:
    """verify runs on the calling thread, and its batched kernels give the
    results of per-item oracles, bit for bit."""

    CFG = RansacConfig(iterations=300, seed=5)

    @pytest.mark.parametrize("kind, seed, digest", PINNED_PAIRS)
    def test_score_pair_s_pinned(self, monkeypatch, kind, seed, digest):
        fwd, bwd = noisy_pair(kind, seed, 0.4, size=128)
        started = count_threads(monkeypatch)
        before = threading.active_count()
        got = score_pair_s(fwd, bwd, self.CFG)
        assert threading.active_count() == before
        assert pair_digest(*got) == digest
        assert len(started) == 0
        r_ab = verify_direction(fwd, bwd, self.CFG)
        r_ba = verify_direction(bwd, fwd, self.CFG)
        assert pair_digest(got[0], r_ab, r_ba) == digest

    @pytest.mark.parametrize("k", [1, 2, 3, 48, 1000])
    def test_count_inliers_equals_masks(self, k):
        fwd, _ = noisy_pair("tps", 66, 0.4, size=64)
        pts, coords = _map_correspondences(fwd, 1)
        rng = Lcg64(3)
        quads = np.array([rng.sample_distinct(len(pts), 4) for _ in range(k)])
        models = _batch_dlt(pts[quads], coords[quads])
        want = [np.count_nonzero(verify._inlier_mask(m, pts, coords, 3.0)) for m in models]
        assert _count_inliers(models, pts, coords, 3.0).tolist() == want

    @pytest.mark.parametrize("h", [1, 2, 7, 48])
    def test_cyclic_matches_oracle(self, h):
        fwd, bwd = noisy_pair("tps", 67, 0.4, size=48)
        fwd = CorrespondenceMap(fwd.coords[:h], fwd.valid[:h])
        back, ok = sample_map(bwd, fwd.coords[..., 0], fwd.coords[..., 1])
        gx, gy = np.meshgrid(np.arange(48.0), np.arange(float(h)))
        want = fwd.valid & ok & (np.hypot(back[..., 0] - gx, back[..., 1] - gy) <= 2.0)
        assert np.array_equal(cyclic_mask(fwd, bwd).bits, want)

    def test_layer_functions_stay_on_calling_thread(self, monkeypatch):
        # the threads run array kernels only: the public functions of verify
        # and pyramid, core's resizers and the LCG's draws are entered on the
        # caller's thread, so they nest
        calls = []

        def wrap(name, fn):
            def traced(*args, **kwargs):
                calls.append((name, threading.get_ident()))
                return fn(*args, **kwargs)
            return traced

        for module in (verify, pyramid):
            for name, fn in list(vars(module).items()):
                if isinstance(fn, types.FunctionType) and not name.startswith("_") \
                        and fn.__module__ == module.__name__:
                    monkeypatch.setattr(module, name, wrap(name, fn))
        for name in ("resize_grid", "resample_map"):
            monkeypatch.setattr(core, name, wrap(name, getattr(core, name)))
        for name in ("below", "sample_distinct"):
            monkeypatch.setattr(Lcg64, name, wrap(name, getattr(Lcg64, name)))
        fwd, bwd = noisy_pair("tps", 62, 0.4, size=128)
        verify.score_pair_s(fwd, bwd, self.CFG)
        core.resample_map(fwd, 256, 256)
        pyr = pyramid.build_pyramid(make_texture(128, 128, 62))
        pyramid.extract_hypercolumn(pyr, (480, 480))
        pyramid.compute_global_descriptor(pyr)
        names = {name for name, _ in calls}
        assert {"score_pair_s", "verify_direction", "ransac_homography", "fit_homography_dlt",
                "cyclic_mask", "sample_distinct", "below", "resample_map", "resize_grid",
                "build_pyramid", "level_sizes", "dense_descriptors", "extract_hypercolumn",
                "compute_global_descriptor"} <= names
        assert {ident for _, ident in calls} == {threading.get_ident()}

    def test_callers_on_four_threads_agree(self):
        fwd, bwd = noisy_pair("tps", 64, 0.4, size=96)
        want = pair_digest(*score_pair_s(fwd, bwd, self.CFG))
        got = [None] * 4

        def call(i):
            got[i] = pair_digest(*score_pair_s(fwd, bwd, self.CFG))

        callers = [threading.Thread(target=call, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert got == [want] * 4


def incoherent_pair(seed, size=128, cells=6):
    """Distractor maps both ways: coarse uniform random grids, bilinearly
    upsampled, so each field is locally smooth but the two do not compose."""
    def field(s):
        coarse = np.random.default_rng(s).uniform(0.0, size - 1.0, (cells, cells, 2))
        return CorrespondenceMap.from_coords(core.resize_grid(coarse, size, size), (size, size))
    return field(seed), field(seed + 1)


def count_ransac(monkeypatch):
    """Record every map verify.ransac_homography is entered with."""
    entered = []
    real = verify.ransac_homography

    def counted(cmap, config):
        entered.append(cmap)
        return real(cmap, config)

    monkeypatch.setattr(verify, "ransac_homography", counted)
    return entered


class TestCyclicSkip:
    """A direction whose cyclic count cannot give S > 0 skips RANSAC."""

    CFG = RansacConfig(seed=5)

    def test_distractor_skips_ransac(self, monkeypatch):
        o_ab, o_ba = incoherent_pair(3)
        beta = verify.beta_for_working_size(128, 128)
        # run in full, the A->B direction keeps one consistent inlier; S is 0 anyway
        _, inliers = ransac_homography(o_ab, self.CFG)
        full_c = np.count_nonzero(inliers.bits & cyclic_mask(o_ab, o_ba).bits)
        assert full_c == 1 and score_s(inliers.count(), full_c, beta) == 0.0
        entered = count_ransac(monkeypatch)
        s, r_ab, r_ba = score_pair_s(o_ab, o_ba, self.CFG)
        assert entered == [] and s == 0.0
        for fwd, bwd, r in ((o_ab, o_ba, r_ab), (o_ba, o_ab, r_ba)):
            assert 0 < cyclic_mask(fwd, bwd).count() <= 77
            assert r.homography is None and r.num_inliers == r.num_consistent == 0
            assert r.inlier_mask.bits.shape == (128, 128)

    @pytest.mark.parametrize("k, runs", [(77, 0), (78, 1)])
    def test_gate_at_240(self, monkeypatch, k, runs):
        # identity maps: exactly the k valid pixels of o_fwd return home
        valid = np.zeros(240 * 240, dtype=bool)
        valid[::97][:k] = True
        o_fwd = CorrespondenceMap(identity_map(240, 240).coords, valid.reshape(240, 240))
        assert cyclic_mask(o_fwd, identity_map(240, 240)).count() == k
        entered = count_ransac(monkeypatch)
        verify_direction(o_fwd, identity_map(240, 240), self.CFG)
        assert len(entered) == runs

    def test_positive_pair_runs_ransac_both_ways(self, monkeypatch):
        fwd, bwd = noisy_pair("affine", 61, 0.4, size=128)
        entered = count_ransac(monkeypatch)
        s, r_ab, r_ba = score_pair_s(fwd, bwd, self.CFG)
        assert len(entered) == 2 and entered[0] is fwd and entered[1] is bwd
        assert s > 0.0 and r_ab.homography is not None and r_ba.homography is not None

    def test_positive_pair_starts_no_thread(self, monkeypatch):
        kind, seed, digest = PINNED_PAIRS[0]
        fwd, bwd = noisy_pair(kind, seed, 0.4, size=128)
        entered = count_ransac(monkeypatch)
        started = count_threads(monkeypatch)
        got = score_pair_s(fwd, bwd, TestSplitKernels.CFG)
        # RANSAC runs both ways, and with the cyclic checks on this thread
        assert len(entered) == 2 and started == []
        assert pair_digest(*got) == digest

    def test_all_invalid_pair_starts_no_ransac(self, monkeypatch):
        empty = CorrespondenceMap(np.zeros((40, 50, 2)), np.zeros((40, 50), dtype=bool))
        entered = count_ransac(monkeypatch)
        started = count_threads(monkeypatch)
        s, r_ab, r_ba = score_pair_s(empty, empty, self.CFG)
        assert s == 0.0 and entered == []
        # verify starts no thread, and the cyclic check returns the empty
        # mask before sampling o_ba
        assert started == []
        for r in (r_ab, r_ba):
            assert r.homography is None and r.num_inliers == r.num_consistent == 0
