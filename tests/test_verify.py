"""Homography fitting, RANSAC, cyclic consistency and similarity scores."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrverify import verify
from corrverify.core import CorrespondenceMap, FeatureMap, GlobalDescriptor, Mask, identity_map
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
    DegenerateModelError,
    Homography,
    RansacConfig,
    VariantInputs,
    _batch_dlt_4pt,
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
    score_variant,
    symmetric_transfer_error,
    verify_direction,
)


class TestDlt:
    def test_unit_square_identity(self):
        pts = np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]])
        h = fit_homography_dlt(pts, pts)
        assert np.abs(h.matrix - np.eye(3)).max() < 1e-9

    def test_recovers_known_homography(self):
        rng = np.random.default_rng(0)
        true = np.array([[1.1, 0.02, 4.0], [-0.03, 0.95, -2.0], [1e-4, -2e-4, 1.0]])
        src = rng.uniform(0, 200, (8, 2))
        dst = Homography(true).apply(src)
        h = fit_homography_dlt(src, dst)
        assert np.abs(h.matrix - true).max() < 1e-6

    def test_exact_four_point_projective(self):
        # 4 pairs give an 8x9 system whose null vector is the 9th right
        # singular vector; an 8-point fit would not exercise that case
        true = np.array([[0.9, 0.1, 5.0], [-0.2, 1.2, -3.0], [2e-3, -1e-3, 1.0]])
        src = np.array([[0.0, 0], [100, 0], [100, 100], [0, 100]])
        dst = Homography(true).apply(src)
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
        dst = np.stack([Homography(t).apply(s) for t, s in zip(trues, src)])
        src[-1] = [[0.0, 0], [1, 1], [2, 2], [3, 3]]
        dst[-1] = [[0.0, 0], [10, 0], [10, 10], [0, 10]]
        out = _batch_dlt_4pt(src, dst)
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
    return FeatureMap(v.astype(np.float32), unit_normalized=True)


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
        got = score_s_l(FeatureMap(a, True), FeatureMap(b, True),
                        identity_map(8, 8), Mask(np.ones((8, 8), bool)))
        assert got == pytest.approx(0.0, abs=1e-6)

    def test_matches_bruteforce_oracle(self):
        from corrverify.core import bilinear_sample

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
                v = bilinear_sample(fa.values, *cmap.coords[y, x])
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


class TestVariants:
    def setup_method(self):
        self.inputs = VariantInputs(
            num_inliers=1000, num_consistent=500, s=0.1, s_l=100.0, g=2.0,
            beta=57600.0)

    def test_scalar_variants(self):
        assert score_variant("C", self.inputs) == 500.0
        assert score_variant("I", self.inputs) == 1000.0
        assert score_variant("C_over_I", self.inputs) == 0.5
        assert score_variant("S", self.inputs) == score_s(1000, 500, 57600.0)

    def test_composite_hand_evaluated(self):
        # R = log10(S_L * S) = log10(10) = 1; Q = 5/G = 2.5
        assert score_variant("log_S_L_S*Q_5_over_G", self.inputs) == pytest.approx(2.5)

    def test_q_and_r_alone(self):
        assert score_variant("Q_pow10", self.inputs) == pytest.approx(10 ** -2.0)
        assert score_variant("S_L_times_S", self.inputs) == pytest.approx(10.0)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            score_variant("bogus", self.inputs)
        with pytest.raises(ValueError):
            score_variant("log_S_L_S*bogus", self.inputs)


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
        expect = Homography(hinv).apply(corners)
        got = model.apply(corners)
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
        models = _batch_dlt_4pt(pts[quads], coords[quads])
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


class TestRansacConfig:
    @pytest.mark.parametrize("field, value", [
        ("iterations", 0), ("inlier_threshold", 0.0), ("min_inliers", -1)])
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            RansacConfig(**{field: value})

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
        models = _batch_dlt_4pt(src[quads], dst[quads])
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
        res = verify_direction(gt_fwd, gt_bwd, "AB", RansacConfig(seed=7))
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
