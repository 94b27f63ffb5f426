"""Homography fitting, RANSAC, cyclic consistency and similarity scores."""

import functools
import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

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
    DegenerateModelError,
    RansacConfig,
    VerificationResult,
    _batch_dlt,
    _best,
    _canonical,
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

from helpers import bundled_openblas, count_threads, identity_map


def symmetric_transfer_error(h: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """max(forward, backward) transfer distance per correspondence, inf where
    a point maps to the horizon: the hypot reference RANSAC's inlier test is
    checked against."""
    with np.errstate(invalid="ignore", over="ignore"):
        df = project(h, src) - dst
        db = project(np.linalg.inv(h), dst) - src
        err = np.maximum(np.hypot(df[:, 0], df[:, 1]), np.hypot(db[:, 0], db[:, 1]))
    return np.where(np.isfinite(err), err, np.inf)


# the refit's bits on one OpenBLAS thread count, as one sha256 over seeded
# noisy projective pairs at point counts around the sizes RANSAC refits
DLT_THREADS_SCRIPT = """
import hashlib
import numpy as np
from corrverify.verify import fit_homography_dlt, project
h = hashlib.sha256()
for n in [4, 5, 8, 9, 57, *range(500, 14501, 500), 1023, 1024, 1025, 14700]:
    rng = np.random.default_rng(n)
    H = np.eye(3) + rng.uniform(-0.1, 0.1, (3, 3)) * [[1, 1, 100], [1, 1, 100], [1e-3, 1e-3, 0]]
    src = rng.uniform(0.0, 480.0, (n, 2))
    dst = project(H, src) + rng.normal(0.0, 0.5, (n, 2))
    h.update(fit_homography_dlt(src, dst).tobytes())
print(h.hexdigest())
"""


class TestDlt:
    def test_canonical_non_finite_rows_nan(self):
        # |det| of a row with an infinite entry can be infinite, and pass
        H = np.tile(np.eye(3), (5, 1, 1))
        H[1, 0, 0] = np.inf
        H[2, 1, 2] = -np.inf
        H[3, 0, 1] = np.nan
        H[4, 2, 2] = np.inf
        got = _canonical(H)
        assert np.array_equal(got[0], np.eye(3))
        assert np.isnan(got[1:]).all()

    def test_unit_square_identity(self):
        pts = np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]])
        h = fit_homography_dlt(pts, pts)
        assert np.abs(h - np.eye(3)).max() < 1e-9

    def test_recovers_known_homography(self):
        rng = np.random.default_rng(0)
        true = np.array([[1.1, 0.02, 4.0], [-0.03, 0.95, -2.0], [1e-4, -2e-4, 1.0]])
        src = rng.uniform(0, 200, (8, 2))
        dst = project(true, src)
        h = fit_homography_dlt(src, dst)
        assert np.abs(h - true).max() < 1e-6

    def test_exact_four_point_projective(self):
        # 4 pairs give an 8x9 system whose null vector is the 9th right
        # singular vector; an 8-point fit would not exercise that case
        true = np.array([[0.9, 0.1, 5.0], [-0.2, 1.2, -3.0], [2e-3, -1e-3, 1.0]])
        src = np.array([[0.0, 0], [100, 0], [100, 100], [0, 100]])
        dst = project(true, src)
        h = fit_homography_dlt(src, dst)
        assert np.abs(h - true).max() < 1e-9

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
            assert fit_homography_dlt(src[i], dst[i]).tobytes() == out[i].tobytes()
            assert np.abs(out[i] - trues[i]).max() < 1e-9

        # near the horizon, where _canonical is not idempotent: with
        # |H[2,2]| <= 1e-8 a row is scaled to unit norm, which can leave
        # |H[2,2]| > 1e-8.  The first row is such a model; the others have
        # H[2,2] = 10^U(-12, -8) and targets scaled by 10^U(-3, 1)
        k = 64
        trues = np.tile(np.eye(3), (k, 1, 1))
        trues[:, :2, :] += rng.uniform(-0.2, 0.2, (k, 2, 3))
        trues[:, 2, :2] = rng.uniform(1e-4, 1e-3, (k, 2))
        trues[:, 2, 2] = 10.0 ** rng.uniform(-12, -8, k)
        trues[0] = [[1e-3, 0, 0], [0, 1e-3, 0], [1e-4, 0, 5e-9]]
        src = rng.uniform(1, 200, (k, 8, 2))
        dst = np.stack([project(t, s) for t, s in zip(trues, src)])
        dst *= 10.0 ** rng.uniform(-3, 1, (k, 1, 1))
        out = _batch_dlt(src, dst)
        assert np.isfinite(out).all()
        for i in range(k):
            assert fit_homography_dlt(src[i], dst[i]).tobytes() == out[i].tobytes()

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

    @pytest.mark.parametrize("side", ["src", "dst"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_points_rejected(self, side, bad):
        # nan made the SVD fail to converge, inf made it warn first
        pts = {"src": np.array([[0.0, 0], [10, 0], [10, 10], [0, 10], [5, 3]]),
               "dst": np.array([[1.0, 2], [12, 1], [11, 13], [2, 9], [6, 5]])}
        pts[side][2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_homography_dlt(pts["src"], pts["dst"])

    def test_refit_bits_independent_of_blas_threads(self):
        # fit_homography_dlt's SVD of a (2N, 9) system is the one call per
        # direction that OpenBLAS may run on its own threads
        if not bundled_openblas():
            pytest.skip("numpy bundles no OpenBLAS whose thread count can be set")
        src = str(Path(verify.__file__).resolve().parent.parent)
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            digests.append(subprocess.run([sys.executable, "-c", DLT_THREADS_SCRIPT], env=env,
                                          capture_output=True, text=True, check=True).stdout)
        assert len(digests[0].strip()) == 64
        assert digests[0] == digests[1]


class TestProject:
    def test_matches_synth_homography_warps(self):
        spec = random_warp("homography", 0.5, seed=31)
        h = np.asarray(spec.params["matrix"])
        pts = np.random.default_rng(32).uniform(-50, 290, (400, 2))
        fwd = project(h, pts)
        assert np.allclose(fwd, warp_points(spec, pts), rtol=1e-12, atol=1e-9)
        back = inverse_warp_points(spec, pts)
        assert np.isfinite(back).all()
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
        back = inverse_warp_points(inv_spec, pts)
        assert np.isfinite(back).all(axis=1).tolist() == [False, True]
        assert np.isnan(back[0]).all() and np.allclose(back[1], out[1])


class TestScoreS:
    def test_full_consistency_is_inv_e(self):
        assert abs(score_s(57600, 57600, 57600.0) - math.exp(-1)) < 1e-12

    def test_zero_counts_give_zero(self):
        assert score_s(1000, 0, 57600.0) == 0.0
        assert score_s(0, 0, 57600.0) == 0.0

    @pytest.mark.parametrize("num_inliers, num_consistent", [(1, 5), (0, 1), (999, 1000)])
    def test_consistent_above_inliers_rejected(self, num_inliers, num_consistent):
        # C is a subset of I; unchecked, score_s(1, 5, 10.0) read 0.677 > 1/e
        with pytest.raises(ValueError, match="exceeds num_inliers"):
            score_s(num_inliers, num_consistent, 10.0)

    @pytest.mark.parametrize("num_inliers, num_consistent, name", [
        (-5, -6, "num_inliers"), (5, -1, "num_consistent"), (2.5, 1.5, "num_inliers"),
        (10, 1.0, "num_consistent"), (True, True, "num_inliers"), ("10", 5, "num_inliers")])
    def test_counts_not_pixel_counts_rejected(self, num_inliers, num_consistent, name):
        # unchecked, score_s(-5, -6, 10.0) read 0.0, (2.5, 1.5, 10.0) read
        # 7.6e-4 and (True, True, 10.0) read 4.5e-5
        with pytest.raises(ValueError, match=name):
            score_s(num_inliers, num_consistent, 10.0)

    def test_numpy_integer_counts_accepted(self):
        assert score_s(np.int64(20), np.int64(10), 10.0) == 0.5 * math.exp(-1.0)
        assert score_s(np.int64(0), np.int64(0), 10.0) == 0.0

    @pytest.mark.parametrize("num_inliers, num_consistent, beta", [
        (10, 5, math.nan), (10, 5, -1e6), (10, 10, 1.0), (10, 5, math.inf), (10, 5, 4.999)])
    def test_beta_below_consistent_or_not_finite_rejected(self, num_inliers, num_consistent,
                                                          beta):
        # unchecked, score_s(10, 5, nan) read nan, (10, 5, -1e6) raised
        # OverflowError and (10, 10, 1.0) read 0.905 > 1/e
        with pytest.raises(ValueError, match="beta"):
            score_s(num_inliers, num_consistent, beta)

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

    @pytest.mark.parametrize("h, w, match", [
        (-1, 5, ">= 1, got -1x5"), (5, 0, ">= 1, got 5x0"), (2.5, 2, "height must be an integer"),
        (True, 5, "height must be an integer"), (5, "5", "width must be an integer")])
    def test_working_size_not_integer_rejected(self, h, w, match):
        # unchecked, (-1, 5) read -5.0, (2.5, 2) 5.0 and (True, 5) 5.0
        with pytest.raises(ValueError, match=match):
            verify.beta_for_working_size(h, w)

    def test_numpy_working_size_accepted(self):
        assert verify.beta_for_working_size(np.int64(240), np.int32(240)) == 57600.0

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

    @pytest.mark.parametrize("s_l, s, g, name", [
        (math.nan, 0.1, 0.5, "s_l"), (1.0, 0.1, math.nan, "g"), (math.inf, 0.1, 0.5, "s_l"),
        (10.0, 0.1, -1.0, "g"), (-math.inf, 0.1, 0.5, "s_l"), (1.0, math.nan, 0.5, "s"),
        (1.0, -0.1, 0.5, "s"), (1.0, 0.1, math.inf, "g"), (True, 0.1, 0.5, "s_l"),
        (1.0, "0.1", 0.5, "s")])
    def test_nan_or_misranking_inputs_rejected(self, s_l, s, g, name):
        # unchecked, (nan, 0.1, 0.5) read (nan, False), (1.0, 0.1, nan)
        # (nan, True), (inf, 0.1, 0.5) inf and (10.0, 0.1, -1.0) 0.0; a nan
        # S_F ranks first or last under the (-S_F, G) sort by input order
        with pytest.raises(ValueError, match=f"^{name} must be"):
            score_s_f(s_l, s, g)

    def test_negative_s_l_and_numpy_reals_accepted(self):
        # S_L is a cosine sum and may be negative; S = 0 with it still ranks last
        assert score_s_f(-2.0, 0.0, 0.0) == (float("-inf"), False)
        v, flag = score_s_f(np.float64(5000.0), np.float32(0.25), np.float64(1.2))
        assert v == pytest.approx(math.log10(1250.0) * 10 ** (-1.2), rel=1e-7) and not flag


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
                (v,) = bilinear_sample_grid(fa.values, [cx], [cy])
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

    # block boundaries: B is the block size in pixels at 50 channels
    CHANNELS = 50
    B = core.BLOCK_BYTES // (8 * CHANNELS)

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
        sampled = verify.bilinear_sample_grid(fa, flat[:, 0], flat[:, 1])
        assert not sampled[5].any() and not sampled[2 * self.B + 3].any()
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


def shifted_map(seed, dx, dy, size=240):
    """A size^2 map shifted by (dx, dy) with seeded 0.3 px noise, valid
    where it lands in bounds."""
    rng = np.random.default_rng(seed)
    gx, gy = np.meshgrid(np.arange(float(size)), np.arange(float(size)))
    coords = np.stack([gx + dx, gy + dy], axis=2) + rng.normal(scale=0.3, size=(size, size, 2))
    return CorrespondenceMap.from_coords(coords, (size, size))


class TestSamplerMemory:
    """Peak memory of the map samplers on seeded 240^2 maps.  The samplers
    work plane by plane; the (H, W, 3) coordinate-and-validity stacks they
    used to interpolate peaked at 19.9 MiB (resample_map) and 10.2 MiB
    (cyclic_mask) on such maps."""

    @staticmethod
    def peak(fn, *args):
        tracemalloc.start()
        try:
            out = fn(*args)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_resample_map_to_480(self):
        cmap = shifted_map(61, 3.0, -4.0)
        assert cmap.valid.mean() > 0.9
        out, peak = self.peak(core.resample_map, cmap, 480, 480)
        assert out.valid.mean() > 0.9
        # 7.9 MiB measured (numpy 2.4.6): two 480^2 coordinate planes, the
        # map they are stacked into and its own copy
        assert peak < 12 * 2 ** 20

    def test_cyclic_mask(self):
        fwd, bwd = shifted_map(62, 3.0, -4.0), shifted_map(63, -3.0, 4.0)
        mask, peak = self.peak(cyclic_mask, fwd, bwd)
        assert mask.count() > 0.9 * 240 * 240
        # 4.9 MiB measured (numpy 2.4.6)
        assert peak < 8 * 2 ** 20


def unchunked_s_l(hyper_a, hyper_b, o_ab, mask):
    """score_s_l gathering every masked pixel at once."""
    sel = mask.bits & o_ab.valid
    if not sel.any():
        return 0.0
    ys, xs = np.nonzero(sel)
    coords = o_ab.coords[ys, xs]
    sampled = verify.bilinear_sample_grid(hyper_a.values, coords[:, 0], coords[:, 1])
    norms = np.linalg.norm(sampled, axis=1)
    good = norms > 1e-12
    target = hyper_b.values[ys[good], xs[good]].astype(np.float64)
    dots = np.einsum("nc,nc->n", sampled[good] / norms[good, None], target)
    return float(dots.sum())


def bruteforce_s_l(hyper_a, hyper_b, o_ab, mask):
    """S_L with one pixel at a time, skipping out-of-bounds and zero samples."""
    total = 0.0
    h, w = hyper_a.values.shape[:2]
    for y, x in zip(*np.nonzero(mask.bits & o_ab.valid)):
        cx, cy = o_ab.coords[y, x]
        v = verify.bilinear_sample_grid(hyper_a.values, [cx], [cy])
        n = np.linalg.norm(v[0])
        if 0 <= cx <= w - 1 and 0 <= cy <= h - 1 and n > 1e-12:
            total += float(np.dot(v[0] / n, hyper_b.values[y, x].astype(np.float64)))
    return total


class TestCyclicMask:
    def test_identity_maps_all_set(self):
        ident = identity_map(32, 32)
        assert cyclic_mask(ident, ident).count() == 32 * 32

    def test_opposite_shifts_interior_set(self):
        h = w = 32
        t = 5.0
        gx, gy = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
        fwd = CorrespondenceMap.from_coords(
            np.stack([gx + t, gy], axis=2), (h, w))
        bwd = CorrespondenceMap.from_coords(
            np.stack([gx - t, gy], axis=2), (h, w))
        m = cyclic_mask(fwd, bwd)
        assert m.bits[:, : w - 5].all()
        assert not m.bits[:, w - 5 :].any()  # forward shift leaves the frame

    def test_random_backward_map_chance_level(self):
        h = w = 64
        eps = verify.CYCLIC_EPSILON
        rng = np.random.default_rng(10)
        ident = identity_map(h, w)
        coords = np.stack(
            [rng.uniform(0, w - 1, (h, w)), rng.uniform(0, h - 1, (h, w))], axis=2)
        rand_bwd = CorrespondenceMap.from_coords(coords, (h, w))
        frac = cyclic_mask(ident, rand_bwd).count() / (h * w)
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
        got = sample_map(m, xs, ys)
        want = sample_map(ref, xs, ys)
        ok = np.isfinite(got).all(axis=-1)
        assert np.array_equal(got, want, equal_nan=True) and not ok.all()
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
        model, inliers = ransac_homography(ident, RansacConfig(seed=1))
        assert model is not None
        assert np.abs(model - np.eye(3)).max() < 1e-6
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
        got = project(model, corners)
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
        assert a_model.tobytes() == b_model.tobytes()

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
            idx, counts = _best(models, pts, coords, 3.0, len(models))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert np.array_equal(idx, np.arange(len(models)))
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

    @staticmethod
    def record_calls(monkeypatch):
        """(quads drawn through Lcg64.sample_distinct, the ranking calls),
        both in call order: ("best", models, points, keep) for each _best
        call."""
        drawn, calls = [], []
        real_draw, real_best = Lcg64.sample_distinct, verify._best

        def recorded(self, n, k):
            drawn.append(real_draw(self, n, k))
            return drawn[-1]

        def best(models, src, dst, threshold, keep):
            calls.append(("best", len(models), len(src), keep))
            return real_best(models, src, dst, threshold, keep)

        monkeypatch.setattr(Lcg64, "sample_distinct", recorded)
        monkeypatch.setattr(verify, "_best", best)
        return drawn, calls

    @staticmethod
    def exhaustive_best(fwd, cfg):
        """The subgrid, the ITERATIONS quads drawn from cfg's stream, their
        hypotheses' counts on the subgrid and the earliest best hypothesis."""
        pts, coords = _map_correspondences(fwd, verify.SAMPLE_STRIDE)
        rng = Lcg64(cfg.seed)
        quads = np.array([rng.sample_distinct(len(pts), 4) for _ in range(verify.ITERATIONS)])
        models = _batch_dlt(pts[quads], coords[quads])
        counts = mask_counts(models, pts, coords, cfg.inlier_threshold)
        return pts, coords, quads, counts, models[int(np.argmax(counts))]

    @staticmethod
    def full_grid_inliers(fwd, model, t):
        """model's symmetric-transfer inliers over every valid pixel of fwd."""
        grid_pts, grid_coords = _map_correspondences(fwd, 1)
        bits = np.zeros(fwd.valid.shape, dtype=bool)
        bits[fwd.valid] = verify._inlier_mask(model, grid_pts, grid_coords, t)
        return bits

    @pytest.mark.parametrize("seed", [71, 72, 73])
    def test_small_subgrid_equals_exhaustive_scoring(self, monkeypatch, seed):
        # a subgrid of at most PRESCREEN_TARGET pixels is its own probe, so
        # the prescreen keeps the earliest best count of every drawn
        # hypothesis on the subgrid, and the refit and its mask follow.  No
        # first-round hypothesis explains the whole noisy subgrid, so the
        # second batch draws the rest of the same stream
        monkeypatch.setattr(verify, "ITERATIONS", 300)
        fwd, _ = noisy_pair("tps", seed, 0.4, size=64)
        cfg = RansacConfig(seed=seed)
        t = cfg.inlier_threshold
        pts, coords, quads, counts, best = self.exhaustive_best(fwd, cfg)
        n = len(pts)
        assert n <= 32 * 32 <= verify.PRESCREEN_TARGET
        first = verify.FIRST_ROUND
        assert max(counts[:first]) < n
        inl = verify._inlier_mask(best, pts, coords, t)
        want = fit_homography_dlt(pts[inl], coords[inl])

        drawn, calls = self.record_calls(monkeypatch)
        model, inliers = ransac_homography(fwd, cfg)
        assert model.tobytes() == want.tobytes()
        assert np.array_equal(inliers.bits, self.full_grid_inliers(fwd, want, t))
        assert np.array_equal(np.array(drawn), quads)
        # the w = 1 stop keeps the first round's best, the prescreen of all
        # drawn hypotheses PRESCREEN_KEEP, and the subgrid pick 1
        assert calls == [("best", first, n, 1),
                         ("best", verify.ITERATIONS, n, verify.PRESCREEN_KEEP),
                         ("best", verify.PRESCREEN_KEEP, n, 1)]

    def test_degenerate_refit_keeps_best_hypothesis(self, monkeypatch):
        # when the refit on the best hypothesis's inliers is degenerate, the
        # model is that hypothesis, bit for bit, and the mask its inliers
        # over the full grid; the subgrid is its own probe, as above
        monkeypatch.setattr(verify, "ITERATIONS", 300)
        fwd, _ = noisy_pair("tps", 71, 0.4, size=64)
        cfg = RansacConfig(seed=71)
        best = self.exhaustive_best(fwd, cfg)[-1]
        want_bits = self.full_grid_inliers(fwd, best, cfg.inlier_threshold)
        # the refit's mask differs, so the mask shows which model it holds
        assert not np.array_equal(ransac_homography(fwd, cfg)[1].bits, want_bits)

        def degenerate(src, dst):
            raise DegenerateModelError("degenerate point configuration")

        monkeypatch.setattr(verify, "fit_homography_dlt", degenerate)
        model, inliers = ransac_homography(fwd, cfg)
        assert model.shape == (3, 3) and model.dtype == np.float64
        assert model.tobytes() == best.tobytes()
        assert not model.flags.writeable
        assert np.array_equal(inliers.bits, want_bits)

    def test_every_subgrid_prescreened(self, monkeypatch):
        # 2500 subgrid pixels: the probe takes every second one, then the
        # PRESCREEN_KEEP best (here all) are counted on the whole subgrid
        drawn, calls = self.record_calls(monkeypatch)
        model, inliers = ransac_homography(identity_map(100, 100), RansacConfig(seed=1))
        assert model is not None and inliers.count() == 100 * 100
        # the map is exact: a first-round hypothesis explains every probe
        # pixel, so the draws stop at FIRST_ROUND, and no prescreen runs
        assert len(drawn) == verify.FIRST_ROUND == 16
        assert calls == [("best", 16, 1250, 1), ("best", 16, 2500, 1)]

    # low-w TPS maps whose subgrid exceeds PRESCREEN_TARGET, as (size, seed,
    # jitter in pixels, share of the map under an outlier patch)
    LOW_W_MAPS = [(96, 1, 0.7, 0.1), (96, 2, 1.5, 0.2), (96, 3, 2.5, 0.3),
                  (128, 1, 1.5, 0.3), (128, 2, 2.5, 0.1), (128, 3, 0.7, 0.2),
                  (96, 1, 2.5, 0.2), (128, 2, 0.7, 0.3), (128, 3, 1.5, 0.1)]

    @staticmethod
    def exhaustive_ransac(fwd, cfg):
        """ransac_homography's model and mask when every hypothesis is
        counted in both directions, one _inlier_mask each: all ITERATIONS
        on the probe pixels, the PRESCREEN_KEEP best on the subgrid, then
        the refit on the best one's inliers."""
        pts, coords = _map_correspondences(fwd, verify.SAMPLE_STRIDE)
        assert len(pts) > verify.PRESCREEN_TARGET
        t = cfg.inlier_threshold
        step = int(np.ceil(len(pts) / verify.PRESCREEN_TARGET))
        probe_pts, probe_coords = pts[::step], coords[::step]
        rng = Lcg64(cfg.seed)
        quads = np.array([rng.sample_distinct(len(pts), 4) for _ in range(verify.ITERATIONS)])
        models = _batch_dlt(pts[quads], coords[quads])
        probe_counts = mask_counts(models, probe_pts, probe_coords, t)
        # no first-round hypothesis reaches w = 1, so the probe path runs
        assert probe_counts[:verify.FIRST_ROUND].max() < len(probe_pts)
        kept = models[np.sort(np.argsort(-probe_counts, kind="stable")[:verify.PRESCREEN_KEEP])]
        counts = mask_counts(kept, pts, coords, t)
        assert counts.max() >= cfg.min_inliers
        best = kept[int(np.argmax(counts))]
        inl = verify._inlier_mask(best, pts, coords, t)
        model = fit_homography_dlt(pts[inl], coords[inl])
        return model, TestRansac.full_grid_inliers(fwd, model, t)

    @pytest.mark.parametrize("size, seed, jitter, share", LOW_W_MAPS)
    def test_probe_path_equals_exhaustive_scoring(self, size, seed, jitter, share):
        # bound-then-verify ranking keeps the hypotheses, the refit and the
        # mask of counting every hypothesis both ways, bit for bit
        fwd = low_w_map(size, seed, jitter, share)
        cfg = RansacConfig(seed=seed)
        want_model, want_bits = self.exhaustive_ransac(fwd, cfg)
        model, inliers = ransac_homography(fwd, cfg)
        assert model.tobytes() == want_model.tobytes()
        assert np.array_equal(inliers.bits, want_bits)

    @pytest.mark.parametrize("size, seed, jitter, share", LOW_W_MAPS[:3])
    def test_bound_skips_most_backward_tests(self, monkeypatch, size, seed, jitter, share):
        # hypotheses x pixels over every _inliers call of one RANSAC call,
        # against the same call with _best replaced by exhaustive_best,
        # which counts every hypothesis both ways: the ratio measured
        # 0.643-0.652 on these maps; exhaustive scoring would read 1
        fwd = low_w_map(size, seed, jitter, share)
        cfg = RansacConfig(seed=seed)
        tested = []
        real = verify._inliers

        def counted(H, pts_h, *rest):
            tested.append(len(H) * pts_h.shape[1])
            return real(H, pts_h, *rest)

        monkeypatch.setattr(verify, "_inliers", counted)
        model, _ = ransac_homography(fwd, cfg)
        bounded = sum(tested)
        tested.clear()
        monkeypatch.setattr(verify, "_best", exhaustive_best)
        want, _ = ransac_homography(fwd, cfg)
        assert model.tobytes() == want.tobytes()
        assert bounded <= 0.7 * sum(tested)

    def test_memory_bounded_at_budget(self, monkeypatch):
        # a map without inliers draws the whole budget, and RANSAC holds all
        # ITERATIONS hypotheses at once.  The peak measured 2.50 MiB (numpy
        # 2.4, 2.41 without the recorded draws); the bound leaves room for
        # numpy versions whose SVD and DLT temporaries differ
        valid = np.zeros((128, 128), dtype=bool)
        valid[10] = True
        cmap = CorrespondenceMap(identity_map(128, 128).coords, valid)
        drawn, _ = self.record_calls(monkeypatch)
        tracemalloc.start()
        try:
            model, _ = ransac_homography(cmap, RansacConfig(min_inliers=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(drawn) == verify.ITERATIONS == 1000
        assert model is None
        assert peak < 8 * 2 ** 20

    @pytest.mark.parametrize("min_inliers", [0, 1, 2, 3])
    def test_below_four_inliers_no_model(self, monkeypatch, min_inliers):
        monkeypatch.setattr(verify, "ITERATIONS", 50)
        cfg = RansacConfig(min_inliers=min_inliers)
        drawn, _ = self.record_calls(monkeypatch)
        model, inliers = ransac_homography(self.one_row_map(), cfg)
        # every hypothesis counts 0, so w < 1 and the draws use the budget
        assert len(drawn) == 50
        assert model is None
        assert inliers.bits.shape == (40, 40) and not inliers.bits.any()

    def test_below_four_inliers_pair_scores_zero(self, monkeypatch):
        monkeypatch.setattr(verify, "ITERATIONS", 50)
        cmap = self.one_row_map()
        entered = count_ransac(monkeypatch)
        s, r_ab, r_ba = score_pair_s(cmap, cmap, RansacConfig(min_inliers=0))
        # the 40 cyclically consistent pixels do not trigger the skip
        assert len(entered) == 2 and s == 0.0
        for r in (r_ab, r_ba):
            assert r.homography is None and r.num_inliers == r.num_consistent == 0


class TestRansacConfig:
    @pytest.mark.parametrize("field, value", [
        ("inlier_threshold", 0.0), ("inlier_threshold", math.nan),
        ("inlier_threshold", math.inf), ("min_inliers", -1),
        ("min_inliers", 2.5), ("min_inliers", False), ("seed", 1.5), ("seed", None),
        ("seed", np.float64(1.0)), ("inlier_threshold", True), ("inlier_threshold", "3"),
        ("inlier_threshold", None)])
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            RansacConfig(**{field: value})

    def test_accepts_numpy_integers(self):
        cfg = RansacConfig(min_inliers=np.int64(4), seed=np.int64(7))
        model, _ = ransac_homography(identity_map(40, 40), cfg)
        assert model is not None
        assert cfg == RansacConfig(min_inliers=4, seed=7)

    @pytest.mark.parametrize("threshold", [3, np.float32(3.0), Fraction(3)])
    def test_accepts_real_thresholds(self, threshold):
        cfg = RansacConfig(inlier_threshold=threshold)
        model, inliers = ransac_homography(identity_map(40, 40), cfg)
        assert model is not None and inliers.count() == 40 * 40

    def test_accepts_smallest_values(self):
        cfg = RansacConfig(min_inliers=0)
        model, inliers = ransac_homography(identity_map(40, 40), cfg)
        assert model is not None and inliers.count() == 40 * 40


def mask_counts(models, src, dst, t):
    """(K,) counts of each model's _inlier_mask: every pair tested both
    ways, one model at a time."""
    return np.array([np.count_nonzero(verify._inlier_mask(m, src, dst, t)) for m in models])


def ranked(counts, keep):
    """Indices, ascending, of the keep best counts by (count descending,
    index ascending), ranked by sorted() rather than by numpy."""
    return np.array(sorted(sorted(range(len(counts)), key=lambda i: (-counts[i], i))[:keep]),
                    dtype=np.int64)


def exhaustive_best(models, src, dst, t, keep):
    """verify._best with every model counted both ways, by mask_counts."""
    counts = mask_counts(models, src, dst, t)
    top = ranked(counts, keep)
    return top, counts[top]


def reference_counts(models, src, dst, t):
    """Row-wise inlier counts by the hypot reference; rows that are not a
    valid homography (non-finite, or |det| <= 1e-12) count nothing."""
    counts = []
    for m in models:
        if not np.isfinite(m).all() or abs(np.linalg.det(m)) <= 1e-12:
            counts.append(0)
        else:
            counts.append(int((symmetric_transfer_error(m, src, dst) <= t).sum()))
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

        step = core.BLOCK_BYTES // (8 * len(src))
        k = 2 * step + 7
        assert k % step
        quads = rng.integers(0, 500, (k - 5, 4))
        quads[:3] = quads[:3, :1]           # repeated points: nan rows
        models = _batch_dlt(src[quads], dst[quads])
        models = np.concatenate([models, [np.eye(3), horizon, np.full((3, 3), np.nan),
                                          np.diag([1.0, 1.0, 0.0]), truth]])
        assert np.isnan(models[:3]).all()
        idx, got = _best(models, src, dst, t, len(models))
        assert np.array_equal(idx, np.arange(len(models)))
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


def low_w_map(size, seed, jitter, share):
    """Forward ground-truth map of a seeded TPS warp at magnitude 0.6,
    jittered by jitter pixels and with a square patch of uniform outliers
    over share of the map: few hypotheses explain many pixels."""
    img = make_texture(size, size, seed)
    _, fwd, _ = apply_warp(img, random_warp("tps", 0.6, seed, (size, size)))
    rng = np.random.default_rng(seed)
    coords = fwd.coords + rng.normal(0, jitter, fwd.coords.shape)
    side = round(size * math.sqrt(share))
    y, x = rng.integers(0, size - side + 1, 2)
    coords[y:y + side, x:x + side] = rng.uniform(0, size - 1, (side, side, 2))
    return CorrespondenceMap(coords, fwd.valid)


class TestBestCounts:
    """_best gives the keep best models by (count descending, index
    ascending) and their counts by the hypot reference, however its windows
    split the models."""

    K = 120

    CASES = ["mixed", "all-zero", "bound-tie"]

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def model_set(case):
        """(models, src, dst, reference counts), K models: seeded hypotheses
        on a low-w map with nan, +inf and -inf rows and exact ties
        ("mixed"), translations that explain no pixel ("all-zero"), or such
        translations and two models whose counts tie, where the later one's
        forward count is larger ("bound-tie")."""
        k = TestBestCounts.K
        models = np.tile(np.eye(3), (k, 1, 1))
        models[:, 0, 2] = 1e3 + np.arange(k)
        if case == "bound-tie":
            # the identity (model 5) explains the first 10 pairs both ways;
            # a scaling by 1/2 (model 6) explains the next 10 both ways, and
            # the last 5 only forward: off by 2.5 forward and 5 backward
            rng = np.random.default_rng(5)
            pts = rng.uniform(20, 100, (25, 2))
            ang = rng.uniform(0, 2 * np.pi, 25)
            off = np.repeat([0.0, 1.0, 2.5], [10, 10, 5])[:, None]
            coords = 0.5 * pts + off * np.stack([np.cos(ang), np.sin(ang)], axis=1)
            coords[:10] = pts[:10]
            models[5], models[6] = np.eye(3), np.diag([0.5, 0.5, 1.0])
            return TestBestCounts.frozen(models, pts, coords)
        pts, coords = _map_correspondences(low_w_map(64, 4, 1.5, 0.2), 1)
        if case == "mixed":
            rng = Lcg64(9)
            quads = np.array([rng.sample_distinct(len(pts), 4) for _ in range(k)])
            models = _batch_dlt(pts[quads], coords[quads])
            counts = reference_counts(models, pts, coords, 3.0)
            best, mid = int(np.argmax(counts)), int(np.argsort(counts, kind="stable")[k // 2])
            free = [i for i in range(k) if i not in (best, mid)]
            # exact ties with the best and a median hypothesis, before and after
            models[[free[0], free[60], free[-1]]] = models[best]
            models[[free[1], free[-2]]] = models[mid]
            models[free[2]] = np.nan
            models[free[3], 0, 0] = np.inf
            models[free[4], 1, 2] = -np.inf
            models[free[5], 2, 1] = np.nan
        return TestBestCounts.frozen(models, pts, coords)

    @staticmethod
    def frozen(models, src, dst):
        """(models, src, dst, reference counts), read-only: model_set's
        cache hands the same arrays to every test."""
        arrays = models, src, dst, reference_counts(models, src, dst, 3.0)
        for a in arrays:
            a.flags.writeable = False
        return arrays

    def test_bound_tie_set(self):
        models, src, dst, want = self.model_set("bound-tie")
        assert want[5] == want[6] == 10 and np.count_nonzero(want) == 2
        fwd = [np.count_nonzero(np.hypot(*(project(m, src) - dst).T) <= 3.0) for m in models[5:7]]
        assert fwd == [10, 15]

    def check(self, case, keep):
        models, src, dst, want = self.model_set(case)
        idx, got = _best(models, src, dst, 3.0, keep)
        assert np.array_equal(idx, ranked(want, keep))
        assert np.array_equal(got, want[idx])

    @pytest.mark.parametrize("keep", [1, 2, 48, K, K + 5])
    @pytest.mark.parametrize("case", CASES)
    def test_exact_where_it_can_rank(self, case, keep):
        self.check(case, keep)

    @pytest.mark.parametrize("window", [1, 2, 7])
    @pytest.mark.parametrize("keep", [1, 2, 48, K, K + 5])
    @pytest.mark.parametrize("case", CASES)
    def test_exact_across_windows(self, monkeypatch, case, keep, window):
        # windows of 1, 2 and 7 models split the exact ties, so the stop
        # meets a bound equal to the keep-th best count at a later index
        # ("mixed": stop) and at an earlier one ("bound-tie", window 1:
        # model 6 is verified first, and model 5 still takes the lead)
        monkeypatch.setattr(verify, "BLOCK_BYTES", 8 * len(self.model_set(case)[1]) * window)
        self.check(case, keep)


class TestScoreInvariants:
    @settings(max_examples=8, deadline=None)
    @given(st.sampled_from(["affine", "tps"]), st.integers(0, 2 ** 16),
           st.floats(0.1, 0.6), st.integers(0, 2 ** 16))
    def test_pair_score_invariants(self, kind, seed, magnitude, ransac_seed):
        fwd, bwd = noisy_pair(kind, seed, magnitude)
        cfg = RansacConfig(seed=ransac_seed)
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
                assert a.homography.tobytes() == r.homography.tobytes()


class TestVerificationResult:
    def test_masks_on_different_grids_rejected(self):
        # the C-subset-of-I check broadcasts a (1, 5) mask against (4, 5)
        with pytest.raises(ValueError, match="one grid"):
            VerificationResult(None, Mask(np.ones((4, 5), bool)), Mask(np.zeros((1, 5), bool)))

    def test_consistent_outside_inliers_rejected(self):
        bits = np.zeros((4, 5), bool)
        bits[2, 3] = True
        with pytest.raises(ValueError, match="subset"):
            VerificationResult(None, Mask(np.zeros((4, 5), bool)), Mask(bits))


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

    def test_score_pair_beta_from_each_maps_grid(self):
        # exact 2x scaling: o_ab on a 60x80 grid into a 30x40 frame, o_ba back
        def scaled(h, w, sh, sw):
            ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
            coords = np.dstack([core.half_pixel(xs, w, sw), core.half_pixel(ys, h, sh)])
            return CorrespondenceMap.from_coords(coords, (sh, sw))

        o_ab, o_ba = scaled(60, 80, 30, 40), scaled(30, 40, 60, 80)
        cfg = RansacConfig(seed=3)
        s, r_ab, r_ba = score_pair_s(o_ab, o_ba, cfg)
        s_ab = score_s(r_ab.num_inliers, r_ab.num_consistent, 60 * 80)
        s_ba = score_s(r_ba.num_inliers, r_ba.num_consistent, 30 * 40)
        assert s_ab > 0.0 and s_ba > 0.0 and s == max(s_ab, s_ba)
        # the betas swapped would reject o_ab's |C|, above 30 * 40, and give
        # o_ba another S: the rule is observable here
        with pytest.raises(ValueError, match="beta"):
            score_s(r_ab.num_inliers, r_ab.num_consistent, 30 * 40)
        assert s_ba != score_s(r_ba.num_inliers, r_ba.num_consistent, 60 * 80)
        assert score_pair_s(o_ba, o_ab, cfg)[0] == s

    def test_symmetric_transfer_error_identity(self):
        src = np.array([[1.0, 2], [30, 40]])
        err = symmetric_transfer_error(np.eye(3), src, src + [3.0, 4.0])
        assert np.allclose(err, 5.0)


def pair_digest(s, r_ab, r_ba):
    """sha256 over S and both directions' models, inlier and consistent masks."""
    h = hashlib.sha256(np.float64(s).tobytes())
    for r in (r_ab, r_ba):
        h.update(r.homography.tobytes() if r.homography is not None else b"none")
        h.update(np.packbits(r.inlier_mask.bits).tobytes())
        h.update(np.packbits(r.consistent_mask.bits).tobytes())
    return h.hexdigest()


# pair digests of score_pair_s at TestSplitKernels.CFG and a budget of 300
# draws, taken before any kernel was split and kept since; 128^2 maps take
# the prescreen path
PINNED_PAIRS = [
    ("affine", 61, "85fc3a452a6189250b7415ad7bb1928a6c42985f9f5c899d78658de7e80da8a3"),
    ("tps", 62, "f0e9b7e45dbb98cdc23ad82354251ba64b8eb92c18785293b2207e9e732422ae"),
]


class TestSplitKernels:
    """verify runs on the calling thread, and its batched kernels give the
    results of per-item oracles, bit for bit."""

    CFG = RansacConfig(seed=5)

    @pytest.fixture(autouse=True)
    def budget(self, monkeypatch):
        """PINNED_PAIRS were taken at a budget of 300 draws."""
        monkeypatch.setattr(verify, "ITERATIONS", 300)

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
        want = mask_counts(models, pts, coords, 3.0)
        idx, got = _best(models, pts, coords, 3.0, k)
        assert idx.tolist() == list(range(k)) and got.tolist() == want.tolist()

    @pytest.mark.parametrize("h", [1, 2, 7, 48])
    def test_cyclic_matches_oracle(self, h):
        fwd, bwd = noisy_pair("tps", 67, 0.4, size=48)
        fwd = CorrespondenceMap(fwd.coords[:h], fwd.valid[:h])
        back = sample_map(bwd, fwd.coords[..., 0], fwd.coords[..., 1])
        ok = np.isfinite(back).all(axis=-1)
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
        monkeypatch.setattr(verify, "ITERATIONS", 300)
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
