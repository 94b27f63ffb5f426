"""Synthetic warps, ground-truth maps and benchmark generation."""

import hashlib
import json

import numpy as np
import pytest

from corrverify import synth
from corrverify.core import Image
from corrverify.synth import (
    JITTER_BRIGHTNESS,
    JITTER_SIGMA,
    BenchmarkManifest,
    WarpGenerationError,
    WarpSpec,
    apply_warp,
    gen_benchmark,
    inverse_warp_points,
    invertibility_probe,
    make_texture,
    photometric_jitter,
    random_warp,
    warp_jacobian,
    warp_points,
)
from corrverify.verify import DegenerateModelError, cyclic_mask

from helpers import identity_map


def grid_points(h, w, step=7):
    gx, gy = np.meshgrid(np.arange(0, w, step, dtype=float),
                         np.arange(0, h, step, dtype=float))
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


class TestRandomWarp:
    @pytest.mark.parametrize("kind", ["affine", "homography", "tps"])
    def test_magnitude_zero_is_identity(self, kind):
        spec = random_warp(kind, 0.0, seed=5)
        pts = grid_points(240, 240)
        assert np.abs(warp_points(spec, pts) - pts).max() < 1e-8

    @pytest.mark.parametrize("kind", ["affine", "homography", "tps"])
    def test_fixed_seed_reproducible(self, kind):
        a = random_warp(kind, 0.6, seed=42)
        b = random_warp(kind, 0.6, seed=42)
        assert a.to_dict() == b.to_dict()

    def test_homography_acceptance_at_half_magnitude(self):
        # measured acceptance: every returned warp passes the probe
        for seed in range(1000):
            spec = random_warp("homography", 0.5, seed=seed)
            assert invertibility_probe(spec)

    def test_degenerate_corner_draw_is_retried(self, monkeypatch):
        frame = (240, 240)
        want = synth._sample_spec("homography", 0.5, 7, 1, frame)
        real = synth.fit_homography_dlt
        fits = []

        def fit(src, dst):
            fits.append(src)
            if len(fits) == 1:
                raise DegenerateModelError("corners do not determine a homography")
            return real(src, dst)

        monkeypatch.setattr(synth, "fit_homography_dlt", fit)
        got = random_warp("homography", 0.5, seed=7, frame_hw=frame)
        assert len(fits) == 2
        assert got.to_dict() == want.to_dict()
        # attempt 0 on its own: the singular stand-in fails the probe
        fits.clear()
        degenerate = synth._sample_spec("homography", 0.5, 7, 0, frame)
        assert np.array_equal(degenerate.params["matrix"], np.diag([0.0, 0.0, 1.0]))
        assert not invertibility_probe(degenerate)

    def test_bad_magnitude_rejected(self):
        with pytest.raises(ValueError):
            random_warp("affine", 1.5, seed=0)
        with pytest.raises(ValueError):
            random_warp("ripple", 0.5, seed=0)

    def test_spec_round_trips_through_dict(self):
        spec = random_warp("tps", 0.4, seed=9)
        back = WarpSpec.from_dict(spec.to_dict())
        pts = grid_points(240, 240)
        assert np.array_equal(warp_points(spec, pts), warp_points(back, pts))


class TestWarpSpecMatrix:
    @pytest.mark.parametrize("seed", range(3))
    def test_affine_2x3_and_its_lift_agree(self, seed):
        m = np.asarray(random_warp("affine", 0.5, seed=seed).params["matrix"])[:2]
        short = WarpSpec("affine", {"matrix": m}, seed=0, magnitude=0.5)
        lifted = WarpSpec("affine", {"matrix": np.vstack([m, [0.0, 0.0, 1.0]])},
                          seed=0, magnitude=0.5)
        assert np.array_equal(short.params["matrix"], lifted.params["matrix"])
        pts = grid_points(240, 240, step=5) + 0.25
        assert np.array_equal(warp_points(short, pts), warp_points(lifted, pts))
        assert np.array_equal(warp_jacobian(short, pts), warp_jacobian(lifted, pts))
        for a, b in zip(inverse_warp_points(short, pts), inverse_warp_points(lifted, pts)):
            assert np.array_equal(a, b)
        img = make_texture(240, 240, seed=seed)
        out_short, out_lifted = apply_warp(img, short), apply_warp(img, lifted)
        assert np.array_equal(out_short[0].pixels, out_lifted[0].pixels)
        for a, b in zip(out_short[1:], out_lifted[1:]):
            assert np.array_equal(a.coords, b.coords) and np.array_equal(a.valid, b.valid)

    def test_caller_params_not_modified(self):
        params = {"matrix": np.eye(3)[:2]}
        WarpSpec("affine", params, seed=0, magnitude=0.0)
        assert params["matrix"].shape == (2, 3)

    @pytest.mark.parametrize("kind, shape", [("homography", (2, 3)), ("homography", (3, 4)),
                                             ("affine", (3, 4)), ("affine", (2, 2))])
    def test_wrong_matrix_shape_rejected(self, kind, shape):
        with pytest.raises(ValueError, match="matrix"):
            WarpSpec(kind, {"matrix": np.ones(shape)}, seed=0, magnitude=0.1)

    @pytest.mark.parametrize("kind, name, bad", [
        ("homography", "matrix", np.nan), ("homography", "matrix", np.inf),
        ("tps", "targets", np.nan), ("tps", "controls", -np.inf)])
    def test_non_finite_params_rejected(self, kind, name, bad):
        spec = random_warp(kind, 0.4, seed=7)
        params = {k: np.array(v) for k, v in spec.params.items()}
        params[name][1, 0] = bad
        with pytest.raises(ValueError, match=name):
            WarpSpec(kind, params, seed=7, magnitude=0.4)
        # a manifest read back from JSON carries NaN and Infinity
        d = json.loads(json.dumps({**spec.to_dict(), "params": {
            k: v.tolist() for k, v in params.items()}}))
        with pytest.raises(ValueError, match=name):
            WarpSpec.from_dict(d)

    @pytest.mark.parametrize("kind", ["affine", "homography"])
    def test_dict_round_trip_keeps_3x3(self, kind):
        spec = random_warp(kind, 0.4, seed=7)
        d = spec.to_dict()
        assert np.asarray(d["params"]["matrix"]).shape == (3, 3)
        back = WarpSpec.from_dict(d)
        assert np.array_equal(back.params["matrix"], spec.params["matrix"])


class TestWarpSpecEquality:
    def test_same_draw_equal_and_hash_equal(self):
        a, b = random_warp("affine", 0.3, 1), random_warp("affine", 0.3, 1)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_one_matrix_entry_differs(self):
        a = random_warp("affine", 0.3, 1)
        m = a.params["matrix"].copy()
        m[0, 2] += 1e-9
        b = WarpSpec(a.kind, {"matrix": m}, seed=a.seed, magnitude=a.magnitude)
        assert a != b and not a == b

    def test_only_seed_differs(self):
        a = random_warp("affine", 0.3, 1)
        b = WarpSpec(a.kind, {"matrix": a.params["matrix"].copy()}, seed=a.seed + 1,
                     magnitude=a.magnitude)
        assert a != b

    def test_affine_2x3_equals_its_lift(self):
        m = random_warp("affine", 0.3, 1).params["matrix"]
        short = WarpSpec("affine", {"matrix": m[:2]}, seed=3, magnitude=0.3)
        lifted = WarpSpec("affine", {"matrix": m}, seed=3, magnitude=0.3)
        assert short == lifted and hash(short) == hash(lifted)

    def test_tps_and_other_types(self):
        a, b = random_warp("tps", 0.4, 9), random_warp("tps", 0.4, 9)
        assert a == b and hash(a) == hash(b)
        assert a != random_warp("tps", 0.4, 10)
        assert a != a.to_dict() and a != 1


class TestWarpJacobian:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", ["tps", "homography"])
    def test_matches_central_differences(self, kind, seed):
        spec = random_warp(kind, 0.5, seed=seed)
        pts = grid_points(240, 240, step=13)
        if kind == "tps":
            # at a control point the kernel's derivative is its r -> 0 limit
            pts = np.vstack([pts, spec.params["controls"]])
        eps = 1e-4
        numeric = np.stack([(warp_points(spec, pts + d) - warp_points(spec, pts - d)) / (2 * eps)
                            for d in np.eye(2) * eps], axis=2)
        assert np.abs(warp_jacobian(spec, pts) - numeric).max() < 1e-7

    @pytest.mark.parametrize("seed", range(3))
    def test_tps_maps_controls_to_targets(self, seed):
        spec = random_warp("tps", 0.5, seed=seed)
        got = warp_points(spec, spec.params["controls"])
        assert np.abs(got - spec.params["targets"]).max() < 1e-9


class TestApplyWarp:
    def test_identity_spec_preserves_image_and_maps(self):
        img = make_texture(240, 240, seed=1)
        spec = random_warp("affine", 0.0, seed=0)
        warped, gt_fwd, gt_bwd = apply_warp(img, spec)
        assert np.abs(warped.pixels - img.pixels).max() < 1e-9
        ident = identity_map(240, 240)
        assert gt_fwd.valid.all() and gt_bwd.valid.all()
        assert np.abs(gt_fwd.coords - ident.coords).max() < 1e-8
        assert np.abs(gt_bwd.coords - ident.coords).max() < 1e-8

    def test_pure_translation_constant_offset(self):
        img = make_texture(240, 240, seed=2)
        m = np.array([[1.0, 0.0, 12.0], [0.0, 1.0, -7.0]])
        spec = WarpSpec("affine", {"matrix": m}, seed=0, magnitude=0.1)
        warped, gt_fwd, gt_bwd = apply_warp(img, spec)
        ident = identity_map(240, 240).coords
        off_fwd = gt_fwd.coords[gt_fwd.valid] - ident[gt_fwd.valid]
        assert np.allclose(off_fwd, [-12.0, 7.0], atol=1e-9)
        off_bwd = gt_bwd.coords[gt_bwd.valid] - ident[gt_bwd.valid]
        assert np.allclose(off_bwd, [12.0, -7.0], atol=1e-9)
        # content actually moved: pixel (y, x) of warped = source (x-12, y+7)
        assert warped.pixels[100, 100] == pytest.approx(img.pixels[107, 88], abs=1e-9)

    def test_homography_gt_matches_projective_oracle(self):
        img = make_texture(240, 240, seed=3)
        spec = random_warp("homography", 0.4, seed=11)
        _, gt_fwd, gt_bwd = apply_warp(img, spec)
        hmat = np.asarray(spec.params["matrix"])
        hinv = np.linalg.inv(hmat)
        for y in range(0, 240, 31):
            for x in range(0, 240, 29):
                p = hinv @ np.array([x, y, 1.0])
                p = p[:2] / p[2]
                inside = (0 <= p[0] <= 239) and (0 <= p[1] <= 239)
                assert gt_fwd.valid[y, x] == inside
                if inside:
                    assert np.allclose(gt_fwd.coords[y, x], p, atol=1e-6)
                q = hmat @ np.array([x, y, 1.0])
                q = q[:2] / q[2]
                if gt_bwd.valid[y, x]:
                    assert np.allclose(gt_bwd.coords[y, x], q, atol=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_affine_gt_matches_closed_form_oracle(self, seed):
        # the affine warp runs as a homography with last row [0, 0, 1]; the
        # closed forms x -> A x + t and x -> A^-1 (x - t) are the oracle
        spec = random_warp("affine", 0.4, seed=seed)
        m = np.asarray(spec.params["matrix"])
        assert m[2].tolist() == [0.0, 0.0, 1.0]
        a, t = m[:2, :2], m[:2, 2]
        pts = grid_points(240, 240, step=1)
        assert np.allclose(warp_points(spec, pts), pts @ a.T + t, rtol=0, atol=1e-9)
        back, ok = inverse_warp_points(spec, pts)
        assert ok.all()
        expect_back = (pts - t) @ np.linalg.inv(a).T
        assert np.allclose(back, expect_back, rtol=0, atol=1e-9)
        assert np.array_equal(warp_jacobian(spec, pts), np.broadcast_to(a, (len(pts), 2, 2)))

        _, gt_fwd, gt_bwd = apply_warp(make_texture(240, 240, seed=seed), spec)
        inside = ((expect_back >= 0) & (expect_back <= 239)).all(axis=1).reshape(240, 240)
        assert np.array_equal(gt_fwd.valid, inside)
        assert np.allclose(gt_fwd.coords[inside], expect_back.reshape(240, 240, 2)[inside],
                           rtol=0, atol=1e-9)
        fwd = (pts @ a.T + t).reshape(240, 240, 2)
        assert np.array_equal(gt_bwd.valid, ((fwd >= 0) & (fwd <= 239)).all(axis=2))
        assert np.allclose(gt_bwd.coords[gt_bwd.valid], fwd[gt_bwd.valid], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("seed, digest", [
        (3, "818131cf4374908c01dd48b82df3c771eca0f1028c2fbd9091df2455b8549522"),
        (4, "543022d10955e5bfe76291e6deb0dfe4c21a0fea3b616e6c5602461c7dc09841"),
    ])
    def test_tps_outputs_pinned(self, seed, digest):
        spec = random_warp("tps", 0.5, seed=seed)
        warped, gt_fwd, gt_bwd = apply_warp(make_texture(240, 240, seed=seed), spec)
        h = hashlib.sha256()
        for a in (warped.pixels, gt_fwd.coords, gt_fwd.valid, gt_bwd.coords, gt_bwd.valid):
            h.update(a.tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("kind", ["affine", "homography", "tps"])
    def test_analytic_composition_near_identity(self, kind):
        spec = random_warp(kind, 0.5, seed=21)
        pts = grid_points(240, 240, step=11)
        fwd = warp_points(spec, pts)
        back, ok = inverse_warp_points(spec, fwd)
        assert ok.mean() > 0.99
        assert np.abs(back[ok] - pts[ok]).max() < 1e-4

    @pytest.mark.parametrize("kind", ["affine", "homography", "tps"])
    def test_gt_maps_cyclically_consistent(self, kind):
        from corrverify.core import sample_map

        img = make_texture(240, 240, seed=4)
        spec = random_warp(kind, 0.4, seed=31)
        _, gt_fwd, gt_bwd = apply_warp(img, spec)
        mask = cyclic_mask(gt_fwd, gt_bwd, epsilon=0.5)
        # mutually valid = composition evaluable through both maps
        _, back_ok = sample_map(gt_bwd, gt_fwd.coords[..., 0], gt_fwd.coords[..., 1])
        mutual = (gt_fwd.valid & back_ok).sum()
        assert mutual > 0
        assert mask.count() / mutual >= 0.99

    def test_frame_mismatch_rejected(self):
        img = make_texture(120, 120, seed=5)
        spec = random_warp("affine", 0.2, seed=0)
        with pytest.raises(ValueError):
            apply_warp(img, spec)


class TestTexture:
    def test_deterministic_and_in_range(self):
        a = make_texture(240, 240, seed=7)
        b = make_texture(240, 240, seed=7)
        assert np.array_equal(a.pixels, b.pixels)
        assert a.pixels.min() >= 0.0 and a.pixels.max() <= 1.0
        assert np.ptp(a.pixels) > 0.5  # well-spread intensities

    def test_different_seeds_differ(self):
        a = make_texture(64, 64, seed=1)
        b = make_texture(64, 64, seed=2)
        assert np.abs(a.pixels - b.pixels).max() > 0.1


class TestPhotometricJitter:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_brightness_shift_and_noise_level(self, seed):
        img = Image(np.full((64, 64), 0.5))
        a = photometric_jitter(img, seed).pixels
        assert np.array_equal(a, photometric_jitter(img, seed).pixels)
        # mid-gray cannot clip: one uniform shift plus per-pixel noise
        shift = a.mean() - 0.5
        assert abs(shift) <= JITTER_BRIGHTNESS + 4 * JITTER_SIGMA / 64
        assert a.std() == pytest.approx(JITTER_SIGMA, rel=0.1)

    def test_different_seeds_differ(self):
        img = make_texture(64, 64, seed=3)
        a, b = photometric_jitter(img, 1).pixels, photometric_jitter(img, 2).pixels
        assert a.min() >= 0.0 and a.max() <= 1.0
        assert np.abs(a - b).max() > 0.01


class TestGenBenchmark:
    def test_minimal_benchmark(self, tmp_path):
        sources = [make_texture(240, 240, seed=s) for s in range(1)]
        m = gen_benchmark(sources, tmp_path / "b", n_queries=1,
                          positives_per_query=1, n_distractors=0, seed=3)
        assert len(m.database) == 1
        assert m.database[0]["id"] == "q000p0"
        assert m.relevance() == {"q000": ["q000p0"]}
        assert (tmp_path / "b" / "manifest.json").exists()
        assert (tmp_path / "b" / "images" / "q000.pgm").exists()
        assert (tmp_path / "b" / "gt" / "q000p0.fwd.cmap").exists()

    def test_fixed_seed_identical_tree(self, tmp_path):
        sources = [make_texture(240, 240, seed=s) for s in range(4)]
        gen_benchmark(sources, tmp_path / "b1", 2, 1, 2, seed=9)
        gen_benchmark(sources, tmp_path / "b2", 2, 1, 2, seed=9)
        files1 = sorted(p.relative_to(tmp_path / "b1") for p in (tmp_path / "b1").rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(tmp_path / "b2") for p in (tmp_path / "b2").rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (tmp_path / "b1" / rel).read_bytes() == (tmp_path / "b2" / rel).read_bytes(), rel

    def test_manifest_round_trip(self, tmp_path):
        sources = [make_texture(240, 240, seed=s) for s in range(3)]
        m = gen_benchmark(sources, tmp_path / "b", 1, 2, 2, seed=5)
        back = BenchmarkManifest.load(tmp_path / "b" / "manifest.json")
        assert back == m

    def test_insufficient_sources_error(self, tmp_path):
        sources = [make_texture(240, 240, seed=0)]
        with pytest.raises(ValueError, match="source images"):
            gen_benchmark(sources, tmp_path / "b", 1, 1, 5, seed=0)
