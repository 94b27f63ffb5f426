"""Synthetic warps, ground-truth maps and benchmark generation."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from corrverify import core, synth
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

from helpers import identity_map, one_blas_thread


def grid_points(h, w, step=7):
    gx, gy = np.meshgrid(np.arange(0, w, step, dtype=float),
                         np.arange(0, h, step, dtype=float))
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


# a TPS warp's 3x3 grid of controls on a 240^2 frame
CONTROLS = grid_points(240, 240, step=119.5)


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

    @pytest.mark.parametrize("kind", ["affine", "homography", "tps"])
    def test_no_invertible_draw_raises(self, monkeypatch, kind):
        # no Jacobian determinant reaches inf, so every draw fails the probe
        monkeypatch.setattr(synth, "MIN_JACOBIAN_DET", np.inf)
        with pytest.raises(WarpGenerationError, match=rf"\b{kind} warp .* magnitude 0\.3\b"):
            random_warp(kind, 0.3, seed=3)

    def test_bad_magnitude_rejected(self):
        with pytest.raises(ValueError):
            random_warp("affine", 1.5, seed=0)
        with pytest.raises(ValueError):
            random_warp("ripple", 0.5, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must lie in"):
            random_warp("affine", 0.5, seed=-1)

    def test_spec_round_trips_through_dict(self):
        spec = random_warp("tps", 0.4, seed=9)
        back = WarpSpec.from_dict(spec.to_dict())
        pts = grid_points(240, 240)
        assert np.array_equal(warp_points(spec, pts), warp_points(back, pts))


class TestWarpSpecMatrix:
    @pytest.mark.parametrize("kind, shape", [("homography", (2, 3)), ("homography", (3, 4)),
                                             ("affine", (3, 4)), ("affine", (2, 2)),
                                             ("affine", (2, 3))])
    def test_wrong_matrix_shape_rejected(self, kind, shape):
        with pytest.raises(ValueError, match="matrix"):
            WarpSpec(kind, {"matrix": np.ones(shape)}, seed=0, magnitude=0.1)

    @pytest.mark.parametrize("kind, params, name", [
        ("homography", {}, "matrix"),
        ("affine", {"controls": CONTROLS, "targets": CONTROLS}, "matrix"),
        ("tps", {}, "controls"),
        ("tps", {"controls": CONTROLS}, "targets"),
        ("tps", {"controls": CONTROLS, "targets": CONTROLS[:8]}, "targets"),
        ("tps", {"controls": CONTROLS, "targets": CONTROLS[:, :1]}, "targets"),
        ("tps", {"controls": CONTROLS[:, 0], "targets": CONTROLS}, "controls"),
        ("tps", {"controls": CONTROLS[:2], "targets": CONTROLS[:2]}, "controls"),
        # no spline passes through these controls: the TPS system is singular
        ("tps", {"controls": CONTROLS[[0, 1, 2, 3, 4, 5, 6, 7, 4]], "targets": CONTROLS},
         "controls"),
        ("tps", {"controls": np.arange(9.0)[:, None] * [20.0, 10.0] + [5.0, 3.0],
                 "targets": CONTROLS}, "controls"),
    ], ids=["homography-no-matrix", "affine-no-matrix", "tps-none", "tps-no-targets",
            "tps-9-8", "tps-targets-9x1", "tps-controls-1d", "tps-2-controls",
            "tps-repeated-control", "tps-collinear-controls"])
    def test_params_the_kind_reads_checked(self, kind, params, name):
        with pytest.raises(ValueError, match=f"param '{name}'"):
            WarpSpec(kind, params, seed=0, magnitude=0.1)
        # a manifest read from disk is outside input
        d = json.loads(json.dumps({"kind": kind, "seed": 0, "magnitude": 0.1, "frame_h": 240,
                                   "frame_w": 240, "params": {
                                       k: v.tolist() for k, v in params.items()}}))
        with pytest.raises(ValueError, match=f"param '{name}'"):
            WarpSpec.from_dict(d)

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

    @pytest.mark.parametrize("field, bad", [
        ("frame_h", 0), ("frame_w", -3), ("frame_h", 240.0), ("frame_w", True),
        ("seed", 1.7), ("seed", "1"), ("seed", None), ("magnitude", np.inf),
        ("magnitude", np.nan), ("magnitude", "0.4"), ("magnitude", True)])
    def test_frame_seed_magnitude_checked(self, field, bad):
        # unchecked, a 0 x -3 frame constructed, and to_dict wrote seed 1.7
        # as 1 and magnitude inf, which json.dump writes as the non-JSON
        # token Infinity
        d = {**random_warp("affine", 0.4, seed=7).to_dict(), field: bad}
        with pytest.raises(ValueError, match=field):
            WarpSpec(d["kind"], d["params"], d["seed"], d["magnitude"], d["frame_h"],
                     d["frame_w"])
        # a manifest read back from JSON carries each of these as it was
        with pytest.raises(ValueError, match=field):
            WarpSpec.from_dict(json.loads(json.dumps(d)))

    def test_numpy_integer_fields_accepted(self):
        spec = WarpSpec("affine", {"matrix": np.eye(3)}, np.int64(3), np.float64(0.5),
                        np.int64(64), np.int32(32))
        d = json.loads(json.dumps(spec.to_dict()))
        assert (d["seed"], d["magnitude"], d["frame_h"], d["frame_w"]) == (3, 0.5, 64, 32)

    def test_empty_frame_rejected_by_random_warp(self):
        with pytest.raises(ValueError, match="frame_h"):
            random_warp("affine", 0.3, 1, (0, 0))

    @pytest.mark.parametrize("kind", ["affine", "homography"])
    def test_dict_round_trip_keeps_3x3(self, kind):
        spec = random_warp(kind, 0.4, seed=7)
        d = spec.to_dict()
        assert np.asarray(d["params"]["matrix"]).shape == (3, 3)
        back = WarpSpec.from_dict(d)
        assert np.array_equal(back.params["matrix"], spec.params["matrix"])


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


def tps_invert_oracle(spec, pts):
    """The Newton inverse as it was written with a boolean active mask and
    a masked step, kept as the oracle of synth._tps_invert."""
    tps = synth._tps_solve(spec)
    x = pts.copy()
    active = np.ones(len(pts), dtype=bool)
    for _ in range(synth.NEWTON_MAX_ITER):
        if not active.any():
            break
        f, jac = synth._tps_eval(tps, x[active], jacobian=True)
        r = f - pts[active]
        still = np.abs(r).max(axis=1) > synth.NEWTON_TOL
        idx = np.nonzero(active)[0]
        active[idx[~still]] = False
        if not still.any():
            break
        sub = idx[still]
        jac = jac[still]
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        ok = np.abs(det) > 1e-12
        det = np.where(ok, det, 1.0)
        rr = r[still]
        dx = (jac[:, 1, 1] * rr[:, 0] - jac[:, 0, 1] * rr[:, 1]) / det
        dy = (-jac[:, 1, 0] * rr[:, 0] + jac[:, 0, 0] * rr[:, 1]) / det
        step = np.clip(np.stack([dx, dy], axis=1), -32.0, 32.0)
        step[~ok] = 0.0
        x[sub] -= step
        active[sub[~ok]] = False
    f, _ = synth._tps_eval(tps, x)
    resid = np.abs(f - pts).max(axis=1)
    good = np.isfinite(resid) & (resid <= 10 * synth.NEWTON_TOL)
    x[~good] = 0.0
    return x, good


def tps_basis_oracle(pts, controls, gradient=False):
    """synth._tps_basis through the (N, n, 2) tensor of point-control
    differences, reduced over its axis of 2."""
    diff = pts[:, None, :] - controls[None, :, :]
    d2 = (diff ** 2).sum(axis=2)
    pos = d2 > 0
    log = np.log(d2, out=np.zeros_like(d2), where=pos)
    if not gradient:
        return d2 * log, None
    fac = np.where(pos, log + 1.0, 0.0)
    return d2 * log, (2.0 * diff[..., 0] * fac, 2.0 * diff[..., 1] * fac)


class TestTpsBasis:
    """The plane-wise TPS kernel equals the difference-tensor oracle bit for
    bit.  It is elementwise work, so unlike the TPS output pins this does
    not depend on the BLAS kernel numpy picks."""

    @pytest.mark.parametrize("gradient", [False, True])
    @pytest.mark.parametrize("controls", [
        random_warp("tps", 0.5, seed=3).params["controls"],
        np.random.default_rng(28).uniform(-10.0, 250.0, (7, 2)),
    ], ids=["grid", "random"])
    def test_matches_oracle(self, controls, gradient):
        # random points, then the controls themselves, where r = 0
        pts = np.concatenate([np.random.default_rng(29).uniform(-20.0, 260.0, (400, 2)),
                              controls])
        u, grad = synth._tps_basis(pts, controls, gradient)
        want_u, want_grad = tps_basis_oracle(pts, controls, gradient)
        assert np.array_equal(u, want_u)
        on_control = np.eye(len(controls), dtype=bool)
        assert (u[-len(controls):][on_control] == 0.0).all()
        if not gradient:
            assert grad is None
            return
        for got, want in zip(grad, want_grad):
            assert np.array_equal(got, want)
            assert (got[-len(controls):][on_control] == 0.0).all()


def tps_eval_oracle(tps, pts, jacobian=False):
    """synth._tps_eval as one whole-array evaluation, without blocks."""
    controls, sol = tps
    wts = sol[: len(controls)]
    affine = sol[len(controls):]
    u, grad = synth._tps_basis(pts, controls, jacobian)
    warped = affine[0] + pts @ affine[1:] + u @ wts
    if not jacobian:
        return warped, None
    gx, gy = grad
    jac = np.empty((len(pts), 2, 2))
    jac[:, 0, 0] = affine[1, 0] + gx @ wts[:, 0]
    jac[:, 0, 1] = affine[2, 0] + gy @ wts[:, 0]
    jac[:, 1, 0] = affine[1, 1] + gx @ wts[:, 1]
    jac[:, 1, 1] = affine[2, 1] + gy @ wts[:, 1]
    return warped, jac


# rows of a _tps_eval block for the 3x3 controls of random_warp
STEP = core.BLOCK_BYTES // (8 * 9) // 16 * 16

# one OpenBLAS thread count's TPS bits, printed as sha256 per point count;
# the whole 240^2 grid is 57600 points
THREADS_SCRIPT = """
import hashlib
import numpy as np
from corrverify import synth
gx, gy = np.meshgrid(np.arange(240.0), np.arange(240.0))
grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
for seed in range(4):
    tps = synth._tps_solve(synth.random_warp("tps", 0.5, seed))
    for n in range(56530, 56546):
        warped, jac = synth._tps_eval(tps, grid[:n], jacobian=True)
        print(seed, n, hashlib.sha256(warped.tobytes() + jac.tobytes()).hexdigest())
"""


class TestTpsEvalBlocks:
    """_tps_eval works in blocks of STEP rows, and a remainder shorter than
    16 rows joins the block before it; its bits equal the whole-array
    evaluation's on one OpenBLAS thread, where a long product is not split
    between threads."""

    @pytest.mark.parametrize("n, rows", [
        (0, [0]), (1, [1]), (STEP, [STEP]), (STEP + 1, [STEP + 1]), (STEP + 15, [STEP + 15]),
        (STEP + 16, [STEP, 16]), (2 * STEP + 1, [STEP, STEP + 1]),
        (57600, [STEP] * 10 + [800])])
    def test_block_rows(self, monkeypatch, n, rows):
        tps = synth._tps_solve(random_warp("tps", 0.5, seed=1))
        seen = []
        basis = synth._tps_basis

        def record(pts, controls, gradient=False):
            seen.append(len(pts))
            return basis(pts, controls, gradient)

        monkeypatch.setattr(synth, "_tps_basis", record)
        synth._tps_eval(tps, grid_points(240, 240, step=1)[:n], jacobian=True)
        assert STEP == 5680 and seen == rows

    @pytest.mark.parametrize("jacobian", [False, True])
    @pytest.mark.parametrize("n", [0, 1, 2, 15, 16, 17, STEP - 1, STEP, STEP + 1, STEP + 15,
                                   STEP + 16, 2 * STEP + 1, 56538, 57600])
    def test_equals_whole_array_body(self, n, jacobian):
        tps = synth._tps_solve(random_warp("tps", 0.5, seed=n % 7))
        pts = np.random.default_rng(n).uniform(-20.0, 260.0, (n, 2))
        warped, jac = synth._tps_eval(tps, pts, jacobian)
        with one_blas_thread():
            want, want_jac = tps_eval_oracle(tps, pts, jacobian)
        assert warped.shape == (n, 2) and np.array_equal(warped, want)
        if jacobian:
            assert jac.shape == (n, 2, 2) and np.array_equal(jac, want_jac)
        else:
            assert jac is None

    def test_memory_bounded(self):
        tps = synth._tps_solve(random_warp("tps", 0.5, seed=2))
        pts = grid_points(240, 240, step=1)
        tracemalloc.start()
        try:
            synth._tps_eval(tps, pts, jacobian=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = len(pts) * (2 + 4) * 8
        # 7.0 MiB measured; the whole-array oracle peaks at 32.1 MiB
        assert peak < outputs + 16 * core.BLOCK_BYTES

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="on one core OpenBLAS runs one thread whatever the setting")
    def test_bits_independent_of_blas_threads(self):
        # the whole-array oracle gives other bits on two OpenBLAS threads
        # than on one at 11 or 12 of these 16 point counts on each warp
        src = str(Path(synth.__file__).resolve().parent.parent)
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            runs.append(subprocess.run([sys.executable, "-c", THREADS_SCRIPT], env=env,
                                       capture_output=True, text=True, check=True).stdout)
        assert len(runs[0].splitlines()) == 4 * 16
        assert runs[0] == runs[1]


def folding_tps(size=64, shift=(40.0, 20.0)):
    """A 3x3-control TPS on a size^2 frame whose centre target moves by
    shift: the map folds, so Newton stalls or meets a singular Jacobian."""
    gx, gy = np.meshgrid(np.linspace(0, size - 1.0, 3), np.linspace(0, size - 1.0, 3))
    controls = np.stack([gx.ravel(), gy.ravel()], axis=1)
    targets = controls.copy()
    targets[4] += shift
    return WarpSpec("tps", {"controls": controls, "targets": targets}, 0, 1.0, size, size)


class TestTpsNewtonInverse:
    """The Newton inverse's finite rows equal the oracle's bit for bit, and
    its nan rows are exactly the oracle's not-ok points, at its converged,
    empty, non-converged and singular-Jacobian exits."""

    @staticmethod
    def assert_matches_oracle(spec, pts):
        """The inverse, its ok rows and the (points, jacobian) of each
        _tps_eval call it made, after checking it against the oracle."""
        calls = []
        evaluate = synth._tps_eval

        def record(tps, pts, jacobian=False):
            calls.append((len(pts), jacobian))
            return evaluate(tps, pts, jacobian)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(synth, "_tps_eval", record)
            got = inverse_warp_points(spec, pts)
        want, want_ok = tps_invert_oracle(spec, pts)
        ok = np.isfinite(got).all(axis=1)
        assert got.shape == want.shape and np.array_equal(ok, want_ok)
        assert np.isnan(got[~ok]).all() and np.array_equal(got[ok], want[ok])
        return got, ok, calls

    def test_random_tps_full_grid(self):
        _, ok, calls = self.assert_matches_oracle(random_warp("tps", 0.5, seed=8),
                                                  grid_points(240, 240, step=1))
        assert ok.mean() > 0.99
        # Newton's last step leaves no point moving, so no point is evaluated
        # again; a whole-grid pass after the loop made this 5 calls, 277,392 points
        assert [jac for _, jac in calls] == [True] * 4
        assert calls[0][0] == 57600 and sum(n for n, _ in calls) == 219792

    @pytest.mark.parametrize("seed", range(10))
    def test_random_tps_magnitude_one(self, seed):
        self.assert_matches_oracle(random_warp("tps", 1.0, seed=seed),
                                   grid_points(240, 240, step=1))

    def test_empty_input(self):
        got, ok, calls = self.assert_matches_oracle(random_warp("tps", 0.5, seed=8),
                                                    np.empty((0, 2)))
        assert got.shape == (0, 2) and ok.shape == (0,) and calls == []

    def test_folding_tps_leaves_points_not_ok(self):
        # 654 points still move after NEWTON_MAX_ITER steps, and only they
        # are evaluated once more (the whole 64^2 grid was, 4,096 points)
        _, ok, calls = self.assert_matches_oracle(folding_tps(), grid_points(64, 64, step=1))
        assert np.count_nonzero(~ok) == 654
        assert len(calls) == synth.NEWTON_MAX_ITER + 1 and calls[-1] == (654, False)

    def test_collapsing_tps_singular_jacobian(self):
        # every target on y = 0: the Jacobian's second row is 0, so only the
        # points of row 0 converge and the rest stop at a singular Jacobian
        controls = folding_tps().params["controls"]
        spec = WarpSpec("tps", {"controls": controls, "targets": controls * [1.0, 0.0]},
                        0, 1.0, 64, 64)
        _, ok, calls = self.assert_matches_oracle(spec, grid_points(64, 64, step=1))
        assert np.count_nonzero(ok) == 64
        # one step stops every point: converged or singular, one compression
        assert calls == [(4096, True)]


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
        m = np.array([[1.0, 0.0, 12.0], [0.0, 1.0, -7.0], [0.0, 0.0, 1.0]])
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
        back = inverse_warp_points(spec, pts)
        assert np.isfinite(back).all()
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
        back = inverse_warp_points(spec, fwd)
        ok = np.isfinite(back).all(axis=1)
        assert ok.mean() > 0.99
        assert np.abs(back[ok] - pts[ok]).max() < 1e-4

    @pytest.mark.parametrize("kind", ["affine", "homography", "tps"])
    def test_gt_maps_cyclically_consistent(self, kind):
        from corrverify.core import sample_map

        img = make_texture(240, 240, seed=4)
        spec = random_warp(kind, 0.4, seed=31)
        _, gt_fwd, gt_bwd = apply_warp(img, spec)
        # mutually valid = composition evaluable through both maps
        back, back_ok = sample_map(gt_bwd, gt_fwd.coords[..., 0], gt_fwd.coords[..., 1])
        mutual = gt_fwd.valid & back_ok
        assert mutual.sum() > 0
        # the round trip lands within 0.5 px, a quarter of the cyclic tolerance
        gx, gy = np.meshgrid(np.arange(240.0), np.arange(240.0))
        home = np.hypot(back[..., 0] - gx, back[..., 1] - gy) <= 0.5
        assert (mutual & home).sum() / mutual.sum() >= 0.99
        assert np.array_equal(cyclic_mask(gt_fwd, gt_bwd).bits & home, mutual & home)

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

    def test_negative_distractors_error(self, tmp_path):
        sources = [make_texture(240, 240, seed=0)]
        with pytest.raises(ValueError, match="n_distractors"):
            gen_benchmark(sources, tmp_path / "b", 1, 1, -1, seed=0)
        assert not (tmp_path / "b").exists()
