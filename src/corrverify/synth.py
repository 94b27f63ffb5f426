"""Synthetic warped image pairs with analytic ground-truth correspondences.

Supports affine, homography and thin-plate-spline warps, each invertible
over the frame (checked on a probe grid at generation time).  Ground-truth
maps are computed from the warp itself: closed-form for affine/homography,
Newton inversion of the analytic forward map for TPS.  A benchmark
generator assembles retrieval datasets of warped positives plus untouched
distractors with exhaustive relevance.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .core import (
    CorrespondenceMap,
    Image,
    bilinear_sample_grid,
    resize_grid,
    resize_image,
    save_image,
    to_grayscale,
    write_cmap,
)
from .pyramid import WORKING_SIZE
from .rng import derive_seed, generator
from .verify import DegenerateModelError, fit_homography_dlt, project

WARP_KINDS = ("affine", "homography", "tps")
PROBE_GRID = 16
MIN_JACOBIAN_DET = 0.05
NEWTON_TOL = 1e-8
NEWTON_MAX_ITER = 80
JITTER_BRIGHTNESS = 0.1
JITTER_SIGMA = 0.02


class WarpGenerationError(RuntimeError):
    """Rejection sampling failed to find an invertible warp."""


@dataclass(frozen=True)
class WarpSpec:
    """A parametric warp of a fixed frame, plus its provenance.

    Every entry of params must be finite (a manifest read back from JSON can
    carry NaN); a singular matrix is kept, and the invertibility probe
    rejects it.
    """

    kind: str
    params: dict
    seed: int
    magnitude: float
    frame_h: int = WORKING_SIZE
    frame_w: int = WORKING_SIZE

    def __post_init__(self):
        if self.kind not in WARP_KINDS:
            raise ValueError(f"unknown warp kind {self.kind!r}")
        for name, value in self.params.items():
            if not np.isfinite(np.asarray(value, dtype=np.float64)).all():
                raise ValueError(f"warp param {name!r} must be finite")
        if self.kind != "tps":
            # projective warps hold a 3x3 matrix; an affine 2x3 one is lifted
            m = np.asarray(self.params["matrix"], dtype=np.float64)
            if self.kind == "affine" and m.shape == (2, 3):
                m = np.vstack([m, [0.0, 0.0, 1.0]])
            if m.shape != (3, 3):
                raise ValueError(f"{self.kind} matrix must be 3x3, got {m.shape}")
            object.__setattr__(self, "params", {**self.params, "matrix": m})

    def __eq__(self, other) -> bool:
        """Equal iff the to_dict() outputs are equal (params hold arrays,
        which the generated field-by-field comparison cannot compare)."""
        if not isinstance(other, WarpSpec):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        # params are left out: equal specs still hash equal
        d = self.to_dict()
        return hash((d["kind"], d["seed"], d["magnitude"], d["frame_h"], d["frame_w"]))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "seed": int(self.seed),
            "magnitude": float(self.magnitude),
            "frame_h": self.frame_h,
            "frame_w": self.frame_w,
            "params": {k: np.asarray(v).tolist() for k, v in self.params.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "WarpSpec":
        return cls(
            kind=d["kind"],
            params={k: np.asarray(v, dtype=np.float64) for k, v in d["params"].items()},
            seed=int(d["seed"]),
            magnitude=float(d["magnitude"]),
            frame_h=int(d["frame_h"]),
            frame_w=int(d["frame_w"]),
        )


# ---------------------------------------------------------------------------
# forward / inverse evaluation
# ---------------------------------------------------------------------------

def _tps_basis(pts: np.ndarray, controls: np.ndarray, gradient: bool = False):
    """Radial basis U = r^2 log r^2 of (N, 2) points against the (n, 2)
    controls, (N, n), and with ``gradient`` its x and y derivatives
    2 (p - c)(log r^2 + 1); U and both derivatives are 0 at r = 0."""
    diff = pts[:, None, :] - controls[None, :, :]
    d2 = (diff ** 2).sum(axis=2)
    pos = d2 > 0
    log = np.log(d2, out=np.zeros_like(d2), where=pos)
    if not gradient:
        return d2 * log, None
    fac = np.where(pos, log + 1.0, 0.0)
    return d2 * log, (2.0 * diff[..., 0] * fac, 2.0 * diff[..., 1] * fac)


def _tps_solve(spec: WarpSpec):
    """Controls and (n+3, 2) coefficients of a TPS warp: the n kernel
    weights, then the constant, x and y terms, one column per output
    dimension."""
    controls = np.asarray(spec.params["controls"], dtype=np.float64)
    targets = np.asarray(spec.params["targets"], dtype=np.float64)
    n = len(controls)
    K, _ = _tps_basis(controls, controls)
    P = np.concatenate([np.ones((n, 1)), controls], axis=1)
    L = np.block([[K, P], [P.T, np.zeros((3, 3))]])
    rhs = np.concatenate([targets, np.zeros((3, 2))])
    return controls, np.linalg.solve(L, rhs)


def _tps_eval(tps, pts: np.ndarray, jacobian: bool = False):
    """Warped (N, 2) points of a solved TPS and, with ``jacobian``, their
    (N, 2, 2) Jacobians d(warped)/d(source), from one basis evaluation."""
    controls, sol = tps
    wts = sol[: len(controls)]           # (n_ctl, 2)
    affine = sol[len(controls):]         # (3, 2)
    u, grad = _tps_basis(pts, controls, jacobian)
    warped = affine[0] + pts @ affine[1:] + u @ wts
    if not jacobian:
        return warped, None
    gx, gy = grad                        # (N, n_ctl) each
    jac = np.empty((len(pts), 2, 2))
    jac[:, 0, 0] = affine[1, 0] + gx @ wts[:, 0]
    jac[:, 0, 1] = affine[2, 0] + gy @ wts[:, 0]
    jac[:, 1, 0] = affine[1, 1] + gx @ wts[:, 1]
    jac[:, 1, 1] = affine[2, 1] + gy @ wts[:, 1]
    return warped, jac


def warp_points(spec: WarpSpec, pts: np.ndarray) -> np.ndarray:
    """Forward warp of (N, 2) source-frame points."""
    pts = np.asarray(pts, dtype=np.float64)
    if spec.kind != "tps":
        return project(spec.params["matrix"], pts)
    return _tps_eval(_tps_solve(spec), pts)[0]


def warp_jacobian(spec: WarpSpec, pts: np.ndarray) -> np.ndarray:
    """Analytic (N, 2, 2) Jacobians d(warped)/d(source) at the points."""
    pts = np.asarray(pts, dtype=np.float64)
    if spec.kind != "tps":
        h = spec.params["matrix"]
        w = pts @ h[2, :2] + h[2, 2]
        # d(p_i)/d(x_j) = (h[i, j] - h[2, j] * p_i) / w for the projected p
        return (h[:2, :2] - project(h, pts)[:, :, None] * h[2, :2]) / w[:, None, None]
    return _tps_eval(_tps_solve(spec), pts, jacobian=True)[1]


def inverse_warp_points(spec: WarpSpec, pts: np.ndarray):
    """Source-frame preimages of warped-frame points; (coords, ok)."""
    pts = np.asarray(pts, dtype=np.float64)
    if spec.kind != "tps":
        out = project(np.linalg.inv(spec.params["matrix"]), pts)
        # points mapped from behind the horizon are not preimages
        ok = np.isfinite(out).all(axis=1)
        out[~ok] = 0.0
        return out, ok
    return _tps_invert(spec, pts)


def _tps_invert(spec: WarpSpec, pts: np.ndarray):
    """Dense Newton inversion of the forward TPS map."""
    tps = _tps_solve(spec)
    x = pts.copy()
    active = np.ones(len(pts), dtype=bool)
    for _ in range(NEWTON_MAX_ITER):
        if not active.any():
            break
        f, jac = _tps_eval(tps, x[active], jacobian=True)
        r = f - pts[active]
        err = np.abs(r).max(axis=1)
        still = err > NEWTON_TOL
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
        # singular-Jacobian points cannot make progress
        active[sub[~ok]] = False

    f, _ = _tps_eval(tps, x)
    resid = np.abs(f - pts).max(axis=1)
    good = np.isfinite(resid) & (resid <= 10 * NEWTON_TOL)
    x[~good] = 0.0
    return x, good


# ---------------------------------------------------------------------------
# random generation
# ---------------------------------------------------------------------------

def _sample_spec(kind: str, magnitude: float, seed: int, attempt: int,
                 frame_hw) -> WarpSpec:
    h, w = frame_hw
    rng = generator(seed, "warp", kind, attempt)
    if kind == "affine":
        rot = np.deg2rad(25.0) * magnitude * rng.uniform(-1, 1)
        sx, sy = 1.0 + 0.3 * magnitude * rng.uniform(-1, 1, 2)
        shear = 0.2 * magnitude * rng.uniform(-1, 1)
        tx = 0.15 * magnitude * w * rng.uniform(-1, 1)
        ty = 0.15 * magnitude * h * rng.uniform(-1, 1)
        c, s = np.cos(rot), np.sin(rot)
        lin = np.array([[c, -s], [s, c]]) @ np.array([[1.0, shear], [0.0, 1.0]]) @ np.diag([sx, sy])
        center = np.array([(w - 1) / 2.0, (h - 1) / 2.0])
        offset = center + np.array([tx, ty]) - lin @ center
        params = {"matrix": np.column_stack([lin, offset])}
    elif kind == "homography":
        corners = np.array([[0, 0], [w - 1.0, 0], [w - 1.0, h - 1.0], [0, h - 1.0]])
        delta = rng.uniform(-1, 1, (4, 2)) * (0.2 * magnitude) * np.array([w, h])
        try:
            params = {"matrix": fit_homography_dlt(corners, corners + delta).matrix}
        except DegenerateModelError:
            # degenerate corner draw: a singular matrix fails the probe, so it is retried
            params = {"matrix": np.diag([0.0, 0.0, 1.0])}
    else:
        gx, gy = np.meshgrid(np.linspace(0, w - 1.0, 3), np.linspace(0, h - 1.0, 3))
        controls = np.stack([gx.ravel(), gy.ravel()], axis=1)
        delta = rng.uniform(-1, 1, (9, 2)) * (0.1 * magnitude) * np.array([w, h])
        params = {"controls": controls, "targets": controls + delta}
    return WarpSpec(kind, params, seed, magnitude, h, w)


def invertibility_probe(spec: WarpSpec) -> bool:
    """Jacobian determinant stays above MIN_JACOBIAN_DET on a 16x16 grid."""
    gx, gy = np.meshgrid(
        np.linspace(0, spec.frame_w - 1.0, PROBE_GRID),
        np.linspace(0, spec.frame_h - 1.0, PROBE_GRID),
    )
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    jac = warp_jacobian(spec, pts)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    return bool(np.isfinite(det).all() and (det >= MIN_JACOBIAN_DET).all())


def random_warp(kind: str, magnitude: float, seed: int,
                frame_hw=(WORKING_SIZE, WORKING_SIZE)) -> WarpSpec:
    """Invertible random warp; rejection-resampled until the probe passes."""
    if kind not in WARP_KINDS:
        raise ValueError(f"unknown warp kind {kind!r}")
    if not 0.0 <= magnitude <= 1.0:
        raise ValueError("magnitude must lie in [0, 1]")
    for attempt in range(100):
        spec = _sample_spec(kind, magnitude, seed, attempt, frame_hw)
        if invertibility_probe(spec):
            return spec
    raise WarpGenerationError(
        f"no invertible {kind} warp found for magnitude {magnitude} after 100 draws")


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------

def apply_warp(image: Image, spec: WarpSpec):
    """Warp an image, returning (warped, gt_forward, gt_backward).

    gt_forward lives on the warped image's grid and points into the source
    (the matcher's O_AB for the pair (source, warped)); gt_backward lives on
    the source grid and points into the warped frame.  Out-of-frame pixels
    are invalid; the warped image is zero-filled there.
    """
    h, w = image.height, image.width
    if (h, w) != (spec.frame_h, spec.frame_w):
        raise ValueError(f"image {h}x{w} does not match warp frame "
                         f"{spec.frame_h}x{spec.frame_w}")
    gx, gy = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)

    src, ok = inverse_warp_points(spec, grid)
    src[~ok] = np.nan
    gt_forward = CorrespondenceMap.from_coords(src.reshape(h, w, 2), (h, w))

    coords = gt_forward.coords
    sampled, _ = bilinear_sample_grid(image.pixels, coords[..., 0], coords[..., 1])
    sampled[~gt_forward.valid] = 0.0
    warped = Image(np.clip(sampled, 0.0, 1.0))

    dst = warp_points(spec, grid).reshape(h, w, 2)
    gt_backward = CorrespondenceMap.from_coords(dst, (h, w))
    return warped, gt_forward, gt_backward


def photometric_jitter(image: Image, seed: int) -> Image:
    """Uniform brightness shift within +-JITTER_BRIGHTNESS, then Gaussian
    pixel noise of standard deviation JITTER_SIGMA."""
    rng = generator(seed, "jitter")
    px = image.pixels + rng.uniform(-JITTER_BRIGHTNESS, JITTER_BRIGHTNESS)
    px = px + rng.normal(0.0, JITTER_SIGMA, px.shape)
    return Image(np.clip(px, 0.0, 1.0))


# ---------------------------------------------------------------------------
# textures and benchmarks
# ---------------------------------------------------------------------------

def make_texture(h: int, w: int, seed: int) -> Image:
    """Multi-octave value-noise texture with structure at all pyramid scales."""
    rng = generator(seed, "texture")
    acc = np.zeros((h, w))
    for cells, amp in ((3, 1.0), (6, 0.75), (12, 0.55), (24, 0.4), (48, 0.3), (96, 0.22)):
        acc += amp * resize_grid(rng.random((cells + 1, cells + 1)), h, w)
    lo, hi = acc.min(), acc.max()
    if hi - lo < 1e-9:
        return Image(np.full((h, w), 0.5))
    return Image(0.03 + 0.94 * (acc - lo) / (hi - lo))


@dataclass
class BenchmarkManifest:
    """Generated retrieval benchmark: queries, database, exhaustive relevance."""

    seed: int
    kind: str
    magnitude: float
    working_size: int
    queries: list
    database: list

    def relevance(self) -> dict:
        return {q["id"]: list(q["positives"]) for q in self.queries}

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(asdict(self), f, indent=1, sort_keys=True)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "BenchmarkManifest":
        with open(path) as f:
            return cls(**json.load(f))


def gen_benchmark(sources, out_dir, n_queries: int, positives_per_query: int,
                  n_distractors: int, seed: int, kind: str = "homography",
                  magnitude: float = 0.3, jitter: bool = False,
                  working_size: int = WORKING_SIZE) -> BenchmarkManifest:
    """Build a benchmark tree under out_dir.

    Database = warped views of the first n_queries sources (the positives)
    plus the next n_distractors sources untouched; each query is a
    differently warped view of its source.  Relevance is exact by
    construction.  Each warped image's forward ground-truth map (onto its
    source) is stored; the backward one follows from the stored warp spec.
    """
    sources = list(sources)
    if len(sources) < n_queries + n_distractors:
        raise ValueError(
            f"need {n_queries + n_distractors} source images, got {len(sources)}")
    if n_queries < 1 or positives_per_query < 1:
        raise ValueError("need at least one query and one positive per query")

    out = Path(out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    (out / "gt").mkdir(parents=True, exist_ok=True)

    def prep(img: Image) -> Image:
        return resize_image(to_grayscale(img), working_size, working_size)

    queries = []
    database = []

    def emit_warped(image_id: str, source_img: Image, source_id: str, warp_seed: int):
        spec = random_warp(kind, magnitude, warp_seed, (working_size, working_size))
        warped, gt_fwd, _ = apply_warp(source_img, spec)
        if jitter:
            warped = photometric_jitter(warped, derive_seed(warp_seed, "jitter", image_id))
        img_path = f"images/{image_id}.pgm"
        fwd_path = f"gt/{image_id}.fwd.cmap"
        save_image(warped, out / img_path)
        write_cmap(gt_fwd, out / fwd_path)
        return {
            "id": image_id,
            "path": img_path,
            "source": source_id,
            "warp": spec.to_dict(),
            "gt_forward": fwd_path,
        }

    for k in range(n_queries):
        source_id = f"src{k:04d}"
        src = prep(sources[k])
        qid = f"q{k:03d}"
        q_entry = emit_warped(qid, src, source_id, derive_seed(seed, "query", k))
        positive_ids = []
        for i in range(positives_per_query):
            pid = f"{qid}p{i}"
            database.append(emit_warped(pid, src, source_id, derive_seed(seed, "pos", k, i)))
            positive_ids.append(pid)
        q_entry["positives"] = positive_ids
        queries.append(q_entry)

    for j in range(n_distractors):
        did = f"d{j:04d}"
        img_path = f"images/{did}.pgm"
        save_image(prep(sources[n_queries + j]), out / img_path)
        database.append({
            "id": did,
            "path": img_path,
            "source": None,
            "warp": None,
            "gt_forward": None,
        })

    manifest = BenchmarkManifest(
        seed=seed, kind=kind, magnitude=magnitude, working_size=working_size,
        queries=queries, database=database,
    )
    manifest.save(out / "manifest.json")
    return manifest
