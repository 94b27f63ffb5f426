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
    BLOCK_BYTES,
    CorrespondenceMap,
    Image,
    bilinear_sample_grid,
    resize_grid,
    resize_image,
    save_image,
    write_cmap,
)
from .pyramid import WORKING_SIZE
from .rng import _integer, _real, derive_seed, generator
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


@dataclass(frozen=True, eq=False)
class WarpSpec:
    """A parametric warp of a fixed frame, plus its provenance.

    The params a kind reads are stored as float64 arrays: affine and
    homography read a (3, 3) "matrix", tps reads "controls" and "targets",
    both (n, 2) with n >= 3.  A missing or misshapen one raises ValueError,
    as does any param entry that is not finite (a manifest read back from
    JSON can carry NaN), a repeated control or controls all on one line
    (no spline passes through them); a singular matrix is kept, and the
    invertibility probe rejects it.  seed, frame_h and frame_w must be
    integers (numbers.Integral, not bool), the frame dims >= 1, and
    magnitude a finite real; else ValueError names the field.
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
        _integer(self.seed, "seed")
        for name in ("frame_h", "frame_w"):
            if _integer(getattr(self, name), name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not np.isfinite(_real(self.magnitude, "magnitude")):
            raise ValueError(f"magnitude must be finite, got {self.magnitude!r}")
        for name, value in self.params.items():
            if not np.isfinite(np.asarray(value, dtype=np.float64)).all():
                raise ValueError(f"warp param {name!r} must be finite")
        read = {}
        for name in ("controls", "targets") if self.kind == "tps" else ("matrix",):
            if name not in self.params:
                raise ValueError(f"{self.kind} warp needs param {name!r}")
            read[name] = v = np.asarray(self.params[name], dtype=np.float64)
            want = (3, 3) if name == "matrix" else read["controls"].shape[:1] + (2,)
            if v.shape != want or len(v) < 3:
                shape = "(3, 3)" if name == "matrix" else "(n, 2), n >= 3 as in controls"
                raise ValueError(f"{self.kind} param {name!r} must be {shape}, got {v.shape}")
        if self.kind == "tps":
            # exactly when the TPS system is solvable
            c = read["controls"]
            if (len(np.unique(c, axis=0)) < len(c)
                    or np.linalg.matrix_rank(np.column_stack([np.ones(len(c)), c])) < 3):
                raise ValueError("tps param 'controls' must be distinct points, "
                                 "not all on one line")
        object.__setattr__(self, "params", {**self.params, **read})

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "seed": int(self.seed),
            "magnitude": float(self.magnitude),
            "frame_h": int(self.frame_h),
            "frame_w": int(self.frame_w),
            "params": {k: np.asarray(v).tolist() for k, v in self.params.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "WarpSpec":
        """The spec that ``to_dict`` wrote, its values checked as given."""
        return cls(d["kind"], d["params"], d["seed"], d["magnitude"], d["frame_h"], d["frame_w"])


# ---------------------------------------------------------------------------
# forward / inverse evaluation
# ---------------------------------------------------------------------------

def _tps_basis(pts: np.ndarray, controls: np.ndarray, gradient: bool = False):
    """Radial basis U = r^2 log r^2 of (N, 2) points against the (n, 2)
    controls, (N, n), and with ``gradient`` its x and y derivatives
    2 (p - c)(log r^2 + 1); U and both derivatives are 0 at r = 0."""
    dx = pts[:, :1] - controls[:, 0]
    dy = pts[:, 1:] - controls[:, 1]
    d2 = dx * dx + dy * dy
    pos = d2 > 0
    log = np.log(d2, out=np.zeros_like(d2), where=pos)
    if not gradient:
        return d2 * log, None
    fac = np.where(pos, log + 1.0, 0.0)
    return d2 * log, (2.0 * dx * fac, 2.0 * dy * fac)


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
    (N, 2, 2) Jacobians d(warped)/d(source), from one basis evaluation.

    The points go through in blocks of BLOCK_BYTES // (8 n) rows for n
    controls, rounded down to a multiple of 16, so each (block, n) basis
    plane stays in cache; a last remainder shorter than 16 rows joins the
    block before it.  The bits equal one whole-array evaluation's on one
    OpenBLAS thread: every product keeps its operand layout, a block that
    starts at a multiple of 16 puts each row in the same place of the BLAS
    kernel's unrolled loop or its tail, and no block is a 1-row product,
    which numpy sends to another kernel.  Products of this size also stay
    on the calling thread, whereas OpenBLAS splits one long product between
    its threads at a row off the kernel's unroll, so that its bits change
    with the thread count.
    """
    controls, sol = tps
    wts = sol[: len(controls)]           # (n_ctl, 2)
    affine = sol[len(controls):]         # (3, 2)
    n = len(pts)
    warped = np.empty((n, 2))
    jac = np.empty((n, 2, 2)) if jacobian else None
    step = max(16, BLOCK_BYTES // (8 * len(controls)) // 16 * 16)
    starts = range(0, max(n - 15, 1), step)
    for lo, hi in zip(starts, [*starts[1:], n]):
        p = pts[lo:hi]
        u, grad = _tps_basis(p, controls, jacobian)
        warped[lo:hi] = affine[0] + p @ affine[1:] + u @ wts
        if jacobian:
            gx, gy = grad                # (block, n_ctl) each
            jac[lo:hi, 0, 0] = affine[1, 0] + gx @ wts[:, 0]
            jac[lo:hi, 0, 1] = affine[2, 0] + gy @ wts[:, 0]
            jac[lo:hi, 1, 0] = affine[1, 1] + gx @ wts[:, 1]
            jac[lo:hi, 1, 1] = affine[2, 1] + gy @ wts[:, 1]
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


def inverse_warp_points(spec: WarpSpec, pts: np.ndarray) -> np.ndarray:
    """Source-frame preimages of (N, 2) warped-frame points, a nan row
    where a point has none, as in ``project``: for TPS, where Newton does
    not bring it within 10 NEWTON_TOL of its target."""
    pts = np.asarray(pts, dtype=np.float64)
    if spec.kind != "tps":
        return project(np.linalg.inv(spec.params["matrix"]), pts)
    return _tps_invert(spec, pts)


def _tps_invert(spec: WarpSpec, pts: np.ndarray) -> np.ndarray:
    """Dense Newton inversion of the forward TPS map.  A step keeps the
    residuals it evaluates, so only points still moving after
    NEWTON_MAX_ITER steps are evaluated once more."""
    tps = _tps_solve(spec)
    x = pts.copy()
    resid = np.empty(len(pts))
    idx = np.arange(len(pts))  # the points still moving
    for _ in range(NEWTON_MAX_ITER):
        if not len(idx):
            break
        f, jac = _tps_eval(tps, x[idx], jacobian=True)
        r = f - pts[idx]
        resid[idx] = res = np.maximum(*np.abs(r).T)
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        # singular-Jacobian points cannot make progress
        go = (res > NEWTON_TOL) & (np.abs(det) > 1e-12)
        if not go.all():
            idx, jac, r, det = idx[go], jac[go], r[go], det[go]
        dx = (jac[:, 1, 1] * r[:, 0] - jac[:, 0, 1] * r[:, 1]) / det
        dy = (-jac[:, 1, 0] * r[:, 0] + jac[:, 0, 0] * r[:, 1]) / det
        x[idx] -= np.clip(np.stack([dx, dy], axis=1), -32.0, 32.0)
    if len(idx):
        resid[idx] = np.maximum(*np.abs(_tps_eval(tps, x[idx])[0] - pts[idx]).T)
    x[~(resid <= 10 * NEWTON_TOL)] = np.nan
    return x


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
        params = {"matrix": np.vstack([np.column_stack([lin, offset]), [0.0, 0.0, 1.0]])}
    elif kind == "homography":
        corners = np.array([[0, 0], [w - 1.0, 0], [w - 1.0, h - 1.0], [0, h - 1.0]])
        delta = rng.uniform(-1, 1, (4, 2)) * (0.2 * magnitude) * np.array([w, h])
        try:
            params = {"matrix": fit_homography_dlt(corners, corners + delta)}
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

    src = inverse_warp_points(spec, grid).reshape(h, w, 2)
    gt_forward = CorrespondenceMap.from_coords(src, (h, w))
    # a nan or out-of-frame preimage samples as 0, where from_coords marks it invalid
    sampled = bilinear_sample_grid(image.pixels, src[..., 0], src[..., 1])
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
    if n_distractors < 0:
        raise ValueError(f"n_distractors must be >= 0, got {n_distractors}")
    if len(sources) < n_queries + n_distractors:
        raise ValueError(
            f"need {n_queries + n_distractors} source images, got {len(sources)}")
    if n_queries < 1 or positives_per_query < 1:
        raise ValueError("need at least one query and one positive per query")

    out = Path(out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    (out / "gt").mkdir(parents=True, exist_ok=True)

    def prep(img: Image) -> Image:
        return resize_image(img, working_size, working_size)

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
