"""Geometric verification of dense correspondence maps.

Fits a planar homography to a dense map with seeded RANSAC, extracts the
cyclically consistent subset of its inliers, and computes the similarity
scores used for re-ranking:

* ``S  = (|C|/|I|) * exp(-beta/|C|)`` with beta the working-resolution pixel
  count, evaluated in both directions and combined by max;
* ``S_L`` the masked cosine similarity between warped and target
  hypercolumn descriptors;
* ``G`` the Euclidean distance between global descriptors;
* ``S_F = log10(S_L * S) * 10**(-G)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    CorrespondenceMap,
    FeatureMap,
    GlobalDescriptor,
    Mask,
    bilinear_sample_grid,
    sample_map,
)
from .rng import Lcg64

DEFAULT_CYCLIC_EPSILON = 2.0


class DegenerateModelError(ValueError):
    """Point configuration does not determine a homography."""


# ---------------------------------------------------------------------------
# homography estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Homography:
    """3x3 projective transform, normalized to H[2,2] = 1 when possible."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.shape != (3, 3):
            raise ValueError("homography must be 3x3")
        if not np.isfinite(m).all():
            raise ValueError("homography entries must be finite")
        m = _canonical(m[None])[0]
        if np.isnan(m).any():
            raise DegenerateModelError("homography is singular")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def apply(self, pts: np.ndarray) -> np.ndarray:
        """Project (N, 2) points; rows with w <= 1e-12 come back as nan."""
        return project(self.matrix, pts)


def project(H: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Apply (..., 3, 3) homographies to (N, 2) points, giving (..., N, 2);
    points sent to |w| <= 1e-12 come back as nan."""
    ph = np.asarray(H, dtype=np.float64) @ _homogeneous(pts)
    xy, w = ph[..., :2, :], ph[..., 2:, :]
    bad = np.abs(w) <= 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(xy, w, out=xy)
    xy[np.broadcast_to(bad, xy.shape)] = np.nan
    return xy.swapaxes(-1, -2)


def _homogeneous(pts: np.ndarray) -> np.ndarray:
    """(3, N) homogeneous coordinates of (N, 2) points."""
    pts = np.asarray(pts, dtype=np.float64)
    return np.vstack([pts.T, np.ones(len(pts))])


def _canonical(H: np.ndarray) -> np.ndarray:
    """(K, 3, 3) homographies scaled to H[2,2] = 1 (to unit norm when
    H[2,2] is near 0); nan rows where singular or non-finite."""
    h22 = H[:, 2, 2]
    scale = np.where(np.abs(h22) > 1e-8, h22, np.linalg.norm(H, axis=(1, 2)))
    with np.errstate(divide="ignore", invalid="ignore"):
        H = H / scale[:, None, None]
        H[~(np.abs(np.linalg.det(H)) > 1e-12)] = np.nan
    return H


def _hartley_normalize(pts: np.ndarray):
    """Hartley normalization of (K, N, 2) point sets: centroid to the origin,
    mean distance to sqrt(2).  Returns the normalized points, the (K, 3, 3)
    transforms T and their inverses, and a (K,) mask, False where the points
    coincide."""
    c = pts.mean(axis=1, keepdims=True)
    d = np.linalg.norm(pts - c, axis=2).mean(axis=1)
    ok = d > 1e-9
    s = np.where(ok, math.sqrt(2) / np.maximum(d, 1e-12), 0.0)
    T = np.zeros((len(pts), 3, 3))
    T_inv = np.zeros_like(T)
    T[:, 0, 0] = T[:, 1, 1] = s
    T[:, :2, 2] = -s[:, None] * c[:, 0]
    T_inv[:, 0, 0] = T_inv[:, 1, 1] = 1.0 / np.where(ok, s, 1.0)
    T_inv[:, :2, 2] = c[:, 0]
    T[:, 2, 2] = T_inv[:, 2, 2] = 1.0
    return (pts - c) * s[:, None, None], T, T_inv, ok


def _dlt_null_vectors(sn: np.ndarray, dn: np.ndarray):
    """DLT solutions for (K, N, 2) normalized pairs: (K, 9) null vectors of
    the 2N x 9 systems and a (K,) mask, False where the model is ambiguous."""
    k, n = sn.shape[:2]
    # with fewer than 9 rows svd(full_matrices=False) returns only 2N right
    # singular vectors and drops the null vector, so pad with zero rows
    # (not full_matrices=True: a (2N, 2N) U is ~5 GB in a 26k-point refit)
    A = np.zeros((k, max(2 * n, 9), 9))
    x, y = sn[..., 0], sn[..., 1]
    u, v = dn[..., 0], dn[..., 1]
    A[:, 0:2 * n:2, 0] = x
    A[:, 0:2 * n:2, 1] = y
    A[:, 0:2 * n:2, 2] = 1.0
    A[:, 0:2 * n:2, 6] = -u * x
    A[:, 0:2 * n:2, 7] = -u * y
    A[:, 0:2 * n:2, 8] = -u
    A[:, 1:2 * n:2, 3] = x
    A[:, 1:2 * n:2, 4] = y
    A[:, 1:2 * n:2, 5] = 1.0
    A[:, 1:2 * n:2, 6] = -v * x
    A[:, 1:2 * n:2, 7] = -v * y
    A[:, 1:2 * n:2, 8] = -v
    _, sing, Vt = np.linalg.svd(A, full_matrices=False)
    # a zero 8th singular value sing[7] means a (near-)2-dimensional
    # nullspace: the points do not pin the model
    ok = sing[:, 7] >= 1e-9 * np.maximum(sing[:, 0], 1e-30)
    return Vt[:, -1], ok


def _batch_dlt_4pt(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Hartley-normalized DLT homographies src -> dst for (K, N, 2) batches
    (N >= 4), in canonical scale; nan-filled rows where degenerate."""
    sn, Ts, _, s_ok = _hartley_normalize(src)
    dn, _, Td_inv, d_ok = _hartley_normalize(dst)
    h, rank_ok = _dlt_null_vectors(sn, dn)
    H = Td_inv @ h.reshape(-1, 3, 3) @ Ts
    H[~(s_ok & d_ok & rank_ok)] = np.nan
    return _canonical(H)


def fit_homography_dlt(src: np.ndarray, dst: np.ndarray) -> Homography:
    """Least-squares homography with src -> dst, Hartley-normalized DLT.

    Exact for 4 pairs in general position; raises DegenerateModelError when
    the configuration (e.g. collinear points) leaves the model ambiguous.
    """
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 2 or len(src) < 4:
        raise ValueError("need matching (N, 2) arrays with N >= 4")
    H = _batch_dlt_4pt(src[None], dst[None])[0]
    if np.isnan(H).any():
        raise DegenerateModelError("degenerate point configuration")
    return Homography(H)


def symmetric_transfer_error(h: Homography, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """max(forward, backward) transfer distance per correspondence, inf where
    a point maps to the horizon.  The hypot reference RANSAC's inlier test
    is checked against."""
    with np.errstate(invalid="ignore", over="ignore"):
        df = project(h.matrix, src) - dst
        db = project(np.linalg.inv(h.matrix), dst) - src
        err = np.maximum(np.hypot(df[:, 0], df[:, 1]), np.hypot(db[:, 0], db[:, 1]))
    return np.where(np.isfinite(err), err, np.inf)


def _inverses(models: np.ndarray) -> np.ndarray:
    """(K, 3, 3) inverses; nan where a model is nan or singular."""
    with np.errstate(invalid="ignore"):
        ok = np.abs(np.linalg.det(models)) > 1e-12
    inv = np.full_like(models, np.nan)
    inv[ok] = np.linalg.inv(models[ok])
    return inv


def _inliers(H: np.ndarray, pts_h: np.ndarray, target: np.ndarray, t: float,
             ph: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """(K, N) bool: (K, 3, 3) homographies send the (3, N) homogeneous points
    pts_h to within t of the (3, N) homogeneous target, off the horizon.
    ph (3, >= K, N) and sq (>= K, N) are float64 scratch, overwritten; ph is
    laid out plane by plane so that x, y and w are each contiguous.

    The projection and the differences dx, dy are computed exactly as in
    project and symmetric_transfer_error, but tested as dx*dx + dy*dy <= t*t:
    the squared sum is within 2 ulp of the exact value and hypot within 1, so
    only the rare pixels within 1e-12 t*t of the boundary need hypot to
    reproduce the reference decision.
    """
    ph, sq = ph[:, :len(H)], sq[:len(H)]
    np.matmul(H, pts_h, out=ph.transpose(1, 0, 2))
    dx, dy, w = ph
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(dx, w, out=dx)
        np.divide(dy, w, out=dy)
        dx -= target[0]
        dy -= target[1]
        front = np.abs(w, out=w) > 1e-12
        t2 = t * t
        if not 1e-280 < t2 < 1e280:
            # dx*dx can under- or overflow where hypot does not
            return (np.hypot(dx, dy) <= t) & front
        np.multiply(dx, dx, out=sq)
        sq += np.multiply(dy, dy, out=w)
        ok = sq <= t2 * (1 - 1e-12)
        maybe = sq <= t2 * (1 + 1e-12)
        if np.count_nonzero(maybe) != np.count_nonzero(ok):
            band = maybe & ~ok
            ok[band] = np.hypot(dx[band], dy[band]) <= t
    ok &= front
    return ok


# RANSAC hypotheses are scored in chunks over K whose (chunk, N) float64
# planes stay within this many bytes, so the scratch planes stay in cache
# (and peak memory is bounded whatever the config).  The planes are allocated
# once per call and reused: fresh planes of this size would sit near malloc's
# mmap threshold and be mapped and page-faulted anew for every ufunc.
SCORE_CHUNK_BYTES = 256 << 10


def _inlier_chunks(models: np.ndarray, src: np.ndarray, dst: np.ndarray, threshold: float):
    """Symmetric inlier masks of (K, 3, 3) models on src -> dst pairs, as
    (chunk, N) blocks over K: a pair is an inlier iff it passes the forward
    and the backward test."""
    inv = _inverses(models)
    src_h, dst_h = _homogeneous(src), _homogeneous(dst)
    step = max(1, min(len(models), SCORE_CHUNK_BYTES // (8 * max(len(src), 1))))
    ph, sq = np.empty((3, step, len(src))), np.empty((step, len(src)))
    for i in range(0, len(models), step):
        yield (_inliers(models[i:i + step], src_h, dst_h, threshold, ph, sq)
               & _inliers(inv[i:i + step], dst_h, src_h, threshold, ph, sq))


def _count_inliers(models: np.ndarray, src: np.ndarray, dst: np.ndarray,
                   threshold: float) -> np.ndarray:
    """(K,) symmetric-transfer inlier counts."""
    return np.concatenate([m.sum(axis=1) for m in _inlier_chunks(models, src, dst, threshold)])


def _inlier_mask(model: np.ndarray, src: np.ndarray, dst: np.ndarray,
                 threshold: float) -> np.ndarray:
    """(N,) symmetric-transfer inlier mask of one (3, 3) model."""
    return next(_inlier_chunks(model[None], src, dst, threshold))[0]


# ---------------------------------------------------------------------------
# RANSAC over a dense correspondence map
# ---------------------------------------------------------------------------

# Hypotheses are scored on the valid pixels of every SAMPLE_STRIDE-th row
# and column.  When that subgrid has more than 2 * PRESCREEN_TARGET pixels,
# every hypothesis is first counted on about PRESCREEN_TARGET evenly spaced
# probe pixels and only the PRESCREEN_KEEP best are scored on the subgrid (a
# deterministic, order-preserving speedup for smooth dense maps).
SAMPLE_STRIDE = 2
PRESCREEN_TARGET = 1800
PRESCREEN_KEEP = 48


@dataclass(frozen=True)
class RansacConfig:
    """Seeded homography RANSAC on a dense map."""

    iterations: int = 1000
    inlier_threshold: float = 3.0
    min_inliers: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.inlier_threshold <= 0:
            raise ValueError("inlier_threshold must be positive")
        if self.min_inliers < 0:
            raise ValueError("min_inliers must be >= 0")


def _map_correspondences(cmap: CorrespondenceMap, stride: int):
    """(target grid points, source coords) over valid pixels of a subgrid."""
    v = cmap.valid[::stride, ::stride]
    ys, xs = np.nonzero(v)
    coords = cmap.coords[::stride, ::stride][ys, xs]
    pts = np.stack([xs * stride, ys * stride], axis=1).astype(np.float64)
    return pts, coords


def ransac_homography(cmap: CorrespondenceMap, config: RansacConfig):
    """Robust homography fit over a dense map's valid correspondences.

    Returns (Homography or None, inlier Mask over the full grid).  Sampling
    is driven by a portable 64-bit LCG so results are bit-stable for a given
    seed.  The best hypothesis (by subgrid inlier count, ties to the earlier
    iteration) is refit with DLT on its inliers; the reported mask holds the
    refit model's inliers over all valid pixels.
    """
    empty = Mask(np.zeros((cmap.height, cmap.width), dtype=bool))
    pts, coords = _map_correspondences(cmap, SAMPLE_STRIDE)
    n = len(pts)
    if n < max(4, config.min_inliers):
        return None, empty

    rng = Lcg64(config.seed)
    quads = np.empty((config.iterations, 4), dtype=np.int64)
    for i in range(config.iterations):
        quads[i] = rng.sample_distinct(n, 4)
    src_quads = pts[quads]       # RANSAC model maps target grid -> source coords
    dst_quads = coords[quads]
    models = _batch_dlt_4pt(src_quads, dst_quads)

    if n > 2 * PRESCREEN_TARGET:
        step = int(np.ceil(n / PRESCREEN_TARGET))
        probe_idx = np.arange(0, n, step)
        probe_counts = _count_inliers(models, pts[probe_idx], coords[probe_idx],
                                      config.inlier_threshold)
        # stable sort keeps earlier iterations first among equal counts;
        # re-sorting the kept set preserves the ties-to-earliest rule below
        order = np.argsort(-probe_counts, kind="stable")[:PRESCREEN_KEEP]
        models = models[np.sort(order)]

    counts = _count_inliers(models, pts, coords, config.inlier_threshold)
    best_j = int(np.argmax(counts))  # first occurrence = earliest iteration
    if counts[best_j] < config.min_inliers:
        return None, empty

    best = models[best_j]
    inl = _inlier_mask(best, pts, coords, config.inlier_threshold)
    try:
        refit = fit_homography_dlt(pts[inl], coords[inl])
    except DegenerateModelError:
        refit = Homography(best)

    grid_pts, grid_coords = _map_correspondences(cmap, 1)
    bits = np.zeros((cmap.height, cmap.width), dtype=bool)
    bits[cmap.valid] = _inlier_mask(refit.matrix, grid_pts, grid_coords,
                                    config.inlier_threshold)
    return refit, Mask(bits)


# ---------------------------------------------------------------------------
# cyclic consistency
# ---------------------------------------------------------------------------

def cyclic_mask(o_ab: CorrespondenceMap, o_ba: CorrespondenceMap,
                epsilon: float = DEFAULT_CYCLIC_EPSILON) -> Mask:
    """Pixels of o_ab's grid whose forward-backward composition returns home.

    Pixel p is set iff o_ab[p] is valid, o_ba can be sampled at o_ab[p]
    (in bounds, all contributing pixels valid), and the composed coordinate
    lies within epsilon of p.
    """
    h, w = o_ab.height, o_ab.width
    back, ok = sample_map(o_ba, o_ab.coords[..., 0], o_ab.coords[..., 1])
    gx, gy = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    dist = np.hypot(back[..., 0] - gx, back[..., 1] - gy)
    bits = o_ab.valid & ok & (dist <= epsilon)
    return Mask(bits)


# ---------------------------------------------------------------------------
# similarity scores
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationResult:
    """One direction of RANSAC + cyclic verification."""

    direction: str                      # "AB" (map on B's grid) or "BA"
    homography: Optional[Homography]
    inlier_mask: Mask                   # I
    consistent_mask: Mask               # C = cyclic AND I
    cyclic: Mask                        # raw cyclic-consistency mask

    def __post_init__(self):
        if (self.consistent_mask.bits & ~self.inlier_mask.bits).any():
            raise ValueError("consistent mask must be a subset of the inlier mask")

    @property
    def num_inliers(self) -> int:
        return self.inlier_mask.count()

    @property
    def num_consistent(self) -> int:
        return self.consistent_mask.count()


@dataclass(frozen=True)
class SimilarityScores:
    """Scores for one query-database pair."""

    G: float
    S: float
    S_L: float
    S_F: float
    S_A: float = 0.0
    S_B: float = 0.0
    # Eq. 3 inverts its intended ordering when 0 < S_L*S < 1; flagged here
    s_f_damped_regime: bool = False


def score_s(num_inliers: int, num_consistent: int, beta: float) -> float:
    """Structural similarity (|C|/|I|) * exp(-beta/|C|); 0 on empty sets."""
    if num_inliers <= 0 or num_consistent <= 0:
        return 0.0
    return (num_consistent / num_inliers) * math.exp(-beta / num_consistent)


def score_g(g_query: GlobalDescriptor, g_db: GlobalDescriptor) -> float:
    """Euclidean distance between unit global descriptors, in [0, 2]."""
    if g_query.dim != g_db.dim:
        raise ValueError("descriptor dimensions differ")
    return float(np.linalg.norm(g_query.values - g_db.values))


def score_s_l(hyper_a: FeatureMap, hyper_b: FeatureMap, o_ab: CorrespondenceMap,
              mask: Mask) -> float:
    """Masked cosine-similarity sum between warped and target hypercolumns.

    o_ab and mask live on hyper_b's grid with coordinates scaled to
    hyper_a's frame; sampled descriptors are renormalized after
    interpolation.  Pixels whose sample is invalid contribute 0.
    """
    if (o_ab.height, o_ab.width) != (hyper_b.height, hyper_b.width):
        raise ValueError("correspondence map grid must match hyper_b")
    if (mask.height, mask.width) != (hyper_b.height, hyper_b.width):
        raise ValueError("mask grid must match hyper_b")
    if hyper_a.channels != hyper_b.channels:
        raise ValueError("hypercolumn channel counts differ")
    sel = mask.bits & o_ab.valid
    if not sel.any():
        return 0.0
    ys, xs = np.nonzero(sel)
    coords = o_ab.coords[ys, xs]
    sampled, ok = bilinear_sample_grid(hyper_a.values, coords[:, 0], coords[:, 1])
    if not ok.any():
        return 0.0
    norms = np.linalg.norm(sampled, axis=1)
    good = ok & (norms > 1e-12)
    target = hyper_b.values[ys[good], xs[good]].astype(np.float64)
    dots = np.einsum("nc,nc->n", sampled[good] / norms[good, None], target)
    return float(dots.sum())


def score_s_f(s_l: float, s: float, g: float):
    """Fused similarity log10(S_L*S) * 10**(-G).

    Returns (value, damped_regime).  A non-positive S_L*S product yields
    -inf, ranking the pair last; products in (0, 1) give negative scores
    that large G damps instead of amplifying, flagged via damped_regime.
    """
    prod = s_l * s
    if prod <= 0.0:
        return float("-inf"), False
    return math.log10(prod) * 10.0 ** (-g), prod < 1.0


def beta_for_working_size(height: int, width: int) -> float:
    """Eq-1 constant: the maximum possible |C| at the working resolution."""
    return float(height * width)


def verify_direction(o_fwd: CorrespondenceMap, o_bwd: CorrespondenceMap,
                     direction: str, ransac: RansacConfig,
                     epsilon: float = DEFAULT_CYCLIC_EPSILON) -> VerificationResult:
    """RANSAC + cyclic consistency for one map direction."""
    model, inliers = ransac_homography(o_fwd, ransac)
    cyc = cyclic_mask(o_fwd, o_bwd, epsilon)
    consistent = Mask(cyc.bits & inliers.bits)
    return VerificationResult(direction, model, inliers, consistent, cyc)


def score_pair_s(o_ab: CorrespondenceMap, o_ba: CorrespondenceMap,
                 ransac: RansacConfig,
                 epsilon: float = DEFAULT_CYCLIC_EPSILON):
    """Direction-max structural similarity S = max(S_A, S_B).

    Returns (S, result_AB, result_BA).  Each direction owns an independent
    LCG seeded with the same configured value, which keeps the score exactly
    symmetric under swapping the input pair.
    """
    beta = beta_for_working_size(o_ab.height, o_ab.width)
    r_ab = verify_direction(o_ab, o_ba, "AB", ransac, epsilon)
    r_ba = verify_direction(o_ba, o_ab, "BA", ransac, epsilon)
    s_ab = score_s(r_ab.num_inliers, r_ab.num_consistent, beta)
    s_ba = score_s(r_ba.num_inliers, r_ba.num_consistent, beta)
    return max(s_ab, s_ba), r_ab, r_ba


# ---------------------------------------------------------------------------
# ablation scoring variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VariantInputs:
    num_inliers: int
    num_consistent: int
    s: float
    s_l: float
    g: float
    beta: float


_R_VARIANTS = {
    "S_L_only": lambda v: v.s_l,
    "S_L_times_S": lambda v: v.s_l * v.s,
    "log_S_L_S": lambda v: math.log10(v.s_l * v.s) if v.s_l * v.s > 0 else float("-inf"),
}

_Q_VARIANTS = {
    "Q_5_over_G": lambda v: 5.0 / v.g if v.g > 0 else float("inf"),
    "Q_pow10": lambda v: 10.0 ** (-v.g),
}

_SCALAR_VARIANTS = {
    "I": lambda v: float(v.num_inliers),
    "C": lambda v: float(v.num_consistent),
    "C_over_I": lambda v: v.num_consistent / v.num_inliers if v.num_inliers else 0.0,
    "S": lambda v: score_s(v.num_inliers, v.num_consistent, v.beta),
}


def score_variant(name: str, inputs: VariantInputs) -> float:
    """Appendix scoring variants; R and Q factors compose as "R*Q"."""
    if "*" in name:
        r_name, q_name = name.split("*", 1)
        if r_name not in _R_VARIANTS or q_name not in _Q_VARIANTS:
            raise ValueError(f"unknown variant combination {name!r}")
        r = _R_VARIANTS[r_name](inputs)
        q = _Q_VARIANTS[q_name](inputs)
        if math.isinf(r) and r < 0:
            return float("-inf")
        return r * q
    if name in _SCALAR_VARIANTS:
        return _SCALAR_VARIANTS[name](inputs)
    if name in _R_VARIANTS:
        return _R_VARIANTS[name](inputs)
    if name in _Q_VARIANTS:
        return _Q_VARIANTS[name](inputs)
    raise ValueError(f"unknown scoring variant {name!r}")
