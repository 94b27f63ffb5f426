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

A direction is checked for cyclic consistency first.  C is the cyclic mask
AND I, so |C| <= k, the cyclic mask's count, and S <= exp(-beta/k); when
``score_s(k, k, beta)`` is 0.0 (exp underflows: k <= 77 at 240^2) S is 0
whatever RANSAC finds, and the direction skips RANSAC and reports no model
and empty I and C.  S and S_F are bitwise those of a full run.

A model is a read-only (3, 3) float64 homography with H[2,2] = 1, or of
unit Frobenius norm when |H[2,2]| <= 1e-8, put through ``_canonical`` once.

``verify`` runs on the calling thread: it starts no thread of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    BLOCK_BYTES,
    CorrespondenceMap,
    FeatureMap,
    GlobalDescriptor,
    Mask,
    bilinear_sample_grid,
    sample_map,
)
from .rng import Lcg64, _integer, _real

# how far, in pixels, a forward-backward round trip may land from its start
CYCLIC_EPSILON = 2.0


class DegenerateModelError(ValueError):
    """Point configuration does not determine a homography."""


# ---------------------------------------------------------------------------
# homography estimation
# ---------------------------------------------------------------------------

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
    |H[2,2]| <= 1e-8); nan rows where singular or non-finite.  Apply once:
    a unit-norm row can have |H[2,2]| > 1e-8."""
    h22 = H[:, 2, 2]
    scale = np.where(np.abs(h22) > 1e-8, h22, np.linalg.norm(H, axis=(1, 2)))
    with np.errstate(divide="ignore", invalid="ignore"):
        H = H / scale[:, None, None]
        # an infinite entry can leave |det| infinite, which passes the test
        H[~(np.abs(np.linalg.det(H)) > 1e-12) | ~np.isfinite(H).all(axis=(1, 2))] = np.nan
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


def _batch_dlt(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Hartley-normalized DLT homographies src -> dst for (K, N, 2) batches
    (N >= 4), in canonical scale; nan-filled rows where degenerate."""
    sn, Ts, _, s_ok = _hartley_normalize(src)
    dn, _, Td_inv, d_ok = _hartley_normalize(dst)
    h, rank_ok = _dlt_null_vectors(sn, dn)
    H = Td_inv @ h.reshape(-1, 3, 3) @ Ts
    H[~(s_ok & d_ok & rank_ok)] = np.nan
    return _canonical(H)


def fit_homography_dlt(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Least-squares homography with src -> dst, Hartley-normalized DLT.

    Returns the read-only (3, 3) float64 model, H[2,2] = 1 or unit norm when
    |H[2,2]| <= 1e-8: bitwise _batch_dlt(src[None], dst[None])[0].  Exact
    for 4 pairs in general position; raises DegenerateModelError when the
    configuration (e.g. collinear points) leaves the model ambiguous, and
    ValueError when a point is not finite.
    """
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 2 or len(src) < 4:
        raise ValueError("need matching (N, 2) arrays with N >= 4")
    if not (np.isfinite(src).all() and np.isfinite(dst).all()):
        raise ValueError("points must be finite")
    H = _batch_dlt(src[None], dst[None])[0]
    if not np.isfinite(H).all():
        raise DegenerateModelError("degenerate point configuration")
    H.flags.writeable = False
    return H


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
    project, but tested as dx*dx + dy*dy <= t*t rather than by hypot(dx, dy)
    <= t: the squared sum is within 2 ulp of the exact value and hypot within
    1, so only the rare pixels within 1e-12 t*t of the boundary need hypot to
    reproduce the hypot decision.
    """
    ph, sq = ph[:, :len(H)], sq[:len(H)]
    dx, dy, w = ph
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # an infinite entry times a zero coordinate is nan, and tests False
        np.matmul(H, pts_h, out=ph.transpose(1, 0, 2))
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


def _scratch(k: int, n: int):
    """(chunk, ph, sq) for k models of n pairs: the chunk of models whose
    float64 planes hold at most BLOCK_BYTES (or one model), and _inliers'
    scratch for it.  Reuse the scratch: fresh planes of this size sit near
    malloc's mmap threshold, so every ufunc would map and fault them anew."""
    step = max(1, min(k, BLOCK_BYTES // (8 * max(n, 1))))
    return step, np.empty((3, step, n)), np.empty((step, n))


def _symmetric(models: np.ndarray, src_h: np.ndarray, dst_h: np.ndarray, t: float,
               ph: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """(K, N) bool symmetric-transfer inlier masks of (K, 3, 3) models on
    the (3, N) homogeneous pairs src_h -> dst_h, with K at most the chunk of
    the _scratch planes ph and sq: a pair is an inlier iff it passes the
    forward and the backward test."""
    return (_inliers(models, src_h, dst_h, t, ph, sq)
            & _inliers(_inverses(models), dst_h, src_h, t, ph, sq))


def _inlier_mask(model: np.ndarray, src: np.ndarray, dst: np.ndarray,
                 threshold: float) -> np.ndarray:
    """(N,) symmetric-transfer inlier mask of one (3, 3) model."""
    _, ph, sq = _scratch(1, len(src))
    return _symmetric(model[None], _homogeneous(src), _homogeneous(dst), threshold, ph, sq)[0]


def _best(models: np.ndarray, src: np.ndarray, dst: np.ndarray,
          threshold: float, keep: int):
    """Indices, ascending, and exact symmetric-transfer inlier counts of the
    keep best (K, 3, 3) models on src -> dst pairs, ranked by count
    descending and then by index ascending: the earlier draw wins a tie.

    A pair passes the symmetric test only if it passes the forward one, so
    a model's forward count bounds its symmetric count.  All forward counts
    are taken first; symmetric counts follow in windows of (bound
    descending, index ascending) order, one _scratch chunk each, and stop
    once the next model ranks after the keep-th best even at its bound.
    Every model left has no larger a bound, and a later index among equal
    bounds, so none can rank: the result is that of counting every model
    both ways, with at worst 1.5 times its tests.
    """
    src_h, dst_h = _homogeneous(src), _homogeneous(dst)
    k = len(models)
    step, ph, sq = _scratch(k, len(src))
    bound = np.concatenate([_inliers(models[i:i + step], src_h, dst_h, threshold, ph, sq).sum(axis=1)
                            for i in range(0, k, step)])
    order = np.argsort(-bound, kind="stable")
    counts = np.empty(k, dtype=np.int64)
    seen, top = 0, order[:0]
    while seen < k and (len(top) < keep or
                        (-bound[order[seen]], order[seen]) < (-counts[top[-1]], top[-1])):
        window = order[seen:seen + step]
        counts[window] = _symmetric(models[window], src_h, dst_h, threshold, ph, sq).sum(axis=1)
        seen += len(window)
        done = order[:seen]
        top = done[np.lexsort((done, -counts[done]))[:keep]]
    top = np.sort(top)
    return top, counts[top]


# ---------------------------------------------------------------------------
# RANSAC over a dense correspondence map
# ---------------------------------------------------------------------------

# Hypotheses are scored on the valid pixels of every SAMPLE_STRIDE-th row
# and column.  Every hypothesis is first counted on at most PRESCREEN_TARGET
# evenly spaced probe pixels, and only the PRESCREEN_KEEP best are scored on
# the subgrid: preemptive scoring (Nister, ICCV 2003), deterministic and
# order-preserving.  A subgrid of at most PRESCREEN_TARGET pixels is its own
# probe, and the result is that of scoring every drawn hypothesis on it.
#
# ITERATIONS hypotheses are the draw budget, drawn in at most two batches
# from one LCG stream.  The first FIRST_ROUND draws are counted on the probe
# pixels; if one of them explains every probe pixel, the inlier share w is 1
# and the adaptive bound N = log(1 - p) / log(1 - w^4) of Fischler & Bolles
# (1981; Hartley & Zisserman, 2nd ed., section 4.7) is 0 at any confidence
# p, so the draws stop there.  Otherwise one second batch draws the rest of
# the budget, and the result is that of drawing them all at once; a bound
# for w < 1 would stop at or below ITERATIONS.  RANSAC holds all drawn
# hypotheses at once, about 2.5 KiB each (draws, DLT systems, SVD factors),
# so the whole budget takes about 2.5 MiB.
#
# Each ranking, the w = 1 stop (keeping 1), the prescreen (keeping
# PRESCREEN_KEEP) and the subgrid pick (keeping 1), is one bound-then-verify
# _best call.  Most hypotheses explain almost no pixel, so their forward
# count alone shows they cannot rank and they skip the backward test; the
# kept set, the refit and the mask stay those of exhaustive counting, bit
# for bit, with at worst 1.5 times its tests.
SAMPLE_STRIDE = 2
PRESCREEN_TARGET = 1800
PRESCREEN_KEEP = 48
FIRST_ROUND = 16
ITERATIONS = 1000


@dataclass(frozen=True)
class RansacConfig:
    """Seeded homography RANSAC on a dense map; the draw budget is
    ITERATIONS, not a setting.

    min_inliers and seed are integers (numbers.Integral, not bool):
    min_inliers is >= 0 and seed is any integer.  inlier_threshold
    (symmetric transfer distance, pixels) is a finite positive real number
    (numbers.Real, not bool).  A model needs max(4, min_inliers) inliers on
    the sampling subgrid: at least 4, whatever min_inliers is.  Any other
    value raises ValueError.
    """

    inlier_threshold: float = 3.0
    min_inliers: int = 20
    seed: int = 0

    def __post_init__(self):
        for name in ("min_inliers", "seed"):
            _integer(getattr(self, name), name)
        if not 0 < _real(self.inlier_threshold, "inlier_threshold") < math.inf:
            raise ValueError("inlier_threshold must be finite and positive")
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

    Returns (model or None, inlier Mask over the full grid); a model is
    read-only (3, 3) float64, H[2,2] = 1 or unit norm when |H[2,2]| <= 1e-8.
    Sampling is driven by a portable 64-bit LCG so results are bit-stable
    for a given seed.  The first FIRST_ROUND hypotheses are fitted in one
    DLT batch and counted on the probe pixels.  If one of them explains
    every probe pixel (w = 1, as on an exact map) the draws stop there;
    otherwise one second batch draws the other ITERATIONS - FIRST_ROUND and
    only the PRESCREEN_KEEP best of all drawn hypotheses on the probe are
    kept.  The kept hypotheses are counted on the subgrid, and the best of
    them (ties to the earlier draw) is refit with DLT on its inliers, or
    kept as it is when they are degenerate; the mask holds the model's
    inliers over all valid pixels.

    Each ranking is one _best call, so the kept set, model and mask are
    those of counting every hypothesis both ways, bit for bit.
    """
    empty = Mask(np.zeros((cmap.height, cmap.width), dtype=bool))
    pts, coords = _map_correspondences(cmap, SAMPLE_STRIDE)
    n = len(pts)
    if n < max(4, config.min_inliers):
        return None, empty

    rng = Lcg64(config.seed)
    t = config.inlier_threshold
    step = int(np.ceil(n / PRESCREEN_TARGET))
    probe_pts, probe_coords = pts[::step], coords[::step]

    def draw(k):
        """k more hypotheses from the stream."""
        quads = np.empty((k, 4), dtype=np.int64)
        for i in range(k):
            quads[i] = rng.sample_distinct(n, 4)
        # RANSAC models map target grid -> source coords
        return _batch_dlt(pts[quads], coords[quads])

    models = draw(FIRST_ROUND)
    # w < 1: draw the rest and prescreen.  The prescreen runs only after a
    # second batch: FIRST_ROUND (16) < PRESCREEN_KEEP (48), so it would
    # keep every first-round hypothesis
    (_,), (most,) = _best(models, probe_pts, probe_coords, t, 1)
    if most < len(probe_pts):
        models = np.concatenate([models, draw(ITERATIONS - FIRST_ROUND)])
        models = models[_best(models, probe_pts, probe_coords, t, PRESCREEN_KEEP)[0]]
    (j,), (count,) = _best(models, pts, coords, t, 1)
    if count < max(4, config.min_inliers):
        return None, empty

    best = models[j]
    best.flags.writeable = False
    inl = _inlier_mask(best, pts, coords, t)
    try:
        model = fit_homography_dlt(pts[inl], coords[inl])
    except DegenerateModelError:
        model = best

    grid_pts, grid_coords = _map_correspondences(cmap, 1)
    bits = np.zeros((cmap.height, cmap.width), dtype=bool)
    bits[cmap.valid] = _inlier_mask(model, grid_pts, grid_coords, t)
    return model, Mask(bits)


# ---------------------------------------------------------------------------
# cyclic consistency
# ---------------------------------------------------------------------------

def cyclic_mask(o_ab: CorrespondenceMap, o_ba: CorrespondenceMap) -> Mask:
    """Pixels of o_ab's grid whose forward-backward composition returns home.

    Pixel p is set iff o_ab[p] is valid and o_ba sampled at o_ab[p] lies
    within CYCLIC_EPSILON pixels of p (a nan sample, where sample_map has
    none, never does).  A map with no valid pixel gives the empty mask
    straight away; otherwise every row is checked in one pass.
    """
    if not o_ab.valid.any():
        return Mask(o_ab.valid)
    back = sample_map(o_ba, o_ab.coords[..., 0], o_ab.coords[..., 1])
    gx, gy = np.meshgrid(np.arange(o_ab.width, dtype=np.float64),
                         np.arange(o_ab.height, dtype=np.float64))
    home = np.hypot(back[..., 0] - gx, back[..., 1] - gy) <= CYCLIC_EPSILON
    return Mask(o_ab.valid & home)


# ---------------------------------------------------------------------------
# similarity scores
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationResult:
    """One direction of RANSAC + cyclic verification.  homography is
    ransac_homography's model: a read-only (3, 3) float64 array with
    H[2,2] = 1 (unit norm when |H[2,2]| <= 1e-8), or None."""

    homography: Optional[np.ndarray]
    inlier_mask: Mask                   # I
    consistent_mask: Mask               # C = cyclic AND I

    def __post_init__(self):
        if self.consistent_mask.bits.shape != self.inlier_mask.bits.shape:
            raise ValueError("consistent and inlier masks must share one grid")
        if (self.consistent_mask.bits & ~self.inlier_mask.bits).any():
            raise ValueError("consistent mask must be a subset of the inlier mask")

    @property
    def num_inliers(self) -> int:
        return self.inlier_mask.count()

    @property
    def num_consistent(self) -> int:
        return self.consistent_mask.count()


def score_s(num_inliers: int, num_consistent: int, beta: float) -> float:
    """Structural similarity (|C|/|I|) * exp(-beta/|C|); 0 on empty sets.

    The counts are pixel counts, integers >= 0 (numbers.Integral, not
    bool).  C is a subset of I, so num_consistent > num_inliers raises
    ValueError, as do other counts and a beta that is not a finite real
    >= num_consistent (S <= 1/e).
    """
    for name, count in (("num_inliers", num_inliers), ("num_consistent", num_consistent)):
        if _integer(count, name) < 0:
            raise ValueError(f"{name} must be >= 0, got {count}")
    if num_consistent > num_inliers:
        raise ValueError(f"num_consistent {num_consistent} exceeds num_inliers {num_inliers}")
    if not num_consistent <= _real(beta, "beta") < math.inf:
        raise ValueError(f"beta {beta!r} must be finite and >= num_consistent {num_consistent}")
    if num_consistent == 0:
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
    hyper_b is used as it is: its pixels must have unit or zero norm, as
    extract_hypercolumn's do; neither this function nor read_fmap checks.

    The masked pixels are visited in row-major order, in blocks whose
    (block, channels) float64 planes hold at most BLOCK_BYTES.  Each
    pixel's dot is stored, and the stored dots are summed once, in pixel
    order, so the result does not depend on the block size.
    """
    if (o_ab.height, o_ab.width) != (hyper_b.height, hyper_b.width):
        raise ValueError("correspondence map grid must match hyper_b")
    if (mask.height, mask.width) != (hyper_b.height, hyper_b.width):
        raise ValueError("mask grid must match hyper_b")
    if hyper_a.channels != hyper_b.channels:
        raise ValueError("hypercolumn channel counts differ")
    pixels = np.flatnonzero(mask.bits & o_ab.valid)
    h, w, c = hyper_b.values.shape
    coords = o_ab.coords.reshape(h * w, 2)
    target = hyper_b.values.reshape(h * w, c)
    step = max(1, BLOCK_BYTES // (8 * c))
    dots = np.empty(len(pixels))
    n = 0
    for i in range(0, len(pixels), step):
        block = pixels[i:i + step]
        xy = coords[block]
        sampled = bilinear_sample_grid(hyper_a.values, xy[:, 0], xy[:, 1])
        # np.linalg.norm's sum of squares without its conj() copy; 0 off-frame
        norms = np.sqrt(np.add.reduce(sampled * sampled, axis=1))
        good = norms > 1e-12
        sampled /= np.where(good, norms, 1.0)[:, None]
        d = np.einsum("nc,nc->n", sampled, target.take(block, axis=0).astype(np.float64))
        k = np.count_nonzero(good)
        dots[n:n + k] = d[good]
        n += k
    return float(dots[:n].sum())


def score_s_f(s_l: float, s: float, g: float):
    """Fused similarity log10(S_L*S) * 10**(-G).

    Returns (value, damped_regime).  A non-positive S_L*S product yields
    -inf, ranking the pair last; products in (0, 1) give negative scores
    that large G damps instead of amplifying, flagged via damped_regime.
    S_L, S and G must be finite real numbers (numbers.Real, not bool), S
    and G >= 0; S_L may be negative (a cosine sum).  Other inputs raise
    ValueError naming the input: a nan S_F would rank first or last under
    the (-S_F, G) sort depending on the candidates' order.
    """
    if not -math.inf < _real(s_l, "s_l") < math.inf:
        raise ValueError(f"s_l must be finite, got {s_l!r}")
    for name, value in (("s", s), ("g", g)):
        if not 0.0 <= _real(value, name) < math.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    prod = s_l * s
    if prod <= 0.0:
        return float("-inf"), False
    return math.log10(prod) * 10.0 ** (-g), prod < 1.0


def beta_for_working_size(height: int, width: int) -> float:
    """Eq-1 constant: the maximum possible |C| at the working resolution.
    Dims that are not integers >= 1 (numbers.Integral, not bool) raise
    ValueError."""
    if _integer(height, "height") < 1 or _integer(width, "width") < 1:
        raise ValueError(f"working size must be >= 1, got {height}x{width}")
    return float(height * width)


def verify_direction(o_fwd: CorrespondenceMap, o_bwd: CorrespondenceMap,
                     ransac: RansacConfig) -> VerificationResult:
    """Cyclic consistency + RANSAC for the map o_fwd, checked against o_bwd.

    The cyclic check runs first.  With k its count and beta o_fwd's pixel
    count, C = cyclic AND I gives |C| <= k, and S = (|C|/|I|) exp(-beta/|C|)
    <= exp(-beta/k) = score_s(k, k, beta).  When that is 0.0 the direction's
    S is 0 whatever RANSAC finds: RANSAC is skipped, and the result has no
    model and empty I and C.
    """
    cyclic = cyclic_mask(o_fwd, o_bwd)
    k = cyclic.count()
    if score_s(k, k, beta_for_working_size(o_fwd.height, o_fwd.width)) == 0.0:
        empty = Mask(np.zeros_like(cyclic.bits))
        return VerificationResult(None, empty, empty)
    model, inliers = ransac_homography(o_fwd, ransac)
    return VerificationResult(model, inliers, Mask(cyclic.bits & inliers.bits))


def score_pair_s(o_ab: CorrespondenceMap, o_ba: CorrespondenceMap,
                 ransac: RansacConfig):
    """Direction-max structural similarity S = max(S_A, S_B).

    Returns (S, result_AB, result_BA).  Each direction owns an independent
    LCG seeded with the same configured value, which keeps the score exactly
    symmetric under swapping the input pair.  Each direction's S takes beta
    from its own map's grid, as verify_direction's skip does: a direction
    whose cyclic count cannot give S > 0 runs no RANSAC and reports no model
    and empty I and C, and its S is 0 either way.  The directions run one
    after the other, on the calling thread.
    """
    r_ab = verify_direction(o_ab, o_ba, ransac)
    r_ba = verify_direction(o_ba, o_ab, ransac)
    s_ab = score_s(r_ab.num_inliers, r_ab.num_consistent,
                   beta_for_working_size(o_ab.height, o_ab.width))
    s_ba = score_s(r_ba.num_inliers, r_ba.num_consistent,
                   beta_for_working_size(o_ba.height, o_ba.width))
    return max(s_ab, s_ba), r_ab, r_ba
