"""Re-ranking workloads driven through the library's public functions.

Each workload builds, in set-up, a small on-disk index of shortlists: one
query image per shortlist, its warped positives and untouched distractors
(``synth.gen_benchmark``), every database image indexed (pyramid,
hypercolumn, global descriptor, FMAP + GDSC files) and one CMAP pair per
(query, candidate).  The timed loop is one closed-loop client: it sends the
next query only after the previous one has been re-ranked.

Correspondence maps stand in for a matcher's output.  Query<->positive maps
are composed from the two ground-truth warps; distractor maps are seeded,
locally smooth but globally incoherent fields, as a matcher produces on
unrelated content.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from corrverify import core, pyramid, rng, synth, verify

import spans

RANSAC = verify.RansacConfig()     # library defaults
INCOHERENT_CELLS = 8               # coarse cells of a distractor flow field


@dataclass(frozen=True)
class Shape:
    """Sizes of one run: the library's working and hypercolumn sizes, and
    the shortlist shape.  The self-tests shrink all of them."""

    working_size: int = pyramid.WORKING_SIZE
    hyper_size: int = 480
    shortlists: int = 3
    positives: int = 2
    distractors: int = 4


@dataclass(frozen=True)
class Workload:
    kind: str              # warp family of query and positives
    magnitude: float
    jitter: bool           # photometric jitter on warped views
    outlier_share: float   # share of each positive map replaced by outlier patches


WORKLOADS = {
    # one affine model explains ~90% of the valid pixels: |C| is large, so
    # S_L on 480^2 hypercolumns and resample_map carry the weight
    "rerank-planar": Workload("affine", 0.3, False, 0.0),
    # TPS views plus clustered outlier patches: inlier share and |C| drop,
    # RANSAC dominates and its quality is stressed
    "rerank-nonplanar": Workload("tps", 0.6, True, 0.3),
}


# ---------------------------------------------------------------------------
# correspondence maps
# ---------------------------------------------------------------------------

def smooth_random_coords(seed: int, size: int) -> np.ndarray:
    """(size, size, 2) bilinear upsampling of a coarse random coordinate grid.

    Not ``core.resample_map``: the traced run times that as a query layer."""
    cells = INCOHERENT_CELLS
    coarse = rng.generator(seed, "incoherent").uniform(0.0, size - 1.0, (cells, cells, 2))
    t = np.linspace(0.0, cells - 1.0, size)
    interp = np.stack([np.interp(t, np.arange(cells), row) for row in np.eye(cells)], axis=1)
    return np.stack([interp @ coarse[..., c] @ interp.T for c in range(2)], axis=2)


def compose(gt_to_source: core.CorrespondenceMap, spec: synth.WarpSpec) -> core.CorrespondenceMap:
    """Map a ground-truth map's source coordinates through another view's warp."""
    h, w = gt_to_source.height, gt_to_source.width
    pts = synth.warp_points(spec, gt_to_source.coords.reshape(-1, 2)).reshape(h, w, 2)
    pts[~gt_to_source.valid] = np.nan
    return core.CorrespondenceMap.from_coords(pts, (spec.frame_h, spec.frame_w))


def add_outlier_patches(cmap: core.CorrespondenceMap, share: float, seed: int):
    """Overwrite random square patches covering ``share`` of the grid with an
    incoherent field; returns (corrupted map, mask of untouched valid pixels)."""
    h, w = cmap.height, cmap.width
    if share <= 0.0:
        return cmap, cmap.valid
    g = rng.generator(seed, "patches")
    bad = np.zeros((h, w), dtype=bool)
    while bad.mean() < share:
        side = int(g.integers(h // 8, h // 4 + 1))
        y0 = int(g.integers(0, h - side + 1))
        x0 = int(g.integers(0, w - side + 1))
        bad[y0:y0 + side, x0:x0 + side] = True
    coords = np.where(cmap.valid[..., None], cmap.coords, np.nan)
    coords = np.where(bad[..., None], smooth_random_coords(seed, h), coords)
    return core.CorrespondenceMap.from_coords(coords, (h, w)), cmap.valid & ~bad


# ---------------------------------------------------------------------------
# set-up: generate and index one shortlist
# ---------------------------------------------------------------------------

@dataclass
class Shortlist:
    qid: str               # request id, unique within a run
    tree: Path
    query_path: Path
    candidates: list       # (cid, is_positive, clean_ab, clean_ba)
    setup_s: float
    images: int            # database images generated and indexed
    ingest_s: float        # time spent generating and indexing them
    sample: tuple          # (cid, image path, o_ab, o_ba) of the round-trip candidate


def index_image(tree: Path, entry: dict, shape: Shape) -> None:
    """Hypercolumn and global descriptor files for one database image."""
    image = core.load_image(tree / entry["path"])
    pyr = pyramid.build_pyramid(image, working_size=shape.working_size)
    hyper = pyramid.extract_hypercolumn(pyr, (shape.hyper_size, shape.hyper_size))
    core.write_fmap(hyper, tree / "index" / f"{entry['id']}.fmap")
    core.write_gdsc(pyramid.compute_global_descriptor(pyr), tree / "index" / f"{entry['id']}.gdsc")


def build_shortlist(work: Path, name: str, wl: Workload, shape: Shape, seed: int, k: int) -> Shortlist:
    t0 = time.perf_counter()
    ws = shape.working_size
    tree = work / f"s{k}"
    sources = [synth.make_texture(ws, ws, rng.derive_seed(seed, name, "source", k, i))
               for i in range(1 + shape.distractors)]
    manifest = synth.gen_benchmark(
        sources, tree, n_queries=1, positives_per_query=shape.positives,
        n_distractors=shape.distractors, seed=rng.derive_seed(seed, name, "benchmark", k),
        kind=wl.kind, magnitude=wl.magnitude, jitter=wl.jitter, working_size=ws)
    (tree / "index").mkdir()
    for entry in manifest.database:
        index_image(tree, entry, shape)
    ingest_s = time.perf_counter() - t0

    query = manifest.queries[0]
    q_spec = synth.WarpSpec.from_dict(query["warp"])
    q_gt = core.read_cmap(tree / query["gt_forward"])
    positives = set(query["positives"])
    pick = rng.derive_seed(seed, name, "round-trip", k) % len(manifest.database)
    candidates = []
    for j, entry in enumerate(manifest.database):
        cid = entry["id"]
        pair_seed = rng.derive_seed(seed, name, "maps", k, j)
        if cid in positives:
            c_spec = synth.WarpSpec.from_dict(entry["warp"])
            c_gt = core.read_cmap(tree / entry["gt_forward"])
            o_ab, clean_ab = add_outlier_patches(compose(c_gt, q_spec), wl.outlier_share,
                                                 rng.derive_seed(pair_seed, "ab"))
            o_ba, clean_ba = add_outlier_patches(compose(q_gt, c_spec), wl.outlier_share,
                                                 rng.derive_seed(pair_seed, "ba"))
        else:
            o_ab = core.CorrespondenceMap.from_coords(
                smooth_random_coords(rng.derive_seed(pair_seed, "ab"), ws), (ws, ws))
            o_ba = core.CorrespondenceMap.from_coords(
                smooth_random_coords(rng.derive_seed(pair_seed, "ba"), ws), (ws, ws))
            clean_ab = clean_ba = None
        core.write_cmap(o_ab, tree / "index" / f"{cid}.ab.cmap")
        core.write_cmap(o_ba, tree / "index" / f"{cid}.ba.cmap")
        candidates.append((cid, cid in positives, clean_ab, clean_ba))
        if j == pick:
            sample = (cid, tree / entry["path"], o_ab, o_ba)
    return Shortlist(f"s{k}", tree, tree / query["path"], candidates,
                     time.perf_counter() - t0, len(manifest.database), ingest_s, sample)


def round_trip(sl: Shortlist, shape: Shape) -> list:
    """Problems found re-reading one seeded candidate's index files: its
    CMAPs against the maps written, its FMAP and GDSC against a fresh
    computation from its image."""
    cid, image_path, o_ab, o_ba = sl.sample
    index = sl.tree / "index"
    bad = []
    for tag, written in (("ab", o_ab), ("ba", o_ba)):
        back = core.read_cmap(index / f"{cid}.{tag}.cmap")
        # the format stores float32 coordinates
        if not (np.array_equal(back.valid, written.valid) and np.array_equal(
                back.coords, written.coords.astype(np.float32).astype(np.float64))):
            bad.append(f"{cid}.{tag}.cmap does not read back as written")
    pyr = pyramid.build_pyramid(core.load_image(image_path), working_size=shape.working_size)
    hyper = pyramid.extract_hypercolumn(pyr, (shape.hyper_size, shape.hyper_size))
    if not np.array_equal(core.read_fmap(index / f"{cid}.fmap").values, hyper.values):
        bad.append(f"{cid}.fmap differs from the recomputed hypercolumn")
    g = pyramid.compute_global_descriptor(pyr).values
    if not np.allclose(core.read_gdsc(index / f"{cid}.gdsc").values, g, rtol=0.0, atol=1e-7):
        bad.append(f"{cid}.gdsc differs from the recomputed global descriptor")
    return bad


# ---------------------------------------------------------------------------
# the timed request: re-rank one shortlist
# ---------------------------------------------------------------------------

def reference_s_f(s_l: float, s: float, g: float) -> float:
    """Eq. 3 written out independently of the library."""
    prod = s_l * s
    return math.log10(prod) * 10.0 ** (-g) if prod > 0.0 else float("-inf")


def check_pair(g, s, s_l, s_f, c_pixels) -> list:
    """Violated output invariants of one scored pair."""
    bad = []
    if not 0.0 <= g <= 2.0 + 1e-12:
        bad.append(f"G={g} outside [0, 2]")
    if not 0.0 <= s <= math.exp(-1.0) + 1e-12:
        bad.append(f"S={s} outside [0, 1/e]")
    ref = reference_s_f(s_l, s, g)
    if not (ref == s_f or abs(ref - s_f) <= 1e-12 * max(1.0, abs(ref))):
        bad.append(f"S_F={s_f} differs from log10(S_L*S)*10^-G={ref}")
    if not s_l <= c_pixels * (1.0 + 1e-9):
        bad.append(f"S_L={s_l} exceeds |C|={c_pixels}")
    return bad


def score_candidate(sl: Shortlist, cid: str, hyper_q, g_q, shape: Shape) -> dict:
    index = sl.tree / "index"
    hyper_c = core.read_fmap(index / f"{cid}.fmap")
    g_c = core.read_gdsc(index / f"{cid}.gdsc")
    o_ab = core.read_cmap(index / f"{cid}.ab.cmap")
    o_ba = core.read_cmap(index / f"{cid}.ba.cmap")
    g = verify.score_g(g_q, g_c)
    s, r_ab, r_ba = verify.score_pair_s(o_ab, o_ba, RANSAC)
    # S_L on the consistent set of the direction that attains S = max(S_A, S_B);
    # o_ab lives on the candidate's grid and points into the query
    beta = verify.beta_for_working_size(o_ab.height, o_ab.width)
    if verify.score_s(r_ba.num_inliers, r_ba.num_consistent, beta) > \
            verify.score_s(r_ab.num_inliers, r_ab.num_consistent, beta):
        feat_a, feat_b, o_dir, result = hyper_c, hyper_q, o_ba, r_ba
    else:
        feat_a, feat_b, o_dir, result = hyper_q, hyper_c, o_ab, r_ab
    on_c = core.resample_map(core.CorrespondenceMap(o_dir.coords, result.consistent_mask.bits),
                             shape.hyper_size, shape.hyper_size)
    c_mask = core.Mask(on_c.valid)
    s_l = verify.score_s_l(feat_a, feat_b, on_c, c_mask)
    s_f, damped = verify.score_s_f(s_l, s, g)
    return {"cid": cid, "G": g, "S": s, "S_L": s_l, "S_F": s_f, "damped": damped,
            "C_pixels": c_mask.count(), "channels": feat_a.channels,
            "results": (r_ab, r_ba)}


def rerank(sl: Shortlist, shape: Shape) -> list:
    """Score every candidate of the shortlist and rank it by S_F (ties by G)."""
    image = core.load_image(sl.query_path)
    pyr = pyramid.build_pyramid(image, working_size=shape.working_size)
    hyper_q = pyramid.extract_hypercolumn(pyr, (shape.hyper_size, shape.hyper_size))
    g_q = pyramid.compute_global_descriptor(pyr)
    scored = []
    for cid, positive, clean_ab, clean_ba in sl.candidates:
        try:
            rec = score_candidate(sl, cid, hyper_q, g_q, shape)
            rec["violations"] = check_pair(rec["G"], rec["S"], rec["S_L"], rec["S_F"],
                                           rec["C_pixels"])
        except Exception:   # a failing pair is counted, the run goes on
            rec = {"cid": cid, "violations": [traceback.format_exc()]}
        rec["positive"] = positive
        rec["clean"] = (clean_ab, clean_ba)
        scored.append(rec)
    ok = [r for r in scored if not r["violations"]]
    ok.sort(key=lambda r: (-r["S_F"], r["G"]))
    return ok + [r for r in scored if r["violations"]]


def average_precision(ranked: list) -> float:
    hits, total = 0, 0.0
    for rank, rec in enumerate(ranked, start=1):
        if rec["positive"] and not rec["violations"]:
            hits += 1
            total += hits / rank
    n_pos = sum(1 for r in ranked if r["positive"])
    return total / n_pos if n_pos else 0.0


def score_key(rec: dict) -> str:
    if rec["violations"]:
        return f"{rec['cid']} failed"
    return " ".join([rec["cid"]] + [f"{round(rec[k], 9):.9f}" for k in ("G", "S", "S_L", "S_F")])


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name: str, seed: int, seconds: float, trace: bool, work: Path,
        shape: Shape = Shape()) -> dict:
    """Set up, run the closed loop and return the result object to print."""
    wl = WORKLOADS[name]
    tracer = spans.Tracer() if trace else None
    try:
        if tracer:
            tracer.install()
        shortlists = [build_shortlist(work, name, wl, shape, seed, k)
                      for k in range(shape.shortlists)]
        if tracer:
            tracer.uninstall()
        # untimed and untraced: a failed round trip fails the sampled pair
        bad_samples = 0
        for sl in shortlists:
            problems = round_trip(sl, shape)
            bad_samples += bool(problems)
            for problem in problems:
                print(f"{sl.qid} {problem}", flush=True)
        # flush the index now, so that its write-back does not land in the timed loop
        os.sync()
        return _measure(shortlists, seconds, tracer, shape, bad_samples)
    finally:
        if tracer:
            tracer.uninstall()


def _request(sl: Shortlist, shape: Shape, tracer, qid: str):
    """Re-rank one shortlist, traced when a tracer is given; (ranked, seconds)."""
    if tracer:
        tracer.install()
        tracer.qid = qid
        root = tracer.begin("request")
    try:
        t0 = time.perf_counter()
        ranked = rerank(sl, shape)
        return ranked, time.perf_counter() - t0
    finally:
        if tracer:
            tracer.end(root)
            tracer.uninstall()


def _measure(shortlists, seconds, tracer, shape, failed) -> dict:
    first = {}            # qid -> ranked records of the first pass
    latencies, traced_latencies = [], []
    attempted = 0
    start = time.perf_counter()
    n = 0
    # every shortlist runs once, then the loop cycles until the time is up
    while n < len(shortlists) or time.perf_counter() - start < seconds:
        sl = shortlists[n % len(shortlists)]
        passno = n // len(shortlists)
        qid = f"{sl.qid}/{passno}"
        bad = set()       # candidate ids of failed pairs
        if tracer:
            # untraced and traced runs of the same request, alternating order
            by_mode = {}
            for mode in ((None, tracer) if n % 2 == 0 else (tracer, None)):
                ranked, seconds_taken = _request(sl, shape, mode, qid)
                (traced_latencies if mode else latencies).append(seconds_taken)
                by_mode[mode is not None] = ranked
            ranked = by_mode[True]
            # tracing must not change a single score
            untraced = {score_key(r) for r in by_mode[False]}
            bad |= {r["cid"] for r in ranked if score_key(r) not in untraced}
        else:
            ranked, seconds_taken = _request(sl, shape, None, qid)
            latencies.append(seconds_taken)
        attempted += len(ranked)
        bad |= {r["cid"] for r in ranked if r["violations"]}
        if passno == 0:
            first[sl.qid] = ranked
        else:
            # a repeated request must reproduce its first-pass scores exactly
            again = {score_key(r) for r in first[sl.qid]}
            bad |= {r["cid"] for r in ranked if score_key(r) not in again}
        failed += len(bad)
        for rec in ranked:
            for v in rec["violations"]:
                print(f"{sl.qid} {rec['cid']}: {v}", flush=True)
        n += 1

    runs = list(first.values())
    digest = hashlib.sha256("\n".join(
        sorted(f"{qid} {score_key(r)}" for qid, ranked in first.items() for r in ranked)
    ).encode()).hexdigest()
    info = {
        "requests": n,
        "query_samples": len(latencies),
        "pairs_scored": attempted,
        "digest": digest,
        "setup_total_s": sum(s.setup_s for s in shortlists),
        # database images generated and indexed per second of set-up
        "images_per_s": sum(s.images for s in shortlists) / sum(s.ingest_s for s in shortlists),
    }
    if tracer:
        metrics = layer_metrics(tracer, first, latencies, traced_latencies, shape)
    else:
        metrics = {
            "setup_s": (statistics.median(s.setup_s for s in shortlists), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "pairs_per_s": (attempted / sum(latencies), "1/s"),
            "query_p50_s": (statistics.median(latencies), "s"),
            "recall_at_1": (statistics.mean(
                1.0 if r and r[0]["positive"] and not r[0]["violations"] else 0.0
                for r in runs), "ratio"),
            "mean_ap": (statistics.mean(average_precision(r) for r in runs), "ratio"),
        }
    return {
        "info": info,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run
# ---------------------------------------------------------------------------

SELF_TIMED = ("verify.ransac_homography",)


def layer_metrics(tracer, first, latencies, traced_latencies, shape) -> dict:
    """Per-layer times (mean per call) and counts (set-up plus one pass)."""

    def counted(qid):
        return qid == "setup" or qid.endswith("/0")

    timing = spans.layer_stats(tracer.spans)
    counts = spans.layer_stats(tracer.spans, keep=counted)
    out = {}
    for layer in spans.LAYERS:
        calls, total, own = timing.get(layer, (0, 0.0, 0.0))
        out[f"{layer}.ms"] = (1e3 * total / calls if calls else 0.0, "ms")
        if layer in SELF_TIMED:
            out[f"{layer}.self_ms"] = (1e3 * own / calls if calls else 0.0, "ms")
        out[f"{layer}.calls"] = (counts.get(layer, (0,))[0], "count")

    pairs = [r for ranked in first.values() for r in ranked if not r["violations"]]
    directions = [res for r in pairs for res in r["results"]]
    out["verify.ransac.models_found_share"] = (
        sum(res.homography is not None for res in directions) / len(directions)
        if directions else 0.0, "ratio")
    clean = inl = 0
    for r in pairs:
        if r["positive"]:
            for res, mask in zip(r["results"], r["clean"]):
                clean += int(mask.sum())
                inl += int((res.inlier_mask.bits & mask).sum())
    out["verify.ransac.inlier_recall"] = (inl / clean if clean else 0.0, "ratio")
    out["verify.s_f.damped_share"] = (
        sum(r["damped"] for r in pairs) / len(pairs) if pairs else 0.0, "ratio")
    c_pixels = sum(r["C_pixels"] for r in pairs)
    channels = pairs[0]["channels"] if pairs else 0
    out["verify.s_l.pixels"] = (c_pixels, "count")
    # computed, not measured: four bilinear corners of float32 features per pixel
    out["verify.s_l.bytes_gathered"] = (c_pixels * 4 * channels * 4, "B")
    out["pyramid.hypercolumn.bytes"] = (shape.hyper_size ** 2 * channels * 4, "B")
    for counter in ("core.bytes_written", "core.bytes_read"):
        out[counter] = (sum(v for (qid, c), v in tracer.counters.items()
                            if c == counter and counted(qid)), "B")

    # the request span's own self time is harness work
    in_requests = spans.layer_stats(tracer.spans, keep=lambda qid: qid != "setup")
    covered = sum(own for name, (_, _, own) in in_requests.items() if name != "request")
    wall = in_requests["request"][1]
    out["trace.library_share"] = (covered / wall, "ratio")
    out["trace.overhead_share"] = (
        statistics.median(traced_latencies) / statistics.median(latencies) - 1.0, "ratio")
    return out
