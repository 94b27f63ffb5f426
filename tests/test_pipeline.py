"""End-to-end scores of one seeded positive and one distractor, pinned.

Drives the library from images to S_F at a 128^2 working size: pyramid,
hypercolumns, global descriptors, S in both directions, S_L on the
consistent set of the direction that attains S, then G and S_F.  The pinned
values were computed with this code; a change to any stage that moves a
score shows here.  Warps are affine only: TPS fits go through a linear
solve whose last bits depend on the BLAS build.
"""

import sys

import numpy as np
import pytest

from corrverify import pyramid
from corrverify.core import (
    CorrespondenceMap,
    Image,
    read_cmap,
    read_fmap,
    read_gdsc,
    resample_map,
    write_cmap,
    write_fmap,
    write_gdsc,
)
from corrverify.pyramid import build_pyramid, compute_global_descriptor, extract_hypercolumn
from corrverify.synth import apply_warp, make_texture, random_warp
from corrverify.verify import (
    RansacConfig,
    beta_for_working_size,
    score_g,
    score_pair_s,
    score_s,
    score_s_f,
    score_s_l,
)

from helpers import backward_map, count_threads

SIZE = 128
RANSAC = RansacConfig(seed=5)


def smooth_random_coords(seed: int, cells: int = 6) -> np.ndarray:
    """(SIZE, SIZE, 2) in-frame coordinates: a coarse uniform random grid,
    bilinearly upsampled, so the field is locally smooth but incoherent."""
    coarse = np.random.default_rng(seed).uniform(0.0, SIZE - 1.0, (cells, cells, 2))
    t = np.linspace(0.0, cells - 1.0, SIZE)
    interp = np.stack([np.interp(t, np.arange(cells), row) for row in np.eye(cells)], axis=1)
    return np.stack([interp @ coarse[..., c] @ interp.T for c in range(2)], axis=2)


def pipeline(image_a: Image, image_b: Image, o_ab: CorrespondenceMap,
             o_ba: CorrespondenceMap) -> dict:
    """Scores of the pair (A, B); o_ab lives on B's grid and points into A."""
    pyr_a, pyr_b = build_pyramid(image_a, SIZE), build_pyramid(image_b, SIZE)
    hyper_a = extract_hypercolumn(pyr_a, (SIZE, SIZE))
    hyper_b = extract_hypercolumn(pyr_b, (SIZE, SIZE))
    g = score_g(compute_global_descriptor(pyr_a), compute_global_descriptor(pyr_b))
    s, r_ab, r_ba = score_pair_s(o_ab, o_ba, RANSAC)
    beta = beta_for_working_size(SIZE, SIZE)
    if score_s(r_ba.num_inliers, r_ba.num_consistent, beta) > \
            score_s(r_ab.num_inliers, r_ab.num_consistent, beta):
        s_l = score_s_l(hyper_b, hyper_a, o_ba, r_ba.consistent_mask)
    else:
        s_l = score_s_l(hyper_a, hyper_b, o_ab, r_ab.consistent_mask)
    s_f, _ = score_s_f(s_l, s, g)
    return {"I": (r_ab.num_inliers, r_ba.num_inliers),
            "C": (r_ab.num_consistent, r_ba.num_consistent),
            "G": g, "S": s, "S_L": s_l, "S_F": s_f}


def positive_inputs():
    """(source, warped, forward map, backward map) of the positive pair."""
    source = make_texture(SIZE, SIZE, seed=21)
    spec = random_warp("affine", 0.3, seed=21, frame_hw=(SIZE, SIZE))
    return (source, *apply_warp(source, spec), backward_map(spec))


def positive() -> dict:
    return pipeline(*positive_inputs())


def distractor() -> dict:
    o_ab = CorrespondenceMap.from_coords(smooth_random_coords(23), (SIZE, SIZE))
    o_ba = CorrespondenceMap.from_coords(smooth_random_coords(24), (SIZE, SIZE))
    return pipeline(make_texture(SIZE, SIZE, seed=21), make_texture(SIZE, SIZE, seed=22),
                    o_ab, o_ba)


# |I| and |C| as (A->B direction, B->A direction)
PINNED = {
    "positive": (positive, {
        "I": (15080, 16226), "C": (14959, 15835), "G": 0.2985123620042847,
        "S": 0.3467808520915773, "S_L": 14466.043035536613, "S_F": 1.8609593252775494}),
    # the smooth fields do not compose: each direction has too few cyclically
    # consistent pixels for S > 0, so RANSAC is skipped, I and C are empty,
    # S and S_L are 0 and the pair ranks last
    "distractor": (distractor, {
        "I": (0, 0), "C": (0, 0), "G": 0.49145924062021085,
        "S": 0.0, "S_L": 0.0, "S_F": float("-inf")}),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_scores_pinned(case):
    run, want = PINNED[case]
    got = run()
    assert got["I"] == want["I"] and got["C"] == want["C"]
    for key in ("G", "S", "S_L", "S_F"):
        assert got[key] == pytest.approx(want[key], rel=1e-9, abs=0.0), key


def test_threads_start_only_in_hypercolumns(monkeypatch, tmp_path):
    # the positive case, one resample_map to 2x size and a write and read of
    # each container: exactly one thread per extract_hypercolumn call starts,
    # and both are joined; the 3.3 MB FMAP is read on the calling thread
    started = count_threads(monkeypatch)
    hypers = []

    def hypercolumn(pyr, target_hw):
        before = len(started)
        hypers.append(pyramid.extract_hypercolumn(pyr, target_hw))
        assert len(started) == before + 1
        return hypers[-1]

    monkeypatch.setattr(sys.modules[__name__], "extract_hypercolumn", hypercolumn)
    source, warped, o_ab, o_ba = positive_inputs()
    got = pipeline(source, warped, o_ab, o_ba)
    assert got["I"] == PINNED["positive"][1]["I"]
    up = resample_map(o_ab, 2 * SIZE, 2 * SIZE)
    write_cmap(up, tmp_path / "a.cmap")
    write_fmap(hypers[0], tmp_path / "a.fmap")
    desc = compute_global_descriptor(build_pyramid(source, SIZE))
    write_gdsc(desc, tmp_path / "a.gdsc")
    back = read_cmap(tmp_path / "a.cmap")
    assert np.array_equal(back.valid, up.valid) and back.valid.any()
    assert np.array_equal(back.coords, up.coords.astype(np.float32))
    assert read_fmap(tmp_path / "a.fmap").values.tobytes() == hypers[0].values.tobytes()
    assert np.array_equal(read_gdsc(tmp_path / "a.gdsc").values, desc.values.astype(np.float32))
    assert len(hypers) == 2 and len(started) == 2
    assert not any(t.is_alive() for t in started)
