"""Self-tests of the benchmark at a tiny size.

Run from the repository root:  python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Shape(working_size=128, hyper_size=128, shortlists=1, positives=1,
                       distractors=1)


def tiny_run(tmp_path, name, seed, trace):
    work = tmp_path / f"{name}-{seed}-{int(trace)}"
    work.mkdir()
    return workloads.run(name, seed, 0.0, trace, work, TINY)


@pytest.fixture(scope="module")
def declared():
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    return bench


@pytest.mark.parametrize("trace", [False, True])
def test_metric_names_and_units_match_benchmark_json(tmp_path, declared, trace):
    for name in (w["name"] for w in declared["workloads"]):
        result = tiny_run(tmp_path, name, 3, trace)["result"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == expected


def test_workloads_match_benchmark_json(declared):
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


def test_same_seed_gives_same_digest(tmp_path):
    digests = []
    for attempt in ("first", "second"):
        (tmp_path / attempt).mkdir()
        digests.append(tiny_run(tmp_path / attempt, "rerank-nonplanar", 5, False)["info"]["digest"])
    assert digests[0] == digests[1]


def test_round_trip_catches_a_corrupted_index(tmp_path):
    wl = workloads.WORKLOADS["rerank-planar"]
    sl = workloads.build_shortlist(tmp_path, "rerank-planar", wl, TINY, 3, 0)
    assert workloads.round_trip(sl, TINY) == []
    cid, _, o_ab, _ = sl.sample
    valid_pixel = int(np.flatnonzero(o_ab.valid)[0])
    # exponent byte of a float32 after the 20- and 16-byte headers
    for name, offset in ((f"{cid}.fmap", 20 + 4 * 1000 + 3),
                         (f"{cid}.ab.cmap", 16 + 8 * valid_pixel + 3)):
        path = sl.tree / "index" / name
        data = bytearray(path.read_bytes())
        data[offset] ^= 0x40
        path.write_bytes(bytes(data))
    problems = workloads.round_trip(sl, TINY)
    assert len(problems) == 2 and all(cid in p for p in problems)


def test_self_time_never_exceeds_duration():
    # (name, start, end, parent, qid): overlapping children, a child that
    # outlives its parent and a grandchild
    tree = [
        ["request", 0.0, 10.0, -1, "q"],
        ["a", 1.0, 4.0, 0, "q"],
        ["b", 3.0, 6.0, 0, "q"],
        ["c", 9.0, 12.0, 0, "q"],
        ["d", 1.5, 2.0, 1, "q"],
        ["e", 20.0, 21.0, -1, "q"],
    ]
    own = spans.self_times(tree)
    for (name, start, end, parent, qid), s in zip(tree, own):
        assert 0.0 <= s <= end - start
    assert own == pytest.approx([10.0 - 6.0, 2.5, 3.0, 3.0, 0.5, 1.0])


def test_tracer_restores_the_library():
    from corrverify import rng, synth, verify

    before = (verify.ransac_homography, synth.fit_homography_dlt,
              rng.Lcg64.__dict__["sample_distinct"])
    tracer = spans.Tracer()
    tracer.install()
    assert verify.ransac_homography is not before[0]
    assert synth.fit_homography_dlt is verify.fit_homography_dlt
    tracer.uninstall()
    after = (verify.ransac_homography, synth.fit_homography_dlt,
             rng.Lcg64.__dict__["sample_distinct"])
    assert after == before


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rerank-planar", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
