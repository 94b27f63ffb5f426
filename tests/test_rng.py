"""Bit-portable LCG sampling used for RANSAC hypothesis draws."""

import hashlib
import threading

import numpy as np
import pytest

from corrverify.rng import Lcg64, derive_seed

# sha256 of the int64 bytes of 500 consecutive sample_distinct(n, 4) draws;
# at n = 3 * 2**30 about a quarter of the raw 32-bit draws are rejected
DRAW_DIGESTS = {
    (0, 5): "5283fffba5f67e3bdb3d35f1052bf69352da0426a6459f25fd1c51908972394e",
    (0, 14400): "3878aca3d46666318437b7bd9ac5576ca84801959070c928e99151672bb914a6",
    (0, 3 << 30): "b25db1be44e810996dc8ef686de087ba94a23e9defc1df57c1db3d0a100f9459",
    (1, 5): "06c88e4b35346733ef3651278cc0cd474bbb2c2184ccefff01fd5275f29add9f",
    (1, 14400): "a45dfe2b3e9753680ef5e789f5624b0d8ab72ef03608be672b2a87bde632762f",
    (1, 3 << 30): "e66e713456ccd06f7b0a53fc77f7b96b7c4c4f128d9d8e859944d1407c17adbf",
}


class TestLcg64:
    @pytest.mark.parametrize("seed, n", sorted(DRAW_DIGESTS))
    def test_sample_distinct_stream_pinned(self, seed, n):
        rng = Lcg64(seed)
        draws = np.array([rng.sample_distinct(n, 4) for _ in range(500)], dtype=np.int64)
        assert all(len(set(row)) == 4 for row in draws.tolist())
        assert draws.min() >= 0 and draws.max() < n
        assert hashlib.sha256(draws.tobytes()).hexdigest() == DRAW_DIGESTS[seed, n]

    def test_bad_bounds_rejected(self):
        rng = Lcg64(0)
        with pytest.raises(ValueError):
            rng.below(0)
        with pytest.raises(ValueError):
            rng.sample_distinct(3, 4)

    @pytest.mark.parametrize("k, match", [
        (-1, "k must be >= 0, got -1"), (2.5, "k must be an integer"),
        (True, "k must be an integer")])
    def test_draw_count_outside_range_rejected(self, k, match):
        # unchecked, k = -1 returned [], 2.5 three indices and True one
        with pytest.raises(ValueError, match=match):
            Lcg64(0).sample_distinct(3, k)

    @pytest.mark.parametrize("n", [2.5, True])
    def test_non_integer_range_rejected(self, n):
        # unchecked, n = 2.5 drew [1.5, 0.5]
        with pytest.raises(ValueError, match=f"n must be an integer, got {n!r}"):
            Lcg64(1).sample_distinct(n, 1)

    def test_draw_count_bounds_accepted(self):
        assert Lcg64(0).sample_distinct(3, 0) == []
        assert sorted(Lcg64(0).sample_distinct(3, np.int64(3))) == [0, 1, 2]
        assert Lcg64(0).sample_distinct(np.int64(5), 4) == Lcg64(0).sample_distinct(5, 4)

    def test_bound_above_draw_range_rejected(self):
        # lim = 2**32 - 2**32 % n is 0 for n > 2**32, so a rejection loop
        # without the check would never return; run it where a hang shows
        errors = []

        def draw():
            rng = Lcg64(0)
            for call in (lambda: rng.below((1 << 32) + 5),
                         lambda: rng.sample_distinct((1 << 32) + 5, 4)):
                try:
                    call()
                except ValueError as exc:
                    errors.append(exc)

        t = threading.Thread(target=draw, daemon=True)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
        assert len(errors) == 2

    def test_full_draw_range_accepted(self):
        # n = 2**32 rejects nothing: each draw is the top half of the state
        rng, raw = Lcg64(3), Lcg64(3)
        for _ in range(100):
            assert rng.below(1 << 32) == raw._step() >> 32
        assert len(set(rng.sample_distinct(1 << 32, 4))) == 4

    @pytest.mark.parametrize("seed", [1.7, True, "5"])
    def test_non_integer_rejected(self, seed):
        # int() would truncate 1.7 and True to 1 and parse "5"
        with pytest.raises(ValueError, match=f"seed must be an integer, got {seed!r}"):
            Lcg64(seed)

    def test_numpy_integers_accepted(self):
        assert Lcg64(np.int64(5)).state == Lcg64(5).state
        assert Lcg64(np.uint64((1 << 64) - 1)).state == Lcg64((1 << 64) - 1).state


class TestDeriveSeed:
    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_out_of_range_rejected(self, seed):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            derive_seed(seed, "warp")

    def test_range_ends_accepted(self):
        assert derive_seed(0) != derive_seed((1 << 64) - 1)

    @pytest.mark.parametrize("seed", [1.7, True, "5"])
    def test_non_integer_rejected(self, seed):
        # int() would truncate 1.7 and True to 1 and parse "5"
        with pytest.raises(ValueError, match=f"seed must be an integer, got {seed!r}"):
            derive_seed(seed, "warp")

    def test_numpy_integers_accepted(self):
        assert derive_seed(np.int64(5), "warp") == derive_seed(5, "warp")
        assert derive_seed(np.uint64((1 << 64) - 1)) == derive_seed((1 << 64) - 1)
