"""Tests for the low-level mixing primitives."""

import warnings

import numpy as np
from hypothesis import given, strategies as st

from repro.hashing import mix

U64 = st.integers(min_value=0, max_value=mix.MASK64)


class TestMix64:
    def test_deterministic(self):
        assert mix.mix64(12345) == mix.mix64(12345)

    def test_zero_maps_away_from_zero(self):
        assert mix.mix64(1) != 1

    @given(U64)
    def test_stays_in_64_bits(self, x):
        assert 0 <= mix.mix64(x) <= mix.MASK64

    @given(U64)
    def test_bijective_on_samples(self, x):
        # splitmix64's finaliser is a bijection; distinct nearby inputs
        # must not collide.
        assert mix.mix64(x) != mix.mix64(x ^ 1)

    def test_avalanche_rough(self):
        # Flipping one input bit should flip roughly half the output bits.
        flips = bin(mix.mix64(0xDEADBEEF) ^ mix.mix64(0xDEADBEEE)).count("1")
        assert 16 <= flips <= 48


class TestCombine:
    def test_order_sensitive(self):
        assert mix.combine(0, 1, 2) != mix.combine(0, 2, 1)

    def test_seed_sensitive(self):
        assert mix.combine(1, 5) != mix.combine(2, 5)

    @given(U64, U64)
    def test_matches_begin_fold(self, seed, part):
        assert mix.combine(seed, part) == mix.fold(mix.begin(seed), part)

    def test_empty_parts(self):
        assert mix.combine(7) == mix.begin(7)


class TestToUnit:
    @given(U64)
    def test_range(self, x):
        assert 0.0 <= mix.to_unit(x) < 1.0

    def test_uniformity_rough(self):
        vals = [mix.to_unit(mix.mix64(i)) for i in range(4000)]
        assert abs(sum(vals) / len(vals) - 0.5) < 0.03


class TestVectorisedAgreement:
    @given(st.lists(U64, min_size=1, max_size=50), U64)
    def test_fold_array_matches_scalar(self, parts, seed):
        acc = mix.begin(seed)
        arr = mix.fold_array(acc, np.array(parts, dtype=np.uint64))
        expected = [mix.fold(acc, p) for p in parts]
        assert [int(v) for v in arr] == expected

    @given(st.lists(U64, min_size=1, max_size=50))
    def test_mix64_array_matches_scalar(self, xs):
        arr = mix.mix64_array(np.array(xs, dtype=np.uint64))
        assert [int(v) for v in arr] == [mix.mix64(x) for x in xs]

    def test_array_kernels_raise_no_overflow_warning(self):
        """The kernels run without ``np.errstate``: uint64 array
        arithmetic wraps silently, 0-d inputs included, and the one
        scalar sum is taken as a masked Python int."""
        top = np.array([mix.MASK64, mix.MASK64 - 1, 1 << 63], dtype=np.uint64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert [int(v) for v in mix.mix64_array(top)] == [
                mix.mix64(int(x)) for x in top
            ]
            for acc in (mix.MASK64, mix.MASK64 - mix.GOLDEN + 1, 0):
                got = mix.fold_array(acc, top)
                assert [int(v) for v in got] == [
                    mix.fold(acc, int(x)) for x in top
                ]
                # 0-d parts and a NumPy scalar stay on the array path.
                for one in (np.asarray(top[0]), top[0]):
                    assert int(mix.fold_array(acc, one)) == mix.fold(
                        acc, int(top[0])
                    )
            assert [int(v) for v in mix.fold_zip(top, top[::-1])] == [
                mix.fold(int(a), int(b)) for a, b in zip(top, top[::-1])
            ]
            assert int(mix.fold_zip(top[0], top[1])) == mix.fold(
                int(top[0]), int(top[1])
            )

    def test_to_unit_array(self):
        xs = np.array([0, 1 << 63, mix.MASK64], dtype=np.uint64)
        out = mix.to_unit_array(xs)
        assert out[0] == 0.0
        assert abs(out[1] - 0.5) < 1e-12
        assert out[2] < 1.0


class TestStringToInt:
    def test_deterministic_across_calls(self):
        assert mix.string_to_int("g") == mix.string_to_int("g")

    def test_distinct_names(self):
        names = ["g", "h", "layer-select", "fragment-select", ""]
        vals = {mix.string_to_int(n) for n in names}
        assert len(vals) == len(names)

    def test_unicode_ok(self):
        assert isinstance(mix.string_to_int("λ-queue"), int)
