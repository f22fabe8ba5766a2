"""Tests for value approximation (paper §4.3, Appendices B/C)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.approx import (
    AdditiveCompressor,
    FixedPoint,
    LogExpTables,
    MorrisCounter,
    MultiplicativeCompressor,
    delta_for_bits,
    epsilon_for_bits,
    morris_bits_bound,
)
from repro.hashing import GlobalHash


class TestMultiplicative:
    def test_roundtrip_error_bound(self):
        comp = MultiplicativeCompressor(epsilon=0.01)
        for v in [1.0, 3.7, 100.0, 1e6, 4.2e9]:
            assert comp.relative_error(v) <= 0.011

    @given(st.floats(min_value=1.0, max_value=1e12))
    @settings(max_examples=200)
    def test_error_bound_property(self, v):
        comp = MultiplicativeCompressor(epsilon=0.05)
        # One eps-step grid: error bounded by (1+eps)^1 - 1 plus rounding.
        assert comp.relative_error(v) <= 0.051

    def test_paper_16bit_example(self):
        # §4.3: eps = 0.0025 compresses 32-bit values into 16 bits.
        comp = MultiplicativeCompressor(epsilon=0.0025, bits=16)
        assert comp.encode(2**32 - 1) < 2**16

    def test_paper_8bit_hpcc_example(self):
        # §4.3 example #3: 8 bits support eps = 0.025 for utilisation.
        comp = MultiplicativeCompressor(epsilon=0.025, bits=8, max_value=2**17)
        assert comp.encode(2**17) < 2**8

    def test_bits_overflow_rejected(self):
        with pytest.raises(ValueError):
            MultiplicativeCompressor(epsilon=0.0001, bits=8)

    def test_monotone(self):
        comp = MultiplicativeCompressor(epsilon=0.02)
        codes = [comp.encode(v) for v in [1, 10, 100, 1000, 10000]]
        assert codes == sorted(codes)

    def test_small_values_to_zero(self):
        comp = MultiplicativeCompressor(epsilon=0.1)
        assert comp.encode(0.0) == 0
        assert comp.encode(0.5) == 0

    def test_negative_rejected(self):
        comp = MultiplicativeCompressor(epsilon=0.1)
        with pytest.raises(ValueError):
            comp.encode(-1.0)

    def test_randomized_rounding_unbiased(self):
        # [.]_R: E[code] equals the exact log, eliminating systematic error.
        comp = MultiplicativeCompressor(epsilon=0.05)
        grid = GlobalHash(1, "rr")
        value = 500.0
        exact = math.log(value) / math.log(comp.base)
        codes = [comp.encode_randomized(value, grid, pid) for pid in range(20000)]
        assert abs(sum(codes) / len(codes) - exact) < 0.02

    def test_randomized_rounding_deterministic_per_key(self):
        comp = MultiplicativeCompressor(epsilon=0.05)
        grid = GlobalHash(1, "rr")
        assert comp.encode_randomized(77.7, grid, 5) == comp.encode_randomized(
            77.7, grid, 5
        )

    def test_epsilon_for_bits(self):
        eps = epsilon_for_bits(16)
        comp = MultiplicativeCompressor(epsilon=eps * 1.001, bits=16)
        assert comp.encode(2**32 - 1) < 2**16

    @given(st.lists(st.floats(min_value=0.0, max_value=1e10), min_size=1,
                    max_size=40))
    @settings(max_examples=50)
    def test_encode_array_matches_scalar(self, values):
        comp = MultiplicativeCompressor(epsilon=0.025)
        arr = comp.encode_array(np.asarray(values))
        assert arr.tolist() == [comp.encode(v) for v in values]

    def test_encode_array_rejects_negative(self):
        comp = MultiplicativeCompressor(epsilon=0.1)
        with pytest.raises(ValueError):
            comp.encode_array(np.asarray([1.0, -2.0]))
        with pytest.raises(ValueError):
            comp.encode_randomized_array(
                np.asarray([-1.0]), np.asarray([0.5])
            )

    @given(st.lists(st.floats(min_value=0.0, max_value=1e10), min_size=1,
                    max_size=40), st.integers(0, 2**31))
    @settings(max_examples=50)
    def test_encode_randomized_array_matches_scalar(self, values, base):
        # Feeding the vectorised path the scalar path's own keyed coins
        # must reproduce its codes lane-for-lane.
        comp = MultiplicativeCompressor(epsilon=0.025)
        grid = GlobalHash(3, "rr")
        pids = np.arange(base, base + len(values), dtype=np.int64)
        coins = np.asarray([grid.uniform(int(pid), 7) for pid in pids])
        arr = comp.encode_randomized_array(np.asarray(values), coins)
        expected = [
            comp.encode_randomized(v, grid, int(pid), 7)
            for v, pid in zip(values, pids)
        ]
        assert arr.tolist() == expected


class TestAdditive:
    @given(st.floats(min_value=0.0, max_value=1e9))
    @settings(max_examples=200)
    def test_error_at_most_delta(self, v):
        comp = AdditiveCompressor(delta=50.0)
        assert comp.absolute_error(v) <= 50.0 + 1e-6

    def test_roundtrip_grid_points(self):
        comp = AdditiveCompressor(delta=2.0)
        assert comp.decode(comp.encode(8.0)) == 8.0

    def test_delta_for_bits(self):
        delta = delta_for_bits(8, 1000.0)
        comp = AdditiveCompressor(delta=delta, bits=8, max_value=1000.0)
        assert comp.encode(1000.0) < 2**8

    def test_invalid(self):
        with pytest.raises(ValueError):
            AdditiveCompressor(delta=0.0)
        with pytest.raises(ValueError):
            AdditiveCompressor(delta=1.0).encode(-3.0)


class TestMorris:
    def test_estimate_close_on_average(self):
        estimates = []
        for seed in range(30):
            counter = MorrisCounter(a=0.1, grid=GlobalHash(seed, "m"))
            for _ in range(1000):
                counter.increment()
            estimates.append(counter.estimate())
        mean = sum(estimates) / len(estimates)
        assert 800 < mean < 1200

    def test_exponent_is_small(self):
        counter = MorrisCounter(a=1.0, grid=GlobalHash(0, "m"))
        for _ in range(10000):
            counter.increment()
        # log2-ish growth: exponent stays near log2(n).
        assert counter.exponent < 40

    def test_bits_needed(self):
        counter = MorrisCounter(a=1.0)
        assert counter.bits_needed(2**20) <= 6

    def test_bound_formula(self):
        assert morris_bits_bound(0.1, 1, 32) < 16


class TestFixedPoint:
    def test_roundtrip_resolution(self):
        fp = FixedPoint(scale=2.0, m=16)
        for v in [0.0, 0.5, 1.0, 1.19, 1.999]:
            assert abs(fp.decode(fp.encode(v)) - v) <= fp.resolution

    def test_paper_example(self):
        # Appendix C: range [0,2], m=16, code 39131 represents ~1.19.
        fp = FixedPoint(scale=2.0, m=16)
        assert abs(fp.decode(39131) - 1.194) < 0.01

    def test_clamping(self):
        fp = FixedPoint(scale=1.0, m=8)
        assert fp.encode(5.0) == 255
        assert fp.encode(-1.0) == 0

    def test_bad_code(self):
        fp = FixedPoint(scale=1.0, m=4)
        with pytest.raises(ValueError):
            fp.decode(16)


class TestLogExpTables:
    def test_log2_accuracy(self):
        tables = LogExpTables(q=8)
        for x in [3, 100, 12345, 2**20 + 17, 2**40 + 999]:
            assert abs(tables.log2(x) - math.log2(x)) < 0.01

    def test_exp2_accuracy(self):
        tables = LogExpTables(q=8)
        for y in [0.1, 1.5, 7.25, 20.9]:
            assert abs(tables.exp2(y) / (2**y) - 1.0) < 0.01

    def test_multiply_within_error(self):
        tables = LogExpTables(q=8)
        for x, y in [(7, 9), (123, 456), (10000, 3)]:
            rel = abs(tables.multiply(x, y) / (x * y) - 1.0)
            assert rel < 3 * tables.max_relative_error()

    def test_divide_within_error(self):
        tables = LogExpTables(q=8)
        for x, y in [(100, 7), (5, 8), (999999, 1234)]:
            rel = abs(tables.divide(x, y) / (x / y) - 1.0)
            assert rel < 3 * tables.max_relative_error()

    def test_zero_cases(self):
        tables = LogExpTables(q=8)
        assert tables.multiply(0, 5) == 0.0
        assert tables.divide(0, 5) == 0.0
        with pytest.raises(ValueError):
            tables.log2(0)
        with pytest.raises(ValueError):
            tables.divide(1, 0)
