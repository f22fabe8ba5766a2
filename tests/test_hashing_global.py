"""Tests for GlobalHash and the reservoir/XOR coordination helpers."""

import collections

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hashing import (
    GlobalHash,
    acting_hops_fast,
    reservoir_carrier,
    reservoir_write,
    xor_acting_hops,
)


class TestGlobalHashBasics:
    def test_same_seed_same_function(self):
        a, b = GlobalHash(7, "g"), GlobalHash(7, "g")
        assert a.raw(1, 2) == b.raw(1, 2)

    def test_different_names_independent(self):
        a, b = GlobalHash(7, "g"), GlobalHash(7, "h")
        assert a.raw(1, 2) != b.raw(1, 2)

    def test_derive_differs_from_parent(self):
        g = GlobalHash(7, "g")
        assert g.derive("x").raw(1) != g.raw(1)

    def test_string_parts(self):
        g = GlobalHash(0)
        assert g.raw("flow-a") != g.raw("flow-b")

    def test_bits_width(self):
        g = GlobalHash(3)
        for width in (1, 4, 8, 16, 64):
            v = g.bits(width, 42)
            assert 0 <= v < (1 << width)

    def test_bits_bad_width(self):
        g = GlobalHash(3)
        with pytest.raises(ValueError):
            g.bits(0, 1)
        with pytest.raises(ValueError):
            g.bits(65, 1)

    def test_uniform_range_and_mean(self):
        g = GlobalHash(11, "u")
        vals = [g.uniform(i) for i in range(5000)]
        assert all(0.0 <= v < 1.0 for v in vals)
        assert abs(sum(vals) / len(vals) - 0.5) < 0.02

    def test_bernoulli_rate(self):
        g = GlobalHash(5, "b")
        hits = sum(g.bernoulli(0.3, i) for i in range(10000))
        assert 0.27 < hits / 10000 < 0.33

    def test_choice_uniform(self):
        g = GlobalHash(9, "c")
        counts = collections.Counter(g.choice(4, i) for i in range(8000))
        for v in range(4):
            assert 1700 < counts[v] < 2300

    def test_weighted_choice_distribution(self):
        g = GlobalHash(13, "w")
        counts = collections.Counter(
            g.weighted_choice([0.5, 0.25, 0.25], i) for i in range(8000)
        )
        assert 3700 < counts[0] < 4300
        assert 1700 < counts[1] < 2300

    def test_weighted_choice_bad_weights(self):
        g = GlobalHash(0)
        with pytest.raises(ValueError):
            g.weighted_choice([0.0, 0.0], 1)


class TestVectorAgreement:
    @given(st.integers(0, 2**32), st.integers(1, 60))
    @settings(max_examples=50)
    def test_uniform_array_matches_scalar(self, base, hop):
        g = GlobalHash(17, "g")
        pids = np.arange(base, base + 20, dtype=np.uint64)
        arr = g.uniform_array(pids, hop)
        for i, pid in enumerate(range(base, base + 20)):
            assert arr[i] == g.uniform(hop, pid)

    def test_bits_array_matches_scalar(self):
        g = GlobalHash(23, "h")
        vals = np.arange(100, dtype=np.int64)
        arr = g.bits_array(8, vals, 999)
        for i in range(100):
            assert int(arr[i]) == g.bits(8, 999, i)

    @given(st.integers(1, 64), st.integers(0, 2**32))
    @settings(max_examples=50)
    def test_choice_array_matches_scalar(self, n, base):
        g = GlobalHash(29, "c")
        parts = np.arange(base, base + 30, dtype=np.int64)
        arr = g.choice_array(n, parts)
        for i, part in enumerate(range(base, base + 30)):
            assert int(arr[i]) == g.choice(n, part)

    def test_choice_array_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            GlobalHash(0).choice_array(0, np.arange(3))


class TestReservoir:
    def test_hop_one_always_writes(self):
        g = GlobalHash(1, "g")
        assert all(reservoir_write(g, pid, 1) for pid in range(200))

    def test_carrier_in_range(self):
        g = GlobalHash(2, "g")
        for pid in range(200):
            assert 1 <= reservoir_carrier(g, pid, 7) <= 7

    def test_carrier_uniform(self):
        # The core §4.1 claim: each hop carries with probability 1/k.
        g = GlobalHash(3, "g")
        k, n = 5, 20000
        counts = collections.Counter(reservoir_carrier(g, pid, k) for pid in range(n))
        for hop in range(1, k + 1):
            assert abs(counts[hop] / n - 1 / k) < 0.02

    def test_bad_hop(self):
        g = GlobalHash(0)
        with pytest.raises(ValueError):
            reservoir_write(g, 1, 0)


class TestXorActing:
    def test_probability(self):
        g = GlobalHash(6, "g")
        k, p, n = 20, 0.25, 3000
        total = sum(len(xor_acting_hops(g, pid, k, p)) for pid in range(n))
        assert abs(total / (n * k) - p) < 0.02

    def test_deterministic(self):
        g = GlobalHash(6, "g")
        assert xor_acting_hops(g, 42, 10, 0.3) == xor_acting_hops(g, 42, 10, 0.3)

    def test_fast_variant_probability(self):
        # acting_hops_fast uses AND-ed bitvectors: p = 2^-t exactly.
        g = GlobalHash(8, "bv")
        k, t, n = 32, 3, 4000
        total = sum(len(acting_hops_fast(g, pid, k, t)) for pid in range(n))
        assert abs(total / (n * k) - 2**-t) < 0.02

    def test_fast_variant_range(self):
        g = GlobalHash(8, "bv")
        for pid in range(100):
            hops = acting_hops_fast(g, pid, 16, 2)
            assert all(1 <= h <= 16 for h in hops)
            assert len(set(hops)) == len(hops)


class TestGridForms:
    """The pairwise and hop-major array forms, lane for lane."""

    @given(st.integers(0, 2**32), st.integers(0, 2**32))
    @settings(max_examples=50)
    def test_uniform_zip_matches_scalar(self, base, salt_base):
        g = GlobalHash(31, "u")
        firsts = np.arange(base, base + 30, dtype=np.uint64)
        seconds = (np.arange(30, dtype=np.int64) * 7 + salt_base) % 61
        arr = g.uniform_zip(firsts, seconds)
        for i in range(30):
            # Per-lane part first, then the per-lane second part --
            # the (packet, hop) key order.
            assert arr[i] == g.uniform(int(firsts[i]), int(seconds[i]))

    def test_hop_salts_rebuild_the_per_hop_hash(self):
        from repro.hashing import mix

        g = GlobalHash(5, "g")
        salts = g.hop_salts(12)
        assert salts.shape == (12,) and g.hop_salts(0).shape == (0,)
        for hop in (1, 2, 7, 12):
            for pid in (0, 1, 2**63 + 5, 2**64 - 1):
                assert mix.mix64(int(salts[hop - 1]) ^ pid) == g.raw(hop, pid)
