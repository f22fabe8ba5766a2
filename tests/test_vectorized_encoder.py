"""Tests for the vectorised bulk encoder and lane-wise hash folds."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coding import (
    DistributedMessage,
    PathEncoder,
    baseline_scheme,
    hybrid_scheme,
    multilayer_scheme,
)
from repro.hashing import GlobalHash, mix


class TestFoldLanes:
    """Pairwise folds over lanes, lane for lane against the scalar."""

    @given(st.lists(st.tuples(st.integers(0, mix.MASK64),
                              st.integers(0, mix.MASK64)),
                    min_size=1, max_size=40))
    @settings(max_examples=50)
    def test_fold_zip_matches_scalar(self, pairs):
        accs = np.array([a for a, _ in pairs], dtype=np.uint64)
        parts = np.array([p for _, p in pairs], dtype=np.uint64)
        arr = mix.fold_zip(accs, parts)
        assert [int(v) for v in arr] == [mix.fold(a, p) for a, p in pairs]

    def test_bits_zip_matches_scalar(self):
        h = GlobalHash(9, "h")
        pids = np.arange(100, dtype=np.uint64)
        blocks = np.arange(500, 600, dtype=np.int64)
        arr = h.bits_zip(8, pids, blocks)
        for i in range(100):
            assert int(arr[i]) == h.bits(8, i, 500 + i)

    def test_bits_zip_width_checked(self):
        with pytest.raises(ValueError):
            GlobalHash(0).bits_zip(65, np.arange(3), np.arange(3))


class TestEncodeMany:
    @pytest.mark.parametrize("scheme_factory,num_hashes", [
        (baseline_scheme, 1),
        (lambda: hybrid_scheme(8), 1),
        (lambda: multilayer_scheme(8), 2),
    ])
    def test_matches_scalar_encode(self, scheme_factory, num_hashes):
        uni = tuple(range(500, 600))
        msg = DistributedMessage(tuple(range(500, 508)), uni)
        enc = PathEncoder(msg, scheme_factory(), digest_bits=8,
                          num_hashes=num_hashes, seed=3)
        pids = np.arange(1, 501, dtype=np.uint64)
        bulk = enc.encode_many(pids)
        for i, pid in enumerate(pids):
            assert tuple(int(x) for x in bulk[i]) == enc.encode(int(pid))

    def test_shape(self):
        uni = tuple(range(30))
        msg = DistributedMessage((1, 2, 3), uni)
        enc = PathEncoder(msg, baseline_scheme(), digest_bits=4, num_hashes=2)
        out = enc.encode_many(np.arange(10))
        assert out.shape == (10, 2)
        assert out.max() < 16

    def test_raw_mode_rejected(self):
        msg = DistributedMessage((1, 2, 3))
        enc = PathEncoder(msg, baseline_scheme(), digest_bits=8, mode="raw")
        with pytest.raises(ValueError):
            enc.encode_many(np.arange(4))

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 3))
    @settings(max_examples=10, deadline=None)
    def test_property_equivalence(self, k, bits, seed):
        uni = tuple(range(100, 140))
        blocks = tuple(100 + (i * 7 + seed) % 40 for i in range(k))
        msg = DistributedMessage(blocks, uni)
        enc = PathEncoder(msg, multilayer_scheme(max(2, k)),
                          digest_bits=bits, seed=seed)
        pids = np.arange(1, 101, dtype=np.uint64)
        bulk = enc.encode_many(pids)
        for i in (0, 17, 63, 99):
            assert tuple(int(x) for x in bulk[i]) == enc.encode(int(pids[i]))
