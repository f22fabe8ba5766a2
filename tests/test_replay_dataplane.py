"""Scalar-vs-vectorised dataplane parity (the tentpole property).

The vectorised switch chain must be *bit-identical* to the scalar
:class:`PathEncoder` under shared seeds, across all three digest
representations, and the batched multiplicative compression must match
the scalar :class:`UtilizationCodec` coin-for-coin.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.congestion import UtilizationCodec
from repro.coding import (
    DecisionReplay,
    DistributedMessage,
    PathEncoder,
    encode_columns,
    multilayer_scheme,
    pack_reps,
    pack_reps_array,
)
from repro.replay import Trace, TraceDataplane, build_trace, compress_utilizations


def wide_trace():
    """Hand-built trace with wide blocks (forces real fragmentation)."""
    paths = [(1001, 2002, 3003), (1001, 4004, 2002, 9009), (5005, 9009)]
    n = 96
    rng = np.random.default_rng(0)
    return Trace(
        ts=np.arange(n) * 1e-6,
        flow_id=rng.integers(1, 9, size=n),
        pid=np.arange(n),
        path_id=rng.integers(0, len(paths), size=n),
        size=np.full(n, 1500),
        paths=paths,
        name="wide",
    )


class TestPackRepsArray:
    @given(st.lists(st.lists(st.integers(0, 2**16 - 1), min_size=2,
                             max_size=2), min_size=1, max_size=30),
           st.integers(1, 16))
    @settings(max_examples=50)
    def test_matches_scalar(self, rows, bits):
        arr = pack_reps_array(np.asarray(rows, dtype=np.uint64), bits)
        assert arr.tolist() == [pack_reps(row, bits) for row in rows]


class TestDataplaneParity:
    @pytest.mark.parametrize("mode,digest_bits,num_hashes", [
        ("hash", 8, 1),
        ("hash", 4, 2),
        ("raw", 16, 1),
        ("fragment", 4, 1),
    ])
    def test_modes_bit_identical(self, mode, digest_bits, num_hashes):
        trace = wide_trace()
        dp = TraceDataplane(trace, digest_bits=digest_bits,
                            num_hashes=num_hashes, mode=mode, seed=5)
        rows = np.arange(len(trace))
        assert np.array_equal(dp.encode_rows(rows),
                              dp.encode_scalar_rows(rows))

    def test_scenario_trace_bit_identical(self):
        trace = build_trace("web-search", packets=1200, seed=3)
        dp = TraceDataplane(trace, seed=9)
        rows = np.arange(len(trace))
        assert np.array_equal(dp.encode_rows(rows),
                              dp.encode_scalar_rows(rows))

    def test_same_seed_same_digests(self):
        trace = build_trace("incast", packets=800, seed=1)
        rows = np.arange(len(trace))
        a = TraceDataplane(trace, seed=4).encode_rows(rows)
        b = TraceDataplane(trace, seed=4).encode_rows(rows)
        c = TraceDataplane(trace, seed=5).encode_rows(rows)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_batch_split_invariant(self):
        # Encoding in two halves equals encoding in one batch: there is
        # no cross-record state.
        trace = wide_trace()
        dp = TraceDataplane(trace, seed=2)
        rows = np.arange(len(trace), dtype=np.int64)
        whole = dp.encode_rows(rows)
        half = len(trace) // 2
        halves = np.concatenate([
            dp.encode_rows(rows[:half]), dp.encode_rows(rows[half:]),
        ])
        assert np.array_equal(whole, halves)

    def test_empty_rows(self):
        dp = TraceDataplane(wide_trace())
        assert dp.encode_rows(np.asarray([], dtype=np.int64)).size == 0

    def test_packed_width_beyond_int64_rejected(self):
        # The collector's digest column is int64; 64 packed bits would
        # wrap negative and diverge from the scalar packing.
        with pytest.raises(ValueError, match="int64"):
            TraceDataplane(wide_trace(), digest_bits=16, num_hashes=4)
        TraceDataplane(wide_trace(), digest_bits=21, num_hashes=3)  # 63: ok


class TestOneRepresentation:
    @pytest.mark.parametrize("mode", ["hash", "raw", "fragment"])
    def test_driver_dataplane_builds_one_encoder(self, monkeypatch, mode):
        from repro.replay import ReplayDriver, driver as driver_module

        built = []

        class Recording(TraceDataplane):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(driver_module, "TraceDataplane", Recording)
        trace = build_trace("web-search", packets=3000, seed=2)
        assert len(set(trace.path_id.tolist())) > 1
        ReplayDriver(batch_size=512, mode=mode).replay(trace)
        (dp,) = built
        assert len(dp._encoders) <= 1
        assert len(dp._representations) == 1
        rows = np.arange(len(trace))
        assert np.array_equal(dp.encode_rows(rows),
                              dp.encode_scalar_rows(rows))

    @pytest.mark.parametrize("kwargs", [
        dict(mode="raw", digest_bits=8),
        dict(mode="fragment", value_bits=10),
    ])
    def test_fixed_representation_refuses_what_a_path_would(self, kwargs):
        # 9009 needs 14 bits: wider than a raw 8-bit digest and than
        # a 10-bit fragment layout, on one path of three.
        dp = TraceDataplane(wide_trace(), **kwargs)
        with pytest.raises(ValueError):
            dp.encode_rows(np.arange(4))
        with pytest.raises(ValueError):
            dp.encode_scalar(int(np.flatnonzero(dp.trace.path_id == 1)[0]))

    def test_hash_switch_outside_the_universe_refused(self):
        base = wide_trace()
        trace = Trace(base.ts, base.flow_id, base.pid, base.path_id,
                      base.size, base.paths, universe=(1001, 2002, 3003))
        with pytest.raises(ValueError, match="not in universe"):
            TraceDataplane(trace, mode="hash").encode_rows(np.arange(4))


class TestCompressionParity:
    def test_compress_utilizations_matches_scalar(self):
        codec = UtilizationCodec(8, seed=3)
        rng = np.random.default_rng(1)
        n = 300
        utils = rng.uniform(0.0, 2.0, size=n)
        pids = rng.integers(0, 2**32, size=n)
        hops = rng.integers(1, 6, size=n)
        codes = compress_utilizations(codec, utils, pids, hops)
        expected = [
            codec.encode(float(u), int(p), int(h))
            for u, p, h in zip(utils, pids, hops)
        ]
        assert codes.tolist() == expected

    def test_codec_encode_array_clamps_like_scalar(self):
        codec = UtilizationCodec(8, seed=0, max_util=4.0)
        utils = np.asarray([0.0, 3.9, 4.0, 400.0])
        pids = np.asarray([1, 2, 3, 4])
        arr = codec.encode_array(utils, pids, 2)
        assert arr.tolist() == [
            codec.encode(float(u), int(p), 2) for u, p in zip(utils, pids)
        ]
        # Everything past max_util hits the top of the grid.
        assert arr[2] == arr[3]


class TestOneColumnPerBatch:
    """``encode_rows`` takes a batch as one column: rows of every path
    and path length together, in whatever order the network delivers."""

    @pytest.mark.parametrize("mode,digest_bits,num_hashes", [
        ("hash", 8, 1),
        ("hash", 4, 2),
        ("raw", 8, 1),
        ("fragment", 4, 1),
    ])
    def test_every_scenario_in_delivered_order(
        self, mode, digest_bits, num_hashes
    ):
        from repro.replay import scenario_names

        rng = np.random.default_rng(7)
        for name in scenario_names():
            trace = build_trace(name, packets=400, seed=3)
            dp = TraceDataplane(trace, digest_bits=digest_bits,
                                num_hashes=num_hashes, mode=mode, seed=5)
            # What Reorder + Duplicate hand the dataplane: a shuffled
            # row column in which some rows appear twice.
            rows = rng.permutation(len(trace))
            rows = np.concatenate((rows, rows[:60]))
            rng.shuffle(rows)
            assert np.array_equal(
                dp.encode_rows(rows), dp.encode_scalar_rows(rows)
            ), name

    def test_zero_rows_and_one_row(self):
        trace = build_trace("isp-long-paths", packets=300, seed=1)
        dp = TraceDataplane(trace, seed=2)
        none = dp.encode_rows(np.empty(0, dtype=np.int64))
        assert none.shape == (0,) and none.dtype == np.int64
        for row in (0, 17, len(trace) - 1):
            one = dp.encode_rows(np.asarray([row]))
            assert one.tolist() == [dp.encode_scalar(row)]

    def test_fragment_count_resolved_per_path_without_a_universe(self):
        # ``fragment`` with neither a universe nor ``value_bits``: each
        # path sizes its fragments by its own widest block, so rows of
        # one batch differ in representation -- never grouped by k.
        paths = [(3, 200, 17), (70000, 5, 9), (9, 1 << 20, 4, 300), (1, 2)]
        n = 240
        rng = np.random.default_rng(3)
        trace = Trace(
            ts=np.arange(n) * 1e-6, flow_id=rng.integers(1, 9, size=n),
            pid=rng.integers(0, 1 << 40, size=n),
            path_id=rng.integers(0, len(paths), size=n),
            size=np.full(n, 64), paths=paths, universe=(), name="mixed",
        )
        dp = TraceDataplane(trace, digest_bits=4, mode="fragment", seed=1)
        rows = rng.permutation(n)
        assert len(
            {dp.encoder(i).num_fragments for i in range(len(paths))}
        ) == len(paths)
        assert np.array_equal(
            dp.encode_rows(rows), dp.encode_scalar_rows(rows)
        )

    def test_compress_mixed_hop_counts_in_one_pass(self):
        codec = UtilizationCodec(8, seed=9)
        rng = np.random.default_rng(4)
        n = 500
        utils = rng.uniform(0.0, 20.0, size=n)
        pids = rng.integers(-(1 << 40), 1 << 40, size=n)
        hops = rng.integers(1, 60, size=n)
        codes = compress_utilizations(codec, utils, pids, hops)
        assert codes.dtype == np.int64
        assert codes.tolist() == [
            codec.encode(float(u), int(p), int(h))
            for u, p, h in zip(utils, pids, hops)
        ]


class TestFlatBlockIndex:
    def test_index_widened_before_the_multiply(self):
        """A trace's int32 path ids times the table width wrap in int32
        (NumPy 2 keeps ``int32 * int`` int32): the flat index into the
        path table must be computed in ``intp``.  The table is a
        zero-stride stand-in of 2**32 cells whose ``take`` records the
        index it is asked for."""
        rows, width = 1 << 20, 1 << 12
        seen = []

        class Table(np.ndarray):
            def ravel(self, *args, **kwargs):
                return self

            def take(self, indices, *args, **kwargs):
                seen.append(np.array(indices))
                return np.asarray(indices, dtype=np.int64)

        table = np.lib.stride_tricks.as_strided(
            np.zeros(1, dtype=np.int64), shape=(rows, width), strides=(0, 0)
        ).view(Table)
        enc = PathEncoder(
            DistributedMessage.from_path((1, 2, 3), (1, 2, 3)),
            multilayer_scheme(3), digest_bits=8, mode="hash", seed=5,
        )
        n = 256
        encode_columns(
            DecisionReplay(5, multilayer_scheme), enc.ctx, enc.mode,
            enc.num_fragments, np.arange(n, dtype=np.uint64),
            np.full(n, 3), table, np.full(n, rows - 1, dtype=np.int32),
        )
        (index,) = seen
        assert index.dtype == np.intp
        assert index.min() >= (rows - 1) * width
        assert index.max() < rows * width
