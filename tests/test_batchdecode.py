"""Golden equivalence tests for the columnar batch-decode engine.

The contract under test (DESIGN.md §4): the scalar peeling decoders
define the semantics; ``observe_batch`` and the collector's
``consume_batch`` paths are execution-layer rewrites that must land in
the *identical* state -- decoded hops, candidate sets, counters,
reset behaviour -- for every mode (raw / hash / fragment), path
length, seed, batch split and column permutation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.congestion import UtilizationCodec
from repro.approx import MultiplicativeCompressor
from repro.coding import (
    DistributedMessage,
    FragmentDecoder,
    PathEncoder,
    make_decoder,
    multilayer_scheme,
    pack_reps,
    unpack_reps,
    unpack_reps_array,
)
from repro.collector import (
    Collector,
    ParallelCollector,
    latency_consumer_factory,
    path_consumer_factory,
)
from repro.net import fat_tree


def build_codec(mode: str, k: int, bits: int, num_hashes: int, seed: int):
    """A (message, encoder) pair exercising one digest representation."""
    rng = np.random.default_rng(seed * 1000 + k)
    if mode == "hash":
        universe = list(range(100, 180))
        msg = DistributedMessage(
            rng.choice(universe, k).tolist(), universe=universe
        )
    elif mode == "raw":
        msg = DistributedMessage(
            [int(b) for b in rng.integers(0, 1 << bits, k)]
        )
    else:
        msg = DistributedMessage(
            [int(b) for b in rng.integers(0, 1 << 20, k)]
        )
    enc = PathEncoder(
        msg, multilayer_scheme(k), bits, mode, num_hashes, seed
    )
    return msg, enc


def assert_same_state(scalar, batch, mode: str) -> None:
    """The full decoder-state equivalence check."""
    assert scalar.is_complete == batch.is_complete
    assert scalar.missing == batch.missing
    assert scalar.packets_seen == batch.packets_seen
    if mode == "fragment":
        for a, b in zip(scalar._subdecoders, batch._subdecoders):
            assert a.decoded == b.decoded
            assert a.inconsistencies == b.inconsistencies
            assert a.packets_seen == b.packets_seen
    else:
        assert scalar.decoded == batch.decoded
        assert scalar.inconsistencies == batch.inconsistencies
    if mode == "hash":
        for hop in range(1, scalar.k + 1):
            assert scalar.candidates_left(hop) == batch.candidates_left(hop)
    if scalar.is_complete:
        assert scalar.path() == batch.path()


class TestDecoderBatchEquivalence:
    """observe_batch == observe()-in-order, bit for bit."""

    @pytest.mark.parametrize("mode", ["raw", "hash", "fragment"])
    @pytest.mark.parametrize("k", [1, 3, 7, 13])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_batch_matches_scalar(self, mode, k, seed):
        num_hashes = 2 if mode == "hash" and seed else 1
        bits = 8
        msg, enc = build_codec(mode, k, bits, num_hashes, seed)
        scalar = make_decoder(enc)
        batch = make_decoder(enc)
        n = 60 * k
        pids = np.arange(1, n + 1, dtype=np.int64)
        rows = [enc.encode(int(p)) for p in pids]
        for p, row in zip(pids, rows):
            scalar.observe(int(p), row)
        mat = np.asarray(rows, dtype=np.uint64)
        # Ragged chunking exercises completion landing mid-chunk.
        for lo in range(0, n, 37):
            batch.observe_batch(pids[lo:lo + 37], mat[lo:lo + 37])
        assert_same_state(scalar, batch, mode)
        assert scalar.is_complete, "stream long enough to decode"
        assert scalar.path() == list(msg.blocks)

    @pytest.mark.parametrize("mode", ["raw", "hash", "fragment"])
    def test_partial_stream_matches(self, mode):
        """Equivalence holds while the flow is still undecodable."""
        k = 11
        msg, enc = build_codec(mode, k, 8, 1, 3)
        scalar = make_decoder(enc)
        batch = make_decoder(enc)
        pids = np.arange(1, 9, dtype=np.int64)
        rows = [enc.encode(int(p)) for p in pids]
        for p, row in zip(pids, rows):
            scalar.observe(int(p), row)
        batch.observe_batch(pids, np.asarray(rows, dtype=np.uint64))
        assert not scalar.is_complete
        assert_same_state(scalar, batch, mode)

    def test_empty_batch_is_noop(self):
        _, enc = build_codec("hash", 4, 8, 1, 0)
        dec = make_decoder(enc)
        dec.observe_batch(
            np.empty(0, dtype=np.int64), np.empty((0, 1), dtype=np.uint64)
        )
        assert dec.packets_seen == 0

    def test_bad_reps_shape_rejected(self):
        _, enc = build_codec("hash", 4, 8, 2, 0)
        dec = make_decoder(enc)
        with pytest.raises(ValueError):
            dec.observe_batch(
                np.arange(3), np.zeros((3, 1), dtype=np.uint64)
            )

    @settings(max_examples=25, deadline=None)
    @given(
        mode=st.sampled_from(["raw", "hash", "fragment"]),
        n=st.integers(min_value=1, max_value=120),
        perm_seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_shuffled_permutation_matches_scalar(self, mode, n, perm_seed):
        """Property: decode order does not change the decoded state.

        A shuffled column permutation batch-decodes to the same final
        state as the scalar in-order loop over the original stream --
        on honest digests every constraint keeps the true value, so
        the peeling closure is confluent.  Small ``n`` keeps many runs
        partially decodable, which is the interesting regime.
        """
        k = 9
        msg, enc = build_codec(mode, k, 8, 1, 1)
        scalar = make_decoder(enc)
        batch = make_decoder(enc)
        pids = np.arange(1, n + 1, dtype=np.int64)
        rows = [enc.encode(int(p)) for p in pids]
        for p, row in zip(pids, rows):
            scalar.observe(int(p), row)
        perm = np.random.default_rng(perm_seed).permutation(n)
        batch.observe_batch(
            pids[perm], np.asarray(rows, dtype=np.uint64)[perm]
        )
        assert_same_state(scalar, batch, mode)


class TestVectorisedReplays:
    """The array hash replays behind the engine, lane-for-lane."""

    def test_unpack_reps_array_matches_scalar(self):
        rng = np.random.default_rng(0)
        for bits, reps in ((8, 2), (4, 3), (16, 1)):
            packed = rng.integers(0, 1 << (bits * reps), 200)
            mat = unpack_reps_array(packed, bits, reps)
            for row, digest in zip(mat, packed):
                assert tuple(int(v) for v in row) == unpack_reps(
                    int(digest), bits, reps
                )


class TestDecodeArrays:
    """Table-gather decodes are bit-identical to the scalar decodes."""

    def test_multiplicative_decode_array(self):
        comp = MultiplicativeCompressor(0.025, bits=8, max_value=1e5)
        codes = np.arange(256, dtype=np.int64)
        got = comp.decode_array(codes)
        assert got.tolist() == [comp.decode(int(c)) for c in codes]

    def test_multiplicative_decode_array_rejects_negative(self):
        comp = MultiplicativeCompressor(0.025, bits=8, max_value=1e5)
        with pytest.raises(ValueError):
            comp.decode_array(np.asarray([3, -1]))

    def test_utilization_decode_array(self):
        codec = UtilizationCodec(8, seed=2)
        codes = np.arange(256, dtype=np.int64)
        assert codec.decode_array(codes).tolist() == [
            codec.decode(int(c)) for c in codes
        ]


def path_stream(seed: int, rounds: int, num_hashes: int = 1):
    """A columnar multi-flow path-query stream over real topology paths."""
    topo = fat_tree(4)
    universe = topo.switch_universe()
    rng = np.random.default_rng(seed)
    flows = {}
    for fid in range(1, 10):
        src, dst = rng.choice(topo.hosts, 2, replace=False)
        flows[fid] = topo.switch_path(int(src), int(dst))
    bits = 8
    encs = {
        fid: PathEncoder(
            DistributedMessage.from_path(p, universe),
            multilayer_scheme(len(p)), bits, "hash", num_hashes, seed,
        )
        for fid, p in flows.items()
    }
    fids, pids, hops, digs = [], [], [], []
    pid = 0
    for _ in range(rounds):
        for fid, enc in encs.items():
            pid += 1
            fids.append(fid)
            pids.append(pid)
            hops.append(len(flows[fid]))
            digs.append(pack_reps(enc.encode(pid), bits))
    cols = tuple(np.asarray(c, dtype=np.int64) for c in (fids, pids, hops, digs))
    return cols, flows, universe, bits


class TestCollectorBatchDecode:
    """ingest vs ingest_batch through the full collector stack."""

    @pytest.mark.parametrize("num_hashes", [1, 2])
    def test_path_batch_matches_scalar(self, num_hashes):
        cols, flows, universe, bits = path_stream(4, 350, num_hashes)
        mk = lambda: Collector(
            path_consumer_factory(
                universe, digest_bits=bits, num_hashes=num_hashes, seed=4
            ),
            num_shards=4, seed=4,
        )
        scalar, batched = mk(), mk()
        fids, pids, hops, digs = cols
        for i in range(len(fids)):
            scalar.ingest(
                int(fids[i]), int(pids[i]), int(hops[i]), int(digs[i])
            )
        for lo in range(0, len(fids), 700):
            batched.ingest_batch(
                fids[lo:lo + 700], pids[lo:lo + 700],
                hops[lo:lo + 700], digs[lo:lo + 700],
            )
        for fid, path in flows.items():
            a, b = scalar.flow(fid), batched.flow(fid)
            assert a.is_complete and b.is_complete
            assert a.result() == b.result() == path
            assert a.decode_errors == b.decode_errors == 0
            assert a._decoder.packets_seen == b._decoder.packets_seen
            assert a._decoder.inconsistencies == b._decoder.inconsistencies

    def test_garbage_stream_resets_identically(self):
        """DecodingError resets land on the same records, scalar or batch."""
        universe = fat_tree(4).switch_universe()
        mk = lambda: path_consumer_factory(
            universe, digest_bits=8, seed=1, d=4
        )(1)
        scalar, batched = mk(), mk()
        n = 600
        pids = np.arange(1, n + 1, dtype=np.int64)
        hops = np.full(n, 4, dtype=np.int64)
        digs = (pids * 17) % 251
        for i in range(n):
            scalar.consume(int(pids[i]), 4, int(digs[i]))
        for lo in range(0, n, 97):
            batched.consume_batch(
                pids[lo:lo + 97], hops[lo:lo + 97], digs[lo:lo + 97]
            )
        assert scalar.decode_errors == batched.decode_errors >= 1
        assert (scalar._decoder is None) == (batched._decoder is None)
        if scalar._decoder is not None:
            assert scalar._decoder.decoded == batched._decoder.decoded
            assert (
                scalar._decoder.packets_seen
                == batched._decoder.packets_seen
            )

    @pytest.mark.parametrize("sketch_size", [None, 64], ids=["raw", "sketch"])
    def test_latency_batch_matches_scalar(self, sketch_size):
        """A latency sink's state does not depend on how it was fed.

        Scalar ``ingest``, ``ingest_batch`` at three batch sizes and a
        two-worker sink at batch 512 store the same samples at every
        hop -- the raw list, or the KLL compactor buffers -- and
        snapshot alike, bar the per-shard ``batches`` counter.
        """
        rng = np.random.default_rng(8)
        n = 4000
        cols = (
            rng.integers(1, 10, n), np.arange(1, n + 1),
            rng.integers(2, 8, n), rng.integers(0, 256, n),
        )
        fids = np.unique(cols[0]).tolist()

        def factory():
            return latency_consumer_factory(
                bits=8, seed=2, sketch_size=sketch_size
            )

        def state(sink):
            flows = [
                {
                    hop: (store.count, store.sketch_size, store._raw,
                          store._sketch and store._sketch._compactors)
                    for hop, store in consumer._stores.items()
                }
                for consumer in sink.flows(fids)
            ]
            snap = sink.snapshot().as_dict()
            for shard in snap["shards"]:
                del shard["batches"]
            return flows, snap

        def feed(sink, batch):
            for lo in range(0, n, batch):
                sink.ingest_batch(*(c[lo:lo + batch] for c in cols))
            return sink

        scalar = Collector(factory(), num_shards=2)
        for record in zip(*(c.tolist() for c in cols)):
            scalar.ingest(*record)
        want = state(scalar)
        for batch in (64, 512, 8192):
            assert state(feed(Collector(factory(), num_shards=2), batch)) == want
        with ParallelCollector(factory(), workers=2, num_shards=2) as par:
            feed(par, 512).drain()
            assert state(par) == want

    def test_single_record_batches_match_scalar(self):
        """Batch size 1 exercises every scalar-fallback cutoff."""
        cols, flows, universe, bits = path_stream(2, 80)
        mk = lambda: Collector(
            path_consumer_factory(universe, digest_bits=bits, seed=4),
            num_shards=1,
        )
        scalar, batched = mk(), mk()
        fids, pids, hops, digs = cols
        for i in range(len(fids)):
            scalar.ingest(int(fids[i]), int(pids[i]), int(hops[i]), int(digs[i]))
            batched.ingest_batch(
                fids[i:i + 1], pids[i:i + 1], hops[i:i + 1], digs[i:i + 1]
            )
        for fid in flows:
            a, b = scalar.flow(fid), batched.flow(fid)
            assert a.result() == b.result()
            assert a.progress == b.progress


class TestStateAccounting:
    """Resident-bytes accounting over the array-backed decoder state."""

    def test_fragment_and_raw_decoders_report_bytes(self):
        for mode in ("raw", "fragment"):
            _, enc = build_codec(mode, 5, 8, 1, 0)
            dec = make_decoder(enc)
            assert dec.state_bytes() >= 0
            pids = np.arange(1, 400, dtype=np.int64)
            mat = np.asarray(
                [enc.encode(int(p)) for p in pids], dtype=np.uint64
            )
            dec.observe_batch(pids, mat)
            assert dec.is_complete
            assert dec.state_bytes() > 0
            if mode == "fragment":
                assert isinstance(dec, FragmentDecoder)

    def test_complete_decoder_counts_decoded_array(self):
        _, enc = build_codec("hash", 5, 8, 1, 0)
        dec = make_decoder(enc)
        pids = np.arange(1, 400, dtype=np.int64)
        mat = np.asarray([enc.encode(int(p)) for p in pids], dtype=np.uint64)
        dec.observe_batch(pids, mat)
        assert dec.is_complete
        before = dec.state_bytes()
        assert dec._decoded_arr is not None
        assert before >= dec._decoded_arr.nbytes

    def test_snapshot_bytes_never_negative_after_eviction(self):
        """Invariant: eviction shrinks the estimate, never below zero."""
        cols, flows, universe, bits = path_stream(1, 200)
        col = Collector(
            path_consumer_factory(universe, digest_bits=bits, seed=4),
            num_shards=2, max_flows_per_shard=2,
        )
        fids, pids, hops, digs = cols
        sizes = []
        for lo in range(0, len(fids), 256):
            col.ingest_batch(
                fids[lo:lo + 256], pids[lo:lo + 256],
                hops[lo:lo + 256], digs[lo:lo + 256],
            )
            snap = col.snapshot()
            assert snap.state_bytes >= 0
            assert all(s.state_bytes >= 0 for s in snap.shards)
            sizes.append(snap.state_bytes)
        assert col.snapshot().evictions > 0, "capacity 2/shard must evict"
        full = col.snapshot().state_bytes
        for fid in list(flows):
            col.evict(fid)
        drained = col.snapshot().state_bytes
        assert 0 <= drained <= full
