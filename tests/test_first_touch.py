"""Differential tests for the sink's cross-flow decode of converging flows.

``Collector.ingest_batch`` decodes the still-converging flows of a
batch together: one shared :class:`~repro.coding.PathQueryContext` per
sink, one replay of the encoder decisions over the rows of all those
flows, one fixpoint peel over their candidate sets (DESIGN.md section
4; ``tests/test_fixpoint_peel.py`` pins the peel's own corners).  The
contract is the repo's usual one: every faster execution is
bit-identical to the serial scalar reference -- here record-at-a-time
``Collector.ingest`` -- in per-flow answers, decoder state, reset
counts and snapshot dicts, whatever the batch boundaries.
"""

import numpy as np
import pytest

from repro.coding import CodecContext, multilayer_scheme, pack_reps, unpack_reps
from repro.collector import (
    Collector,
    PathDigestConsumer,
    path_consumer_factory,
)
from repro.replay.dataplane import TraceDataplane
from repro.replay.scenarios import build_trace

from equivalence import decoder_state

SEED = 5

#: (mode, num_hashes, digest_bits); 4-bit fragments split every switch
#: id into several sub-problems.
CODINGS = [
    pytest.param("hash", 1, 8, id="hash-h1"),
    pytest.param("hash", 2, 8, id="hash-h2"),
    pytest.param("raw", 1, 8, id="raw"),
    pytest.param("fragment", 1, 4, id="fragment"),
]


#: Not a registered scenario: elephant-mice with neighbouring flow ids
#: merged, so one flow's rows mix paths *and hop counts* -- contradictions
#: reset its decoder, and the rebuild may land on another path length.
MIXED = "mixed-lengths"


def path_stream(scenario, packets, mode="hash", num_hashes=1, bits=8):
    """One scenario's path records as columns, plus the sink's kwargs."""
    merge = scenario == MIXED
    trace = build_trace(
        "elephant-mice" if merge else scenario, packets=packets, seed=3
    )
    dataplane = TraceDataplane(
        trace, digest_bits=bits, num_hashes=num_hashes, mode=mode, seed=SEED
    )
    digests = dataplane.encode_rows(np.arange(len(trace), dtype=np.int64))
    kwargs = dict(
        digest_bits=bits, num_hashes=num_hashes, seed=SEED, mode=mode,
        value_bits=dataplane.value_bits,
    )
    flow_ids = trace.flow_id // 2 if merge else trace.flow_id
    cols = (flow_ids, trace.pid, trace.hop_counts, digests)
    return trace.universe, cols, kwargs


def sink(universe, kwargs, factory=None, **collector_kwargs):
    if factory is None:
        factory = path_consumer_factory(universe, **kwargs)
    return Collector(factory, num_shards=4, seed=1, **collector_kwargs)


def feed_batched(collector, cols, batch, clock=False):
    n = len(cols[0])
    for lo in range(0, n, batch):
        now = float(lo // batch + 1) if clock else None
        collector.ingest_batch(*(c[lo:lo + batch] for c in cols), now=now)


def feed_scalar(collector, cols, batch=None):
    """The reference: one ``ingest`` per record (``batch`` only sets
    the clock reading each record shares with its batched twin)."""
    fids, pids, hops, digs = (c.tolist() for c in cols)
    for i in range(len(fids)):
        now = float(i // batch + 1) if batch else None
        collector.ingest(fids[i], pids[i], hops[i], digs[i], now=now)


def flow_states(collector):
    """flow id -> answers and full decoder state, for every live flow."""
    out = {}
    for shard in collector.shards:
        rows = shard.rows()
        for fid, row in zip(shard.store.flow_id[rows].tolist(), rows.tolist()):
            c = collector.flow(fid)
            out[fid] = (
                c.result(), c.partial_path(), c.decode_errors, c.progress,
                c.state_bytes(), int(shard.store.flow_records[row]),
                decoder_state(c._decoder),
            )
    return out


def table_order(collector):
    """Per shard, (flow id, generation) in LRU order."""
    return [
        list(zip(
            shard.store.flow_id[shard.rows()].tolist(),
            shard.store.generation[shard.rows()].tolist(),
        ))
        for shard in collector.shards
    ]


def snapshot_dict(collector):
    """The snapshot dict minus what legitimately depends on batching:
    the per-shard ``batches`` count, and the float summation order of
    the coverage aggregate (rounded instead)."""
    snap = collector.snapshot().as_dict()
    snap["coverage_sum"] = round(snap["coverage_sum"], 6)
    snap["mean_coverage"] = round(snap["mean_coverage"], 6)
    for shard in snap["shards"]:
        del shard["batches"]
        shard["coverage_sum"] = round(shard["coverage_sum"], 6)
    return snap


def assert_same(a, b):
    assert flow_states(a) == flow_states(b)
    assert snapshot_dict(a) == snapshot_dict(b)


class TestBatchedEqualsScalar:
    @pytest.mark.parametrize("mode,num_hashes,bits", CODINGS)
    def test_mixed_lengths(self, mode, num_hashes, bits):
        # Registered scenarios x codings are rows of tests/equivalence.py.
        universe, cols, kwargs = path_stream(
            MIXED, 5000, mode, num_hashes, bits
        )
        batched, scalar = sink(universe, kwargs), sink(universe, kwargs)
        feed_batched(batched, cols, 8192)
        feed_scalar(scalar, cols)
        assert_same(batched, scalar)
        states = flow_states(batched)
        assert any(s[0] is not None for s in states.values())
        if mode == "hash":
            # Reroutes inside a flow reset its hash decoder (raw and
            # fragment digests only count the contradiction).
            assert sum(s[2] for s in states.values()) > 0

    def test_rebuild_with_new_length_replays_the_rest_alone(self):
        """A reset followed by a row of another hop count rebuilds the
        decoder on that row's path length, and the rest of the flow's
        rows of the batch decode against it -- one batch, same state
        as record-at-a-time ingestion."""
        universe, cols, kwargs = path_stream(MIXED, 5000)
        fids, hops = cols[0], cols[2]
        batched, scalar = sink(universe, kwargs), sink(universe, kwargs)
        batched.ingest_batch(*cols)
        feed_scalar(scalar, cols)
        assert_same(batched, scalar)
        rebuilt = 0
        for fid in np.unique(fids).tolist():
            consumer = batched.flow(fid)
            first = int(hops[np.argmax(fids == fid)])
            if consumer._decoder is not None and consumer._decoder.k != first:
                assert consumer.decode_errors > 0
                rebuilt += 1
        assert rebuilt

    @pytest.mark.parametrize("ttl", [None, 3.0])
    # Unaligned sizes put batch cuts at every offset of a flow's group.
    @pytest.mark.parametrize("batch", [1, 7, 257, 512])
    def test_lru_walk(self, ttl, batch):
        universe, cols, kwargs = path_stream("elephant-mice", 5000)
        bounds = dict(max_flows_per_shard=25, ttl=ttl)
        batched = sink(universe, kwargs, **bounds)
        scalar = sink(universe, kwargs, **bounds)
        feed_batched(batched, cols, batch, clock=True)
        feed_scalar(scalar, cols, batch=batch)
        assert_same(batched, scalar)
        # The walk is record-faithful: same victims, same incarnations.
        assert table_order(batched) == table_order(scalar)
        assert batched.snapshot().evictions > 0

    def test_ttl_only_equals_flows_decoded_alone(self):
        """Without a capacity bound TTL is batch-granular (not scalar-
        faithful), so the reference here is the same batching with
        every flow on a private context -- each decoded on its own."""
        universe, cols, kwargs = path_stream("elephant-mice", 5000)
        shared = sink(universe, kwargs, ttl=2.0)
        alone = sink(
            universe, kwargs, ttl=2.0,
            factory=lambda fid: PathDigestConsumer(universe, **kwargs),
        )
        feed_batched(shared, cols, 512, clock=True)
        feed_batched(alone, cols, 512, clock=True)
        assert_same(shared, alone)
        assert shared.snapshot().evictions > 0


def corrupt(universe, cols, num_hashes, which):
    """Make row ``which`` of every 2+-row flow contradict the universe.

    Only Baseline rows are touched (an XOR digest with several unknown
    hops is parked, not checked): rep 0 is replaced by a value no
    universe member hashes to for that packet, so the first candidate
    filter comes back empty and the decoder raises ``DecodingError``.
    Returns the new digest column and the flows corrupted.
    """
    fids, pids, hops, digs = cols
    digs = digs.copy()
    uni = np.asarray(sorted(universe), dtype=np.int64)
    hit = []
    for fid in np.unique(fids).tolist():
        rows = np.flatnonzero(fids == fid)
        if rows.size < 2:
            continue
        row = int(rows[which])
        pid, k = int(pids[row]), int(hops[rows[0]])
        codec = CodecContext(multilayer_scheme(k), 8, num_hashes, SEED)
        if codec.layer_of(pid) != 0:
            continue
        taken = set(codec.h[0].bits_array(8, uni, pid).tolist())
        miss = next(v for v in range(256) if v not in taken)
        reps = list(unpack_reps(int(digs[row]), 8, num_hashes))
        reps[0] = miss
        digs[row] = pack_reps(reps, 8)
        hit.append(fid)
    return digs, hit


class TestCorruptDigests:
    @pytest.mark.parametrize("num_hashes", [1, 2])
    @pytest.mark.parametrize("which", [0, 1], ids=["first-row", "second-row"])
    def test_reset_then_rebuild_from_next_row(self, which, num_hashes):
        universe, cols, kwargs = path_stream(
            "elephant-mice", 5000, num_hashes=num_hashes
        )
        digs, hit = corrupt(universe, cols, num_hashes, which)
        cols = cols[:3] + (digs,)
        batched, scalar = sink(universe, kwargs), sink(universe, kwargs)
        feed_batched(batched, cols, 8192)
        feed_scalar(scalar, cols)
        assert_same(batched, scalar)
        errors = {f: batched.flow(f).decode_errors for f in hit}
        assert len(hit) > 20
        if which == 0:
            # A fresh decoder cannot absorb the contradiction.
            assert all(e >= 1 for e in errors.values())
        else:
            assert sum(e >= 1 for e in errors.values()) > len(hit) // 2


class TestStandaloneConsumer:
    @pytest.mark.parametrize("mode,num_hashes,bits", CODINGS)
    def test_equals_factory_built(self, mode, num_hashes, bits):
        """A ``PathDigestConsumer`` built on its own (private context)
        and fed through the public per-flow entry points lands in the
        state the sink's shared-context consumer reaches."""
        universe, cols, kwargs = path_stream(
            "elephant-mice", 5000, mode, num_hashes, bits
        )
        collector = sink(universe, kwargs)
        feed_batched(collector, cols, 8192)
        fids = cols[0]
        busiest = np.argsort(np.bincount(fids))[-3:].tolist()
        for fid in busiest:
            rows = np.flatnonzero(fids == fid)
            pids, hops, digs = (c[rows] for c in cols[1:])
            got = PathDigestConsumer(universe, **kwargs)
            half = len(rows) // 2
            got.consume_batch(pids[:half], hops[:half], digs[:half])
            got.consume_batch(pids[half:], hops[half:], digs[half:])
            want = collector.flow(fid)
            assert got.result() == want.result()
            assert got.partial_path() == want.partial_path()
            assert got.decode_errors == want.decode_errors
            assert got.state_bytes() == want.state_bytes()
            assert decoder_state(got._decoder) == decoder_state(want._decoder)
