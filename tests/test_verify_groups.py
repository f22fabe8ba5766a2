"""The cross-flow consistency pass == per-flow scans == scalar observe.

Once a flow's path is decoded every further digest is only a
consistency check (paper §7).  ``consume_groups`` checks all such
flows of a batch in one pass per store
(``consumers.fold_rows`` -> ``PathStateStore.verify``); these tests pin
that pass, bit
for bit, to the two references it replaces work for: the per-flow
``observe_batch`` scan and the scalar ``observe`` loop.
"""

import numpy as np
import pytest

from repro.coding import (
    DistributedMessage,
    PathEncoder,
    multilayer_scheme,
    pack_reps,
)
from repro.collector import Collector, path_consumer_factory
from repro.collector import consumers as consumers_mod
from repro.collector.consumers import consume_groups
from repro.hashing import GlobalHash

BITS = 8
UNIVERSE = list(range(100, 164))

MODES = [("hash", 1), ("hash", 2), ("raw", 1)]


def make_factory(mode: str, num_hashes: int, seed: int, **kw):
    universe = UNIVERSE if mode != "raw" else ()
    return path_consumer_factory(
        universe, digest_bits=BITS, num_hashes=num_hashes, seed=seed,
        mode=mode, **kw,
    )


def make_encoders(mode: str, num_hashes: int, seed: int, ks):
    """flow id -> PathEncoder over a random path of ``ks[i]`` hops."""
    rng = np.random.default_rng(seed)
    encs = {}
    for fid, k in enumerate(ks, start=1):
        if mode == "raw":
            msg = DistributedMessage(
                [int(b) for b in rng.integers(0, 1 << BITS, k)]
            )
        elif mode == "fragment":
            msg = DistributedMessage(
                [int(b) for b in rng.integers(0, 1 << 16, k)]
            )
        else:
            msg = DistributedMessage(
                rng.choice(UNIVERSE, k).tolist(), universe=UNIVERSE
            )
        encs[fid] = PathEncoder(
            msg, multilayer_scheme(k), BITS, mode, num_hashes, seed
        )
    return encs


def make_stream(encs, rounds: int, seed: int, max_rows: int = 4,
                first_pid: int = 1):
    """Columns (fids, pids, hops, digs): every round gives each flow
    0..``max_rows`` consecutive packet ids, flows in random order."""
    rng = np.random.default_rng(seed + 1)
    fids, pids, hops, digs = [], [], [], []
    pid = first_pid
    flow_ids = list(encs)
    for _ in range(rounds):
        for fid in rng.permutation(flow_ids).tolist():
            enc = encs[fid]
            for _ in range(int(rng.integers(0, max_rows + 1))):
                fids.append(fid)
                pids.append(pid)
                hops.append(enc.message.k)
                digs.append(pack_reps(enc.encode(pid), BITS))
                pid += 1
    return tuple(
        np.asarray(c, dtype=np.int64) for c in (fids, pids, hops, digs)
    )


def state(consumer):
    """Everything the three execution paths must agree on."""
    d = consumer._decoder
    if d is None:
        return (consumer.decode_errors, None, consumer.state_bytes())
    return (
        consumer.decode_errors,
        (d.k, dict(d.decoded), d.packets_seen, d.inconsistencies,
         d.is_complete),
        consumer.state_bytes(),
    )


def flow_groups(consumers, fids):
    """Stable flow grouping of one batch, as ``ingest_batch`` does it."""
    order = np.argsort(fids, kind="stable")
    sf = fids[order]
    cuts = np.flatnonzero(sf[1:] != sf[:-1]) + 1
    bounds = np.concatenate(([0], cuts, [len(sf)])).tolist()
    groups = [
        (consumers[int(sf[lo])], lo, hi)
        for lo, hi in zip(bounds, bounds[1:])
    ]
    return order, groups


def feed_scalar(consumers, cols):
    for fid, pid, hop, dig in zip(*(c.tolist() for c in cols)):
        consumers[fid].consume(pid, hop, dig)


def feed_per_flow(consumers, cols, batch: int):
    """One ``observe_batch`` scan per flow group (the old steady state)."""
    fids, pids, hops, digs = cols
    for lo in range(0, len(fids), batch):
        sl = slice(lo, lo + batch)
        order, groups = flow_groups(consumers, fids[sl])
        p, h, d = pids[sl][order], hops[sl][order], digs[sl][order]
        for consumer, a, b in groups:
            consumer.consume_batch(p[a:b], h[a:b], d[a:b])


def feed_groups(consumers, cols, batch: int):
    """The batched front door: one ``consume_groups`` per batch."""
    fids, pids, hops, digs = cols
    for lo in range(0, len(fids), batch):
        sl = slice(lo, lo + batch)
        order, groups = flow_groups(consumers, fids[sl])
        consume_groups(
            groups, pids[sl][order], hops[sl][order], digs[sl][order]
        )


def three_ways(factory, flow_ids, cols, batch: int):
    """Feed ``cols`` through all three paths; return the consumer maps."""
    sinks = [{fid: factory(fid) for fid in flow_ids} for _ in range(3)]
    feed_scalar(sinks[0], cols)
    feed_per_flow(sinks[1], cols, batch)
    feed_groups(sinks[2], cols, batch)
    return sinks


def assert_identical(sinks, flow_ids):
    scalar, per_flow, grouped = sinks
    for fid in flow_ids:
        assert state(grouped[fid]) == state(scalar[fid]), fid
        assert state(grouped[fid]) == state(per_flow[fid]), fid


class TestCrossFlowVerification:
    #: Mixed path lengths in every batch (two selection layouts:
    #: k <= 4 and k >= 5 split the Baseline share differently).
    KS = [2, 3, 3, 4, 5, 5, 6, 7, 8, 9, 9, 4]

    @pytest.mark.parametrize("mode,num_hashes", MODES)
    @pytest.mark.parametrize("batch", [23, 400])
    def test_matches_per_flow_and_scalar(self, mode, num_hashes, batch):
        """Cold start through steady state, groups of 1-4 rows (small
        batches) and of dozens (large ones), flows completing
        mid-batch on the way."""
        encs = make_encoders(mode, num_hashes, 5, self.KS)
        cols = make_stream(encs, 260, 5)
        sinks = three_ways(make_factory(mode, num_hashes, 5), encs, cols, batch)
        assert_identical(sinks, encs)
        for fid, enc in encs.items():
            consumer = sinks[2][fid]
            assert consumer.result() == list(enc.message.blocks)
            # Clean stream, correct path: every check passes.
            assert consumer._decoder.inconsistencies == 0
            assert consumer._decoder.packets_seen == int(
                (cols[0] == fid).sum()
            )

    @pytest.mark.parametrize("mode,num_hashes", MODES)
    def test_corrupted_digests_count_on_their_flows_only(
        self, mode, num_hashes
    ):
        encs = make_encoders(mode, num_hashes, 9, self.KS)
        fids, pids, hops, digs = make_stream(encs, 300, 9)
        warm = len(fids) // 2
        corrupt = np.isin(fids, [3, 7, 12])
        corrupt[:warm] = False
        digs = np.where(corrupt, digs ^ 1, digs)
        cols = (fids, pids, hops, digs)
        sinks = three_ways(make_factory(mode, num_hashes, 9), encs, cols, 64)
        assert_identical(sinks, encs)
        for fid in encs:
            count = sinks[2][fid]._decoder.inconsistencies
            assert (count > 0) == (fid in (3, 7, 12)), (fid, count)

    @pytest.mark.parametrize("mode,num_hashes", MODES)
    def test_rows_claiming_another_hop_count(self, mode, num_hashes):
        """A complete decoder checks rows against *its* path length,
        whatever hop count later records carry."""
        encs = make_encoders(mode, num_hashes, 2, self.KS)
        fids, pids, hops, digs = make_stream(encs, 300, 2)
        warm = len(fids) // 2
        hops = hops.copy()
        hops[warm::3] += 3
        hops[warm + 1::7] = 1
        cols = (fids, pids, hops, digs)
        sinks = three_ways(make_factory(mode, num_hashes, 2), encs, cols, 50)
        assert_identical(sinks, encs)
        for fid, enc in encs.items():
            assert sinks[2][fid].result() == list(enc.message.blocks)
            assert sinks[2][fid]._decoder.inconsistencies == 0

    def test_flow_completing_mid_batch(self):
        """The batch that completes a flow peels, then hands its tail
        to the same verification kernel; the next batch takes the
        cross-flow pass."""
        encs = make_encoders("hash", 1, 3, [5, 5])
        cols = make_stream(encs, 200, 3)
        factory = make_factory("hash", 1, 3)
        scalar = {fid: factory(fid) for fid in encs}
        grouped = {fid: factory(fid) for fid in encs}
        feed_scalar(scalar, cols)
        n = len(cols[0])
        first = tuple(c[: n - 40] for c in cols)
        feed_groups(grouped, first, n)
        for fid in encs:
            consumer = grouped[fid]
            assert consumer.is_complete
            # Completed inside the batch: rows were seen past that point.
            assert consumer._decoder.packets_seen == int(
                (first[0] == fid).sum()
            )
        feed_groups(grouped, tuple(c[n - 40:] for c in cols), 40)
        for fid in encs:
            assert state(grouped[fid]) == state(scalar[fid])

    def test_two_contexts_in_one_batch(self):
        """Groups of two sinks' contexts (hash and raw) in one call:
        one pass per context, each flow against its own."""
        hash_encs = make_encoders("hash", 1, 4, [3, 6, 9])
        raw_encs = make_encoders("raw", 1, 8, [4, 7])
        hash_cols = make_stream(hash_encs, 250, 4)
        raw_cols = make_stream(raw_encs, 250, 8)
        # Disjoint flow ids; a random merge keeps each flow's order.
        raw_cols = (raw_cols[0] + 100,) + raw_cols[1:]
        n_hash, n_raw = len(hash_cols[0]), len(raw_cols[0])
        from_hash = np.random.default_rng(0).permutation(n_hash + n_raw) < n_hash
        cols = tuple(np.empty(n_hash + n_raw, dtype=np.int64) for _ in range(4))
        for merged, a, b in zip(cols, hash_cols, raw_cols):
            merged[from_hash] = a
            merged[~from_hash] = b
        h_factory = make_factory("hash", 1, 4)
        r_factory = make_factory("raw", 1, 8)

        def build():
            out = {fid: h_factory(fid) for fid in hash_encs}
            out.update({fid + 100: r_factory(fid) for fid in raw_encs})
            return out

        scalar, grouped = build(), build()
        feed_scalar(scalar, cols)
        feed_groups(grouped, cols, 128)
        contexts = {c.context for c in grouped.values()}
        assert len(contexts) == 2
        for fid in scalar:
            assert grouped[fid].is_complete
            assert state(grouped[fid]) == state(scalar[fid])

    @pytest.mark.parametrize("mode,num_hashes", MODES)
    def test_lru_walk_matches_scalar(self, mode, num_hashes):
        """Capacity eviction mid-batch: surviving incarnations and
        their counters equal record-at-a-time ingestion."""
        encs = make_encoders(mode, num_hashes, 6, self.KS)
        fids, pids, hops, digs = make_stream(encs, 220, 6)
        corrupt = (pids % 5 == 0) & (fids % 2 == 0)
        digs = np.where(corrupt & (np.arange(len(fids)) > 2000), digs ^ 1, digs)

        def mk():
            return Collector(
                make_factory(mode, num_hashes, 6), num_shards=2, seed=6,
                max_flows_per_shard=4,
            )

        scalar, batched = mk(), mk()
        for row in zip(*(c.tolist() for c in (fids, pids, hops, digs))):
            scalar.ingest(*row)
        for lo in range(0, len(fids), 300):
            batched.ingest_batch(
                fids[lo:lo + 300], pids[lo:lo + 300], hops[lo:lo + 300],
                digs[lo:lo + 300],
            )
        live = 0
        for fid in encs:
            a, b = scalar.flow(fid), batched.flow(fid)
            assert (a is None) == (b is None)
            if a is not None:
                live += 1
                assert state(a) == state(b)
        assert live

    def test_fragment_sink_bypasses_the_pass(self, monkeypatch):
        """Complete fragment-mode flows keep their per-flow path."""
        calls = []
        real = consumers_mod.fold_rows
        monkeypatch.setattr(
            consumers_mod, "fold_rows",
            lambda *a: (calls.append(len(a[1])), real(*a)),
        )
        encs = make_encoders("fragment", 1, 7, [3, 5, 6])
        cols = make_stream(encs, 500, 7)
        factory = path_consumer_factory(
            (), digest_bits=BITS, seed=7, mode="fragment", value_bits=16,
        )
        scalar = {fid: factory(fid) for fid in encs}
        grouped = {fid: factory(fid) for fid in encs}
        feed_scalar(scalar, cols)
        feed_groups(grouped, cols, 200)
        assert not calls
        for fid, enc in encs.items():
            assert grouped[fid].result() == list(enc.message.blocks)
            a, b = scalar[fid]._decoder, grouped[fid]._decoder
            assert a.packets_seen == b.packets_seen
            for sa, sb in zip(a._subdecoders, b._subdecoders):
                assert sa.decoded == sb.decoded
                assert sa.packets_seen == sb.packets_seen
                assert sa.inconsistencies == sb.inconsistencies
        # The same stream through a hash sink does take the pass.
        hash_encs = make_encoders("hash", 1, 7, [3, 5, 6])
        sink = {fid: make_factory("hash", 1, 7)(fid) for fid in hash_encs}
        feed_groups(sink, make_stream(hash_encs, 300, 7), 200)
        assert calls


class TestOnePassPerBatch:
    """Shape guard: hash passes per batch do not grow with the flows."""

    def _hash_calls(self, monkeypatch, sink, cols) -> int:
        count = [0]
        real = GlobalHash.raw_array

        def counting(self, parts, *salts):
            count[0] += 1
            return real(self, parts, *salts)

        monkeypatch.setattr(GlobalHash, "raw_array", counting)
        sink.ingest_batch(*cols)
        monkeypatch.setattr(GlobalHash, "raw_array", real)
        return count[0]

    @pytest.mark.parametrize("mode,num_hashes", MODES)
    def test_hash_array_calls_independent_of_flow_count(
        self, monkeypatch, mode, num_hashes
    ):
        encs = make_encoders(mode, num_hashes, 1, [5] * 64)
        sink = Collector(make_factory(mode, num_hashes, 1), seed=1)
        warm = make_stream(encs, 160, 1)
        sink.ingest_batch(*warm)
        assert all(sink.flow(fid).is_complete for fid in encs)
        next_pid = int(warm[1].max()) + 1
        few = make_stream(
            {fid: encs[fid] for fid in range(1, 5)}, 40, 2,
            first_pid=next_pid,
        )
        many = make_stream(encs, 3, 3, first_pid=next_pid + 10_000)
        assert len(np.unique(many[0])) == 64
        calls_few = self._hash_calls(monkeypatch, sink, few)
        calls_many = self._hash_calls(monkeypatch, sink, many)
        assert calls_few == calls_many > 0
