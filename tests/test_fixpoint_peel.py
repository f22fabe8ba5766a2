"""The cross-flow fixpoint peel == record-at-a-time scalar ingestion.

``Collector.ingest_batch`` decodes all still-converging flows of a
batch in one fixpoint pass per context (``repro.coding.peel``,
DESIGN.md section 4): consistent digests commute, so the pass lands in
the state the in-order scalar walk reaches; a flow whose digests
conflict is left untouched and its rows take the scalar route.  Every
test here compares *full* per-flow state -- answers, reset counts,
decoded hops, open candidate sets, live pending XOR digests -- with
record-at-a-time ``Collector.ingest``, and reads the sink's
``pint_collector_decode_fallback_flows_total`` counter to know which
route the flows actually took.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coding import (
    DistributedMessage,
    PathEncoder,
    multilayer_scheme,
    pack_reps,
)
from repro.coding import store as store_mod
from repro.collector import path_consumer_factory
from repro.collector.consumers import consume_groups
from repro.obs import MetricsRegistry
from repro.replay.impair import (
    Duplicate,
    GilbertElliott,
    Reorder,
    plan_delivery,
)

from test_first_touch import (
    assert_same,
    decoder_state,
    feed_batched,
    feed_scalar,
    flow_states,
    path_stream,
    sink,
    table_order,
)

SEED = 5


def fallbacks(collector) -> dict:
    """reason -> flows the sink's peel handed to the scalar route."""
    family = collector.obs.as_dict()["families"][
        "pint_collector_decode_fallback_flows_total"
    ]
    return {
        s["labels"]["reason"]: int(s["value"]) for s in family["samples"]
    }


def counted(universe, kwargs, **collector_kwargs):
    return sink(universe, kwargs, obs=MetricsRegistry(), **collector_kwargs)


def encoders(paths, universe, bits, num_hashes, seed=SEED):
    """flow id -> PathEncoder of that flow's path (per-length scheme)."""
    return {
        fid: PathEncoder(
            DistributedMessage(list(path), universe=universe),
            multilayer_scheme(len(path)), bits, "hash", num_hashes, seed,
        )
        for fid, path in paths.items()
    }


def interleave(encs, counts, rng, bits):
    """Columns of ``counts[fid]`` packets per flow, flows interleaved
    at random, packet ids increasing."""
    fids = rng.permutation(np.repeat(list(counts), list(counts.values())))
    pids = np.arange(1, len(fids) + 1, dtype=np.int64)
    hops = np.asarray([encs[f].message.k for f in fids.tolist()])
    digs = np.asarray([
        pack_reps(encs[f].encode(p), bits)
        for f, p in zip(fids.tolist(), pids.tolist())
    ], dtype=np.int64)
    return fids.astype(np.int64), pids, hops.astype(np.int64), digs


def drawn_stream(data_seed, size, bits, num_hashes, flows, max_k, packets):
    """A clean multi-flow stream over a drawn universe and drawn paths."""
    rng = np.random.default_rng(data_seed)
    universe = sorted(
        rng.choice(10_000, size=size, replace=False).tolist()
    )
    paths = {
        fid: rng.choice(universe, size=int(rng.integers(1, max_k + 1)))
        .tolist()
        for fid in range(1, flows + 1)
    }
    encs = encoders(paths, universe, bits, num_hashes)
    counts = {fid: int(rng.integers(1, packets + 1)) for fid in paths}
    cols = interleave(encs, counts, rng, bits)
    kwargs = dict(digest_bits=bits, num_hashes=num_hashes, seed=SEED)
    return universe, cols, kwargs, paths


def half_open(states) -> tuple:
    """(flows with open narrowed candidates, flows with live pending)."""
    decoders = [s[6] for s in states.values() if s[6] is not None]
    return (
        sum(1 for d in decoders if d[4]), sum(1 for d in decoders if d[5]),
    )


class TestCleanStreamsNeverFallBack:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        data_seed=st.integers(0, 2**31),
        size=st.integers(1, 60),
        bits=st.integers(1, 8),
        num_hashes=st.sampled_from([1, 2]),
        flows=st.integers(1, 8),
        max_k=st.integers(1, 12),
        packets=st.integers(1, 60),
        batch=st.sampled_from([1, 2, 3, 7, 16, 61, 500, 8192]),
    )
    def test_drawn_queries(
        self, data_seed, size, bits, num_hashes, flows, max_k, packets, batch
    ):
        """Any universe, path lengths 1..12, digest widths down to one
        bit (hops stay open for many packets), one or two hashes, any
        batch size: same state as the scalar walk, on the fast path."""
        universe, cols, kwargs, _ = drawn_stream(
            data_seed, size, bits, num_hashes, flows, max_k, packets
        )
        batched, scalar = counted(universe, kwargs), sink(universe, kwargs)
        feed_batched(batched, cols, batch)
        feed_scalar(scalar, cols)
        assert_same(batched, scalar)
        assert sum(fallbacks(batched).values()) == 0

    @pytest.mark.parametrize("num_hashes", [1, 2])
    def test_state_carried_across_batch_boundaries(self, num_hashes):
        """Narrow digests over many flows: at every batch boundary some
        flows hold open candidate sets and live pending XOR digests,
        and the next batch's pass starts from them."""
        universe, cols, kwargs, paths = drawn_stream(
            11, 48, 3, num_hashes, 40, 12, 90
        )
        batched, scalar = counted(universe, kwargs), sink(universe, kwargs)
        seen_open = seen_pending = 0
        for lo in range(0, len(cols[0]), 256):
            part = tuple(c[lo:lo + 256] for c in cols)
            feed_batched(batched, part, 256)
            feed_scalar(scalar, part)
            assert_same(batched, scalar)
            open_now, pending_now = half_open(flow_states(batched))
            seen_open += open_now
            seen_pending += pending_now
        assert seen_open > 20 and seen_pending > 20
        assert sum(fallbacks(batched).values()) == 0
        decoded = [
            fid for fid, path in paths.items()
            if batched.flow(fid).result() == path
        ]
        assert len(decoded) > 10

    def test_two_contexts_and_mixed_lengths_in_one_batch(self):
        """Flows of two sinks' queries (different universes, widths and
        hash counts), path lengths 1..12, in one ``consume_groups``
        call: one pass per context, each flow against its own."""
        rng = np.random.default_rng(4)
        queries = [
            (list(range(100, 140)), 4, 1, 10),
            (list(range(5000, 5090)), 6, 2, 11),
        ]
        parts = []
        for universe, bits, num_hashes, seed in queries:
            paths = {
                fid: rng.choice(universe, size=k).tolist()
                for fid, k in enumerate(range(1, 13), start=1)
            }
            encs = encoders(paths, universe, bits, num_hashes, seed)
            cols = interleave(encs, {f: 25 for f in paths}, rng, bits)
            order = np.argsort(cols[0], kind="stable")
            factory = path_consumer_factory(
                universe, digest_bits=bits, num_hashes=num_hashes, seed=seed
            )
            parts.append((
                tuple(c[order] for c in cols),
                {fid: factory(fid) for fid in paths},
                {fid: factory(fid) for fid in paths},
            ))
        # One batch: query A's flow groups, then query B's.
        merged = [np.concatenate([p[0][i] for p in parts]) for i in range(4)]
        groups, offset = [], 0
        for cols, batched, scalar in parts:
            for fid, consumer in batched.items():
                rows = np.flatnonzero(cols[0] == fid)
                groups.append(
                    (consumer, offset + rows[0], offset + rows[-1] + 1)
                )
            for fid, pid, hop, dig in zip(*(c.tolist() for c in cols)):
                scalar[fid].consume(pid, hop, dig)
            offset += len(cols[0])
        assert len({g[0].context for g in groups}) == 2
        consume_groups(groups, *merged[1:])
        for _, batched, scalar in parts:
            for fid, want in scalar.items():
                got = batched[fid]
                assert got.result() == want.result()
                assert got.decode_errors == want.decode_errors == 0
                assert decoder_state(got._decoder) == decoder_state(
                    want._decoder
                )

    def test_duplicates_and_deep_reorder_stay_on_the_fast_path(self):
        """Reordering (64 deep) and duplicating honest digests changes
        no constraint, only their order: no flow falls back, and the
        state equals the scalar walk over the same delivery."""
        universe, cols, kwargs = path_stream("web-search", 6000, bits=4)
        delivery = plan_delivery(
            [Reorder(depth=64, prob=0.5, seed=2), Duplicate(prob=0.1, seed=2)],
            len(cols[0]), cols[0],
        )
        assert len(delivery) > len(cols[0])
        assert (np.diff(delivery) < 0).sum() > 100
        cols = tuple(c[delivery] for c in cols)
        batched, scalar = counted(universe, kwargs), sink(universe, kwargs)
        feed_batched(batched, cols, 700)
        feed_scalar(scalar, cols)
        assert_same(batched, scalar)
        assert sum(fallbacks(batched).values()) == 0

    def test_hop_count_disagreeing_with_the_decoder(self):
        """A flow is decoded against its decoder's path length -- the
        first record's hop count -- whatever later rows claim."""
        universe, cols, kwargs, _ = drawn_stream(3, 40, 4, 1, 12, 9, 50)
        fids, pids, hops, digs = cols
        hops = hops.copy()
        first = np.zeros(len(fids), dtype=bool)
        first[np.unique(fids, return_index=True)[1]] = True
        lie = ~first & (pids % 3 == 0)
        hops[lie] += 2
        hops[~first & (pids % 7 == 0)] = 1
        assert lie.sum() > 50
        cols = (fids, pids, hops, digs)
        batched, scalar = counted(universe, kwargs), sink(universe, kwargs)
        feed_batched(batched, cols, 97)
        feed_scalar(scalar, cols)
        assert_same(batched, scalar)
        assert sum(fallbacks(batched).values()) == 0

    @pytest.mark.parametrize(
        "scenario,lossy", [("web-search", False), ("isp-long-paths", True)]
    )
    def test_bench_traffic_takes_the_fast_path(self, scenario, lossy):
        """The counting test: on the traffic the other cases stand in
        for -- a clean ``web-search`` prefix and an ``isp-long-paths``
        prefix under the bench's loss, reorder and duplication models
        -- no flow at all is handed to the scalar route.  (That the
        answers equal the scalar walk's is ``tests/equivalence.py``.)"""
        universe, cols, kwargs = path_stream(scenario, 20_000)
        if lossy:
            delivery = plan_delivery(
                [
                    GilbertElliott(p_bad=0.02, p_good=0.2, seed=0),
                    Reorder(depth=64, prob=0.5, seed=0),
                    Duplicate(prob=0.02, seed=0),
                ],
                len(cols[0]), cols[0],
            )
            cols = tuple(c[delivery] for c in cols)
        batched = counted(universe, kwargs)
        feed_batched(batched, cols, 8192)
        assert fallbacks(batched) == {
            "empty_candidates": 0, "residual_mismatch": 0,
        }
        assert any(s[0] is not None for s in flow_states(batched).values())


class TestConflictsTakeTheScalarRoute:
    def _short_flow(self, bits=8, k=5, packets=14):
        universe = list(range(200, 248))
        rng = np.random.default_rng(9)
        paths = {1: rng.choice(universe, size=k).tolist()}
        encs = encoders(paths, universe, bits, 1)
        cols = interleave(encs, {1: packets}, rng, bits)
        return universe, cols, dict(digest_bits=bits, seed=SEED)

    def test_digest_corrupted_at_every_row_position(self):
        """Whichever row is corrupted -- before the hop it names has
        settled (DecodingError, reset, rebuild from the next row) or
        after (one inconsistency) -- the flow ends in the scalar
        walk's state, so the error landed on the same record."""
        universe, cols, kwargs = self._short_flow()
        resets = handed = 0
        for pos in range(len(cols[0])):
            digs = cols[3].copy()
            digs[pos] ^= 0x5A
            bad = cols[:3] + (digs,)
            batched, scalar = counted(universe, kwargs), sink(universe, kwargs)
            feed_batched(batched, bad, 8192)
            feed_scalar(scalar, bad)
            assert_same(batched, scalar)
            resets += batched.flow(1).decode_errors
            handed += sum(fallbacks(batched).values())
        assert resets >= 3
        assert handed >= resets

    @pytest.mark.parametrize("new_k", [5, 8], ids=["same-length", "longer"])
    def test_mid_flow_reroute(self, new_k):
        """The flow's path changes under it: digests of the new path
        contradict the old path's candidates, the decoder resets and
        re-converges on the new path -- rebuilt with the new rows' hop
        count -- exactly as record-at-a-time ingestion does."""
        universe = list(range(300, 348))
        rng = np.random.default_rng(1)
        old = rng.choice(universe, size=5).tolist()
        new = rng.choice(universe, size=new_k).tolist()
        # Four packets in: the old path is still converging.
        switch, total = 4, 200
        pids = np.arange(1, total + 1, dtype=np.int64)
        hops = np.where(pids <= switch, 5, new_k).astype(np.int64)
        by_path = encoders({0: old, 1: new}, universe, 8, 1)
        digs = np.asarray([
            pack_reps(by_path[int(pid > switch)].encode(pid), 8)
            for pid in pids.tolist()
        ], dtype=np.int64)
        cols = (np.ones(total, dtype=np.int64), pids, hops, digs)
        kwargs = dict(digest_bits=8, seed=SEED)
        for batch in (8192, 50):
            batched, scalar = counted(universe, kwargs), sink(universe, kwargs)
            feed_batched(batched, cols, batch)
            feed_scalar(scalar, cols)
            assert_same(batched, scalar)
            flow = batched.flow(1)
            assert flow.decode_errors >= 1
            assert flow._decoder.k == new_k
            assert flow.result() == new
            assert sum(fallbacks(batched).values()) >= 1

    def test_only_the_conflicting_flow_falls_back(self):
        universe, cols, kwargs, _ = drawn_stream(7, 48, 8, 1, 30, 8, 30)
        fids, pids, hops, digs = cols
        victim = int(fids[0])
        digs = np.where(fids == victim, digs ^ 0x33, digs)
        cols = (fids, pids, hops, digs)
        batched, scalar = counted(universe, kwargs), sink(universe, kwargs)
        feed_batched(batched, cols, 8192)
        feed_scalar(scalar, cols)
        assert_same(batched, scalar)
        assert sum(fallbacks(batched).values()) == 1
        assert batched.flow(victim).decode_errors >= 1


class TestShape:
    def test_large_universe_is_peeled_in_several_table_chunks(
        self, monkeypatch
    ):
        """600 new flows x 5 hops x 3,000 switch ids would be a 9 M
        entry candidate table; the pass runs the flows in runs that
        stay under ``TABLE_BLOCK``."""
        runs = []
        real = store_mod.FixpointPeel

        def counting(context, ks):
            runs.append(int(ks.sum()) * int(context.universe.size))
            return real(context, ks)

        monkeypatch.setattr(store_mod, "FixpointPeel", counting)
        rng = np.random.default_rng(8)
        universe = list(range(1000, 4000))
        paths = {
            fid: rng.choice(universe, size=5).tolist()
            for fid in range(1, 601)
        }
        encs = encoders(paths, universe, 8, 2)
        cols = interleave(encs, {f: 3 for f in paths}, rng, 8)
        kwargs = dict(digest_bits=8, num_hashes=2, seed=SEED)
        batched, scalar = counted(universe, kwargs), sink(universe, kwargs)
        feed_batched(batched, cols, 8192)
        assert len(runs) >= 2
        assert max(runs) <= store_mod.TABLE_BLOCK
        feed_scalar(scalar, cols)
        assert_same(batched, scalar)
        assert sum(fallbacks(batched).values()) == 0

    @pytest.mark.parametrize("ttl", [None, 3.0])
    def test_lru_walk(self, ttl):
        """Capacity eviction mid-batch with half-converged flows: the
        surviving incarnations carry the scalar walk's state."""
        universe, cols, kwargs = path_stream("web-search", 5000, bits=4)
        bounds = dict(max_flows_per_shard=20, ttl=ttl)
        batched = counted(universe, kwargs, **bounds)
        scalar = sink(universe, kwargs, **bounds)
        feed_batched(batched, cols, 512, clock=True)
        feed_scalar(scalar, cols, batch=512)
        assert_same(batched, scalar)
        assert table_order(batched) == table_order(scalar)
        assert batched.snapshot().evictions > 0
        open_now, pending_now = half_open(flow_states(batched))
        assert open_now and pending_now
