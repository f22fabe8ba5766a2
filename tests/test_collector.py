"""Tests for the sink-side streaming collector (repro.collector)."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coding import (
    DistributedMessage,
    PathEncoder,
    make_decoder,
    multilayer_scheme,
    pack_reps,
)
from repro.collector import (
    Collector,
    CongestionDigestConsumer,
    Shard,
    ShardRouter,
    congestion_consumer_factory,
    latency_consumer_factory,
    normalize_batch,
    path_consumer_factory,
)
from repro.collector.consumers import ConsumerRows
from repro.net import fat_tree
from repro.sim.experiment import run_hpcc_experiment
from repro.sim.workload import hadoop_cdf


_pack = pack_reps


def lone_shard(**bounds) -> Shard:
    """A shard over a store of its own, of congestion consumer objects."""
    return Shard(0, ConsumerRows(lambda fid: CongestionDigestConsumer()), **bounds)


def flow_order(shard) -> list:
    """The shard's flow ids, LRU-oldest first."""
    return shard.store.flow_id[shard.rows()].tolist()


class TestShardRouting:
    def test_same_flow_same_shard(self):
        router = ShardRouter(16, seed=5)
        for flow_id in range(1, 500):
            first = router.shard_of(flow_id)
            assert all(router.shard_of(flow_id) == first for _ in range(3))
            assert 0 <= first < 16

    def test_scalar_matches_vectorised(self):
        router = ShardRouter(8, seed=1)
        fids = np.arange(1, 4000, dtype=np.int64)
        arr = router.shard_of_array(fids)
        assert all(
            router.shard_of(int(f)) == int(s) for f, s in zip(fids, arr)
        )

    def test_spread_across_shards(self):
        router = ShardRouter(8, seed=0)
        counts = np.bincount(
            router.shard_of_array(np.arange(8000)), minlength=8
        )
        assert counts.min() > 0.5 * 1000  # roughly balanced

    def test_collector_places_flow_once(self):
        col = Collector(congestion_consumer_factory(), num_shards=8, seed=2)
        for i in range(200):
            col.ingest(42, i, 5, i % 256)
        snap = col.snapshot()
        assert snap.flows == 1
        assert snap.records == 200
        assert snap.max_shard_flows == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardRouter(0)


class TestShardIndex:
    def test_lru_eviction_order(self):
        shard = lone_shard(max_flows=3)
        for fid in (1, 2, 3):
            shard.touch_row(fid, now=float(fid))
        shard.touch_row(1, now=4.0)   # 2 is now the least recent
        shard.touch_row(4, now=5.0)   # evicts 2
        assert flow_order(shard) == [3, 1, 4]
        assert shard.lru_evictions == 1

    def test_evicted_flow_reinitializes_cleanly(self):
        shard = lone_shard(max_flows=1)
        store = shard.store
        row = shard.touch_row(7, now=0.0)
        first, generation = store.consumers[row], store.generation[row]
        first.consume(1, 5, 200)
        shard.touch_row(8, now=1.0)   # evicts 7
        again = store.consumers[shard.touch_row(7, now=2.0)]
        assert store.generation[store.index.find_one(7)] > generation
        assert again is not first
        assert again.records == 0
        assert again.max_code == -1

    def test_ttl_expiry(self):
        shard = lone_shard(ttl=10.0)
        shard.touch_row(1, now=0.0)
        shard.touch_row(2, now=8.0)
        assert shard.expire(now=15.0) == 1    # flow 1 idle > ttl
        assert flow_order(shard) == [2]
        assert shard.ttl_evictions == 1

    def test_ttl_via_collector(self):
        col = Collector(congestion_consumer_factory(), num_shards=2, ttl=5.0)
        col.ingest(1, 1, 3, 10, now=0.0)
        col.ingest(2, 2, 3, 10, now=4.0)
        evicted = col.expire(now=20.0)
        assert evicted == 2
        assert len(col) == 0
        assert col.flow(1) is None

    def test_clock_modes_cannot_mix(self):
        col = Collector(congestion_consumer_factory(), num_shards=2, ttl=5.0)
        col.ingest(1, 1, 3, 10, now=1.0)
        with pytest.raises(ValueError):
            col.ingest(1, 2, 3, 10)            # free-running after timed
        with pytest.raises(ValueError):
            col.ingest_batch([1], [3], [3], [1])
        free = Collector(congestion_consumer_factory(), num_shards=2)
        free.ingest(1, 1, 3, 10)
        with pytest.raises(ValueError):
            free.ingest(1, 2, 3, 10, now=2.0)  # timed after free-running
        with pytest.raises(ValueError):
            free.expire(now=2.0)               # wall-clock sweep, too
        assert free.expire() == 0              # clock-native sweep is fine

    def test_validation(self):
        with pytest.raises(ValueError):
            lone_shard(max_flows=0)
        with pytest.raises(ValueError):
            lone_shard(ttl=0.0)


class TestBatchedIngest:
    def test_batch_matches_scalar_state(self):
        rng = np.random.default_rng(3)
        n = 4000
        fids = rng.integers(1, 100, n)
        pids = np.arange(1, n + 1)
        hops = np.full(n, 5)
        digs = rng.integers(0, 256, n)
        scalar = Collector(congestion_consumer_factory(), num_shards=4, seed=7)
        batched = Collector(congestion_consumer_factory(), num_shards=4, seed=7)
        for i in range(n):
            scalar.ingest(int(fids[i]), int(pids[i]), int(hops[i]), int(digs[i]))
        batched.ingest_batch(fids, pids, hops, digs)
        for fid in np.unique(fids):
            a, b = scalar.flow(int(fid)), batched.flow(int(fid))
            assert a.max_code == b.max_code
            assert a.last_code == b.last_code
            assert a.records == b.records
        assert scalar.snapshot().records == batched.snapshot().records == n
        assert scalar.snapshot().flows == batched.snapshot().flows

    def test_batch_accepts_plain_lists(self):
        col = Collector(congestion_consumer_factory(), num_shards=1)
        assert col.ingest_batch([1, 1, 2], [1, 2, 3], [4, 4, 4], [9, 3, 5]) == 3
        assert col.flow(1).max_code == 9
        assert col.flow(2).max_code == 5

    def test_empty_batch(self):
        col = Collector(congestion_consumer_factory(), num_shards=2)
        assert col.ingest_batch([], [], [], []) == 0
        assert len(col) == 0

    def test_ragged_batch_rejected(self):
        with pytest.raises(ValueError):
            normalize_batch([1, 2], [1], [1, 1], [0, 0])

    def test_2d_flow_column_rejected(self):
        with pytest.raises(ValueError):
            normalize_batch([[1, 2], [3, 4], [5, 6]], [1, 2, 3],
                            [1, 1, 1], [7, 8, 9])

    def test_single_shard_fast_path(self):
        col = Collector(congestion_consumer_factory(), num_shards=1)
        col.ingest_batch([3, 4, 3], [1, 2, 3], [2, 2, 2], [7, 1, 2])
        assert col.flow(3).records == 2
        assert col.flow(4).records == 1

    def test_batches_counted_per_call_not_per_group(self):
        col = Collector(congestion_consumer_factory(), num_shards=2, seed=0)
        n = 200  # 100 distinct flows spread over both shards
        col.ingest_batch(
            np.arange(n) % 100, np.arange(n), np.full(n, 3), np.arange(n)
        )
        snap = col.snapshot()
        # One ingest_batch call bumps each touched shard once, however
        # many flow groups it fans out into.
        assert sum(s.batches for s in snap.shards) <= col.num_shards
        assert snap.records == n


class TestPathCollector:
    def test_decodes_same_path_as_harness(self):
        """Acceptance: collector-backed decode == PathTracer's decode.

        Same topology path, scheme, digest layout and seed as the
        ``PathTracer`` harness uses internally (PathEncoder +
        make_decoder): the collector must recover the identical switch
        path, and in the identical number of packets.
        """
        topo = fat_tree(4)
        src, dst = topo.hosts[0], topo.hosts[-1]
        path = topo.switch_path(src, dst)
        universe = topo.switch_universe()
        seed, bits, hashes = 42, 8, 2
        scheme = multilayer_scheme(len(path))
        message = DistributedMessage.from_path(path, universe)
        encoder = PathEncoder(message, scheme, bits, "hash", hashes, seed)
        reference = make_decoder(encoder)

        col = Collector(
            path_consumer_factory(
                universe, digest_bits=bits, num_hashes=hashes,
                seed=seed, scheme=scheme,
            ),
            num_shards=4,
            seed=seed,
        )
        flow_id = 11
        harness_done = None
        collector_done = None
        for pid in range(1, 100_000):
            reps = encoder.encode(pid)
            if harness_done is None:
                reference.observe(pid, reps)
                if reference.is_complete:
                    harness_done = pid
            if collector_done is None:
                col.ingest(flow_id, pid, len(path), _pack(reps, bits))
                if col.flow(flow_id).is_complete:
                    collector_done = pid
            if harness_done and collector_done:
                break
        assert harness_done == collector_done
        assert reference.path() == path
        assert col.result(flow_id) == path

    def test_many_flows_batched(self):
        topo = fat_tree(4)
        universe = topo.switch_universe()
        rng = np.random.default_rng(0)
        flows = {}
        for fid in range(1, 9):
            src, dst = rng.choice(topo.hosts, 2, replace=False)
            flows[fid] = topo.switch_path(int(src), int(dst))
        seed, bits = 5, 8
        encoders = {
            fid: PathEncoder(
                DistributedMessage.from_path(p, universe),
                multilayer_scheme(len(p)), bits, "hash", 1, seed,
            )
            for fid, p in flows.items() if len(p) >= 1
        }
        # Default factory: the scheme adapts per flow to the observed
        # hop count, matching each encoder's multilayer_scheme(len(p)).
        col = Collector(
            path_consumer_factory(universe, digest_bits=bits, seed=seed),
            num_shards=4,
        )
        pid = 0
        for _round in range(400):
            fids, pids, hops, digs = [], [], [], []
            for fid, enc in encoders.items():
                pid += 1
                fids.append(fid)
                pids.append(pid)
                hops.append(len(flows[fid]))
                digs.append(_pack(enc.encode(pid), bits))
            col.ingest_batch(fids, pids, hops, digs)
            if all(col.flow(f).is_complete for f in encoders):
                break
        for fid in encoders:
            assert col.result(fid) == flows[fid]

    def test_decode_error_resets_consumer(self):
        """A digest stream that contradicts itself resets, not wedges."""
        topo = fat_tree(4)
        universe = topo.switch_universe()
        consumer = path_consumer_factory(universe, digest_bits=8, seed=1, d=4)(1)
        # Feed garbage digests long enough to force a contradiction.
        for pid in range(1, 400):
            consumer.consume(pid, 4, pid % 251)
            if consumer.decode_errors:
                break
        assert consumer.decode_errors >= 1


class TestLatencyCollector:
    def test_quantiles_track_truth(self):
        from repro.apps.latency import LatencyCompressor
        from repro.hashing import GlobalHash, reservoir_carrier

        seed, bits, k = 3, 12, 4
        comp = LatencyCompressor(bits, seed=seed)
        g = GlobalHash(seed, "latency-reservoir")
        rng = np.random.default_rng(1)
        truth = {hop: [] for hop in range(1, k + 1)}
        col = Collector(
            latency_consumer_factory(bits=bits, seed=seed), num_shards=2
        )
        for pid in range(1, 4001):
            lat = {hop: float(rng.uniform(1e-5, 1e-3) * hop)
                   for hop in range(1, k + 1)}
            carrier = reservoir_carrier(g, pid, k)
            truth[carrier].append(lat[carrier])
            col.ingest(1, pid, k, comp.encode(lat[carrier], pid, carrier))
        consumer = col.flow(1)
        assert consumer.is_complete
        for hop in range(1, k + 1):
            assert consumer.samples_at(hop) == len(truth[hop])
            est = consumer.quantile(hop, 0.5)
            exact = float(np.quantile(truth[hop], 0.5))
            assert est == pytest.approx(exact, rel=0.25)

    def test_sketch_bounds_state(self):
        col_raw = Collector(latency_consumer_factory(bits=8), num_shards=1)
        col_sk = Collector(
            latency_consumer_factory(bits=8, sketch_size=64), num_shards=1
        )
        for pid in range(1, 3001):
            col_raw.ingest(1, pid, 5, pid % 200)
            col_sk.ingest(1, pid, 5, pid % 200)
        assert (
            col_sk.snapshot().state_bytes < col_raw.snapshot().state_bytes
        )


class TestSnapshot:
    def test_counters_and_dict(self):
        col = Collector(
            congestion_consumer_factory(), num_shards=4,
            max_flows_per_shard=8, seed=1,
        )
        rng = np.random.default_rng(2)
        n = 2000
        col.ingest_batch(
            rng.integers(1, 200, n), np.arange(n), np.full(n, 4),
            rng.integers(0, 256, n),
        )
        snap = col.snapshot()
        assert snap.records == n
        assert snap.flows == len(col) <= 4 * 8
        assert snap.evictions > 0            # 199 flows into 32 slots
        assert snap.completion_rate == 1.0   # congestion: any record completes
        assert snap.state_bytes > 0
        d = snap.as_dict()
        assert d["records"] == n and len(d["shards"]) == 4

    def test_completion_rate_partial(self):
        topo = fat_tree(4)
        universe = topo.switch_universe()
        col = Collector(
            path_consumer_factory(universe, digest_bits=8, seed=0, d=4),
            num_shards=1,
        )
        col.ingest(1, 1, 4, 0)  # one digest: nowhere near decoded
        snap = col.snapshot()
        assert snap.flows == 1 and snap.completed_flows == 0
        assert snap.completion_rate == 0.0


class TestDESIntegration:
    def test_collector_rejected_for_non_pint_modes(self):
        from repro.sim.experiment import build_telemetry

        col = Collector(congestion_consumer_factory(), num_shards=1)
        for mode in ("int", "none"):
            with pytest.raises(ValueError):
                build_telemetry(mode, collector=col)

    def test_collector_backed_hpcc_run(self):
        col = Collector(
            congestion_consumer_factory(seed=0), num_shards=4, seed=0
        )
        result = run_hpcc_experiment(
            "pint",
            load=0.3,
            cdf=hadoop_cdf(0.05),
            link_rate_bps=50e6,
            duration=0.05,
            max_flows=20,
            seed=0,
            collector=col,
        )
        snap = col.snapshot()
        assert result.flows      # the run itself completed flows
        assert snap.records > 0  # ...and streamed digests while running
        assert snap.flows > 0
        assert snap.taken_at > 0.0  # clock rode the sim time
        for fid in col.answers().flow_id.tolist():
            u = col.flow(fid).bottleneck()
            # Randomised rounding can land one grid step above the
            # codec's max_util anchor (16).
            assert u is not None and 0.0 <= u <= 17.0


class TestShardRouterEdgeIds:
    """The parallel scatter relies on scalar/vector routing agreeing
    on *every* representable flow id, not just small ones."""

    def test_extreme_int64_ids_scalar_matches_vectorised(self):
        router = ShardRouter(16, seed=3)
        edge = np.array([0, 1, 2**62, 2**63 - 1], dtype=np.int64)
        arr = router.shard_of_array(edge)
        assert [router.shard_of(int(v)) for v in edge] == arr.tolist()

    def test_random_uint64_ids_scalar_matches_vectorised(self):
        rng = np.random.default_rng(9)
        fids = rng.integers(0, 2**64, size=2000, dtype=np.uint64)
        router = ShardRouter(8, seed=1)
        arr = router.shard_of_array(fids)
        assert int(arr.min()) >= 0 and int(arr.max()) < 8
        assert all(
            router.shard_of(int(v)) == int(s) for v, s in zip(fids, arr)
        )

    def test_uint64_boundary_ids(self):
        router = ShardRouter(4, seed=2)
        for v in (0, 2**63 - 1, 2**63, 2**64 - 1):
            arr = router.shard_of_array(np.array([v], dtype=np.uint64))
            assert router.shard_of(v) == int(arr[0])


class TestShardTTLBoundaries:
    def test_entry_exactly_ttl_old_is_evicted(self):
        # expire() keeps only entries *strictly* newer than the
        # deadline: last_seen == now - ttl is gone.
        shard = lone_shard(ttl=10.0)
        shard.touch_row(1, now=0.0)
        shard.touch_row(2, now=0.0 + 1e-9)
        assert shard.expire(now=10.0) == 1
        assert flow_order(shard) == [2]

    def test_expire_stops_at_the_first_keeper(self):
        # A sweep drops the LRU prefix up to the first keeper: a flow
        # touched later, at an earlier clock reading, waits for it.
        shard = lone_shard(ttl=10.0)
        shard.touch_row(1, now=10.0)
        shard.touch_row(2, now=5.0)
        assert shard.expire(now=17.0) == 0
        assert flow_order(shard) == [1, 2]
        assert shard.expire(now=20.0) == 2
        assert flow_order(shard) == []

    def test_maybe_expire_amortisation_window(self):
        shard = lone_shard(ttl=8.0)
        shard.touch_row(1, now=0.0)
        assert shard.maybe_expire(0.0) == 0     # arms the sweep clock
        shard.touch_row(2, now=9.0)
        # 9.0 - 0.0 >= ttl/4, so this sweep runs and catches flow 1
        # (idle 9.0 > ttl 8.0).
        assert shard.maybe_expire(9.0) == 1
        # within ttl/4 of the last sweep: no sweep, whatever is due
        assert shard.maybe_expire(10.0) == 0


class TestBatchLRUExactRecency:
    """With max_flows set, ingest_batch must be record-faithful: same
    eviction victims, counters and surviving consumer state as a
    record-at-a-time replay of the stream (same clock readings)."""

    @staticmethod
    def _pair(num_shards, max_flows, seed=11):
        make = lambda: Collector(
            congestion_consumer_factory(), num_shards=num_shards,
            max_flows_per_shard=max_flows, seed=seed,
        )
        return make(), make()

    def test_known_divergence_case_now_matches(self):
        # Pre-state [Y, X] (Y least recent), capacity 2, batch
        # [X, A, X]: record order touches X before A arrives, so A
        # evicts Y and the final LRU order is [A, X].  Group-ordered
        # batching used to leave [X, A] and evict X next -- the
        # documented divergence this path removes.
        scalar, batched = self._pair(num_shards=1, max_flows=2)
        for col in (scalar, batched):
            col.ingest(2, 1, 3, 20, now=1.0)   # Y
            col.ingest(1, 2, 3, 10, now=2.0)   # X
        fids, pids, hops, digs = [1, 3, 1], [3, 4, 5], [3, 3, 3], [7, 8, 9]
        for i in range(3):
            scalar.ingest(fids[i], pids[i], hops[i], digs[i], now=3.0)
        batched.ingest_batch(fids, pids, hops, digs, now=3.0)
        for col in (scalar, batched):
            assert col.flow(2) is None          # Y evicted
            assert col.flow(1).max_code == 10   # X kept pre-batch state
            assert col.flow(1).records == 3     # 1 pre-batch + 2 in-batch
        # The next single-flow batch must evict the same victim (A).
        scalar.ingest(4, 6, 3, 1, now=4.0)
        batched.ingest_batch([4], [6], [3], [1], now=4.0)
        for col in (scalar, batched):
            assert col.flow(3) is None and col.flow(1) is not None

    def test_midbatch_evict_and_recreate_drops_early_records(self):
        # Capacity 1, batch [A, B, A]: the scalar replay evicts A's
        # first incarnation before its second record arrives, so the
        # surviving consumer saw only the last record.
        scalar, batched = self._pair(num_shards=1, max_flows=1)
        fids, pids, hops, digs = [1, 2, 1], [1, 2, 3], [3, 3, 3], [10, 20, 3]
        for i in range(3):
            scalar.ingest(fids[i], pids[i], hops[i], digs[i], now=1.0)
        batched.ingest_batch(fids, pids, hops, digs, now=1.0)
        for col in (scalar, batched):
            consumer = col.flow(1)
            assert col.flow(2) is None
            assert consumer.max_code == 3       # 10 died with incarnation 1
            assert consumer.records == 1
            shard = col.shards[0]
            assert shard.created == 3
            assert shard.lru_evictions == 2

    @pytest.mark.parametrize("num_shards,max_flows", [(1, 3), (4, 2), (4, 5)])
    def test_random_streams_match_scalar_replay(self, num_shards, max_flows):
        rng = np.random.default_rng(num_shards * 31 + max_flows)
        n = 3000
        fids = rng.integers(1, 40, n).tolist()
        pids = list(range(1, n + 1))
        hops = rng.integers(2, 6, n).tolist()
        digs = rng.integers(0, 256, n).tolist()
        scalar, batched = self._pair(num_shards, max_flows)
        batch = 257  # deliberately unaligned batch edges
        now = 0.0
        for lo in range(0, n, batch):
            hi = min(lo + batch, n)
            now += 1.0
            for i in range(lo, hi):
                scalar.ingest(fids[i], pids[i], hops[i], digs[i], now=now)
            batched.ingest_batch(
                fids[lo:hi], pids[lo:hi], hops[lo:hi], digs[lo:hi], now=now
            )
        s_snap, b_snap = scalar.snapshot(), batched.snapshot()
        for s, b in zip(s_snap.shards, b_snap.shards):
            assert s.flows == b.flows
            assert s.records == b.records
            assert s.created == b.created
            assert s.lru_evictions == b.lru_evictions
            assert s.state_bytes == b.state_bytes
        for sh_s, sh_b in zip(scalar.shards, batched.shards):
            assert flow_order(sh_s) == flow_order(sh_b)  # same LRU order
            for column in ("generation", "flow_records"):
                assert (
                    getattr(sh_s.store, column)[sh_s.rows()].tolist()
                    == getattr(sh_b.store, column)[sh_b.rows()].tolist()
                )
            for fid in flow_order(sh_s):
                a, b = scalar.flow(fid), batched.flow(fid)
                assert a.max_code == b.max_code
                assert a.last_code == b.last_code

    def test_ttl_without_capacity_is_batch_granular(self):
        # Documented fast-path semantics: with ttl set but no
        # max_flows, a flow idle past its TTL whose next record
        # arrives in the same batch is revived with its state intact
        # (a record-at-a-time replay might sweep it first, depending
        # on which record triggers the amortised sweep).
        col = Collector(congestion_consumer_factory(), num_shards=1, ttl=5.0)
        col.ingest_batch([1], [1], [3], [50], now=0.0)
        col.ingest_batch([2, 1], [2, 3], [3, 3], [7, 9], now=10.0)
        assert col.flow(1).max_code == 50
        assert col.shards[0].ttl_evictions == 0

    def test_lru_with_ttl_matches_scalar_replay(self):
        rng = np.random.default_rng(4)
        n = 1200
        fids = rng.integers(1, 25, n).tolist()
        make = lambda: Collector(
            congestion_consumer_factory(), num_shards=2,
            max_flows_per_shard=3, ttl=6.0, seed=1,
        )
        scalar, batched = make(), make()
        now = 0.0
        for lo in range(0, n, 100):
            hi = min(lo + 100, n)
            now += 1.0
            for i in range(lo, hi):
                scalar.ingest(fids[i], i + 1, 3, i % 256, now=now)
            batched.ingest_batch(
                fids[lo:hi], list(range(lo + 1, hi + 1)), [3] * (hi - lo),
                [i % 256 for i in range(lo, hi)], now=now,
            )
        s_dict = scalar.snapshot().as_dict()
        b_dict = batched.snapshot().as_dict()
        # `batches` counts ingest_batch calls, which the scalar replay
        # by definition never makes; everything else must agree.
        for d in (s_dict, b_dict):
            for shard in d["shards"]:
                shard.pop("batches")
        assert s_dict == b_dict


class TestHopCountFrontDoor:
    """A hop count outside [1, MAX_HOPS] is refused before any state
    changes -- the decoders size per-hop state from the claimed count,
    so one record claiming 3,000,000 hops must cost microseconds."""

    BAD = (0, -1, 256, 100_000, 3_000_000)

    @staticmethod
    def _half_converged(**kw):
        from repro.collector import capture_checkpoint
        from repro.replay import TraceDataplane, build_trace

        trace = build_trace("web-search", packets=1500, seed=2)
        dp = TraceDataplane(trace, seed=0)
        sink = Collector(
            path_consumer_factory(trace.universe, seed=0), seed=0, **kw
        )
        rows = np.arange(len(trace))
        sink.ingest_batch(
            trace.flow_id, trace.pid, trace.hop_counts,
            dp.encode_rows(rows), now=1.0,
        )
        return sink, capture_checkpoint

    def test_max_hops_is_the_ttl_width(self):
        from repro.collector import MAX_HOPS

        assert MAX_HOPS == 255

    @pytest.mark.parametrize("lru", [None, 64])
    def test_batch_rejected_whole_with_state_untouched(self, lru):
        sink, capture = self._half_converged(max_flows_per_shard=lru)
        snap, blob = sink.snapshot().as_dict(), capture(sink)
        for bad in self.BAD:
            with pytest.raises(ValueError, match=r"\[1, 255\]"):
                # Three good records around the bad one: all refused.
                sink.ingest_batch(
                    [7, 8, 9, 10], [1, 2, 3, 4], [3, bad, 3, 5],
                    [1, 2, 3, 4], now=2.0,
                )
        assert sink.now == 1.0
        assert sink.snapshot().as_dict() == snap
        assert capture(sink) == blob
        # The boundaries themselves are legal.
        assert sink.ingest_batch([7, 8], [1, 2], [1, 255], [0, 0], now=2.0) == 2

    def test_scalar_ingest_rejected_with_state_untouched(self):
        sink, capture = self._half_converged()
        snap, blob = sink.snapshot().as_dict(), capture(sink)
        for bad in self.BAD:
            with pytest.raises(ValueError, match=r"\[1, 255\]"):
                sink.ingest(7, 1, bad, 5, now=2.0)
        assert sink.snapshot().as_dict() == snap
        assert capture(sink) == blob
        sink.ingest(7, 1, 255, 5, now=2.0)
        assert sink.snapshot().records == snap["records"] + 1

    def test_empty_batch_still_a_noop(self):
        sink, _ = self._half_converged()
        assert sink.ingest_batch([], [], [], []) == 0


@functools.lru_cache(maxsize=None)
def run_stream(sink: str, packets: int = 1200):
    """Columns of a scenario prefix for one sink kind, and its factory.

    Path sinks read ``path-churn`` (flows that decode, reroute and
    conflict) under 10 % loss and 2 % duplication, so runs meet
    converging, decoded, reset and out-of-order flows alike.
    """
    from repro.replay import Duplicate, IIDLoss, TraceDataplane, plan_delivery
    from repro.replay.scenarios import build_trace

    trace = build_trace("path-churn", packets=packets, seed=5)
    rows = plan_delivery(
        [IIDLoss(0.1, seed=6), Duplicate(0.02, lag=8, seed=7)],
        len(trace), trace.flow_id,
    )
    fids, pids = trace.flow_id[rows], trace.pid[rows]
    hops = trace.hop_counts[rows].astype(np.int64)
    if sink == "congestion":
        digs = np.random.default_rng(8).integers(0, 256, rows.shape[0])
        return (fids, pids, hops, digs), congestion_consumer_factory
    mode, num_hashes = {
        "hash": ("hash", 1), "hash2": ("hash", 2), "raw": ("raw", 1),
        "fragment": ("fragment", 1),
    }[sink]
    dataplane = TraceDataplane(
        trace, digest_bits=8, num_hashes=num_hashes, mode=mode, seed=0
    )

    def factory():
        return path_consumer_factory(
            trace.universe, digest_bits=8, num_hashes=num_hashes, seed=0,
            mode=mode, value_bits=dataplane.value_bits,
        )

    return (fids, pids, hops, dataplane.encode_rows(rows)), factory


class TestIngestRun:
    """A run of batches folds to exactly the state of folding its
    batches one ``ingest_batch`` at a time: snapshot, checkpoint bytes
    and answers.  The run shares one grouping and one peel; per-batch
    clock readings, touches, stamps and shard counters must survive."""

    @pytest.mark.parametrize("bounds", [
        {}, {"ttl": 30.0}, {"max_flows_per_shard": 12},
    ], ids=["unbounded", "ttl", "lru"])
    @pytest.mark.parametrize(
        "sink", ["hash", "hash2", "raw", "fragment", "congestion"]
    )
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_run_equals_sequential_batches(self, sink, bounds, data):
        from repro.collector.recovery import capture_checkpoint

        cols, factory = run_stream(sink)
        n = cols[0].shape[0]
        cuts = data.draw(st.lists(
            st.integers(1, n - 1), min_size=1, max_size=14, unique=True,
        ))
        edges = [0] + sorted(cuts) + [n]
        steps = data.draw(st.lists(
            st.sampled_from([0.0, 1.0, 2.5, 7.0]),
            min_size=len(edges) - 1, max_size=len(edges) - 1,
        ))
        nows = np.cumsum(steps).tolist()
        batches = [
            (tuple(c[lo:hi] for c in cols), now)
            for lo, hi, now in zip(edges, edges[1:], nows)
        ]
        lengths = data.draw(st.lists(
            st.integers(1, 6), min_size=len(batches), max_size=len(batches),
        ))
        make = lambda: Collector(factory(), num_shards=4, seed=3, **bounds)
        one, runs = make(), make()
        for columns, now in batches:
            one.ingest_batch(*columns, now=now)
        lo = 0
        for length in lengths:
            if lo < len(batches):
                runs.ingest_run(batches[lo:lo + length])
            lo += length
        assert runs.snapshot().as_dict() == one.snapshot().as_dict()
        assert capture_checkpoint(runs) == capture_checkpoint(one)
        got, want = runs.answers(), one.answers()
        assert got.columns.keys() == want.columns.keys()
        for name in ("flow_id", "offsets", "values"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        for name, column in want.columns.items():
            if column.dtype == object:
                assert got.columns[name].tolist() == column.tolist(), name
            else:
                assert np.array_equal(
                    got.columns[name], column, equal_nan=True
                ), name

    def test_a_run_counts_each_batch_and_its_own_clock(self):
        # Flow 1 only in the first batch, flow 2 in all three: a run
        # that touched its flows once, at the last clock reading, or
        # counted one batch per shard would read differently.
        sink = Collector(congestion_consumer_factory(), num_shards=1)
        sink.ingest_run([
            (([1, 2], [1, 2], [3, 3], [5, 6]), 1.0),
            (([2], [3], [3], [7]), 2.0),
            (([2, 3], [4, 5], [3, 3], [8, 9]), 4.0),
        ])
        shard, store = sink.shards[0], sink._store
        assert shard.batches == 3 and shard.records == 5
        rows = shard.rows()
        assert store.flow_id[rows].tolist() == [1, 2, 3]
        assert store.last_seen[rows].tolist() == [1.0, 4.0, 4.0]
        assert store.flow_records[rows].tolist() == [1, 3, 1]
        assert store.generation[rows].tolist() == [1, 2, 3]

    @pytest.mark.parametrize("sink", ["hash", "congestion"])
    def test_a_failing_batch_raises_after_the_batches_before_it(self, sink):
        # Without park, a run stops where a loop of ingest_batch calls
        # stops: the batches before the failing one are folded, ticked
        # and counted, the failing one and those after it are not.
        from repro.collector.recovery import capture_checkpoint
        from repro.obs import MetricsRegistry

        cols, factory = run_stream(sink)
        batches = [
            (tuple(c[lo:lo + 100] for c in cols), float(lo))
            for lo in range(0, 500, 100)
        ]
        (fids, pids, hops, digs), now = batches[2]
        batches[2] = ((fids, pids, np.where(hops == hops[0], 0, hops),
                       digs), now)

        def fed(feed):
            obs = MetricsRegistry()
            sink = Collector(factory(), num_shards=4, seed=3, obs=obs)
            with pytest.raises(ValueError, match="hop counts"):
                feed(sink)
            return sink, obs.as_dict()["families"]

        loop, loop_metrics = fed(lambda sink: [
            sink.ingest_batch(*columns, now=now) for columns, now in batches
        ])
        run, run_metrics = fed(lambda sink: sink.ingest_run(batches))
        assert loop.snapshot().records == 200 and loop.now == 100.0
        assert run.now == loop.now
        assert run.snapshot().as_dict() == loop.snapshot().as_dict()
        assert capture_checkpoint(run) == capture_checkpoint(loop)
        for name in (
            "pint_collector_records_total", "pint_collector_batches_total",
            "pint_collector_batch_records",
        ):
            assert run_metrics[name] == loop_metrics[name], name

    def test_a_failing_batch_is_parked_and_the_rest_fold(self):
        sink = Collector(congestion_consumer_factory(), num_shards=1)
        parked = []
        assert sink.ingest_run([
            (([1], [1], [3], [5]), 1.0),
            (([2], [2], [0], [5]), 2.0),  # hop count out of range
            (([3], [3], [3], [5]), 3.0),
        ], park=lambda: parked.append(1)) == 2
        assert parked == [1]
        shard, store = sink.shards[0], sink._store
        assert shard.batches == 2 and shard.records == 2
        rows = shard.rows()
        assert store.flow_id[rows].tolist() == [1, 3]
        assert store.last_seen[rows].tolist() == [1.0, 3.0]
        # Its clock tick is all a refused batch leaves.
        assert sink.now == 3.0
