"""The sink's column store: bridge, fold, steady pass, reclamation, v4.

``PathStateStore`` (``repro/coding/store.py``) holds every raw- and
hash-mode path flow of a sink as a row; what the flow table holds is a
handle.  These tests pin the store against the scalar specification
(``PathDigestConsumer.consume`` / ``HashDecoder.observe``) the way
``test_first_touch`` / ``test_fixpoint_peel`` pin the batched front
door, and pin the bookkeeping the store adds: row recycling behind
epochs, slot compaction, the sort-free pass over steady flows and the
array checkpoint.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import (
    DistributedMessage,
    HashDecoder,
    PathEncoder,
    make_decoder,
    multilayer_scheme,
    pack_reps,
)
from repro.coding.store import PathStateStore
from repro.collector import (
    Collector,
    PathDigestConsumer,
    capture_checkpoint,
    path_consumer_factory,
    restore_collector,
)
from repro.collector.consumers import PathFlowHandle, consume_groups
from repro.collector.recovery import decode_checkpoint
from repro.exceptions import CheckpointVersionError
from repro.obs.metrics import MetricsRegistry
from repro.replay.impair import Duplicate, Reorder, plan_delivery

from test_first_touch import (
    assert_same,
    decoder_state,
    feed_batched,
    feed_scalar,
    flow_states,
    path_stream,
    sink,
)
from test_fixpoint_peel import drawn_stream, encoders, fallbacks, interleave

SEED = 5


def store_of(collector) -> PathStateStore:
    return collector._store


def handle_state(consumer):
    return (consumer.decode_errors, decoder_state(consumer._decoder))


# -- the bridge ---------------------------------------------------------------

class TestBridge:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        mode=st.sampled_from([("hash", 1), ("hash", 2), ("raw", 1)]),
        k=st.integers(1, 12),
        bits=st.integers(2, 8),
        packets=st.integers(0, 40),
        seed=st.integers(0, 10_000),
    )
    def test_absorb_materialise_is_the_identity(
        self, mode, k, bits, packets, seed
    ):
        """A decoder at any point of its convergence -- narrowed sets,
        parked XOR digests, nothing at all, complete -- survives the
        round trip through a row, twice (a recycled row included)."""
        rng = np.random.default_rng(seed)
        universe = list(range(500, 560))
        msg = (
            DistributedMessage(rng.choice(universe, k).tolist(), universe)
            if mode[0] == "hash" else
            DistributedMessage([int(b) for b in rng.integers(0, 1 << bits, k)])
        )
        enc = PathEncoder(
            msg, multilayer_scheme(k), bits, mode[0], mode[1], seed
        )
        decoder = make_decoder(enc)
        for pid in rng.integers(1, 10_000, packets).tolist():
            decoder.observe(pid, enc.encode(pid))
        store = PathStateStore(decoder.context)
        junk = store.alloc(1)
        store.absorb(junk, make_decoder(enc), 0)
        row = store.alloc(2)
        store.absorb(row, decoder, 3)
        store.release(junk)
        again = store.alloc(3)
        assert again == junk and store.materialise(again) is None
        for target in (row, again):
            got = store.materialise(row)
            assert decoder_state(got) == decoder_state(decoder)
            assert got.state_bytes() == decoder.state_bytes()
            assert int(store.decode_errors[row]) == 3
            store.absorb(target, got, 3)
            row = target

    def test_handle_pickles_to_a_plain_consumer(self):
        universe, cols, kwargs = path_stream("web-search", 3000, bits=4)
        collector = sink(universe, kwargs)
        feed_batched(collector, cols, 512)
        states = flow_states(collector)
        half_open = [f for f, s in states.items() if s[6] and s[6][4]]
        assert half_open
        for fid in half_open[:5] + list(states)[:5]:
            handle = collector.flow(fid)
            assert isinstance(handle, PathFlowHandle)
            copy = pickle.loads(pickle.dumps(handle))
            assert type(copy) is PathDigestConsumer
            assert handle_state(copy) == handle_state(handle)
            assert copy.result() == handle.result()
            assert copy.state_bytes() == handle.state_bytes()

    def test_flows_builds_no_decoder(self, monkeypatch):
        """Bulk reads come off the columns: ``flows()`` plus every
        answer a scorer asks of 20k flows constructs no decoder."""
        n = 20_000
        fids = np.arange(1, n + 1)
        collector = Collector(
            path_consumer_factory(range(64), digest_bits=8, seed=SEED),
            num_shards=4, seed=1,
        )
        collector.ingest_batch(fids, fids + 7, np.full(n, 5), fids % 251)
        built = []
        real = HashDecoder.from_context.__func__
        monkeypatch.setattr(
            HashDecoder, "from_context",
            classmethod(lambda cls, *a: (built.append(1), real(cls, *a))[1]),
        )
        flows = collector.flows(fids)
        assert len(flows) == n and None not in flows
        for flow in flows:
            flow.result(), flow.coverage, flow.decode_errors
            flow.is_complete, flow.progress
        collector.snapshot()
        collector.answers()
        assert not built
        assert any(flow._decoder for flow in flows[:100]) and built


# -- fold == the scalar walk ---------------------------------------------------

class TestFoldEqualsScalarWalk:
    @pytest.mark.parametrize("batch", [1, 7, 64, 8192])
    def test_across_batch_boundaries_with_mixed_lengths(self, batch):
        """Path lengths 1..12 in every batch, narrow digests: rows carry
        narrowed sets and parked digests from batch to batch."""
        universe, cols, kwargs, _ = drawn_stream(11, 48, 3, 2, 40, 12, 60)
        batched, scalar = sink(universe, kwargs), sink(universe, kwargs)
        feed_batched(batched, cols, batch)
        feed_scalar(scalar, cols)
        assert_same(batched, scalar)

    def test_reroute_rebuilds_the_row_with_another_length(self):
        universe = list(range(300, 348))
        rng = np.random.default_rng(1)
        paths = {0: rng.choice(universe, 5).tolist(),
                 1: rng.choice(universe, 9).tolist()}
        by_path = encoders(paths, universe, 8, 1)
        pids = np.arange(1, 201, dtype=np.int64)
        hops = np.where(pids <= 4, 5, 9).astype(np.int64)
        digs = np.asarray([
            pack_reps(by_path[int(pid > 4)].encode(pid), 8)
            for pid in pids.tolist()
        ], dtype=np.int64)
        cols = (np.ones(200, dtype=np.int64), pids, hops, digs)
        kwargs = dict(digest_bits=8, seed=SEED)
        batched, scalar = sink(universe, kwargs), sink(universe, kwargs)
        feed_batched(batched, cols, 50)
        feed_scalar(scalar, cols)
        assert_same(batched, scalar)
        store = store_of(batched)
        row = batched.flow(1).row
        assert int(store.k[row]) == 9 and batched.flow(1).result() == paths[1]
        # The five slots of the first decoder are dead, not leaked.
        assert store.dead_slots == 5

    def test_duplicates_and_deep_reorder(self):
        universe, cols, kwargs = path_stream("web-search", 6000, bits=4)
        delivery = plan_delivery(
            [Reorder(depth=64, prob=0.5, seed=2), Duplicate(prob=0.1, seed=2)],
            len(cols[0]), cols[0],
        )
        cols = tuple(c[delivery] for c in cols)
        batched, scalar = sink(universe, kwargs), sink(universe, kwargs)
        feed_batched(batched, cols, 700)
        feed_scalar(scalar, cols)
        assert_same(batched, scalar)

    def test_only_the_conflicting_flow_falls_back(self):
        """Its row -- parked digests included -- is untouched by the
        fold; the others commit."""
        universe, cols, kwargs, _ = drawn_stream(7, 48, 3, 1, 30, 8, 30)
        fids, pids, hops, digs = cols
        half = len(fids) // 2
        first = tuple(c[:half] for c in cols)
        factory = path_consumer_factory(universe, **kwargs)
        flows = {fid: factory(fid) for fid in np.unique(fids).tolist()}
        store = factory.store
        order = np.argsort(first[0], kind="stable")
        consume_groups(
            _groups(flows, first[0][order]), *(c[order] for c in first[1:])
        )
        victim = next(
            fid for fid, h in flows.items()
            if store.pending[h.row] and not h.is_complete
            and (fids[half:] == fid).sum() > 2
        )
        before = {fid: handle_state(h) for fid, h in flows.items()}
        digs = np.where(fids == victim, digs ^ 0x5, digs)
        rest = tuple(c[half:] for c in (fids, pids, hops, digs))
        order = np.argsort(rest[0], kind="stable")
        groups = _groups(flows, rest[0][order])
        rows = np.asarray([g[0].row for g in groups])
        starts = np.asarray([g[1] for g in groups])
        sizes = np.asarray([g[2] for g in groups]) - starts
        conflicts = store.fold(rows, starts, sizes, *(c[order] for c in rest[1:]))
        assert [int(rows[j]) for j, _ in conflicts] == [flows[victim].row]
        assert handle_state(flows[victim]) == before[victim]
        assert any(
            handle_state(h) != before[fid]
            for fid, h in flows.items() if fid != victim
        )


def _groups(flows, sorted_fids):
    cuts = np.flatnonzero(sorted_fids[1:] != sorted_fids[:-1]) + 1
    bounds = np.concatenate(([0], cuts, [len(sorted_fids)])).tolist()
    return [
        (flows[int(sorted_fids[lo])], lo, hi)
        for lo, hi in zip(bounds, bounds[1:])
    ]


# -- the sort-free pass --------------------------------------------------------

class TestSteadyPass:
    def test_equals_the_grouped_pass_under_churn(self):
        """``path-churn`` keeps contradicting decoded paths: the
        records of steady flows never reach the sort, and every flow
        counts the inconsistencies the grouped pass counts."""
        universe, cols, kwargs = path_stream("path-churn", 20_000, mode="raw")
        plain = sink(universe, kwargs)
        grouped = sink(universe, kwargs)
        # The same sink with a store that calls no flow steady:
        # everything is grouped.
        grouped._store.steady = lambda rows: np.zeros(rows.shape[0], bool)
        seen = []
        real = PathStateStore.steady
        plain._store.steady = lambda rows: (
            lambda mask: (seen.append(mask), mask)[1]
        )(real(plain._store, rows))
        for lo in range(0, len(cols[0]), 2048):
            part = tuple(c[lo:lo + 2048] for c in cols)
            plain.ingest_batch(*part)
            grouped.ingest_batch(*part)
        steady = sum(int(mask.sum()) for mask in seen)
        assert steady > 5000
        states = flow_states(plain)
        assert states == flow_states(grouped)
        assert sum(s[6][3] for s in states.values() if s[6]) > 100

    def test_flow_completing_mid_batch_is_left_to_the_peel(self):
        universe = list(range(200, 248))
        paths = {1: [201, 207, 233, 240, 219]}
        encs = encoders(paths, universe, 8, 1)
        cols = interleave(encs, {1: 120}, np.random.default_rng(3), 8)
        kwargs = dict(digest_bits=8, seed=SEED)
        batched, scalar = sink(universe, kwargs), sink(universe, kwargs)
        batched.ingest_batch(*(c[:3] for c in cols))
        assert not batched.flow(1).is_complete
        store = batched._store
        assert not store.steady(store.index.find(cols[0][3:])).any()
        batched.ingest_batch(*(c[3:90] for c in cols))
        assert batched.flow(1).is_complete
        owners = store.index.find(cols[0][90:])
        assert store.steady(owners).all()
        assert owners.tolist() == [batched.flow(1).row] * 30
        batched.ingest_batch(*(c[90:] for c in cols))
        feed_scalar(scalar, cols)
        assert flow_states(batched) == flow_states(scalar)


# -- reclamation ---------------------------------------------------------------

class TestReclamation:
    def _bounded(self, **bounds):
        universe, cols, kwargs = path_stream("elephant-mice", 20_000)
        collector = sink(universe, kwargs, **bounds)
        return collector, cols

    def test_store_is_bounded_by_the_live_flows(self):
        collector, cols = self._bounded(max_flows_per_shard=64)
        feed_batched(collector, cols, 512)
        store = store_of(collector)
        assert collector.snapshot().evictions > 1000
        assert store.rows - len(store._free) == len(collector) <= 256
        # High-water marks, not flows ever seen.
        assert store.rows <= 256 + 512
        assert store.slots <= 2 * 5 * store.rows + 64
        assert store.k.shape[0] <= 2 * store.rows + 16
        assert store.x_n <= 2 * max(64, int(store.pending.sum()))

    @pytest.mark.parametrize("how", ["evict", "ttl", "lru"])
    def test_every_eviction_path_frees_the_row(self, how):
        universe = list(range(64))
        kwargs = dict(digest_bits=8, seed=SEED)
        bounds = {"ttl": dict(ttl=2.0), "lru": dict(max_flows_per_shard=1)}
        collector = Collector(
            path_consumer_factory(universe, **kwargs), num_shards=1,
            **bounds.get(how, {}),
        )
        collector.ingest_batch([7, 7], [1, 2], [4, 4], [9, 9], now=1.0)
        stale = collector.flow(7)
        row = stale.row
        assert stale.state_bytes() > PathDigestConsumer(universe).state_bytes()
        successor = ([8, 8], [3, 4], [6, 6], [1, 2])
        if how == "evict":
            assert collector.evict(7)
        elif how == "ttl":
            assert collector.expire(now=10.0) == 1
        else:
            # One batch: flow 9 evicts flow 7 (whose row is freed
            # mid-walk), flow 8 takes that row over and evicts flow 9.
            collector.ingest_batch(
                [9, 8, 8], [5, 3, 4], [3, 6, 6], [7, 1, 2], now=11.0
            )
        store = store_of(collector)
        assert collector.flow(7) is None
        if how != "lru":
            assert store._free == [row] and store.live_rows().size == 0
            collector.ingest_batch(*successor, now=11.0)
        fresh = collector.flow(8)
        assert fresh.row == row and store.live_rows().tolist() == [row]
        # The row's new owner holds nothing of the old one ...
        alone = Collector(path_consumer_factory(universe, **kwargs), num_shards=1)
        alone.ingest_batch(*successor, now=11.0)
        assert handle_state(fresh) == handle_state(alone.flow(8))
        assert fresh.state_bytes() == alone.flow(8).state_bytes()
        # ... the stale handle answers as a flow with no decoder ...
        assert stale.progress == (0, 0) and stale._decoder is None
        assert stale.result() is None and stale.decode_errors == 0
        assert stale.state_bytes() == PathDigestConsumer(universe).state_bytes()
        # ... and cannot write into its row's new owner.
        with pytest.raises(LookupError):
            stale.consume(5, 4, 1)
        assert handle_state(fresh) == handle_state(alone.flow(8))

    def test_recycled_row_starts_clean_inside_the_walk(self):
        """LRU capacity 2 per shard, one batch: rows change hands
        mid-walk and the survivors equal record-at-a-time ingestion."""
        universe, cols, kwargs = path_stream("web-search", 4000, bits=4)
        bounds = dict(max_flows_per_shard=2)
        batched = sink(universe, kwargs, **bounds)
        scalar = sink(universe, kwargs, **bounds)
        feed_batched(batched, cols, 4000)
        feed_scalar(scalar, cols)
        assert_same(batched, scalar)
        assert store_of(batched).rows <= 8 + 1

    def test_slot_compaction_changes_no_answer(self):
        universe, cols, kwargs = path_stream("elephant-mice", 12_000)
        fids = cols[0]
        collector = sink(universe, kwargs)
        twin = sink(universe, kwargs)
        half = len(fids) // 2
        for c in (collector, twin):
            feed_batched(c, tuple(col[:half] for col in cols), 1024)
        store = store_of(collector)
        victims = np.unique(fids[:half])[::3].tolist()
        for fid in victims:
            assert collector.evict(fid) and twin.evict(fid)
        assert store.dead_slots > 0
        keep = [f for f in np.unique(fids[:half]).tolist() if f not in victims]
        bases = {f: int(store.base[collector.flow(f).row]) for f in keep[:50]}
        store.dead_slots = store.slots  # force the squeeze at the next fold
        feed_batched(collector, tuple(col[half:] for col in cols), 1024)
        feed_batched(twin, tuple(col[half:] for col in cols), 1024)
        assert store.dead_slots < store.slots // 2
        assert any(
            int(store.base[collector.flow(f).row]) != b for f, b in bases.items()
        )
        assert flow_states(collector) == flow_states(twin)
        assert np.array_equal(
            collector.answers().values, twin.answers().values
        )


# -- checkpoint v4 -------------------------------------------------------------

class TestCheckpoint:
    def test_capture_restore_capture_is_byte_stable_mid_convergence(self):
        universe, cols, kwargs = path_stream("web-search", 5000, bits=4)
        collector = sink(universe, kwargs)
        feed_batched(collector, cols, 512)
        assert any(s[6] and s[6][5] for s in flow_states(collector).values())
        # Leave holes: the capture must not depend on allocation history.
        for fid in np.unique(cols[0])[::4].tolist():
            collector.evict(fid)
        blob = capture_checkpoint(collector)
        fresh = sink(universe, kwargs)
        feed_batched(fresh, tuple(c[:700] for c in cols), 100)
        own = store_of(fresh)
        restore_collector(fresh, blob)
        assert store_of(fresh) is own
        assert capture_checkpoint(fresh) == blob
        assert flow_states(fresh) == flow_states(collector)
        # The restored sink keeps allocating in its one store.
        before = own.rows
        tail = tuple(c[-900:] for c in cols)
        for c in (collector, fresh):
            c.ingest_batch(*tail)
            c.ingest_batch([10**9], [1], [5], [3])
        assert own.rows > before
        assert flow_states(fresh) == flow_states(collector)
        assert fresh.snapshot().as_dict() == collector.snapshot().as_dict()

    def test_every_way_out_of_the_table_gives_the_row_back(self):
        """LRU victims, TTL sweeps, ``evict`` and a restore all free
        the row in the step that drops the flow: the store holds the
        tables' flows and nothing else, whatever came and went."""
        universe, cols, kwargs = path_stream("elephant-mice", 20_000)
        bounds = dict(max_flows_per_shard=64, ttl=200.0)
        bounded = sink(universe, kwargs, **bounds)
        feed_batched(bounded, cols, 2048)
        store = store_of(bounded)
        snap = bounded.snapshot()
        assert sum(s.lru_evictions for s in snap.shards) > 300
        assert sum(s.ttl_evictions for s in snap.shards) > 0
        assert store.live_rows().size == len(bounded) == snap.flows
        assert store.rows < 3 * len(bounded)      # rows are recycled
        gone = store.flow_id[bounded.shards[0].rows()].tolist()[:5]
        assert all(bounded.evict(fid) for fid in gone)
        assert store.live_rows().size == len(bounded) > 0
        blob = capture_checkpoint(bounded)
        fresh = sink(universe, kwargs, **bounds)
        feed_batched(fresh, tuple(c[:5000] for c in cols), 512)
        restore_collector(fresh, blob)
        assert store_of(fresh).live_rows().size == len(fresh) == len(bounded)
        assert capture_checkpoint(fresh) == blob
        tail = tuple(c[-3000:] for c in cols)
        feed_batched(bounded, tail, 512)
        feed_batched(fresh, tail, 512)
        assert capture_checkpoint(fresh) == capture_checkpoint(bounded)
        assert store_of(fresh).live_rows().size == len(fresh)

    def test_v3_header_is_refused(self):
        universe, cols, kwargs = path_stream("web-search", 500)
        collector = sink(universe, kwargs)
        feed_batched(collector, cols, 500)
        blob = bytearray(capture_checkpoint(collector))
        assert "store" in decode_checkpoint(bytes(blob))["collector"]
        blob[4:6] = (3).to_bytes(2, "little")
        with pytest.raises(CheckpointVersionError) as exc:
            restore_collector(sink(universe, kwargs), bytes(blob))
        assert exc.value.version == 3

    @pytest.mark.parametrize("bad", ["hops", "ragged"])
    def test_rejected_batch_leaves_the_store_untouched(self, bad):
        universe, cols, kwargs = path_stream("web-search", 2000)
        collector = sink(universe, kwargs, obs=MetricsRegistry())
        feed_batched(collector, cols, 500)
        blob = capture_checkpoint(collector)
        fids, pids, hops, digs = (c[:64].copy() for c in cols)
        if bad == "hops":
            hops[5] = 256
        else:
            digs = digs[:-1]
        with pytest.raises(ValueError):
            collector.ingest_batch(fids, pids, hops, digs)
        assert capture_checkpoint(collector) == blob
        assert sum(fallbacks(collector).values()) == 0
