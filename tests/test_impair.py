"""Impairment engine: models, composition, delivery scoring, pipeline.

Covers the PR-5 contract: impairment models are seed-deterministic and
composable (order respected), reordering is bounded per flow,
duplication+loss never corrupts flow-table accounting (batched ingest
of an impaired stream stays bit-identical to record-at-a-time ingest),
and the zero-impairment pipeline is bit-identical to the un-impaired
path end to end -- plus the decode-under-loss surface: coverage /
partial_path on consumers, coverage aggregates in snapshots, and the
loss-aware fields of ScenarioReport.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coding import DistributedMessage, PathEncoder, multilayer_scheme, pack_reps
from repro.collector import (
    Collector,
    congestion_consumer_factory,
    path_consumer_factory,
)
from repro.collector.consumers import PathDigestConsumer
from repro.jsonutil import jsonable
from repro.replay import (
    Duplicate,
    GilbertElliott,
    IIDLoss,
    ReplayDriver,
    Reorder,
    TraceDataplane,
    build_trace,
    describe_models,
    plan_delivery,
    summarize_delivery,
)

from repro.replay.impair import delivered_mask


def models_all(seed=0):
    """One of each model at meaningful rates."""
    return [
        GilbertElliott(p_bad=0.02, p_good=0.2, seed=seed + 1),
        IIDLoss(0.1, seed=seed + 2),
        Reorder(depth=16, seed=seed + 3),
        Duplicate(0.05, lag=8, seed=seed + 4),
    ]


class TestModels:
    def test_seed_determinism(self):
        fids = np.repeat(np.arange(40), 25)
        a = plan_delivery(models_all(7), 1000, fids)
        b = plan_delivery(models_all(7), 1000, fids)
        assert np.array_equal(a, b)
        c = plan_delivery(models_all(8), 1000, fids)
        assert not np.array_equal(a, c)

    def test_composition_is_sequential_application(self):
        fids = np.arange(500) % 13
        loss, dup = IIDLoss(0.2, seed=1), Duplicate(0.1, seed=2)
        composed = plan_delivery([loss, dup], 500, fids)
        manual = dup.apply(loss.apply(np.arange(500), fids, 0), fids, 1)
        assert np.array_equal(composed, manual)

    def test_composition_order_matters(self):
        # loss-then-dup can never duplicate a dropped packet;
        # dup-then-loss can deliver one surviving copy.  At these rates
        # the two schedules differ with overwhelming probability.
        fids = np.zeros(2000, dtype=np.int64)
        a = plan_delivery([IIDLoss(0.3, seed=3), Duplicate(0.3, seed=4)],
                          2000, fids)
        b = plan_delivery([Duplicate(0.3, seed=4), IIDLoss(0.3, seed=3)],
                          2000, fids)
        assert a.shape != b.shape or not np.array_equal(a, b)

    def test_iid_loss_rate(self):
        rows = plan_delivery([IIDLoss(0.25, seed=0)], 20_000, None)
        rate = 1.0 - rows.size / 20_000
        assert 0.2 < rate < 0.3
        assert np.all(np.diff(rows) > 0)  # order preserved, no dups

    def test_iid_loss_edges(self):
        assert np.array_equal(
            plan_delivery([IIDLoss(0.0)], 100, None), np.arange(100)
        )
        assert plan_delivery([IIDLoss(1.0)], 100, None).size == 0
        with pytest.raises(ValueError):
            IIDLoss(1.5)

    def test_gilbert_elliott_is_bursty(self):
        n = 30_000
        rows = plan_delivery(
            [GilbertElliott(p_bad=0.01, p_good=0.2, seed=5)], n, None
        )
        dropped = np.setdiff1d(np.arange(n), rows)
        assert 0 < dropped.size < n // 2
        # Bursty: mean loss-run length must exceed i.i.d.'s ~1 by a
        # clear margin (the Bad state holds for ~1/p_good = 5 records).
        runs = np.split(dropped, np.flatnonzero(np.diff(dropped) != 1) + 1)
        mean_run = float(np.mean([r.size for r in runs]))
        assert mean_run > 2.0

    def test_zero_models_identity(self):
        trace = build_trace("hadoop", packets=600, seed=1)
        rows = plan_delivery(
            [IIDLoss(0.0), Reorder(0), Duplicate(0.0)], len(trace),
            trace.flow_id,
        )
        assert np.array_equal(rows, np.arange(len(trace)))

    def test_gilbert_elliott_zero_is_identity(self):
        rows = plan_delivery(
            [GilbertElliott(p_bad=0.0, p_good=1.0, seed=1)], 500, None
        )
        assert np.array_equal(rows, np.arange(500))

    def test_reorder_displacement_is_bounded(self):
        n, depth = 5000, 12
        rows = plan_delivery([Reorder(depth=depth, seed=6)], n, None)
        assert rows.size == n and np.array_equal(np.sort(rows), np.arange(n))
        # A delivery may only be overtaken by rows < depth behind it:
        # every prefix's max original index is < position + depth.
        prefix_max = np.maximum.accumulate(rows)
        assert np.all(prefix_max - np.arange(n) < depth)

    def test_reorder_per_flow_bound(self):
        n, depth = 4000, 10
        fids = np.arange(n) % 7
        rows = plan_delivery([Reorder(depth=depth, prob=0.8, seed=9)], n, fids)
        for f in range(7):
            mine = rows[fids[rows] == f]
            # Within one flow's delivered subsequence, any inversion
            # pairs records < depth apart in the original stream.
            prefix_max = np.maximum.accumulate(mine)
            assert np.all(prefix_max - mine < depth)

    def test_duplicate_copies_trail_originals_within_lag(self):
        n, lag = 3000, 6
        rows = plan_delivery([Duplicate(0.2, lag=lag, seed=8)], n, None)
        assert rows.size > n
        dup_count = rows.size - n
        assert 0.1 * n < dup_count < 0.3 * n
        # Each duplicated row appears exactly twice, copy within lag
        # delivered positions of the original.
        positions = {}
        for pos, row in enumerate(rows.tolist()):
            positions.setdefault(row, []).append(pos)
        for row, ps in positions.items():
            assert len(ps) <= 2
            if len(ps) == 2:
                assert 0 < ps[1] - ps[0] <= lag + dup_count

    def test_describe_round_trip(self):
        descs = describe_models(models_all(3))
        assert len(descs) == 4
        assert any("gilbert-elliott" in d for d in descs)
        assert all("seed=" in d for d in descs)


class TestDeliverySummary:
    def test_counts_on_crafted_schedule(self):
        # 6 records; drop row 5, duplicate row 0, invert rows 2 and 3.
        fids = np.zeros(6, dtype=np.int64)
        rows = np.asarray([0, 0, 1, 3, 2, 4])
        s = summarize_delivery(6, rows, fids)
        assert s.offered == 6
        assert s.delivered == 6
        assert s.unique_delivered == 5
        assert s.dropped == 1
        assert s.duplicated == 1
        # One late delivery (row 2 after row 3) + the duplicate of row
        # 0 arriving after row 0 itself does not count (same index).
        assert s.reordered == 1
        assert s.delivery_rate == pytest.approx(5 / 6)

    def test_reorder_counted_per_flow(self):
        # Rows of *different* flows interleaving is not reordering:
        # flow 0 owns rows (0, 2), flow 1 owns rows (1, 3).
        fids = np.asarray([0, 1, 0, 1])
        rows = np.asarray([1, 0, 3, 2])  # per-flow order preserved
        assert summarize_delivery(4, rows, fids).reordered == 0
        rows = np.asarray([2, 1, 3, 0])  # flow 0 sees (2, 0): one late
        assert summarize_delivery(4, rows, fids).reordered == 1

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(0.0, 0.6))
    def test_summary_invariants(self, seed, rate):
        n = 800
        # Flow ids 2**40 apart, negative ones too: grouping them takes
        # the radix sort more than one 16-bit pass.
        fids = (np.arange(n) % 11 - 5) << 40
        rows = plan_delivery(
            [IIDLoss(rate, seed=seed), Duplicate(0.1, seed=seed + 1),
             Reorder(depth=9, seed=seed + 2)],
            n, fids,
        )
        s = summarize_delivery(n, rows, fids)
        # The O(n) delivered set is the sorted set np.unique returns.
        delivered = delivered_mask(n, rows)
        assert delivered.shape == (n,)
        assert np.flatnonzero(delivered).tolist() == np.unique(rows).tolist()
        assert s.unique_delivered == np.unique(rows).size
        assert s.delivered == rows.size
        assert s.unique_delivered + s.dropped == n
        assert s.delivered - s.duplicated == s.unique_delivered
        assert s.reordered == reordered_by_loop(rows, fids)
        assert summarize_delivery(n, rows, fids, delivered) == s


def reordered_by_loop(rows, fids):
    """Deliveries trailing an earlier-delivered later record of their
    flow: the per-flow running max, one delivery at a time."""
    latest = {}
    late = 0
    for row in rows.tolist():
        fid = int(fids[row])
        late += row < latest.get(fid, -1)
        latest[fid] = max(latest.get(fid, -1), row)
    return late


class TestFlowTableAccountingUnderImpairment:
    """Duplication+loss never corrupts the shards' state accounting."""

    def _cols(self, seed):
        n = 4000
        rng = np.random.default_rng(seed)
        fids = rng.integers(1, 60, size=n).astype(np.int64)
        rows = plan_delivery(
            [IIDLoss(0.2, seed=seed), Duplicate(0.15, lag=12, seed=seed + 1),
             Reorder(depth=20, seed=seed + 2)],
            n, fids,
        )
        return (
            fids[rows], np.arange(1, n + 1, dtype=np.int64)[rows],
            np.full(rows.size, 4, dtype=np.int64),
            rng.integers(0, 256, size=n).astype(np.int64)[rows],
        )

    @pytest.mark.parametrize("bounds", [
        {}, {"max_flows_per_shard": 5},
        {"max_flows_per_shard": 4, "ttl": 6.0},
    ])
    def test_batched_matches_scalar_on_impaired_stream(self, bounds):
        # Both collectors share an explicit per-batch clock (the repo's
        # scalar-vs-batched test convention): the record-faithful LRU
        # walk then replays scalar table ops exactly, duplicates, gaps
        # and reorder notwithstanding.
        fids, pids, hops, digs = self._cols(seed=3)
        scalar = Collector(
            congestion_consumer_factory(seed=0), num_shards=4, seed=0,
            **bounds,
        )
        batched = Collector(
            congestion_consumer_factory(seed=0), num_shards=4, seed=0,
            **bounds,
        )
        now = 0.0
        for lo in range(0, fids.size, 512):
            hi = min(lo + 512, fids.size)
            now += 1.0
            for i in range(lo, hi):
                scalar.ingest(int(fids[i]), int(pids[i]), int(hops[i]),
                              int(digs[i]), now=now)
            batched.ingest_batch(fids[lo:hi], pids[lo:hi], hops[lo:hi],
                                 digs[lo:hi], now=now)
        s_dict = scalar.snapshot().as_dict()
        b_dict = batched.snapshot().as_dict()
        for d in (s_dict, b_dict):
            for shard in d["shards"]:
                shard.pop("batches")
        assert s_dict == b_dict
        # Accounting invariants hold regardless of bounds.
        for d in (s_dict, b_dict):
            assert d["records"] == fids.size
            assert d["state_bytes"] >= 0
            assert 0 <= d["coverage_sum"] <= d["flows"]
            for shard in d["shards"]:
                assert shard["created"] >= shard["flows"]
                assert shard["coverage_sum"] <= shard["flows"]

    def test_per_flow_record_counts_match_delivered(self):
        fids, pids, hops, digs = self._cols(seed=9)
        col = Collector(congestion_consumer_factory(seed=0), num_shards=2,
                        seed=0)
        col.ingest_batch(fids, pids, hops, digs)
        total = 0
        for shard in col.shards:
            rows = shard.rows()
            for fid, row in zip(shard.store.flow_id[rows].tolist(), rows.tolist()):
                records = int(shard.store.flow_records[row])
                assert records == int((fids == fid).sum())
                total += records
        assert total == fids.size


class TestDecodeUnderLoss:
    def _consumer_roundtrip(self, mode, digest_bits, k=5, seed=4):
        topo_universe = list(range(20))
        path = [3, 7, 11, 15, 19][:k]
        value_bits = max(topo_universe).bit_length()
        enc = PathEncoder(
            DistributedMessage.from_path(
                path, topo_universe if mode == "hash" else None
            ),
            multilayer_scheme(k), digest_bits=digest_bits, mode=mode,
            seed=seed, value_bits=value_bits if mode == "fragment" else None,
        )
        consumer = PathDigestConsumer(
            topo_universe, digest_bits=digest_bits, seed=seed, mode=mode,
            value_bits=value_bits,
        )
        return enc, consumer, path

    @pytest.mark.parametrize("mode,bits", [
        ("hash", 8), ("raw", 8), ("fragment", 4),
    ])
    def test_modes_decode_through_consumer(self, mode, bits):
        enc, consumer, path = self._consumer_roundtrip(mode, bits)
        for pid in range(1, 400):
            consumer.consume(pid, len(path), pack_reps(enc.encode(pid), bits))
            if consumer.is_complete:
                break
        assert consumer.is_complete
        assert consumer.result() == path
        assert consumer.coverage == 1.0
        assert consumer.partial_path() == path

    @pytest.mark.parametrize("mode,bits", [
        ("hash", 8), ("raw", 8), ("fragment", 4),
    ])
    def test_partial_decode_is_well_defined(self, mode, bits):
        enc, consumer, path = self._consumer_roundtrip(mode, bits)
        # A handful of packets: typically not enough to finish.
        for pid in (5, 9, 11):
            consumer.consume(pid, len(path), pack_reps(enc.encode(pid), bits))
        cov = consumer.coverage
        assert 0.0 <= cov <= 1.0
        partial = consumer.partial_path()
        assert len(partial) == len(path)
        for hop, value in enumerate(partial):
            assert value is None or value == path[hop]
        # Coverage is defined as reportable hops / k, so it must agree
        # with partial_path() exactly -- fragment mode included.
        known = sum(1 for v in partial if v is not None)
        assert cov == known / len(path)

    def test_duplicates_only_reconfirm(self):
        enc, consumer, path = self._consumer_roundtrip("hash", 8)
        digests = {
            pid: pack_reps(enc.encode(pid), 8) for pid in range(1, 300)
        }
        for pid, digest in digests.items():
            consumer.consume(pid, len(path), digest)
            consumer.consume(pid, len(path), digest)  # duplicate delivery
            if consumer.is_complete:
                break
        assert consumer.is_complete and consumer.result() == path
        assert consumer.decode_errors == 0

    def test_consumer_rejects_bad_mode_config(self):
        with pytest.raises(ValueError):
            PathDigestConsumer(range(8), mode="sideways")
        with pytest.raises(ValueError):
            PathDigestConsumer(range(8), mode="raw", num_hashes=2)

    def test_snapshot_coverage_aggregates(self):
        trace = build_trace("web-search", packets=2500, seed=2)
        dataplane = TraceDataplane(trace, seed=2)
        digests = dataplane.encode_rows(np.arange(len(trace)))
        rows = plan_delivery([IIDLoss(0.5, seed=6)], len(trace),
                             trace.flow_id)
        col = Collector(
            path_consumer_factory(trace.universe, digest_bits=8, seed=2),
            num_shards=4, seed=2,
        )
        col.ingest_batch(trace.flow_id[rows], trace.pid[rows],
                         trace.hop_counts[rows], digests[rows])
        snap = col.snapshot()
        per_flow = [
            col.flow(fid).coverage for shard in col.shards
            for fid in shard.store.flow_id[shard.rows()].tolist()
        ]
        assert snap.coverage_sum == pytest.approx(sum(per_flow))
        assert 0.0 < snap.mean_coverage <= 1.0
        d = snap.as_dict()
        assert d["mean_coverage"] == pytest.approx(snap.mean_coverage)
        # Idle collector: mean_coverage dumps as None (strict JSON,
        # ==-comparable), the property itself is NaN.
        idle = Collector(path_consumer_factory(trace.universe), num_shards=2)
        assert idle.snapshot().as_dict()["mean_coverage"] is None
        assert math.isnan(idle.snapshot().mean_coverage)


class TestDriverUnderImpairment:
    def test_lossy_replay_reports_degradation(self):
        trace = build_trace("incast", packets=3000, seed=1)
        report = ReplayDriver(
            batch_size=512, seed=1,
            impairments=[IIDLoss(0.4, seed=2), Duplicate(0.05, seed=3)],
        ).replay(trace)
        assert report.offered_records == 3000
        assert report.dropped_records > 800
        assert report.duplicated_records > 30
        assert report.records == (
            3000 - report.dropped_records + report.duplicated_records
        )
        assert 0.5 < report.delivery_rate < 0.7
        # Incast flows are heavy: they complete despite 40% loss, and
        # every completion happened under loss.
        assert report.path_decoded == report.path_flows
        assert report.path_completed_under_loss == report.path_decoded
        assert report.path_accuracy == 1.0
        assert "delivered" in report.summary()

    def test_full_drop_reports_nan_coverage(self):
        trace = build_trace("incast", packets=400, seed=0)
        report = ReplayDriver(
            batch_size=128, seed=0, impairments=[IIDLoss(1.0, seed=1)],
        ).replay(trace)
        assert report.records == 0
        assert report.dropped_records == 400
        assert report.path_decoded == 0
        assert math.isnan(report.path_coverage_mean)

    def test_report_dict_is_strict_json_after_sanitize(self):
        trace = build_trace("incast", packets=300, seed=0)
        report = ReplayDriver(
            batch_size=128, seed=0, impairments=[IIDLoss(1.0, seed=1)],
        ).replay(trace)
        d = report.as_dict()
        assert math.isnan(d["path_coverage_mean"])
        dumped = json.dumps(jsonable(d), allow_nan=False)
        assert json.loads(dumped)["path_coverage_mean"] is None
