"""Tests for the multi-process parallel collector (repro.collector.parallel)."""

import multiprocessing
import os
import signal
import threading
from multiprocessing import shared_memory
from unittest import mock

import numpy as np
import pytest

from repro.collector import (
    Collector,
    ParallelCollector,
    Snapshot,
    congestion_consumer_factory,
)
from repro.collector.shm import ShmRing
from repro.collector.snapshot import ShardStats
from repro.replay.driver import ReplayDriver
from repro.replay.scenarios import build_trace


def make_cols(n=4000, flows=60, seed=2):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(1, flows, n),
        np.arange(1, n + 1),
        rng.integers(2, 7, n),
        rng.integers(0, 256, n),
    )


def feed_both(serial, par, cols, batch=777, timed=False):
    """Stream the same batches into both collectors; drain the parallel one."""
    fids, pids, hops, digs = cols
    n = len(fids)
    now = 0.0
    for lo in range(0, n, batch):
        hi = min(lo + batch, n)
        now += 1.0
        kw = {"now": now} if timed else {}
        serial.ingest_batch(fids[lo:hi], pids[lo:hi], hops[lo:hi],
                            digs[lo:hi], **kw)
        par.ingest_batch(fids[lo:hi], pids[lo:hi], hops[lo:hi],
                         digs[lo:hi], **kw)
    par.drain()


class TestLifecycle:
    def test_context_manager_starts_and_stops(self):
        par = ParallelCollector(
            congestion_consumer_factory(), workers=2, num_shards=4
        )
        procs = list(par._procs)
        assert len(procs) == 2 and all(p.is_alive() for p in procs)
        with par:
            par.ingest_batch([1, 2, 3], [1, 2, 3], [3, 3, 3], [5, 6, 7])
            par.drain()
            assert len(par) == 3
        assert not any(p.is_alive() for p in procs)
        with pytest.raises(RuntimeError):
            par.start()  # a closed collector does not resurrect

    def test_failed_spawn_leaves_no_process_and_no_segment(self):
        made = []
        create = ShmRing.create.__func__

        def second_fails(cls, *args, **kwargs):
            if made:
                raise OSError("no room for a second segment")
            ring = create(cls, *args, **kwargs)
            made.append(ring.name)
            return ring

        before = set(multiprocessing.active_children())
        with mock.patch.object(ShmRing, "create", classmethod(second_fails)):
            with pytest.raises(OSError, match="second segment"):
                ParallelCollector(
                    congestion_consumer_factory(), workers=2, num_shards=2
                )
        # The first worker was forked, then killed and reaped; its
        # segment is unlinked.
        assert len(made) == 1
        assert set(multiprocessing.active_children()) <= before
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=made[0])

    def test_workers_fork_before_the_wire_threads(self):
        # The driver builds its sinks before its wire server, so every
        # worker forks from the main thread while no thread the replay
        # starts is alive yet (forking beside live threads is what
        # lint rule R008 keeps out of this module).
        seen = []
        spawn = ParallelCollector._spawn

        def watched(self, w, restore, applied):
            seen.append((
                threading.current_thread(), set(threading.enumerate()),
            ))
            return spawn(self, w, restore, applied)

        trace = build_trace("incast", packets=2_000, seed=0)
        before = set(threading.enumerate())
        with mock.patch.object(ParallelCollector, "_spawn", watched):
            report = ReplayDriver(workers=2, transport="udp").replay(trace)
        assert report.wire_frames > 0
        assert len(seen) == 2
        for thread, alive in seen:
            assert thread is threading.main_thread()
            assert alive <= before, sorted(t.name for t in alive - before)

    def test_close_is_idempotent(self):
        par = ParallelCollector(
            congestion_consumer_factory(), workers=2, num_shards=2
        ).start()
        par.close()
        par.close()

    def test_validation(self):
        factory = congestion_consumer_factory()
        with pytest.raises(ValueError):
            ParallelCollector(factory, workers=0, num_shards=4)
        with pytest.raises(ValueError):
            ParallelCollector(factory, workers=8, num_shards=4)

    def test_queries_before_first_ingest_match_serial(self):
        # The live workers answer reads on a collector that never
        # ingested, and the snapshot shows the same per-shard rows a
        # fresh serial collector would (monitoring parity).
        with ParallelCollector(
            congestion_consumer_factory(), workers=2, num_shards=4
        ) as par:
            snap = par.snapshot()
            assert snap.records == 0 and snap.flows == 0
            serial = Collector(congestion_consumer_factory(), num_shards=4)
            assert snap.as_dict() == serial.snapshot().as_dict()
            assert par.flow(1) is None
            assert par.result(1) is None
            assert par.evict(1) is False
            assert len(par) == 0
            assert par.expire() == 0

    def test_closed_collector_refuses_queries(self):
        # After close() the worker state is gone; empty answers would
        # masquerade as real ones, so every operation raises.
        par = ParallelCollector(
            congestion_consumer_factory(), workers=2, num_shards=2
        )
        with par:
            par.ingest_batch([1, 2], [1, 2], [3, 3], [9, 9])
            par.drain()
            assert par.result(1) is not None
        for op in (
            lambda: par.result(1), lambda: par.flow(1),
            lambda: par.flows([1]), lambda: par.snapshot(),
            lambda: len(par), lambda: par.expire(),
            lambda: par.evict(1), lambda: par.drain(),
            lambda: par.ingest_batch([], [], [], []),  # even empty
        ):
            with pytest.raises(RuntimeError, match="closed"):
                op()


class TestEquivalence:
    def test_snapshot_and_results_match_serial(self):
        cols = make_cols()
        serial = Collector(
            congestion_consumer_factory(seed=1), num_shards=8, seed=1
        )
        with ParallelCollector(
            congestion_consumer_factory(seed=1), workers=4, num_shards=8,
            seed=1,
        ) as par:
            feed_both(serial, par, cols)
            assert serial.snapshot().as_dict() == par.snapshot().as_dict()
            assert len(serial) == len(par)
            for fid in np.unique(cols[0]).tolist():
                assert serial.result(fid) == par.result(fid)

    def test_flow_returns_detached_consumer_copy(self):
        with ParallelCollector(
            congestion_consumer_factory(), workers=2, num_shards=2
        ) as par:
            par.ingest_batch([5, 5], [1, 2], [3, 3], [10, 30])
            consumer = par.flow(5)
            assert consumer.max_code == 30
            consumer.max_code = 999          # mutating the copy...
            assert par.flow(5).max_code == 30  # ...never reaches the worker
            assert par.flow(404) is None

    def test_bulk_flows_matches_per_flow_rpc(self):
        cols = make_cols(n=1500, flows=25, seed=7)
        serial = Collector(
            congestion_consumer_factory(seed=2), num_shards=4, seed=2
        )
        with ParallelCollector(
            congestion_consumer_factory(seed=2), workers=2, num_shards=4,
            seed=2,
        ) as par:
            feed_both(serial, par, cols)
            probe = np.unique(cols[0]).tolist() + [10**9]  # + unknown id
            bulk = par.flows(probe)
            assert len(bulk) == len(probe)
            for fid, consumer in zip(probe, bulk):
                single = par.flow(fid)
                reference = serial.flow(fid)
                assert (consumer is None) == (single is None) == (
                    reference is None
                )
                if consumer is not None:
                    assert consumer.max_code == reference.max_code
            assert par.flows([]) == []

    def test_one_record_batches_route_like_serial(self):
        serial = Collector(congestion_consumer_factory(), num_shards=4, seed=3)
        with ParallelCollector(
            congestion_consumer_factory(), workers=2, num_shards=4, seed=3
        ) as par:
            for i in range(60):
                serial.ingest_batch([i % 7], [i], [4], [i % 256])
                par.ingest_batch([i % 7], [i], [4], [i % 256])
            par.drain()
            assert serial.snapshot().as_dict() == par.snapshot().as_dict()

    def test_lru_bounded_tables_match_serial(self):
        cols = make_cols(n=2500, flows=30, seed=5)
        serial = Collector(
            congestion_consumer_factory(), num_shards=4,
            max_flows_per_shard=2, seed=0,
        )
        with ParallelCollector(
            congestion_consumer_factory(), workers=2, num_shards=4,
            max_flows_per_shard=2, seed=0,
        ) as par:
            feed_both(serial, par, cols)
            assert serial.snapshot().as_dict() == par.snapshot().as_dict()
            for fid in np.unique(cols[0]).tolist():
                assert serial.result(fid) == par.result(fid)

    def test_ttl_expiry_and_evict_rpc(self):
        serial = Collector(
            congestion_consumer_factory(), num_shards=4, ttl=3.0, seed=0
        )
        with ParallelCollector(
            congestion_consumer_factory(), workers=2, num_shards=4, ttl=3.0,
            seed=0,
        ) as par:
            feed_both(serial, par, make_cols(n=600, flows=12), timed=True)
            assert serial.expire(now=100.0) == par.expire(now=100.0)
            assert len(serial) == len(par) == 0
            serial.ingest(3, 1, 3, 9, now=101.0)
            par.ingest_batch([3], [1], [3], [9], now=101.0)
            assert serial.evict(3) is par.evict(3) is True
            assert serial.evict(3) is par.evict(3) is False


class TestClockGuard:
    def test_clock_modes_cannot_mix(self):
        with ParallelCollector(
            congestion_consumer_factory(), workers=2, num_shards=2
        ) as par:
            par.ingest_batch([1], [1], [3], [10], now=1.0)
            with pytest.raises(ValueError):
                par.ingest_batch([1], [3], [3], [1])
        with ParallelCollector(
            congestion_consumer_factory(), workers=2, num_shards=2
        ) as free:
            free.ingest_batch([1], [1], [3], [10])
            with pytest.raises(ValueError):
                free.ingest_batch([1], [2], [3], [10], now=2.0)
            with pytest.raises(ValueError):
                free.expire(now=2.0)
            assert free.expire() == 0


def _exploding_factory(flow_id):
    if flow_id == 13:
        raise RuntimeError("unlucky flow")
    if flow_id == 17:
        raise RuntimeError("second failure mode")
    from repro.collector import CongestionDigestConsumer
    return CongestionDigestConsumer()


class TestFailurePropagation:
    def test_worker_ingest_failure_surfaces_at_drain(self):
        with ParallelCollector(
            _exploding_factory, workers=2, num_shards=2
        ) as par:
            par.ingest_batch([13], [1], [3], [5])
            with pytest.raises(RuntimeError, match="unlucky flow"):
                par.drain()
            # The failed drain consumed *every* worker's reply, so the
            # RPC protocol stays in sync: snapshots and further ingest
            # keep working on all workers, error delivered once.
            assert par.snapshot().num_shards == 2
            par.drain()
            par.ingest_batch([7], [2], [3], [9])
            par.drain()
            assert par.result(7) is not None
            # The exploding batch died before counting its record.
            assert par.snapshot().records == 1

    def test_close_reports_a_dead_worker(self):
        import os
        import signal

        par = ParallelCollector(
            congestion_consumer_factory(), workers=2, num_shards=2
        ).start()
        par.ingest_batch([1, 2], [1, 2], [3, 3], [9, 9])
        par.drain()
        os.kill(par._procs[0].pid, signal.SIGKILL)
        par._procs[0].join(timeout=5.0)
        # A worker that died holding shard state must not vanish
        # silently: close() reports it instead of returning clean.
        with pytest.raises(RuntimeError, match="stop"):
            par.close()
        par.close()  # idempotent afterwards

    def test_distinct_failures_are_all_reported(self):
        # A second batch failing for a different reason must not be
        # shadowed by the first parked error.
        with ParallelCollector(
            _exploding_factory, workers=1, num_shards=1
        ) as par:
            par.ingest_batch([13], [1], [3], [5])
            par.ingest_batch([17], [2], [3], [5])
            with pytest.raises(RuntimeError) as excinfo:
                par.drain()
            assert "unlucky flow" in str(excinfo.value)
            assert "second failure mode" in str(excinfo.value)
            par.drain()  # delivered once, then serviceable again

    def test_worker_ingest_failure_surfaces_at_close(self):
        # Even without an intervening drain()/query, the error parked
        # by a fire-and-forget batch must come out on close().
        par = ParallelCollector(_exploding_factory, workers=2, num_shards=2)
        par.ingest_batch([13], [1], [3], [5])
        with pytest.raises(RuntimeError, match="unlucky flow"):
            par.close()
        assert not par._procs
        par.close()  # still idempotent after the raise


class TestSnapshotMerge:
    def _stats(self, shard_id):
        return ShardStats(
            shard_id=shard_id, flows=1, records=2, batches=1, created=1,
            lru_evictions=0, ttl_evictions=0, completed_flows=1,
            state_bytes=100,
        )

    def test_merged_orders_by_shard_id(self):
        a = Snapshot(taken_at=1.0, shards=[self._stats(2), self._stats(0)])
        b = Snapshot(taken_at=3.0, shards=[self._stats(1)])
        merged = Snapshot.merged([a, b])
        assert [s.shard_id for s in merged.shards] == [0, 1, 2]
        assert merged.taken_at == 3.0
        assert merged.records == 6

    def test_merged_explicit_stamp(self):
        merged = Snapshot.merged(
            [Snapshot(taken_at=1.0, shards=[self._stats(0)])], taken_at=9.0
        )
        assert merged.taken_at == 9.0

    def test_merged_rejects_overlapping_shards(self):
        a = Snapshot(taken_at=1.0, shards=[self._stats(0)])
        b = Snapshot(taken_at=1.0, shards=[self._stats(0)])
        with pytest.raises(ValueError):
            Snapshot.merged([a, b])


class TestHeterogeneousSidecarMerge:
    """`Snapshot.merged` with per-part metrics sidecars.

    Workers differ: one was instrumented, another not.  The merge must
    fold what exists, skip what doesn't, and collapse to None only
    when every part abstains.
    """

    def _stats(self, shard_id):
        return ShardStats(
            shard_id=shard_id, flows=1, records=2, batches=1, created=1,
            lru_evictions=0, ttl_evictions=0, completed_flows=1,
            state_bytes=100,
        )

    def _registry_dump(self, n):
        from repro.obs import MetricsRegistry
        reg = MetricsRegistry()
        reg.counter("pint_collector_records_total").inc(n)
        reg.histogram("pint_x_seconds", buckets=(1.0, 10.0)).observe(0.5)
        return reg.as_dict()

    def test_metrics_fold_over_present_parts_only(self):
        a = Snapshot(taken_at=1.0, shards=[self._stats(0)],
                     metrics=self._registry_dump(10))
        b = Snapshot(taken_at=2.0, shards=[self._stats(1)], metrics=None)
        c = Snapshot(taken_at=3.0, shards=[self._stats(2)],
                     metrics=self._registry_dump(5))
        merged = Snapshot.merged([a, b, c])
        fams = merged.metrics["families"]
        assert fams["pint_collector_records_total"]["samples"][0]["value"] == 15
        assert fams["pint_x_seconds"]["samples"][0]["count"] == 2

    def test_all_none_sidecars_stay_none(self):
        merged = Snapshot.merged([
            Snapshot(taken_at=1.0, shards=[self._stats(0)]),
            Snapshot(taken_at=2.0, shards=[self._stats(1)]),
        ])
        assert merged.service is None and merged.metrics is None

    def test_metrics_excluded_from_equality_and_as_dict(self):
        bare = Snapshot(taken_at=1.0, shards=[self._stats(0)])
        wired = Snapshot(taken_at=1.0, shards=[self._stats(0)],
                         metrics=self._registry_dump(99))
        assert bare == wired  # compare=False: observation isn't state
        assert "metrics" not in wired.as_dict()
        assert bare.as_dict() == wired.as_dict()

    def test_with_metrics_folds_or_passes_through(self):
        snap = Snapshot(taken_at=1.0, shards=[self._stats(0)],
                        metrics=self._registry_dump(1))
        assert snap.with_metrics(None) is snap
        folded = snap.with_metrics(self._registry_dump(4))
        fams = folded.metrics["families"]
        assert fams["pint_collector_records_total"]["samples"][0]["value"] == 5


class TestParallelObs:
    def _feed(self, par, cols, batch=500):
        fids, pids, hops, digs = cols
        for lo in range(0, len(fids), batch):
            hi = min(lo + batch, len(fids))
            par.ingest_batch(fids[lo:hi], pids[lo:hi], hops[lo:hi],
                             digs[lo:hi])
        par.drain()

    def test_worker_registries_merge_into_snapshot(self):
        from repro.obs import MetricsRegistry
        obs = MetricsRegistry()
        cols = make_cols(3000)
        with ParallelCollector(
            congestion_consumer_factory(), workers=2, num_shards=4, obs=obs,
        ) as par:
            self._feed(par, cols)
            snap = par.snapshot()
        fams = snap.metrics["families"]
        records = fams["pint_collector_records_total"]["samples"]
        # Every worker contributed its own labelled stream, and the
        # streams sum to exactly what was scattered.
        assert {s["labels"]["worker"] for s in records} == {"0", "1"}
        assert sum(s["value"] for s in records) == 3000
        assert fams["pint_parallel_scatter_seconds"]["samples"][0]["count"] > 0

    def test_backlog_gauge_returns_to_zero_after_drain(self):
        from repro.obs import MetricsRegistry
        obs = MetricsRegistry()
        with ParallelCollector(
            congestion_consumer_factory(), workers=2, num_shards=4, obs=obs,
        ) as par:
            self._feed(par, make_cols(2000))
            fams = par.snapshot().metrics["families"]
            backlog = fams["pint_parallel_worker_backlog"]["samples"]
            assert {s["labels"]["worker"] for s in backlog} == {"0", "1"}
            assert all(s["value"] == 0 for s in backlog)
            sent = fams["pint_parallel_batches_sent_total"]["samples"]
            assert sum(s["value"] for s in sent) > 0

    def test_backlog_gauge_reads_zero_after_a_clean_close(self):
        from repro.obs import MetricsRegistry
        obs = MetricsRegistry()

        def backlog():
            fams = obs.as_dict()["families"]
            return {
                name: [s["value"] for s in fams[name]["samples"]]
                for name in (
                    "pint_parallel_worker_backlog",
                    "pint_parallel_ring_occupancy",
                )
            }

        par = ParallelCollector(
            congestion_consumer_factory(), workers=2, num_shards=4, obs=obs,
        )
        for i in range(5):
            par.ingest_batch([1, 2, 3, 4], [i] * 4, [3] * 4, [9] * 4)
        par.drain()
        assert par._sent == [5, 5]
        idle = {
            "pint_parallel_worker_backlog": [0.0, 0.0],
            "pint_parallel_ring_occupancy": [0.0, 0.0],
        }
        assert backlog() == idle
        par.close()
        # Every batch was applied before the stop: nothing is backlogged,
        # and the unlinked rings hold nothing.
        assert backlog() == idle

    def test_uninstrumented_snapshot_carries_no_metrics(self):
        with ParallelCollector(
            congestion_consumer_factory(), workers=2, num_shards=4,
        ) as par:
            self._feed(par, make_cols(1000))
            assert par.snapshot().metrics is None


class TestHopCountFrontDoor:
    def test_rejected_before_clock_or_scatter(self):
        cols = make_cols(n=600)
        with ParallelCollector(
            congestion_consumer_factory(), workers=2, num_shards=4
        ) as par:
            par.ingest_batch(*cols, now=1.0)
            par.drain()
            snap = par.snapshot().as_dict()
            for bad in (0, -1, 256, 3_000_000):
                with pytest.raises(ValueError, match=r"\[1, 255\]"):
                    par.ingest_batch(
                        [7, 8, 9], [1, 2, 3], [3, bad, 3], [1, 2, 3], now=2.0
                    )
            par.drain()  # nothing deferred: no worker ever saw a record
            assert par.now == 1.0
            assert par.snapshot().as_dict() == snap
            assert par.ingest_batch([7, 8], [1, 2], [1, 255], [0, 0],
                                    now=2.0) == 2
            par.drain()
            assert par.snapshot().records == snap["records"] + 2


def backlog_batches(count=6, packets=3000):
    """``count`` timed batches of web-search path records, and the
    factory of their sink: converging flows recur across batches."""
    from repro.collector import path_consumer_factory
    from repro.replay import TraceDataplane

    trace = build_trace("web-search", packets=packets, seed=4)
    dataplane = TraceDataplane(
        trace, digest_bits=8, num_hashes=1, mode="hash", seed=0
    )
    rows = np.arange(len(trace), dtype=np.int64)
    cols = (
        trace.flow_id, trace.pid, trace.hop_counts.astype(np.int64),
        dataplane.encode_rows(rows),
    )
    edges = np.linspace(0, len(trace), count + 1).astype(int)
    batches = [
        (tuple(c[lo:hi] for c in cols), 1.0 + 2.0 * i)
        for i, (lo, hi) in enumerate(zip(edges, edges[1:]))
    ]

    def factory():
        return path_consumer_factory(
            trace.universe, digest_bits=8, num_hashes=1, seed=0,
            mode="hash", value_bits=dataplane.value_bits,
        )

    return batches, factory


class TestBacklogRuns:
    """A worker folds what waits in its ring as one run, and the run
    leaves every shard exactly as one fold per batch would."""

    WORKERS, SHARDS = 2, 4

    def _reference(self, factory, batches):
        """The serial sink, and per worker a serial sink fed only the
        worker's share of every batch (what its checkpoint holds)."""
        serial = Collector(factory(), num_shards=self.SHARDS, seed=1)
        shares = [
            Collector(factory(), num_shards=self.SHARDS, seed=1)
            for _ in range(self.WORKERS)
        ]
        for columns, now in batches:
            serial.ingest_batch(*columns, now=now)
            wids = serial.router.shard_of_array(columns[0]) % self.WORKERS
            for w, share in enumerate(shares):
                mask = wids == w
                if mask.any():
                    share.ingest_batch(*(c[mask] for c in columns), now=now)
        return serial, shares

    def _stopped_backlog(self, par, batches):
        """Push ``batches`` while worker 0 is stopped, then let it go."""
        par.ingest_batch(*batches[0][0], now=batches[0][1])
        par.drain()
        os.kill(par._procs[0].pid, signal.SIGSTOP)
        try:
            for columns, now in batches[1:]:
                par.ingest_batch(*columns, now=now)
        finally:
            os.kill(par._procs[0].pid, signal.SIGCONT)

    def _assert_same_state(self, par, serial, shares):
        from repro.collector.parallel import _CHECKPOINT
        from repro.collector.recovery import (
            capture_checkpoint,
            decode_checkpoint,
            encode_checkpoint,
        )

        assert par.snapshot().as_dict() == serial.snapshot().as_dict()
        for w, share in enumerate(shares):
            state = decode_checkpoint(par._call(w, (_CHECKPOINT,)))
            blob = encode_checkpoint({**state, "metrics": None})
            assert blob == capture_checkpoint(share, worker=w), w

    def test_stopped_worker_folds_its_backlog_as_one_run(self):
        from repro.obs import MetricsRegistry

        batches, factory = backlog_batches()
        serial, shares = self._reference(factory, batches)
        with ParallelCollector(
            factory(), workers=self.WORKERS, num_shards=self.SHARDS, seed=1,
            obs=MetricsRegistry(),
        ) as par:
            self._stopped_backlog(par, batches)
            par.drain()
            fams = par.snapshot().metrics["families"]
            runs = {
                s["labels"]["worker"]: s
                for s in fams["pint_collector_run_batches"]["samples"]
            }
            # Worker 0 met its five waiting batches as one run.
            assert runs["0"]["sum"] == len(batches)
            assert runs["0"]["count"] < len(batches)
            assert runs["0"]["buckets"][0][1] < runs["0"]["count"]
            self._assert_same_state(par, serial, shares)

    def test_kill_during_the_run_recovers_the_same_state(self):
        batches, factory = backlog_batches()
        serial, shares = self._reference(factory, batches)
        with ParallelCollector(
            factory(), workers=self.WORKERS, num_shards=self.SHARDS, seed=1,
            checkpoint_every=100,
        ) as par:
            self._stopped_backlog(par, batches)
            # Killed wherever it is in the run it just resumed: the
            # checkpoint and journal rebuild the run's batches.
            os.kill(par._procs[0].pid, signal.SIGKILL)
            par.drain()
            assert par._restarts == [1, 0]
            assert par.snapshot().recovery.records_lost == 0
            self._assert_same_state(par, serial, shares)
