"""Fault-tolerant collection: checkpoint/restore, journal, supervision.

Covers the PR-8 contract end to end:

* the checkpoint wire format round-trips and rejects, with typed
  errors, exactly the artifacts a crash-during-write produces
  (truncation, bad magic, version skew, CRC mismatch);
* ``restore(checkpoint(c)) == c`` at snapshot *and* per-flow-answer
  granularity, for every consumer kind, including LRU/TTL eviction
  order surviving the round trip (continued-ingest equality);
* the supervised :class:`ParallelCollector` survives SIGKILL, SIGSTOP
  and crash-timing edge cases (mid-batch, during a checkpoint write,
  before the first checkpoint) with merged snapshots bit-identical to
  a fault-free run;
* an undersized journal degrades gracefully -- shards marked, records
  lost accounted, no exception -- or raises when configured to;
* ``close()`` escalates SIGTERM -> SIGKILL on a stopped worker and
  reports it instead of leaking a zombie.
"""

import contextlib
import os
import signal
import subprocess
import sys
import time
import types

import numpy as np
import pytest

from repro.collector import (
    CHECKPOINT_VERSION,
    Collector,
    ParallelCollector,
    Snapshot,
    capture_checkpoint,
    congestion_consumer_factory,
    latency_consumer_factory,
    path_consumer_factory,
    read_checkpoint,
    restore_collector,
    write_checkpoint,
)
from repro.collector import parallel
from repro.collector.parallel import MAX_RESTARTS
from repro.collector.recovery import (
    BatchJournal,
    decode_checkpoint,
    encode_checkpoint,
    validate_checkpoint,
)
from repro.exceptions import (
    CheckpointError,
    CheckpointVersionError,
    RecoveryError,
    RestoreError,
    WorkerFailedError,
)
from repro.faults import (
    FaultPlan,
    corrupt_checkpoint,
    drop_checkpoint,
    kill_worker,
)

UNIVERSE = list(range(1, 33))


def make_cols(n=3000, flows=50, seed=5):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(1, flows, n),
        np.arange(1, n + 1),
        rng.integers(2, 7, n),
        rng.integers(0, 256, n),
    )


def feed(col, cols, batch=500, lo=0, hi=None):
    fids, pids, hops, digs = cols
    hi = len(fids) if hi is None else hi
    now = float(lo // batch)
    for b_lo in range(lo, hi, batch):
        b_hi = min(b_lo + batch, hi)
        now += 1.0
        col.ingest_batch(fids[b_lo:b_hi], pids[b_lo:b_hi],
                         hops[b_lo:b_hi], digs[b_lo:b_hi], now=now)
    return now


FACTORIES = {
    "congestion": lambda: congestion_consumer_factory(seed=3),
    "latency": lambda: latency_consumer_factory(seed=3),
    "path": lambda: path_consumer_factory(
        UNIVERSE, digest_bits=8, num_hashes=1, seed=3
    ),
}


#: What :class:`_Tripwire` leaves behind when a pickle of it is loaded.
_UNPICKLED = []


def _trip(mark):
    _UNPICKLED.append(mark)


class _Tripwire:
    """Pickles fine; unpickling it appends to :data:`_UNPICKLED`."""

    def __reduce__(self):
        return (_trip, ("loaded",))


# -- checkpoint format ------------------------------------------------------

class TestCheckpointFormat:
    def test_encode_decode_round_trip(self):
        state = {"a": 1, "nested": {"b": [1, 2, 3]}}
        assert decode_checkpoint(encode_checkpoint(state)) == state

    def test_short_header_rejected(self):
        with pytest.raises(CheckpointError, match="truncated"):
            validate_checkpoint(b"PC")

    def test_payload_naming_missing_code_is_a_checkpoint_error(
        self, monkeypatch
    ):
        # A CRC-valid blob from another build can name a class or a
        # module this build lacks; restore must say so with a typed,
        # chained error rather than a raw unpickling one.
        gone = types.ModuleType("repro_checkpoint_gone")

        class Carrier:
            pass

        Carrier.__module__ = gone.__name__
        Carrier.__qualname__ = "Carrier"
        gone.Carrier = Carrier
        monkeypatch.setitem(sys.modules, gone.__name__, gone)
        blob = encode_checkpoint({"collector": Carrier()})
        validate_checkpoint(blob)
        del gone.Carrier
        with pytest.raises(CheckpointError, match="Carrier") as exc:
            decode_checkpoint(blob, worker=2)
        assert isinstance(exc.value.__cause__, AttributeError)
        assert exc.value.worker == 2
        monkeypatch.delitem(sys.modules, gone.__name__)
        sink = Collector(FACTORIES["latency"](), num_shards=2)
        with pytest.raises(
            CheckpointError, match="repro_checkpoint_gone"
        ) as exc:
            restore_collector(sink, blob)
        assert isinstance(exc.value.__cause__, ModuleNotFoundError)

    def test_bad_magic_rejected(self):
        blob = bytearray(encode_checkpoint({}))
        blob[0] ^= 0xFF
        with pytest.raises(CheckpointError, match="magic"):
            validate_checkpoint(bytes(blob))

    def test_version_skew_rejected_with_version(self):
        blob = bytearray(encode_checkpoint({}))
        blob[4:6] = (CHECKPOINT_VERSION + 1).to_bytes(2, "little")
        with pytest.raises(CheckpointVersionError) as exc:
            validate_checkpoint(bytes(blob), worker=3)
        assert exc.value.version == CHECKPOINT_VERSION + 1
        assert exc.value.worker == 3

    def test_v1_blob_rejected(self):
        # v2 changed the pickled layout (consumers reference one shared
        # PathQueryContext per sink); a blob framed by the previous
        # release must fail loudly, never be misread.
        blob = bytearray(encode_checkpoint({}))
        blob[4:6] = (1).to_bytes(2, "little")
        with pytest.raises(CheckpointVersionError) as exc:
            decode_checkpoint(bytes(blob))
        assert exc.value.version == 1

    def test_v2_blob_rejected_before_unpickling(self):
        # v3 changed the pickled decoder shape (open hops only: no
        # singleton candidate arrays, no resolved pending entries) and
        # v4 replaced pickled path/congestion consumers by one store
        # capture per collector; v5 store captures name their query.  A
        # v2- to v4-framed blob is refused on its header; its payload --
        # here one that records being loaded -- is never unpickled.
        del _UNPICKLED[:]
        blob = bytearray(encode_checkpoint({"collector": _Tripwire()}))
        for stale in (2, 3, 4):
            blob[4:6] = stale.to_bytes(2, "little")
            with pytest.raises(CheckpointVersionError) as exc:
                decode_checkpoint(bytes(blob))
            assert exc.value.version == stale
        assert CHECKPOINT_VERSION == 5
        assert not _UNPICKLED
        blob[4:6] = (5).to_bytes(2, "little")
        decode_checkpoint(bytes(blob))
        assert _UNPICKLED == ["loaded"]

    def test_shared_context_is_pickled_once_per_blob(self):
        """N one-packet path flows: the blob grows by the per-flow
        state only, not by a universe/scheme/hash set per flow."""
        def blob_bytes(flows):
            col = Collector(FACTORIES["path"](), num_shards=2, seed=1)
            ids = np.arange(1, flows + 1)
            col.ingest_batch(
                ids, ids + 1000, np.full(flows, 4), ids % 256, now=1.0
            )
            assert len(col) == flows
            return len(capture_checkpoint(col))

        small, large = blob_bytes(100), blob_bytes(600)
        assert (large - small) / 500 < 300

    def test_truncated_payload_rejected(self):
        blob = encode_checkpoint({"k": list(range(100))})
        with pytest.raises(CheckpointError, match="truncated"):
            validate_checkpoint(blob[: len(blob) // 2])

    def test_flipped_payload_byte_fails_crc(self):
        blob = bytearray(encode_checkpoint({"k": 1}))
        blob[-1] ^= 0x01
        with pytest.raises(CheckpointError, match="CRC"):
            validate_checkpoint(bytes(blob))

    def test_version_error_is_checkpoint_error(self):
        # One except-clause catches the whole reject surface.
        assert issubclass(CheckpointVersionError, CheckpointError)
        assert issubclass(CheckpointError, RecoveryError)

    def test_file_write_is_atomic_and_readable(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        write_checkpoint(path, encode_checkpoint({"x": 7}))
        assert read_checkpoint(path) == {"x": 7}
        assert not os.path.exists(path + ".tmp")
        # Overwrite replaces wholesale.
        write_checkpoint(path, encode_checkpoint({"x": 8}))
        assert read_checkpoint(path) == {"x": 8}

    def test_torn_file_rejected(self, tmp_path):
        path = str(tmp_path / "torn.ckpt")
        blob = encode_checkpoint({"k": list(range(200))})
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) - 10])
        with pytest.raises(CheckpointError):
            read_checkpoint(path)


# -- restore(checkpoint(c)) == c -------------------------------------------

class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("kind", sorted(FACTORIES))
    def test_round_trip_identity(self, kind):
        cols = make_cols()
        col = Collector(FACTORIES[kind](), num_shards=4, seed=1)
        feed(col, cols)
        blob = capture_checkpoint(col, worker=0)
        fresh = Collector(FACTORIES[kind](), num_shards=4, seed=1)
        restore_collector(fresh, blob)
        assert fresh.snapshot().as_dict() == col.snapshot().as_dict()
        for fid in np.unique(cols[0]).tolist():
            assert fresh.result(fid) == col.result(fid)

    @pytest.mark.parametrize("kind", sorted(FACTORIES))
    def test_continued_ingest_equality(self, kind):
        # The stronger property: not just equal *now*, but equal under
        # every future ingest -- LRU order, TTL bookkeeping and
        # generation counters must all have survived the round trip.
        cols = make_cols(n=4000)
        col = Collector(FACTORIES[kind](), num_shards=4, seed=1,
                        max_flows_per_shard=6, ttl=3.0)
        feed(col, cols, hi=2000)
        blob = capture_checkpoint(col, worker=0)
        fresh = Collector(FACTORIES[kind](), num_shards=4, seed=1,
                          max_flows_per_shard=6, ttl=3.0)
        restore_collector(fresh, blob)
        feed(col, cols, lo=2000)
        feed(fresh, cols, lo=2000)
        assert fresh.snapshot().as_dict() == col.snapshot().as_dict()
        for fid in np.unique(cols[0]).tolist():
            assert fresh.result(fid) == col.result(fid)

    def test_half_converged_sink_resumes_identically(self):
        """A v3 blob cut while flows hold open candidate sets and live
        pending XOR digests: the restored sink equals the original now,
        flow by flow, and after the rest of the stream equals a sink
        that was never interrupted."""
        from test_first_touch import (
            feed_batched, flow_states, path_stream, sink,
        )

        universe, cols, kwargs = path_stream("web-search", 6000, bits=4)
        cut = 2048
        head = tuple(c[:cut] for c in cols)
        tail = tuple(c[cut:] for c in cols)
        interrupted, straight = sink(universe, kwargs), sink(universe, kwargs)
        feed_batched(interrupted, head, 512)
        feed_batched(straight, head, 512)
        states = flow_states(interrupted)
        half = [s[6] for s in states.values() if s[6] and s[0] is None]
        assert sum(1 for s in half if s[4]) > 5, "flows with open candidates"
        assert sum(1 for s in half if s[5]) > 5, "flows with live pending"
        restored = sink(universe, kwargs)
        restore_collector(restored, capture_checkpoint(interrupted))
        assert flow_states(restored) == states
        assert restored.snapshot().as_dict() == interrupted.snapshot().as_dict()
        feed_batched(restored, tail, 512)
        feed_batched(straight, tail, 512)
        assert flow_states(restored) == flow_states(straight)
        assert restored.snapshot().as_dict() == straight.snapshot().as_dict()
        assert any(s[0] is not None for s in flow_states(restored).values())

    def test_restore_rejects_shard_count_mismatch(self):
        col = Collector(congestion_consumer_factory(), num_shards=4)
        blob = capture_checkpoint(col)
        other = Collector(congestion_consumer_factory(), num_shards=8)
        with pytest.raises(RestoreError):
            restore_collector(other, blob)

    def test_metrics_sidecar_rides_along(self):
        col = Collector(congestion_consumer_factory(), num_shards=2)
        blob = capture_checkpoint(col, metrics={"m": 1}, worker=5)
        state = decode_checkpoint(blob)
        assert state["metrics"] == {"m": 1}
        assert state["worker"] == 5


class TestCheckpointNamesItsQuery:
    """A store capture is only meaningful under the query it was taken
    from: restoring it into a sink of another query is a typed
    RestoreError naming the first field that differs, raised before
    the sink is touched -- never a KeyError, never a silent restore."""

    @staticmethod
    def incast_path_blob():
        from repro.replay import TraceDataplane, build_trace

        trace = build_trace("incast", packets=2000, seed=0)
        dataplane = TraceDataplane(trace, mode="hash", seed=0)
        sink = Collector(
            path_consumer_factory(trace.universe, mode="hash", seed=0),
            num_shards=4,
        )
        sink.ingest_batch(
            trace.flow_id, trace.pid, trace.hop_counts,
            dataplane.encode_rows(np.arange(len(trace))), now=1.0,
        )
        assert len(sink) == 15
        return trace.universe, capture_checkpoint(sink)

    @staticmethod
    def refused(target, blob, field):
        target.ingest_batch([3], [1], [4], [5], now=0.5)
        before = target.snapshot().as_dict(), capture_checkpoint(target)
        with pytest.raises(RestoreError, match=f"{field}="):
            restore_collector(target, blob)
        assert (target.snapshot().as_dict(), capture_checkpoint(target)) \
            == before

    @pytest.mark.parametrize("field, kwargs", [
        ("mode", dict(mode="raw")),
        ("universe", dict(universe=list(range(1, 2000)))),
        ("num_hashes", dict(num_hashes=2)),
        ("digest_bits", dict(digest_bits=4)),
        ("seed", dict(seed=7)),
        ("scheme", dict(d=5)),
    ])
    def test_path_blob_refused_by_another_path_query(self, field, kwargs):
        universe, blob = self.incast_path_blob()
        kwargs = {"universe": universe, "mode": "hash", "seed": 0, **kwargs}
        target = Collector(path_consumer_factory(**kwargs), num_shards=4)
        self.refused(target, blob, field)

    def test_path_blob_refused_by_a_congestion_sink(self):
        _, blob = self.incast_path_blob()
        target = Collector(congestion_consumer_factory(), num_shards=4)
        self.refused(target, blob, "kind")

    @pytest.mark.parametrize("field, kwargs", [
        ("bits", dict(bits=6)),
        ("epsilon", dict(epsilon=0.05)),
        ("max_util", dict(max_util=4.0)),
    ])
    def test_congestion_blob_refused_by_another_codec(self, field, kwargs):
        col = Collector(congestion_consumer_factory(), num_shards=4)
        feed(col, make_cols())
        target = Collector(congestion_consumer_factory(**kwargs), num_shards=4)
        self.refused(target, capture_checkpoint(col), field)

    def test_same_query_restores(self):
        universe, blob = self.incast_path_blob()
        target = Collector(
            path_consumer_factory(universe, mode="hash", seed=0), num_shards=4
        )
        restore_collector(target, blob)
        assert len(target) == 15
        assert capture_checkpoint(target) == blob


# -- journal ----------------------------------------------------------------

class TestBatchJournal:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            BatchJournal(0)

    def test_append_within_capacity_never_evicts(self):
        j = BatchJournal(3)
        for i in range(3):
            assert j.append(("m", i), 10, {i: 10}) is None
        assert j.full and len(j) == 3 and j.records == 30

    def test_eviction_accrues_per_shard_loss(self):
        j = BatchJournal(2)
        j.append(("a",), 5, {0: 3, 1: 2})
        j.append(("b",), 4, {1: 4})
        evicted = j.append(("c",), 6, {2: 6})
        assert evicted is not None and evicted.msg == ("a",)
        assert j.dropped_batches == 1
        assert j.dropped_records == 5
        assert j.dropped_by_shard == {0: 3, 1: 2}

    def test_clear_and_clear_dropped_are_separate(self):
        j = BatchJournal(1)
        j.append(("a",), 1, {0: 1})
        j.append(("b",), 1, {0: 1})  # evicts a
        j.clear()
        assert len(j) == 0
        assert j.dropped_by_shard == {0: 1}  # ledger survives clear()
        j.clear_dropped()
        assert j.dropped_by_shard == {}

    def test_replay_is_fifo(self):
        j = BatchJournal(4)
        for i in range(4):
            j.append(("m", i), 1, {0: 1})
        assert j.replay_messages() == [("m", i) for i in range(4)]


# -- supervised recovery ----------------------------------------------------

def run_pair(cols, batch=300, faults=None, **sup_kw):
    """Feed identical batches to a serial and a supervised parallel
    collector; return both plus the parallel snapshot."""
    factory = FACTORIES["path"]
    serial = Collector(factory(), num_shards=8, seed=1)
    feed(serial, cols, batch=batch)
    with ParallelCollector(
        factory(), workers=2, num_shards=8, seed=1,
        checkpoint_every=sup_kw.pop("checkpoint_every", 4),
        faults=faults, **sup_kw,
    ) as par:
        feed(par, cols, batch=batch)
        par.drain()
        snap = par.snapshot()
        results = {
            int(f): par.result(int(f)) for f in np.unique(cols[0])
        }
    return serial, snap, results


class TestSupervisedRecovery:
    def test_dies_before_first_checkpoint(self):
        # checkpoint_every larger than the whole run: the kill lands
        # with no checkpoint ever taken; recovery restores-from-empty
        # and replays the *entire* journal.
        cols = make_cols(n=1500)
        plan = FaultPlan([kill_worker(0, at_batch=1)])
        serial, snap, results = run_pair(
            cols, batch=300, faults=plan, checkpoint_every=1000,
            journal_batches=1000,
        )
        assert snap.recovery.restarts == 1
        assert snap.recovery.checkpoints_taken == 0
        assert snap.as_dict() == serial.snapshot().as_dict()
        for fid, res in results.items():
            assert res == serial.result(fid)

    def test_dies_during_checkpoint_write(self):
        # The checkpoint write is corrupted (torn blob) and the worker
        # is killed before the next one lands: the parent must fall
        # back to the *previous* valid checkpoint + a longer journal,
        # and still reconverge bit-identically.
        cols = make_cols()
        plan = FaultPlan([
            corrupt_checkpoint(1, at=2),
            kill_worker(1, at_batch=11),
        ])
        serial, snap, results = run_pair(
            cols, batch=200, faults=plan, checkpoint_every=4,
            journal_batches=64,
        )
        assert ("corrupt_checkpoint", "worker=1", 2) in plan.fired
        assert snap.recovery.checkpoints_rejected >= 1
        assert snap.recovery.restarts == 1
        assert snap.recovery.records_lost == 0
        assert snap.as_dict() == serial.snapshot().as_dict()
        for fid, res in results.items():
            assert res == serial.result(fid)

    def test_one_record_batches_supervised_recovery(self):
        factory = FACTORIES["congestion"]
        serial = Collector(factory(), num_shards=4, seed=1)
        plan = FaultPlan([kill_worker(0, at_batch=5)])
        with ParallelCollector(
            factory(), workers=2, num_shards=4, seed=1,
            checkpoint_every=3, faults=plan,
        ) as par:
            for i in range(40):
                record = ([i % 7], [i], [4], [i % 256])
                serial.ingest_batch(*record, now=float(i))
                par.ingest_batch(*record, now=float(i))
            par.drain()
            assert plan.fired
            assert par.snapshot().as_dict() == serial.snapshot().as_dict()

    def test_undersized_journal_degrades_gracefully(self):
        # Checkpointing permanently failing + a tiny journal + a kill:
        # completes without an exception, marks exactly the starved
        # worker's shards degraded, and accounts the lost records.
        cols = make_cols()
        plan = FaultPlan([drop_checkpoint(0), kill_worker(0, at_batch=8)])
        serial, snap, results = run_pair(
            cols, faults=plan, checkpoint_every=2, journal_batches=2,
        )
        degraded = snap.degraded_shards
        assert degraded and all(s % 2 == 0 for s in degraded)
        assert snap.records_lost > 0
        assert snap.recovery.checkpoints_rejected > 0
        assert snap.recovery.journal_dropped_records >= snap.records_lost
        d = snap.as_dict()
        assert d["degraded_shards"] == degraded
        assert d["records_lost"] == snap.records_lost
        # Worker 1 was healthy: its flows still answer identically.
        healthy = [
            fid for fid in results
            if serial.router.shard_of(fid) % 2 == 1
        ]
        assert healthy
        for fid in healthy:
            assert results[fid] == serial.result(fid)

    def test_max_restarts_bounds_the_retry_storm(self):
        cols = make_cols()
        plan = FaultPlan([
            kill_worker(0, at_batch=k) for k in range(2, MAX_RESTARTS + 3)
        ])
        par = ParallelCollector(
            FACTORIES["path"](), workers=2, num_shards=8, seed=1,
            checkpoint_every=4, faults=plan,
        )
        try:
            with pytest.raises(RecoveryError, match="MAX_RESTARTS") as exc:
                feed(par, cols, batch=200)
                par.drain()
            assert exc.value.worker == 0
            assert par.recovery_stats().restarts == MAX_RESTARTS + 1
        finally:
            # The second kill's victim is dead un-recovered, so close()
            # reports it too; that report must not mask the typed error
            # above (hence the explicit lifecycle, not a with-block).
            with pytest.raises(RuntimeError):
                par.close(timeout=2.0)

    def test_supervision_param_validation(self):
        factory = congestion_consumer_factory()
        with pytest.raises(ValueError, match="checkpoint_every"):
            ParallelCollector(factory, workers=2, num_shards=4,
                              journal_batches=8)
        with pytest.raises(ValueError, match="checkpoint_every"):
            ParallelCollector(factory, workers=2, num_shards=4,
                              faults=FaultPlan())
        # wedge_timeout is detection, not recovery: legal on its own.
        ParallelCollector(factory, workers=2, num_shards=4,
                          wedge_timeout=1.0).close()
        with pytest.raises(ValueError):
            ParallelCollector(factory, workers=2, num_shards=4,
                              checkpoint_every=0)

    def test_recovery_stats_ride_compare_false(self):
        # A recovered run and a fault-free run with bit-identical
        # collector state must compare equal as Snapshot objects:
        # the ledger is a sidecar, not part of identity.
        cols = make_cols(n=1200)
        plan = FaultPlan([kill_worker(1, at_batch=2)])
        _, faulted, _ = run_pair(cols, faults=plan)
        _, clean, _ = run_pair(cols, faults=None)
        assert faulted.recovery is not None
        assert faulted.recovery.restarts == 1
        assert clean.recovery.restarts == 0
        assert clean.recovery.checkpoints_taken > 0
        assert faulted == clean
        assert "recovery" not in faulted.as_dict()

    def test_unsupervised_snapshot_carries_no_recovery(self):
        with ParallelCollector(
            congestion_consumer_factory(), workers=2, num_shards=4,
        ) as par:
            par.ingest_batch([1, 2, 3], [1, 2, 3], [3, 3, 3], [5, 6, 7])
            par.drain()
            assert par.snapshot().recovery is None


# -- one RPC discipline: recover or raise -----------------------------------

def owned_flow(par, worker, start=1):
    """The first flow id >= ``start`` that ``worker`` owns."""
    fid = start
    while par._worker_of(par.router.shard_of(fid)) != worker:
        fid += 1
    return fid


#: Requests that outgrow a pipe's buffer (320 KB and 870 KB pickled):
#: a sink's one worker cannot take them whole while stopped.
LARGE_REQUESTS = {
    "answers": lambda sink: sink.answers(np.arange(1, 40_001)),
    "flows": lambda sink: sink.flows(list(range(1, 200_001))),
}


@contextlib.contextmanager
def sigcont_watchdog(pid, after=8.0):
    """Resume the stopped process ``pid`` after ``after`` seconds.

    A wait that does not give up on a stopped worker then ends late,
    and the test fails on its time bound instead of hanging the suite.
    The alarm is a timer signal, not a thread: the collector under
    test forks replacement workers.
    """
    def resume(signum, frame):
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGCONT)

    previous = signal.signal(signal.SIGALRM, resume)
    signal.setitimer(signal.ITIMER_REAL, after)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestWorkerLossMidRpc:
    def test_supervised_gather_recovers_only_the_dead_worker(self):
        # Worker 1 is killed with both workers' backlogs unfolded, so
        # snapshot()/flows() have asked worker 0 (reply pending) when
        # they meet the corpse: only worker 1 may be replaced and
        # re-asked, and the answers must equal the serial collector's.
        cols = make_cols()
        factory = FACTORIES["path"]
        serial = Collector(factory(), num_shards=8, seed=1)
        feed(serial, cols)
        fids = np.unique(cols[0]).tolist()
        with ParallelCollector(
            factory(), workers=2, num_shards=8, seed=1, checkpoint_every=4,
        ) as par:
            feed(par, cols)
            os.kill(par._procs[1].pid, signal.SIGKILL)
            snap = par.snapshot()
            assert par._restarts == [0, 1]
            os.kill(par._procs[1].pid, signal.SIGKILL)
            consumers = par.flows(fids)
            assert par._restarts == [0, 2]
        assert snap.recovery.records_lost == 0
        assert snap.as_dict() == serial.snapshot().as_dict()
        for fid, consumer in zip(fids, consumers):
            assert consumer.result() == serial.result(fid)

    def test_supervised_answers_recovers_only_the_dead_worker(self):
        # Same meeting point for the columnar read: worker 0's table
        # is pending when answers() finds worker 1 dead; worker 1 alone
        # is replaced and re-asked, and the merged table is the serial
        # collector's, column for column.
        cols = make_cols()
        factory = FACTORIES["path"]
        serial = Collector(factory(), num_shards=8, seed=1)
        feed(serial, cols)
        want = serial.answers()
        with ParallelCollector(
            factory(), workers=2, num_shards=8, seed=1, checkpoint_every=4,
        ) as par:
            feed(par, cols)
            os.kill(par._procs[1].pid, signal.SIGKILL)
            got = par.answers()
            assert par._restarts == [0, 1]
            os.kill(par._procs[1].pid, signal.SIGKILL)
            subset = par.answers(want.flow_id[::3])
            assert par._restarts == [0, 2]
            assert par.snapshot().recovery.records_lost == 0
        assert got.kind == want.kind == "path"
        for name in ("flow_id", "offsets", "values"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        for name, column in want.columns.items():
            assert np.array_equal(got.columns[name], column), name
            assert np.array_equal(subset.columns[name], column[::3]), name

    def test_unsupervised_death_mid_flows_raises_without_stranding(self):
        par = ParallelCollector(
            congestion_consumer_factory(), workers=2, num_shards=4,
        ).start()
        fids = list(range(1, 41))
        par.ingest_batch(fids, fids, [3] * 40, [9] * 40)
        par.drain()
        os.kill(par._procs[1].pid, signal.SIGKILL)
        start = time.monotonic()
        with pytest.raises(WorkerFailedError, match="worker 1"):
            par.flows(fids)
        # Worker 0's reply was consumed, not stranded: its next RPC
        # returns its own answer, and close() handshakes with it while
        # reporting the corpse instead of hanging on either.
        survivor = owned_flow(par, 0)
        assert par.flow(survivor).max_code == 9
        with pytest.raises(WorkerFailedError, match="worker 1"):
            par.close(timeout=5.0)
        assert time.monotonic() - start < 10.0

    def test_unsupervised_wedge_timeout_bounds_every_wait(self, monkeypatch):
        # The bug: a SIGSTOPped worker is alive, so a blocking recv (or
        # a full-ring spin) waited on it forever.  wedge_timeout alone
        # now bounds drain(), flows() and the push, and names the worker.
        monkeypatch.setattr(parallel, "RING_SLOTS", 2)
        par = ParallelCollector(
            congestion_consumer_factory(), workers=2, num_shards=4,
            wedge_timeout=0.5,
        ).start()
        victim = par._procs[0]
        fid = owned_flow(par, 0)
        try:
            par.ingest_batch([fid], [1], [3], [9])
            par.drain()
            os.kill(victim.pid, signal.SIGSTOP)
            start = time.monotonic()
            with pytest.raises(WorkerFailedError, match="worker 0 wedged"):
                par.drain()
            with pytest.raises(WorkerFailedError, match="worker 0 wedged"):
                par.flows([fid])
            with pytest.raises(WorkerFailedError, match="worker 0.*wedged"):
                for pid in range(2, 6):
                    par.ingest_batch([fid], [pid], [3], [9])
            assert time.monotonic() - start < 8.0
        finally:
            os.kill(victim.pid, signal.SIGCONT)
            par.close(timeout=5.0)

    def test_unsupervised_wedge_timeout_bounds_a_batch_larger_than_the_ring(
        self, monkeypatch
    ):
        # 20,000 records are 20 slots of a 8 x 1,024-record ring, and
        # would pickle to more than a pipe buffer holds: the push must
        # give up on the stopped worker after wedge_timeout, not block.
        monkeypatch.setattr(parallel, "RING_RECORDS", 1024)
        par = ParallelCollector(
            congestion_consumer_factory(), workers=1, num_shards=1,
            wedge_timeout=1.0,
        ).start()
        victim = par._procs[0]
        n = 20_000
        ids = np.arange(1, n + 1)
        try:
            os.kill(victim.pid, signal.SIGSTOP)
            start = time.monotonic()
            with pytest.raises(WorkerFailedError, match="worker 0.*wedged"):
                par.ingest_batch(ids, ids, np.full(n, 3), np.full(n, 9))
            assert time.monotonic() - start < 8.0
        finally:
            os.kill(victim.pid, signal.SIGCONT)
            par.close(timeout=5.0)

    @pytest.mark.parametrize("call", sorted(LARGE_REQUESTS))
    def test_unsupervised_wedge_timeout_bounds_a_request_larger_than_the_pipe(
        self, call
    ):
        # The request itself outgrows the pipe's buffer, so its send
        # -- not the reply -- is what waits on the stopped worker: it
        # must give up after wedge_timeout too, and the pipe it left
        # half-written must not be used again by close().
        par = ParallelCollector(
            congestion_consumer_factory(), workers=1, num_shards=2,
            wedge_timeout=0.5,
        ).start()
        procs = list(par._procs)
        victim = procs[0]
        fid = owned_flow(par, 0)
        try:
            par.ingest_batch([fid], [1], [3], [9])
            par.drain()
            os.kill(victim.pid, signal.SIGSTOP)
            with sigcont_watchdog(victim.pid):
                start = time.monotonic()
                with pytest.raises(WorkerFailedError, match="worker 0"):
                    LARGE_REQUESTS[call](par)
                assert time.monotonic() - start < 5.0
                with pytest.raises(WorkerFailedError, match="worker 0"):
                    par.close(timeout=5.0)
            assert not any(proc.is_alive() for proc in procs)
        finally:
            if victim.is_alive():
                os.kill(victim.pid, signal.SIGCONT)
            par.close(timeout=5.0)

    @pytest.mark.parametrize("call", sorted(LARGE_REQUESTS))
    def test_supervised_request_larger_than_the_pipe_restarts_the_worker(
        self, call
    ):
        # The same stall under supervision is one restart: the request
        # goes again to the replacement, whose answer is the serial
        # collector's.
        cols = make_cols()
        factory = FACTORIES["path"]
        serial = Collector(factory(), num_shards=8, seed=1)
        feed(serial, cols)
        with ParallelCollector(
            factory(), workers=1, num_shards=8, seed=1, checkpoint_every=2,
            wedge_timeout=0.5,
        ) as par:
            feed(par, cols)
            par.drain()
            victim = par._procs[0]
            os.kill(victim.pid, signal.SIGSTOP)
            with sigcont_watchdog(victim.pid):
                start = time.monotonic()
                got = LARGE_REQUESTS[call](par)
                elapsed = time.monotonic() - start
            assert par._restarts == [1]
        assert elapsed < 5.0
        want = LARGE_REQUESTS[call](serial)
        if call == "flows":
            assert [c and c.result() for c in got] == [
                c and c.result() for c in want
            ]
        else:
            assert np.array_equal(got.flow_id, want.flow_id)
            assert np.array_equal(got.offsets, want.offsets)
            assert np.array_equal(got.values, want.values)
            for name, column in want.columns.items():
                assert np.array_equal(got.columns[name], column), name


# -- close() escalation -----------------------------------------------------

class TestCloseEscalation:
    def test_stopped_worker_is_sigkilled_and_reported(self):
        # SIGSTOP makes a worker immune to SIGTERM (the signal stays
        # pending while the process is stopped): only the SIGKILL rung
        # of the escalation can reap it.  close() must do so and say
        # so, not hang or leak a zombie.
        par = ParallelCollector(
            congestion_consumer_factory(), workers=2, num_shards=4,
        ).start()
        par.ingest_batch([1, 2, 3, 4], [1, 2, 3, 4], [3, 3, 3, 3],
                         [9, 9, 9, 9])
        par.drain()
        victim = par._procs[0]
        os.kill(victim.pid, signal.SIGSTOP)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="SIGKILL"):
            par.close(timeout=1.0)
        assert time.monotonic() - start < 10.0
        assert not victim.is_alive()
        assert not par._procs

    @pytest.mark.parametrize("sig", ["SIGSTOP", "SIGKILL"])
    def test_exit_with_a_collector_open_reaps_its_workers(self, sig, tmp_path):
        # multiprocessing's exit hook SIGTERMs daemonic children and
        # joins them with no timeout: a stopped worker used to hang
        # the interpreter there (a failing test that kept a collector
        # alive hung the whole suite after its summary).
        pids = tmp_path / "pids"
        script = (
            "import os, signal\n"
            "from repro.collector import congestion_consumer_factory\n"
            "from repro.collector.parallel import ParallelCollector\n"
            "par = ParallelCollector(congestion_consumer_factory(),\n"
            "                        workers=2, num_shards=4)\n"
            "par.ingest_batch([1, 2], [1, 2], [3, 3], [9, 9])\n"
            "par.drain()\n"
            f"open({str(pids)!r}, 'w').write(\n"
            "    ' '.join(str(p.pid) for p in par._procs))\n"
            f"os.kill(par._procs[1].pid, signal.{sig})\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        # Its own session, so a hang can be killed workers and all.
        proc = subprocess.Popen(
            [sys.executable, "-c", script], env=env,
            stdout=subprocess.DEVNULL, start_new_session=True,
        )
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            pytest.fail("the interpreter hung at exit on an open collector")
        assert proc.returncode == 0
        for pid in map(int, pids.read_text().split()):
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)  # reaped, not left running or stopped

    def test_healthy_close_needs_no_escalation(self):
        par = ParallelCollector(
            congestion_consumer_factory(), workers=2, num_shards=4,
        ).start()
        par.ingest_batch([1, 2], [1, 2], [3, 3], [5, 6])
        par.close()  # no exception: every worker stopped cooperatively
