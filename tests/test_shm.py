"""Shared-memory ring transport: ring mechanics, edge cases, hygiene.

Covers the ring contract at three levels:

* :class:`ShmRing` in isolation -- publication order, FIFO, slot reuse
  under wraparound, backpressure, zero-copy single-slot messages,
  continuation reassembly of messages longer than the whole ring,
  oversized-slot rejection, producer liveness
  checks, and segment lifecycle (close/unlink leaves nothing
  attachable behind);
* the :class:`ParallelCollector` ring transport against serial ground
  truth, including rings so small every batch spans slots, mixed
  single-/multi-slot interleavings, one-record batches, and sub-batches
  larger than the whole ring;
* failure hygiene -- a worker killed mid-stream gets a *fresh* ring
  (the old segment is unlinked, not leaked) and the merged snapshot
  stays bit-identical, also when every journaled message spans
  slots; a full run under ``-W error::UserWarning`` produces no
  resource_tracker leak warnings.
"""

import subprocess
import sys
import textwrap
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro.collector import (
    Collector,
    ParallelCollector,
    congestion_consumer_factory,
    path_consumer_factory,
)
from repro.collector import parallel
from repro.collector.shm import PeerGoneError, RingMessage, ShmRing
from repro.faults import FaultPlan, kill_worker

REPO = Path(__file__).resolve().parent.parent


def make_cols(n=3000, flows=50, seed=7):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(1, flows, n),
        np.arange(1, n + 1),
        rng.integers(2, 7, n),
        rng.integers(0, 256, n),
    )


def batch_of(n, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(1, 40, n).astype(np.int64),
        np.arange(1, n + 1, dtype=np.int64),
        rng.integers(2, 7, n).astype(np.int64),
        rng.integers(0, 256, n).astype(np.int64),
    )


UNIVERSE = list(range(1, 33))


def path_factory():
    return path_consumer_factory(UNIVERSE, digest_bits=8, num_hashes=1,
                                 seed=3)


def congestion_factory():
    return congestion_consumer_factory(seed=3)


@pytest.fixture
def ring():
    r = ShmRing.create(slots=4, slot_records=64)
    yield r
    r.close()
    r.unlink()


# -- ring mechanics ----------------------------------------------------------

class TestShmRing:
    def test_push_take_roundtrip(self, ring):
        fids, pids, hops, digs = batch_of(10)
        assert ring.try_push(fids, pids, hops, digs, t=2.5)
        msg = ring.take()
        assert isinstance(msg, RingMessage)
        assert msg.t == 2.5
        for got, want in zip(msg.columns, (fids, pids, hops, digs)):
            np.testing.assert_array_equal(got, want)
        assert ring.take() is None

    def test_fifo_order_across_wraparound(self):
        # 2 slots, 7 messages: every slot is reused at least twice and
        # the consumer still sees pids in push order.
        r = ShmRing.create(slots=2, slot_records=8)
        try:
            seen = []
            pushed = 0
            while pushed < 7:
                cols = batch_of(3, seed=pushed)
                cols[1][:] = pushed  # stamp the batch with its index
                if r.try_push(*cols, t=float(pushed)):
                    pushed += 1
                    continue
                msg = r.take()
                assert msg is not None  # full ring implies ready slot
                seen.append(int(msg.columns[1][0]))
            while (msg := r.take()) is not None:
                seen.append(int(msg.columns[1][0]))
            assert seen == list(range(7))
        finally:
            r.close()
            r.unlink()

    def test_full_ring_refuses_push(self, ring):
        cols = batch_of(4)
        for _ in range(ring.slots):
            assert ring.try_push(*cols, t=0.0)
        assert not ring.try_push(*cols, t=0.0)
        # A zero-copy message keeps its slot until the next take().
        ring.take()
        assert not ring.try_push(*cols, t=0.0)
        ring.take()  # the first slot is freed
        assert ring.try_push(*cols, t=0.0)

    def test_occupancy_tracks_both_sides(self, ring):
        assert ring.occupancy() == 0
        cols = batch_of(2)
        ring.try_push(*cols, t=0.0)
        ring.try_push(*cols, t=0.0)
        assert ring.occupancy() == 2
        ring.take()
        assert ring.occupancy() == 2
        ring.take()
        assert ring.occupancy() == 1
        assert ring.take() is None
        assert ring.occupancy() == 0

    def test_oversized_try_push_raises(self, ring):
        assert ring.try_push(*batch_of(ring.slot_records), t=0.0)
        with pytest.raises(ValueError, match="exceeds slot capacity"):
            ring.try_push(*batch_of(ring.slot_records + 1), t=0.0)

    def test_five_slot_message_on_two_slot_ring(self):
        # A message longer than the whole ring, interleaved step by
        # step: the consumer copies each slot out and frees it, which
        # is what lets the producer publish the next one.
        r = ShmRing.create(slots=2, slot_records=4)
        try:
            cols = batch_of(18, seed=5)  # 4 + 4 + 4 + 4 + 2 records
            slices = [tuple(c[lo:lo + 4] for c in cols)
                      for lo in range(0, 18, 4)]
            for step in ([0, 1], [2, 3], [4]):
                for i in step:
                    assert r.try_push(*slices[i], t=7.5, more=i < 4)
                last = step[-1] == 4
                if not last:  # the ring is full: the producer waits
                    assert not r.try_push(*slices[step[-1] + 1], t=7.5)
                msg = r.take()
                assert (msg is None) != last
                assert r.mid_message != last
                assert r.occupancy() == 0  # copied out and released
            assert msg.t == 7.5
            for got, want in zip(msg.columns, cols):
                np.testing.assert_array_equal(got, want)
            assert r.take() is None
        finally:
            r.close()
            r.unlink()

    def test_push_splits_any_message_into_slots(self, ring):
        cols = batch_of(3 * ring.slot_records + 5, seed=2)
        ring.push(*cols, t=1.0, alive=lambda: True)
        assert ring.occupancy() == 4
        msg = ring.take()
        for got, want in zip(msg.columns, cols):
            np.testing.assert_array_equal(got, want)

    def test_single_slot_message_is_zero_copy(self, ring):
        peer = ShmRing.attach(*ring.spec())
        msg = segment = None
        try:
            cols = batch_of(ring.slot_records)
            ring.push(*cols, t=0.0, alive=lambda: True)
            msg = peer.take()
            segment = np.frombuffer(peer._shm.buf, dtype=np.uint8)
            assert all(np.shares_memory(c, segment) for c in msg.columns)
        finally:
            msg = segment = None
            peer.close()

    def test_push_wait_detects_dead_consumer(self, ring):
        cols = batch_of(1)
        for _ in range(ring.slots):
            ring.try_push(*cols, t=0.0)
        with pytest.raises(PeerGoneError, match="died"):
            ring.push_wait(
                lambda: ring.try_push(*cols, t=0.0), alive=lambda: False
            )

    def test_push_wait_times_out_on_wedged_consumer(self, ring):
        cols = batch_of(1)
        for _ in range(ring.slots):
            ring.try_push(*cols, t=0.0)
        with pytest.raises(PeerGoneError, match="wedged"):
            ring.push_wait(
                lambda: ring.try_push(*cols, t=0.0),
                alive=lambda: True,
                timeout=0.05,
            )

    def test_attach_sees_producer_writes(self, ring):
        peer = ShmRing.attach(*ring.spec())
        try:
            fids, pids, hops, digs = batch_of(5)
            ring.try_push(fids, pids, hops, digs, t=9.0)
            msg = peer.take()
            assert msg is not None and msg.t == 9.0
            np.testing.assert_array_equal(msg.columns[0], fids)
            assert peer.take() is None
            # Consumer progress is visible producer-side.
            assert ring.occupancy() == 0
        finally:
            # The RingMessage holds views into the segment; drop it so
            # close() can actually unmap (the contract callers obey).
            msg = None
            peer.close()

    def test_close_and_unlink_remove_the_segment(self):
        r = ShmRing.create(slots=2, slot_records=4)
        name = r.name
        r.close()
        r.unlink()
        r.unlink()  # idempotent
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_create_validation(self):
        with pytest.raises(ValueError):
            ShmRing.create(slots=1, slot_records=4)
        with pytest.raises(ValueError):
            ShmRing.create(slots=2, slot_records=0)


# -- transport equivalence ---------------------------------------------------

def ring_geometry(monkeypatch, slots=None, records=None):
    """Give the rings of collectors built from here on this geometry."""
    if slots is not None:
        monkeypatch.setattr(parallel, "RING_SLOTS", slots)
    if records is not None:
        monkeypatch.setattr(parallel, "RING_RECORDS", records)


def run_equivalence(factory, cols, batch=333):
    serial = Collector(factory(), num_shards=8, seed=1)
    fids, pids, hops, digs = cols
    now = 0.0
    with ParallelCollector(
        factory(), workers=2, num_shards=8, seed=1,
    ) as par:
        for lo in range(0, len(fids), batch):
            hi = min(lo + batch, len(fids))
            now += 1.0
            serial.ingest_batch(fids[lo:hi], pids[lo:hi], hops[lo:hi],
                                digs[lo:hi], now=now)
            par.ingest_batch(fids[lo:hi], pids[lo:hi], hops[lo:hi],
                             digs[lo:hi], now=now)
        par.drain()
        snap = par.snapshot()
        results = {int(f): par.result(int(f)) for f in np.unique(fids)}
    assert snap.as_dict() == serial.snapshot().as_dict()
    assert snap.records_lost == 0
    for fid, res in results.items():
        assert res == serial.result(fid)
    return snap


class TestShmTransportEquivalence:
    def test_tiny_ring_forces_fallback_everywhere(self, monkeypatch):
        # slot_records=16 < every sub-batch: every message of the
        # stream spans slots and is reassembled on the worker, in order.
        ring_geometry(monkeypatch, records=16)
        run_equivalence(congestion_factory, make_cols(n=2000))

    def test_sub_batch_larger_than_the_whole_ring(self, monkeypatch):
        # 2 slots x 64 records hold 128 records; each worker's share of
        # a 3,000-record batch is ~1,500, so every message outgrows the
        # ring and flows only because the worker frees slots as it
        # copies them out.
        ring_geometry(monkeypatch, slots=2, records=64)
        snap = run_equivalence(path_factory, make_cols(), batch=3000)
        assert all(shard.batches == 1 for shard in snap.shards
                   if shard.records)

    def test_mixed_fit_and_fallback_batches(self, monkeypatch):
        # Alternate batches above/below slot capacity so single-slot
        # and multi-slot messages interleave within one stream.
        factory = congestion_factory
        serial = Collector(factory(), num_shards=8, seed=1)
        fids, pids, hops, digs = make_cols(n=4000)
        ring_geometry(monkeypatch, records=256)
        with ParallelCollector(
            factory(), workers=2, num_shards=8, seed=1,
        ) as par:
            lo, now, step = 0, 0.0, 0
            while lo < len(fids):
                size = 100 if step % 2 == 0 else 700  # one / many slots
                hi = min(lo + size, len(fids))
                now += 1.0
                serial.ingest_batch(fids[lo:hi], pids[lo:hi], hops[lo:hi],
                                    digs[lo:hi], now=now)
                par.ingest_batch(fids[lo:hi], pids[lo:hi], hops[lo:hi],
                                 digs[lo:hi], now=now)
                lo, step = hi, step + 1
            par.drain()
            assert par.snapshot().as_dict() == serial.snapshot().as_dict()

    def test_one_record_batches_over_shm_transport(self):
        factory = congestion_factory
        serial = Collector(factory(), num_shards=4, seed=1)
        with ParallelCollector(
            factory(), workers=2, num_shards=4, seed=1,
        ) as par:
            for i in range(60):
                record = ([i % 9 + 1], [i], [4], [i % 256])
                serial.ingest_batch(*record, now=float(i))
                par.ingest_batch(*record, now=float(i))
            par.drain()
            assert par.snapshot().as_dict() == serial.snapshot().as_dict()

    def test_transport_validation(self):
        factory = congestion_factory
        with pytest.raises(ValueError):
            ParallelCollector(factory(), workers=2, num_shards=4,
                              transport="socket")
        # The pipe data plane is gone: "shm" is the one legal value.
        with pytest.raises(ValueError, match="removed in PR 14"):
            ParallelCollector(factory(), workers=2, num_shards=4,
                              transport="pipe")


# -- failure hygiene ---------------------------------------------------------

class TestShmFailureHygiene:
    def test_killed_worker_gets_fresh_ring_old_segment_unlinked(self):
        cols = make_cols()
        factory = path_factory
        serial = Collector(factory(), num_shards=8, seed=1)
        fids, pids, hops, digs = cols
        plan = FaultPlan([kill_worker(1, at_batch=3)])
        par = ParallelCollector(
            factory(), workers=2, num_shards=8, seed=1,
            checkpoint_every=4, faults=plan,
        ).start()
        try:
            old_names = [r.name for r in par._rings]
            now = 0.0
            for lo in range(0, len(fids), 300):
                hi = min(lo + 300, len(fids))
                now += 1.0
                serial.ingest_batch(fids[lo:hi], pids[lo:hi], hops[lo:hi],
                                    digs[lo:hi], now=now)
                par.ingest_batch(fids[lo:hi], pids[lo:hi], hops[lo:hi],
                                 digs[lo:hi], now=now)
            par.drain()
            snap = par.snapshot()
            assert plan.fired == [("kill", "worker=1", 3)]
            assert snap.recovery.restarts == 1
            assert snap.recovery.records_lost == 0
            assert snap.as_dict() == serial.snapshot().as_dict()
            # The replacement worker speaks over a *new* segment and
            # the dead worker's segment is gone from /dev/shm.
            assert par._rings[1].name != old_names[1]
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=old_names[1])
        finally:
            par.close()

    def test_kill_replays_multi_slot_messages_into_fresh_ring(
        self, monkeypatch
    ):
        # 16-record slots: every journaled sub-batch (~150 records)
        # spans about ten slots, live and on replay after the kill.
        fids, pids, hops, digs = make_cols()
        serial = Collector(path_factory(), num_shards=8, seed=1)
        plan = FaultPlan([kill_worker(1, at_batch=3)])
        ring_geometry(monkeypatch, slots=2, records=16)
        with ParallelCollector(
            path_factory(), workers=2, num_shards=8, seed=1,
            checkpoint_every=4, faults=plan,
        ) as par:
            for i, lo in enumerate(range(0, len(fids), 300)):
                hi = lo + 300
                serial.ingest_batch(fids[lo:hi], pids[lo:hi], hops[lo:hi],
                                    digs[lo:hi], now=float(i + 1))
                par.ingest_batch(fids[lo:hi], pids[lo:hi], hops[lo:hi],
                                 digs[lo:hi], now=float(i + 1))
            snap = par.snapshot()
            got = par.answers()
            # The replacement's fresh ring has the patched geometry too.
            ring = par._rings[1]
            assert (ring.slots, ring.slot_records) == (2, 16)
        assert plan.fired == [("kill", "worker=1", 3)]
        assert snap.recovery.restarts == 1
        assert snap.recovery.replayed_batches > 0
        assert snap.recovery.records_lost == 0
        assert snap.as_dict() == serial.snapshot().as_dict()
        want = serial.answers()
        for name in ("flow_id", "offsets", "values"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        for name, column in want.columns.items():
            assert np.array_equal(got.columns[name], column), name

    def test_close_unlinks_every_segment(self):
        par = ParallelCollector(
            congestion_factory(), workers=2, num_shards=4, seed=1,
        ).start()
        names = [r.name for r in par._rings]
        assert len(names) == 2
        par.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_no_resource_tracker_leak_warnings(self):
        # A full start/ingest/snapshot/close cycle under
        # warnings-as-errors: any "leaked shared_memory objects"
        # UserWarning from the resource tracker turns into a traceback
        # on stderr and fails the assertion.
        script = textwrap.dedent("""
            import numpy as np
            from repro.collector import (
                ParallelCollector, congestion_consumer_factory,
            )
            rng = np.random.default_rng(0)
            with ParallelCollector(
                congestion_consumer_factory(seed=3), workers=2,
                num_shards=4, seed=1,
            ) as par:
                for i in range(4):
                    par.ingest_batch(
                        rng.integers(1, 30, 500), np.arange(500),
                        rng.integers(2, 7, 500), rng.integers(0, 256, 500),
                    )
                par.drain()
                par.snapshot()
            print("OK")
        """)
        proc = subprocess.run(
            [sys.executable, "-W", "error::UserWarning", "-c", script],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin",
                 "PYTHONWARNINGS": "error::UserWarning"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout
        assert "leaked" not in proc.stderr
        assert "Traceback" not in proc.stderr
