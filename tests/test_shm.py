"""Shared-memory ring transport: ring mechanics, edge cases, hygiene.

Covers the PR-10 tentpole contract at three levels:

* :class:`ShmRing` in isolation -- publication order, FIFO, slot reuse
  under wraparound, backpressure, tombstones, oversized-batch
  rejection, producer liveness checks, and segment lifecycle
  (close/unlink leaves nothing attachable behind);
* the :class:`ParallelCollector` shm transport against serial ground
  truth, including rings so small every batch takes the pipe fallback
  (the _SIDE/tombstone ordering protocol carries the whole stream) and
  mixed fits/doesn't-fit interleavings;
* failure hygiene -- a worker killed mid-stream gets a *fresh* ring
  (the old segment is unlinked, not leaked) and the merged snapshot
  stays bit-identical; a full run under ``-W error::UserWarning``
  produces no resource_tracker leak warnings.
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
from repro.collector.shm import (
    KIND_DATA,
    KIND_TOMBSTONE,
    PeerGoneError,
    RingSlot,
    ShmRing,
)
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
    def test_push_peek_roundtrip(self, ring):
        fids, pids, hops, digs = batch_of(10)
        assert ring.try_push(fids, pids, hops, digs, t=2.5)
        slot = ring.peek()
        assert isinstance(slot, RingSlot)
        assert slot.kind == KIND_DATA
        assert slot.t == 2.5
        np.testing.assert_array_equal(slot.columns[0], fids)
        np.testing.assert_array_equal(slot.columns[1], pids)
        np.testing.assert_array_equal(slot.columns[2], hops)
        np.testing.assert_array_equal(slot.columns[3], digs)
        ring.advance()
        assert ring.peek() is None

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
                slot = r.peek()
                assert slot is not None  # full ring implies ready slot
                seen.append(int(slot.columns[1][0]))
                r.advance()
            while (slot := r.peek()) is not None:
                seen.append(int(slot.columns[1][0]))
                r.advance()
            assert seen == list(range(7))
        finally:
            r.close()
            r.unlink()

    def test_full_ring_refuses_push(self, ring):
        cols = batch_of(4)
        for _ in range(ring.slots):
            assert ring.try_push(*cols, t=0.0)
        assert not ring.try_push(*cols, t=0.0)
        assert not ring.try_push_tombstone(1)
        ring.peek()
        ring.advance()  # one slot freed
        assert ring.try_push(*cols, t=0.0)

    def test_occupancy_tracks_both_sides(self, ring):
        assert ring.occupancy() == 0
        cols = batch_of(2)
        ring.try_push(*cols, t=0.0)
        ring.try_push(*cols, t=0.0)
        assert ring.occupancy() == 2
        ring.peek()
        ring.advance()
        assert ring.occupancy() == 1

    def test_fits_and_oversized_push_raises(self, ring):
        assert ring.fits(ring.slot_records)
        assert not ring.fits(ring.slot_records + 1)
        with pytest.raises(ValueError):
            ring.try_push(*batch_of(ring.slot_records + 1), t=0.0)

    def test_tombstone_carries_side_index(self, ring):
        assert ring.try_push_tombstone(42)
        slot = ring.peek()
        assert slot.kind == KIND_TOMBSTONE
        assert slot.side == 42
        assert all(len(c) == 0 for c in slot.columns)
        ring.advance()

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
        peer = ShmRing.attach(*ring.spec("fork"))
        try:
            fids, pids, hops, digs = batch_of(5)
            ring.try_push(fids, pids, hops, digs, t=9.0)
            slot = peer.peek()
            assert slot is not None and slot.t == 9.0
            np.testing.assert_array_equal(slot.columns[0], fids)
            peer.advance()
            # Consumer progress is visible producer-side.
            assert ring.occupancy() == 0
        finally:
            # The RingSlot holds views into the segment; drop it so
            # close() can actually unmap (the contract callers obey).
            slot = None
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
            ShmRing.create(slots=1)
        with pytest.raises(ValueError):
            ShmRing.create(slot_records=0)


# -- transport equivalence ---------------------------------------------------

def run_equivalence(factory, cols, batch=333, **par_kw):
    serial = Collector(factory(), num_shards=8, seed=1)
    fids, pids, hops, digs = cols
    now = 0.0
    with ParallelCollector(
        factory(), workers=2, num_shards=8, seed=1, **par_kw
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
    for fid, res in results.items():
        assert res == serial.result(fid)


class TestShmTransportEquivalence:
    def test_tiny_ring_forces_fallback_everywhere(self):
        # slot_records=16 < every batch: the whole stream travels the
        # _SIDE/tombstone pipe fallback, in order.
        run_equivalence(
            congestion_factory, make_cols(n=2000), ring_records=16,
        )

    def test_mixed_fit_and_fallback_batches(self):
        # Alternate batches above/below slot capacity so ring slots
        # and pipe fallbacks interleave within one stream.
        factory = congestion_factory
        serial = Collector(factory(), num_shards=8, seed=1)
        fids, pids, hops, digs = make_cols(n=4000)
        with ParallelCollector(
            factory(), workers=2, num_shards=8, seed=1,
            ring_records=256,
        ) as par:
            lo, now, step = 0, 0.0, 0
            while lo < len(fids):
                size = 100 if step % 2 == 0 else 700  # fits / falls back
                hi = min(lo + size, len(fids))
                now += 1.0
                serial.ingest_batch(fids[lo:hi], pids[lo:hi], hops[lo:hi],
                                    digs[lo:hi], now=now)
                par.ingest_batch(fids[lo:hi], pids[lo:hi], hops[lo:hi],
                                 digs[lo:hi], now=now)
                lo, step = hi, step + 1
            par.drain()
            assert par.snapshot().as_dict() == serial.snapshot().as_dict()

    def test_scalar_ingest_over_shm_transport(self):
        factory = congestion_factory
        serial = Collector(factory(), num_shards=4, seed=1)
        with ParallelCollector(
            factory(), workers=2, num_shards=4, seed=1,
        ) as par:
            for i in range(60):
                serial.ingest(i % 9 + 1, i, 4, i % 256, now=float(i))
                par.ingest(i % 9 + 1, i, 4, i % 256, now=float(i))
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
        with pytest.raises(ValueError):
            ParallelCollector(factory(), workers=2, num_shards=4,
                              ring_slots=1)
        with pytest.raises(ValueError):
            ParallelCollector(factory(), workers=2, num_shards=4,
                              ring_records=0)


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
