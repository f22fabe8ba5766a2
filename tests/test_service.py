"""Live collector service: wire codec, server, senders, query port, CLI.

Covers the PR-6 contract: the binary frame layout is pinned byte for
byte (golden vectors) and version-checked before anything else is
trusted; malformed input of every shape is rejected with typed errors
and counted per reason, never crashed on; the server admits only
reliable frames and parks them unacked on a full queue; the
seq/ACK/RTO sender delivers exactly once under heavy simulated loss,
and a flushed sender's batches are already folded;
fragment reassembly keeps wire-fed collectors bit-identical to
in-process ingest (snapshots and per-flow answers alike, including
through ``ReplayDriver(transport=...)``); and both collector
implementations refuse post-close ingest with the same typed error.
"""

import dataclasses
import json
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.collector import (
    Collector,
    ParallelCollector,
    congestion_consumer_factory,
    path_consumer_factory,
)
from repro.exceptions import CollectorClosedError, ReproError
from repro.replay import ReplayDriver
from repro.service import (
    AckFrame,
    BadFrameError,
    BadMagicError,
    BadVersionError,
    CollectorServer,
    DataFrame,
    DeliveryError,
    QueryClient,
    QueryError,
    QueryHandler,
    QueryServer,
    ReliableUDPSender,
    ServiceError,
    TruncatedFrameError,
    WireError,
    decode_frame,
    decode_frames,
    encode_ack,
    encode_frame,
    encode_frames,
)
from repro.service import client, wire
from repro.service.client import MAX_RETRIES, WINDOW
from repro.service.query import jsonable
from repro.service.server import _STOP, REORDER_LIMIT
from repro.service import __main__ as service_main
from repro.service.__main__ import build_parser, main

UNIVERSE = list(range(1, 33))
REPO = Path(__file__).resolve().parent.parent


def make_collector(**kw):
    kw.setdefault("num_shards", 4)
    kw.setdefault("seed", 0)
    return Collector(
        path_consumer_factory(UNIVERSE, digest_bits=8, num_hashes=1, seed=0),
        **kw,
    )


def batch(n, base=0):
    """A deterministic n-record columnar batch."""
    fids = np.arange(base, base + n, dtype=np.int64) % 17
    pids = np.arange(base, base + n, dtype=np.int64)
    hops = np.full(n, 4, dtype=np.int64)
    digs = (pids * 31 + 7) % 251
    return fids, pids, hops, digs


FAST_RTO = dict(min_rto=0.005, initial_rto=0.02, max_rto=0.1)


def stamp_ago(seconds):
    """The send stamp a transmission ``seconds`` ago carried."""
    return (client._stamp() - int(seconds * 1e6)) % 2**32


# -- wire: golden layout ----------------------------------------------------

class TestWireGolden:
    def test_data_frame_bytes_pinned(self):
        # One record (1, 2, 3, 4), now=1.5, seq=7: the exact wire
        # image, pinned so any layout change is a deliberate VERSION
        # bump, not an accident.  Encoded unsent: send stamp 0.
        got = encode_frame([1], [2], [3], [4], 1.5, 7)
        assert got.hex() == (
            "50490201070000000100000000000000000000f83f00000000"
            "0100000000000000020000000000000003000000000000000400000000000000"
        )

    def test_frame_starts_with_magic_and_version(self):
        frame = encode_frame([1], [2], [3], [4], 0.0, 0)
        assert frame[:2] == b"PI"
        assert frame[2] == wire.VERSION

    def test_empty_no_time_frame_bytes_pinned(self):
        got = encode_frame([], [], [], [], None, 0)
        assert got.hex() == "50490201000000000000000004000000000000000000000000"

    def test_ack_bytes_pinned(self):
        assert encode_ack(9, 0x01020304).hex() == "504902020900000004030201"

    def test_send_stamp_bytes_pinned(self):
        frame = bytearray(encode_frame([1], [2], [3], [4], 1.5, 7))
        wire.stamp_frame(frame, 0x0A0B0C0D)
        assert frame[21:25].hex() == "0d0c0b0a"
        assert decode_frame(bytes(frame)).stamp == 0x0A0B0C0D

    def test_header_sizes(self):
        # 25-byte data header + 32 bytes per record; 12-byte ACK; a
        # full datagram still carries 2046 records.
        assert len(encode_frame([1], [2], [3], [4], 0.0, 0)) == 25 + 32
        assert len(encode_ack(0, 0)) == 12
        assert wire.MAX_UDP_RECORDS == 2046


# -- wire: round trips ------------------------------------------------------

class TestWireRoundTrip:
    def test_single_frame_round_trip(self):
        fids, pids, hops, digs = batch(10)
        frame = decode_frame(encode_frame(fids, pids, hops, digs, 2.5, 3))
        assert isinstance(frame, DataFrame)
        assert frame.seq == 3 and frame.now == 2.5 and frame.count == 10
        assert not frame.reliable and not frame.more
        np.testing.assert_array_equal(frame.flow_ids, fids)
        np.testing.assert_array_equal(frame.pids, pids)
        np.testing.assert_array_equal(frame.hop_counts, hops)
        np.testing.assert_array_equal(frame.digests, digs)

    def test_no_time_round_trip(self):
        frame = decode_frame(encode_frame([1], [2], [3], [4], None, 0))
        assert frame.now is None

    def test_zero_record_frame_round_trip(self):
        frame = decode_frame(encode_frame([], [], [], [], 1.0, 5))
        assert frame.count == 0 and frame.seq == 5

    def test_negative_int64_round_trip(self):
        vals = np.array([-1, -(2**62), 2**62], dtype=np.int64)
        frame = decode_frame(encode_frame(vals, vals, vals, vals, 0.0, 0))
        np.testing.assert_array_equal(frame.digests, vals)

    def test_ack_round_trip(self):
        frame = decode_frame(encode_ack(41, 2**32 - 1))
        assert isinstance(frame, AckFrame) and frame.seq == 41
        assert frame.echo == 2**32 - 1

    def test_earliest_stamp_wraps(self):
        assert wire.earliest_stamp(5, 9) == 5
        assert wire.earliest_stamp(9, 5) == 5
        # Just before the wrap is earlier than just past it.
        assert wire.earliest_stamp(2**32 - 3, 4) == 2**32 - 3
        assert wire.earliest_stamp(4, 2**32 - 3) == 2**32 - 3

    def test_fragmentation_flags_and_seqs(self):
        fids, pids, hops, digs = batch(10)
        frames = encode_frames(fids, pids, hops, digs, 1.0,
                               start_seq=5, max_records=4)
        decoded = [decode_frame(f) for f in frames]
        assert [f.seq for f in decoded] == [5, 6, 7]
        assert [f.more for f in decoded] == [True, True, False]
        assert [f.count for f in decoded] == [4, 4, 2]
        np.testing.assert_array_equal(
            np.concatenate([f.pids for f in decoded]), pids
        )

    def test_empty_batch_encodes_no_frames(self):
        assert encode_frames([], [], [], [], 1.0) == []

    def test_decode_frames_buffer(self):
        fids, pids, hops, digs = batch(6)
        buf = b"".join(encode_frames(fids, pids, hops, digs, 1.0,
                                     max_records=2)) + encode_ack(3, 0)
        frames = decode_frames(buf)
        assert len(frames) == 4
        assert sum(f.count for f in frames[:-1]) == 6
        assert isinstance(frames[-1], AckFrame)

    def test_oversized_single_frame_rejected(self):
        with pytest.raises(ValueError):
            n = wire.MAX_FRAME_RECORDS + 1
            encode_frame(np.zeros(n, dtype=np.int64),
                         np.zeros(n, dtype=np.int64),
                         np.zeros(n, dtype=np.int64),
                         np.zeros(n, dtype=np.int64), 0.0, 0)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=300),
        max_records=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**31),
        reliable=st.booleans(),
    )
    def test_round_trip_property(self, n, max_records, seed, reliable):
        rng = np.random.default_rng(seed)
        cols = rng.integers(-(2**63), 2**63, size=(4, n), dtype=np.int64)
        frames = encode_frames(*cols, 3.25, max_records=max_records,
                               reliable=reliable)
        decoded = decode_frames(b"".join(frames))
        assert len(decoded) == (n + max_records - 1) // max_records
        assert wire.encoded_records(frames) == n
        if n:
            back = [
                np.concatenate([f.flow_ids for f in decoded]),
                np.concatenate([f.pids for f in decoded]),
                np.concatenate([f.hop_counts for f in decoded]),
                np.concatenate([f.digests for f in decoded]),
            ]
            for sent, got in zip(cols, back):
                np.testing.assert_array_equal(sent, got)
            assert all(f.reliable == reliable for f in decoded)
            assert [f.more for f in decoded][-1] is False


# -- wire: malformed input --------------------------------------------------

class TestWireMalformed:
    def test_truncated_prefix(self):
        with pytest.raises(TruncatedFrameError):
            decode_frame(b"PI")

    def test_truncated_data_header(self):
        # A header cut short is truncation, not a frame of zero records.
        frame = encode_frame([1], [2], [3], [4], 0.0, 0)
        with pytest.raises(TruncatedFrameError):
            decode_frame(frame[:10])
        with pytest.raises(TruncatedFrameError):
            decode_frames(encode_ack(0, 0) + frame[:10])

    def test_truncated_columns(self):
        frame = encode_frame([1], [2], [3], [4], 0.0, 0)
        with pytest.raises(TruncatedFrameError):
            decode_frame(frame[:-5])

    def test_bad_magic(self):
        with pytest.raises(BadMagicError):
            decode_frame(b"XX" + encode_ack(0, 0)[2:])

    def test_bad_version_carries_version(self):
        frame = bytearray(encode_ack(0, 0))
        frame[2] = 99
        with pytest.raises(BadVersionError) as err:
            decode_frame(bytes(frame))
        assert err.value.version == 99

    def test_unknown_frame_type(self):
        bad = struct.pack("<HBBI", wire.MAGIC, wire.VERSION, 77, 0)
        with pytest.raises(BadFrameError):
            decode_frame(bad)

    def test_trailing_bytes_rejected(self):
        with pytest.raises(BadFrameError):
            decode_frame(encode_ack(0, 0) + b"\x00")

    def test_absurd_count_rejected_without_allocation(self):
        bad = struct.pack("<HBBIIBdI", wire.MAGIC, wire.VERSION, wire.FT_DATA,
                          0, 2**31, 0, 0.0, 0)
        with pytest.raises(BadFrameError):
            decode_frame(bad)

    def test_unknown_flag_bits_rejected(self):
        bad = struct.pack("<HBBIIBdI", wire.MAGIC, wire.VERSION, wire.FT_DATA,
                          0, 0, 0x80, 0.0, 0)
        with pytest.raises(BadFrameError):
            decode_frame(bad)

    def test_errors_are_typed(self):
        for exc in (TruncatedFrameError, BadMagicError, BadVersionError,
                    BadFrameError):
            assert issubclass(exc, WireError)
        assert issubclass(WireError, ReproError)


# -- server: admission policy (no sockets) ----------------------------------

def data_frame(seq, n=1, reliable=False, more=False):
    fids, pids, hops, digs = batch(n, base=seq * 100)
    return decode_frame(encode_frame(fids, pids, hops, digs, 1.0, seq,
                                     reliable=reliable, more=more))


class TestAdmissionPolicy:
    """Unit tests on the admission path, listener threads not running."""

    def make_server(self, **kw):
        kw.setdefault("queue_frames", 2)
        return CollectorServer(make_collector(), **kw)

    def test_unreliable_frame_refused_as_bad_frame(self):
        # Without FLAG_RELIABLE there is no seq stream to dedup, order
        # or ACK: the frame is a bad frame, never queued, never ACKed.
        srv = self.make_server(queue_frames=2)
        addr = ("127.0.0.1", 9)
        for seq in range(3):
            srv._admit(data_frame(seq), addr)
        stats = srv.service_stats()
        assert stats.dropped_bad_frame == 3
        assert stats.frames_received == 0
        assert stats.dropped_queue_full == 0
        assert stats.acks_sent == 0
        assert srv._queue.qsize() == 0
        assert srv._peers == {}

    def test_garbage_datagram_counted_as_bad_frame(self):
        srv = self.make_server()
        srv._on_datagram(b"not a frame at all", ("127.0.0.1", 9))
        assert srv.service_stats().dropped_bad_frame == 1

    def test_version_1_frame_refused(self):
        # Version 1 frames had no send stamp: a v2 sink refuses them
        # as a version, never misparses them.
        srv = self.make_server()
        frame = bytearray(encode_frame([1], [2], [3], [4], 0.0, 0))
        frame[2] = 1
        with pytest.raises(BadVersionError) as err:
            decode_frame(bytes(frame))
        assert err.value.version == 1
        srv._on_datagram(bytes(frame), ("127.0.0.1", 9))
        assert srv.service_stats().dropped_bad_version == 1

    def test_future_version_counted_separately(self):
        srv = self.make_server()
        frame = bytearray(encode_frame([1], [2], [3], [4], 0.0, 0))
        frame[2] = wire.VERSION + 1
        srv._on_datagram(bytes(frame), ("127.0.0.1", 9))
        stats = srv.service_stats()
        assert stats.dropped_bad_version == 1
        assert stats.dropped_bad_frame == 0

    def test_reliable_duplicate_not_requeued(self):
        srv = self.make_server(queue_frames=8)
        addr = ("127.0.0.1", 9)
        srv._admit(data_frame(0, reliable=True), addr)
        srv._admit(data_frame(0, reliable=True), addr)
        stats = srv.service_stats()
        assert stats.duplicate_frames == 1
        assert srv._queue.qsize() == 1

    def test_reliable_out_of_order_delivered_in_seq_order(self):
        srv = self.make_server(queue_frames=8)
        addr = ("127.0.0.1", 9)
        for seq in (2, 0, 1):
            srv._admit(data_frame(seq, reliable=True), addr)
        seqs = [srv._queue.get_nowait()[1].seq for _ in range(3)]
        assert seqs == [0, 1, 2]

    def test_reliable_window_overflow_refused(self):
        srv = self.make_server(queue_frames=8)
        addr = ("127.0.0.1", 9)
        srv._admit(data_frame(REORDER_LIMIT + 1, reliable=True), addr)
        assert srv.service_stats().dropped_window == 1
        srv._admit(data_frame(REORDER_LIMIT, reliable=True), addr)
        assert srv.service_stats().dropped_window == 1
        assert list(srv._peers[addr].buffer) == [REORDER_LIMIT]
        assert srv._queue.qsize() == 0

    def test_reliable_queue_full_parks_unacked(self):
        srv = self.make_server(queue_frames=1)
        addr = ("127.0.0.1", 9)
        srv._admit(data_frame(0, reliable=True), addr)
        srv._admit(data_frame(1, reliable=True), addr)
        stats = srv.service_stats()
        # Frame 1 is parked in the reorder buffer, not lost: the
        # sender's retransmit will re-offer it.
        assert stats.dropped_queue_full == 1
        assert 1 in srv._peers[addr].buffer

    def test_reliable_peers_keyed_by_address(self):
        # Each UDP source address owns its own seq space: seq 0 from a
        # second address is a new frame, not a duplicate.
        srv = self.make_server(queue_frames=4)
        a, b = ("127.0.0.1", 9), ("127.0.0.1", 10)
        srv._admit(data_frame(0, reliable=True), a)
        srv._admit(data_frame(0, reliable=True), b)
        assert srv._queue.qsize() == 2
        assert set(srv._peers) == {a, b}
        assert srv.service_stats().duplicate_frames == 0

    def test_unreliable_frame_leaves_no_peer_state(self):
        # A refused frame touches no seq space: its source gets no
        # peer entry, and a reliable seq 0 from the same address
        # afterwards is a new frame, not a duplicate.
        srv = self.make_server(queue_frames=4)
        addr = ("127.0.0.1", 9)
        srv._admit(data_frame(0), addr)
        srv._admit(data_frame(0, more=True), addr)
        assert srv._peers == {}
        srv._admit(data_frame(0, reliable=True), addr)
        assert srv._queue.qsize() == 1
        assert srv._peers[addr].expected == 1
        stats = srv.service_stats()
        assert stats.duplicate_frames == 0
        assert stats.dropped_bad_frame == 2

    def acks_of(self, arrivals):
        """The ACKs ``(seq, echo)`` an ingest thread sends for frames
        ``(seq, more, stamp)`` that arrived in that order and were all
        admitted before it took the first."""
        srv = self.make_server(queue_frames=8)
        addr = ("127.0.0.1", 9)
        for seq, more, stamp in arrivals:
            frame = data_frame(seq, reliable=True, more=more)
            srv._admit(dataclasses.replace(frame, stamp=stamp), addr)
        acks = []
        srv._send_ack = lambda to, seq, echo: acks.append((seq, echo))
        srv._queue.put(_STOP)
        srv._ingest_loop()
        return acks

    def test_ack_echoes_the_earliest_releasing_stamp(self):
        # One ACK for a batch whose frames were taken together: it
        # times the frame that waited longest for the fold.  Frame 2
        # waited behind the hole frame 1's resend filled, so it counts
        # as released by that resend (300), not by its own send (150).
        acks = self.acks_of([(0, True, 100), (2, False, 150), (1, True, 300)])
        assert acks == [(2, 100)]

    def test_hole_filler_stamp_replaces_held_frames(self):
        # A frame held behind a hole is timed from the transmission
        # that filled the hole: its own earlier stamp would time its
        # wait behind the hole.
        acks = self.acks_of([(1, False, 50), (0, True, 300)])
        assert acks == [(1, 300)]

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            CollectorServer(make_collector(), udp_port=None)
        with pytest.raises(ValueError):
            CollectorServer(make_collector(), queue_frames=0)

    def test_tcp_port_takes_only_none(self):
        # The keyword the frozen bench/ passes: None still starts a
        # server, and a port number is refused -- UDP is the only
        # data transport.
        with pytest.raises(ValueError, match="tcp_port"):
            CollectorServer(make_collector(), tcp_port=0)
        srv = CollectorServer(make_collector(), tcp_port=None).start()
        assert srv.udp_port > 0
        srv.close()


# -- server + senders over loopback ----------------------------------------

class TestLoopbackService:
    def test_udp_ingest_matches_in_process(self):
        direct = make_collector()
        served = make_collector()
        with CollectorServer(served) as srv:
            tx = ReliableUDPSender("127.0.0.1", srv.udp_port, max_records=64)
            for i in range(4):
                cols = batch(150, base=i * 1000)
                direct.ingest_batch(*cols, now=float(i))
                tx.send_batch(*cols, now=float(i))
            tx.close()
            srv.drain()
            assert served.snapshot().as_dict() == direct.snapshot().as_dict()
            for fid in range(17):
                d, s = direct.flow(fid), served.flow(fid)
                assert (d is None) == (s is None)
                if d is not None:
                    assert d.result() == s.result()

    def test_reliable_delivers_all_under_10pct_loss(self):
        rng = np.random.default_rng(7)
        with CollectorServer(make_collector()) as srv:
            tx = ReliableUDPSender(
                "127.0.0.1", srv.udp_port, max_records=16,
                drop_fn=lambda seq, attempt: bool(rng.random() < 0.10),
                **FAST_RTO,
            )
            sent = 0
            for i in range(4):
                sent += tx.send_batch(*batch(200, base=i * 1000),
                                      now=float(i))
            tx.flush()
            stats = srv.service_stats()
            # 100% delivered, exactly once, despite per-transmission loss.
            assert stats.records_ingested == sent == 800
            assert stats.batches_ingested == 4
            assert tx.retransmits > 0

    def test_reliable_heavy_loss_exactly_once(self):
        rng = np.random.default_rng(3)
        direct = make_collector()
        served = make_collector()
        with CollectorServer(served) as srv:
            tx = ReliableUDPSender(
                "127.0.0.1", srv.udp_port, max_records=8,
                drop_fn=lambda seq, attempt: bool(rng.random() < 0.35),
                **FAST_RTO,
            )
            cols = batch(300)
            direct.ingest_batch(*cols, now=1.0)
            tx.send_batch(*cols, now=1.0)
            tx.flush()
            srv.drain()
            # Frames were lost and resent on the wire, yet the
            # collector saw the batch exactly once.
            assert tx.retransmits > 0
            assert served.snapshot().as_dict() == direct.snapshot().as_dict()

    def test_batch_longer_than_the_window(self):
        # 38 frames through the 32-frame window: the sender needs ACKs
        # before the batch's last fragment is even sent, so the server
        # must ACK fragments it holds for reassembly once its queue
        # runs dry -- or the two wait on each other until send_timeout.
        direct = make_collector()
        served = make_collector()
        with CollectorServer(served) as srv:
            tx = ReliableUDPSender(
                "127.0.0.1", srv.udp_port, max_records=8,
                send_timeout=5.0,
            )
            cols = batch(300)
            direct.ingest_batch(*cols, now=1.0)
            tx.send_batch(*cols, now=1.0)
            tx.flush()
            assert tx.frames_sent > WINDOW
            srv.drain()
            stats = srv.service_stats()
            assert stats.records_ingested == 300
            assert stats.batches_ingested == 1
            assert served.snapshot().as_dict() == direct.snapshot().as_dict()
            tx.close()

    @pytest.mark.parametrize("holes", [{4}, {2, 4, 6}])
    def test_one_resend_per_hole(self, holes):
        # One timer resends only the frame the cumulative ACK is stuck
        # on: the frames behind each hole wait in the server's reorder
        # buffer, so none of them is resent or arrives twice.
        with CollectorServer(make_collector()) as srv:
            tx = ReliableUDPSender(
                "127.0.0.1", srv.udp_port, max_records=16,
                min_rto=0.1, initial_rto=0.3,
                drop_fn=lambda seq, attempt: attempt == 0 and seq in holes,
            )
            # Warm the sink (seq 0), so its first fold does not land
            # in the RTO; then one 8-frame batch, seqs 1..8.
            tx.send_batch(*batch(16), now=0.0)
            tx.flush()
            tx.send_batch(*batch(128, base=1000), now=1.0)
            tx.flush()
            stats = srv.service_stats()
            assert tx.retransmits == len(holes)
            assert stats.duplicate_frames == 0
            assert stats.records_ingested == 144
            tx.close()

    def test_rtt_sampled_under_per_batch_loss(self):
        # Every batch loses the first transmission of its first frame,
        # so every ACK retires a resent frame.  Timing a frame from its
        # first send, Karn's rule refused each such ACK: no sample ever
        # came and the back-off doubled on (srtt None, 3.2 s to flush).
        # The echoed send stamp makes every ACK a sample.
        with CollectorServer(make_collector()) as srv:
            tx = ReliableUDPSender(
                "127.0.0.1", srv.udp_port, max_records=16,
                min_rto=0.01, initial_rto=0.05,
                drop_fn=lambda seq, attempt: attempt == 0 and seq % 4 == 0,
            )
            start = time.perf_counter()
            for i in range(6):
                tx.send_batch(*batch(64, base=1000 * i), now=float(i))
            tx.flush()
            elapsed = time.perf_counter() - start
            assert tx.retransmits >= 6
            assert srv.service_stats().records_ingested == 6 * 64
            assert tx.srtt is not None
            assert elapsed < 1.0
            tx.close()

    def test_two_reliable_senders_interleaved(self):
        # Two sources, each with its own seq space starting at 0,
        # interleaved batch by batch: every record lands exactly once.
        # No loss and an RTO well above a fold's latency, so nothing
        # is resent and no frame arrives twice.
        direct = make_collector()
        served = make_collector()
        with CollectorServer(served) as srv:
            txs = [ReliableUDPSender("127.0.0.1", srv.udp_port,
                                     max_records=32, min_rto=0.2,
                                     initial_rto=0.5)
                   for _ in range(2)]
            for i in range(3):
                for k, tx in enumerate(txs):
                    cols = batch(100, base=(2 * i + k) * 1000)
                    direct.ingest_batch(*cols, now=float(i))
                    tx.send_batch(*cols, now=float(i))
                    tx.flush()
            for tx in txs:
                tx.close()
            srv.drain()
            stats = srv.service_stats()
            assert stats.records_ingested == 600
            assert [tx.retransmits for tx in txs] == [0, 0]
            assert stats.duplicate_frames == 0
            assert served.snapshot().as_dict() == direct.snapshot().as_dict()

    def test_unreachable_sink_raises_delivery_error(self):
        with CollectorServer(make_collector()) as srv:
            tx = ReliableUDPSender(
                "127.0.0.1", srv.udp_port, max_records=8,
                drop_fn=lambda seq, attempt: True, **FAST_RTO,
            )
            tx.send_batch(*batch(8), now=1.0)
            with pytest.raises(DeliveryError, match=f"after {MAX_RETRIES} "):
                tx.flush(timeout=10.0)
            assert tx.retransmits == MAX_RETRIES
            tx.sock.close()

    def test_unreliable_datagram_refused_over_loopback(self):
        # A frame without FLAG_RELIABLE off the wire is counted as a
        # bad frame and never ACKed; the reliable stream beside it
        # is folded.
        with CollectorServer(make_collector()) as srv, socket.socket(
            socket.AF_INET, socket.SOCK_DGRAM
        ) as probe:
            probe.settimeout(0.2)
            for payload in encode_frames(*batch(50), 1.0, max_records=16):
                probe.sendto(payload, ("127.0.0.1", srv.udp_port))
            with ReliableUDPSender("127.0.0.1", srv.udp_port) as tx:
                tx.send_batch(*batch(30), now=1.0)
            stats = srv.service_stats()
            assert stats.dropped_bad_frame == 4
            assert stats.records_ingested == 30
            with pytest.raises(socket.timeout):
                probe.recvfrom(64)
            assert len(srv._peers) == 1

    def test_flush_returns_with_every_record_folded(self):
        # One batch of 38 frames through the 32-frame window, with lost
        # transmissions and the ingest thread stalled on the batch's
        # last frame: the server ACKs that frame only after folding
        # the batch, so flush() returning is the fold barrier -- no
        # wait_for_records.
        from repro.faults import FaultPlan, stall_queue

        plan = FaultPlan([stall_queue(1, 0.1), stall_queue(38, 0.3)])
        direct = make_collector()
        served = make_collector()
        with CollectorServer(served, faults=plan) as srv:
            tx = ReliableUDPSender(
                "127.0.0.1", srv.udp_port, max_records=8,
                drop_fn=lambda seq, attempt: attempt == 0 and seq % 5 == 2,
                **FAST_RTO,
            )
            cols = batch(300)
            direct.ingest_batch(*cols, now=1.0)
            sent = tx.send_batch(*cols, now=1.0)
            tx.flush()
            stats = srv.service_stats()
            assert ("stall_queue", "queue", 38) in plan.fired
            assert tx.retransmits > 0
            assert stats.records_ingested == sent == 300
            assert stats.batches_ingested == tx.batches_sent == 1
            assert served.snapshot().as_dict() == direct.snapshot().as_dict()
            tx.close()

    def test_bad_datagram_counted_not_fatal(self):
        with CollectorServer(make_collector()) as srv:
            probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            probe.sendto(b"\xff" * 40, ("127.0.0.1", srv.udp_port))
            probe.close()
            with ReliableUDPSender("127.0.0.1", srv.udp_port) as tx:
                tx.send_batch(*batch(10), now=1.0)
            assert srv.service_stats().dropped_bad_frame == 1

    def test_snapshot_carries_service_stats(self):
        with CollectorServer(make_collector()) as srv:
            with ReliableUDPSender("127.0.0.1", srv.udp_port) as tx:
                tx.send_batch(*batch(30), now=1.0)
            snap = srv.snapshot()
            assert snap.service is not None
            assert snap.service.records_ingested == 30
            assert snap.as_dict()["service"]["batches_ingested"] == 1
            # A bare collector snapshot stays service-less (and thus
            # ==-comparable with in-process runs).
            assert srv.collector.snapshot().as_dict()["service"] is None

    def test_wait_for_records_times_out_with_shortfall(self):
        with CollectorServer(make_collector()) as srv:
            with pytest.raises(ServiceError, match="only 0 arrived"):
                srv.wait_for_records(10, timeout=0.1)

    def test_wait_for_records_raises_an_ingest_failure_at_once(self):
        """A batch the collector's front door refuses never counts as
        ingested: the wait must say why, not sleep out its timeout."""
        from repro.exceptions import WorkerFailedError

        srv = CollectorServer(make_collector()).start()
        tx = ReliableUDPSender("127.0.0.1", srv.udp_port, **FAST_RTO)
        fids, pids, hops, digs = batch(8)
        tx.send_batch(fids, pids, np.full(8, 300), digs, now=1.0)
        tx.flush()
        began = time.monotonic()
        with pytest.raises(WorkerFailedError, match=r"\[1, 255\]"):
            srv.wait_for_records(8, timeout=30)
        assert time.monotonic() - began < 1.0
        # Raised once; the server keeps serving.
        tx.send_batch(fids, pids, hops, digs, now=2.0)
        tx.flush()
        srv.wait_for_records(8, timeout=30)
        srv.close()

    def test_post_close_use_raises(self):
        srv = CollectorServer(make_collector()).start()
        srv.close()
        srv.close()  # idempotent
        with pytest.raises(ServiceError):
            srv.drain()
        with pytest.raises(ServiceError):
            srv.start()

    def test_close_while_a_connection_thread_is_starting(self, monkeypatch):
        # close() racing the query port's accept loop: a connection
        # thread must not be joinable-but-unstarted when close() walks
        # the list.
        paused, release = threading.Event(), threading.Event()
        start = threading.Thread.start

        def slow_start(thread):
            if thread.name == "service-query-conn":
                paused.set()
                release.wait(timeout=10.0)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", slow_start)
        srv = CollectorServer(make_collector(), query_port=0).start()
        client = socket.create_connection(("127.0.0.1", srv.query_port))
        try:
            assert paused.wait(timeout=10.0)
            errors = []

            def close():
                try:
                    srv.close()
                except Exception as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)

            closer = threading.Thread(target=close)
            start(closer)
            # Long enough for close() to reach the connection threads;
            # it must be waiting on the accept loop instead.
            closer.join(timeout=0.5)
            release.set()
            closer.join(timeout=10.0)
            assert not closer.is_alive()
            assert errors == []
        finally:
            release.set()
            client.close()
            srv.close()


# -- post-close ingest parity ----------------------------------------------

class TestCollectorClosedParity:
    def test_serial_post_close_ingest_raises_typed(self):
        coll = make_collector()
        coll.ingest_batch(*batch(10), now=1.0)
        coll.close()
        with pytest.raises(CollectorClosedError):
            coll.ingest_batch(*batch(5), now=2.0)
        with pytest.raises(CollectorClosedError):
            coll.ingest(1, 2, 4, 3, now=2.0)

    def test_serial_post_close_evict_and_expire_raise(self):
        # Both drop state, so both are writes: refused like ingest,
        # leaving every flow and counter where close() found them.
        coll = Collector(congestion_consumer_factory(), num_shards=2, ttl=5.0)
        coll.ingest_batch([1, 2, 3, 4], [1, 2, 3, 4], [3] * 4, [7] * 4,
                          now=1.0)
        coll.close()
        before = coll.snapshot().as_dict()
        with pytest.raises(CollectorClosedError):
            coll.evict(1)
        with pytest.raises(CollectorClosedError):
            coll.expire(now=10.0)
        assert len(coll) == 4 and coll.flow(1) is not None
        assert coll.snapshot().as_dict() == before

    def test_serial_reads_stay_valid_after_close(self):
        coll = make_collector()
        coll.ingest_batch(*batch(10), now=1.0)
        coll.close()
        assert coll.closed
        assert coll.snapshot().records == 10

    def test_parallel_post_close_raises_same_type(self):
        par = ParallelCollector(
            path_consumer_factory(UNIVERSE, digest_bits=8, num_hashes=1,
                                  seed=0),
            workers=2, num_shards=4, seed=0,
        )
        par.ingest_batch(*batch(10), now=1.0)
        par.close()
        with pytest.raises(CollectorClosedError):
            par.ingest_batch(*batch(5), now=2.0)

    def test_closed_error_is_runtime_error(self):
        # Existing callers catching RuntimeError keep working.
        assert issubclass(CollectorClosedError, RuntimeError)
        assert issubclass(CollectorClosedError, ReproError)


# -- query port -------------------------------------------------------------

class TestQueryHandler:
    def make_handler(self, coll=None):
        import threading
        return QueryHandler(coll or make_collector(), threading.Lock())

    def test_ping(self):
        assert self.make_handler().handle({"op": "ping"})["ok"] is True

    def test_unknown_op_and_bad_request(self):
        h = self.make_handler()
        assert h.handle({"op": "frobnicate"})["ok"] is False
        assert h.handle("not a dict")["ok"] is False

    def test_snapshot_dict(self):
        coll = make_collector()
        coll.ingest_batch(*batch(25), now=1.0)
        response = self.make_handler(coll).handle({"op": "snapshot"})
        assert response["ok"] and response["snapshot"]["records"] == 25

    def test_flow_known_and_unknown(self):
        coll = make_collector()
        coll.ingest_batch(*batch(25), now=1.0)
        h = self.make_handler(coll)
        known = h.handle({"op": "flow", "flow_id": 1})
        assert known["ok"] and known["known"] is True
        assert {"complete", "coverage", "result"} <= known.keys()
        unknown = h.handle({"op": "flow", "flow_id": 10**9})
        assert unknown["ok"] and unknown["known"] is False

    def test_flow_id_validation(self):
        h = self.make_handler()
        assert h.handle({"op": "flow", "flow_id": "seven"})["ok"] is False
        assert h.handle({"op": "flow", "flow_id": True})["ok"] is False

    def test_bulk_flows(self):
        coll = make_collector()
        coll.ingest_batch(*batch(25), now=1.0)
        response = self.make_handler(coll).handle(
            {"op": "flows", "flow_ids": [0, 1, 10**9]}
        )
        assert response["ok"]
        assert [f["known"] for f in response["flows"]] == [True, True, False]

    def test_stats_only_on_service_endpoints(self):
        assert self.make_handler().handle({"op": "stats"})["ok"] is False

    def test_jsonable_sanitises(self):
        out = jsonable({
            1: float("nan"), "inf": float("inf"),
            "arr": np.arange(3), "np": np.int64(7), "t": (1, 2),
        })
        assert out == {"1": None, "inf": None, "arr": [0, 1, 2],
                       "np": 7, "t": [1, 2]}
        json.dumps(out, allow_nan=False)


class TestQueryServer:
    def test_query_round_trips(self):
        import threading
        coll = make_collector()
        coll.ingest_batch(*batch(40), now=1.0)
        qs = QueryServer(coll, threading.Lock()).start()
        try:
            with QueryClient("127.0.0.1", qs.port) as client:
                assert client.ping()
                assert client.snapshot()["records"] == 40
                assert client.flow(1)["known"] is True
                with pytest.raises(QueryError):
                    client.request({"op": "nope"})
                # Malformed JSON gets an error response, and the
                # connection survives for the next request.
                client.sock.sendall(b"{broken\n")
                line = client._fh.readline()
                assert json.loads(line)["ok"] is False
                assert client.ping()
        finally:
            qs.close()

    def test_server_attached_query_port(self):
        with CollectorServer(make_collector(), query_port=0) as srv:
            with ReliableUDPSender("127.0.0.1", srv.udp_port) as tx:
                tx.send_batch(*batch(30), now=1.0)
            with QueryClient("127.0.0.1", srv.query_port) as client:
                assert client.stats()["records_ingested"] == 30
                snap = client.snapshot()
                assert snap["records"] == 30
                assert snap["service"]["frames_received"] == 1


class TestCumulativeAck:
    def make_tx(self, frames):
        # Every transmission is dropped: the sender's bookkeeping only.
        tx = ReliableUDPSender("127.0.0.1", 1,
                               drop_fn=lambda seq, attempt: True)
        tx.sock.close()
        for seq in range(frames):
            tx.inflight[seq] = bytearray(encode_frame([], [], [], [], 0.0, seq))
        return tx

    def test_ack_retires_every_frame_up_to_its_seq(self):
        tx = self.make_tx(5)
        tx._on_ack(2, stamp_ago(0.0))
        assert list(tx.inflight) == [3, 4]
        assert tx.acked_frames == 3
        tx._on_ack(2, stamp_ago(0.0))  # a re-ACK of a retired frame
        assert list(tx.inflight) == [3, 4]
        assert tx.acked_frames == 3

    def test_every_ack_samples_its_echo(self):
        # The sample is now minus the echoed send stamp -- also for an
        # ACK that retires a resent frame, which Karn's rule refused
        # while the sender timed a frame's first send.
        tx = self.make_tx(4)
        tx._resend_oldest()
        tx._on_ack(2, stamp_ago(0.05))
        assert tx.srtt == pytest.approx(0.05, abs=0.02)
        assert list(tx.inflight) == [3]

    def test_an_ack_that_retires_nothing_is_no_sample(self):
        # A stale ACK neither samples nor ends the back-off (RFC 7323
        # section 4.1 takes a sample only from an ACK that advances).
        tx = self.make_tx(3)
        tx._on_ack(0, stamp_ago(0.01))
        srtt = tx.srtt
        tx._resend_oldest()
        tx._resend_oldest()
        tx._on_ack(0, stamp_ago(1.0))
        assert tx.srtt == srtt and tx.retries == 2
        assert list(tx.inflight) == [1, 2]

    def test_sample_across_the_stamp_wrap(self, monkeypatch):
        tx = self.make_tx(1)
        monkeypatch.setattr(client, "_stamp", lambda: 4_000)
        tx._on_ack(0, 2**32 - 6_000)  # sent 10 ms before the wrap
        assert tx.srtt == pytest.approx(0.01)

    def test_transmissions_carry_the_send_stamp(self):
        sent = []
        tx = self.make_tx(2)
        tx.drop_fn = lambda seq, attempt: sent.append(
            decode_frame(bytes(tx.inflight[seq])).stamp) or True
        before = stamp_ago(0.0)
        tx._resend_oldest()
        assert (sent[0] - before) % 2**32 < 1_000_000

    def test_expiry_resends_the_oldest_frame_and_backs_off(self):
        tx = self.make_tx(3)
        sent = []
        tx.drop_fn = lambda seq, attempt: sent.append((seq, attempt)) or True
        tx._resend_oldest()
        tx._resend_oldest()
        assert sent == [(0, 1), (0, 2)]
        assert tx._expires - time.monotonic() == pytest.approx(
            4 * tx.initial_rto, abs=0.05)
        tx._on_ack(0, stamp_ago(0.0))  # progress resets the retry count
        assert tx.retries == 0
        tx._resend_oldest()
        assert sent[-1] == (1, 1)

    def test_backoff_holds_until_an_rtt_sample(self):
        # The doubled timer stays doubled while no ACK comes back; the
        # first ACK's sample undoes it.
        tx = self.make_tx(3)
        tx._resend_oldest()
        tx._resend_oldest()
        backed_off = tx._scaled_rto(tx.retries)
        assert backed_off == pytest.approx(4 * tx.initial_rto)
        assert tx._expires - time.monotonic() == pytest.approx(
            backed_off, abs=0.05)
        tx._on_ack(0, stamp_ago(0.01))
        assert tx.srtt is not None and tx.retries == 0
        assert list(tx.inflight) == [1, 2]
        assert tx._scaled_rto(0) == tx.rto < backed_off - 0.2
        assert tx._expires - time.monotonic() == pytest.approx(
            tx.rto, abs=0.05)

    def test_backoff_stops_at_max_rto(self):
        tx = self.make_tx(1)
        for _ in range(MAX_RETRIES):
            tx._resend_oldest()
        assert tx.srtt is None and tx.retransmits == MAX_RETRIES
        assert tx._expires - time.monotonic() == pytest.approx(
            tx.max_rto, abs=0.05)


class TestPromptClose:
    """``close()`` wakes its listeners instead of waiting out a poll."""

    def make_server(self):
        return CollectorServer(
            make_collector(), udp_port=0, query_port=0,
        ).start()

    def timed_close(self, srv):
        time.sleep(0.05)  # every listener is blocked in its socket call
        start = time.perf_counter()
        srv.close()
        return time.perf_counter() - start

    def test_idle_server(self):
        assert self.timed_close(self.make_server()) < 0.05

    def test_with_an_open_query_connection(self):
        srv = self.make_server()
        with QueryClient("127.0.0.1", srv.query_port) as client:
            assert client.ping()
            assert self.timed_close(srv) < 0.05


# -- driver transport -------------------------------------------------------

class TestDriverTransport:
    def test_invalid_transport_rejected(self):
        for transport in ("tcp", "smoke-signals"):
            with pytest.raises(ValueError):
                ReplayDriver(transport=transport)


# -- CLI --------------------------------------------------------------------

class TestCLI:
    def test_parser_defaults(self, monkeypatch):
        args = build_parser().parse_args(["serve"])
        assert args.scenario == "hadoop" and args.udp_port == 0
        args = build_parser().parse_args(["send", "--port", "9"])
        assert args.fn.__name__ == "cmd_send"
        # A send from default args leaves the frame size to the sender,
        # whose default fills a datagram.
        built = []

        def spy(*args, **kwargs):
            built.append(ReliableUDPSender(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(service_main, "ReliableUDPSender", spy)
        with CollectorServer(make_collector()) as srv:
            assert main(["send", "--port", str(srv.udp_port),
                         "--packets", "200"]) == 0
        assert built[0].max_records == wire.MAX_UDP_RECORDS

    def test_send_refuses_transport(self):
        # Reliable UDP is the one sender; the option is gone.
        for transport in ("udp", "udp-unreliable", "tcp"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["send", "--port", "9", "--transport", transport]
                )

    def test_serve_rejects_tcp_port(self):
        # UDP is the only data listener; the option is gone.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--tcp-port", "0"])

    def test_scenario_choices_are_the_base_scenarios(self):
        # An impaired replay goes through the driver, which counts its
        # losses; the CLI offers the perfect-network scenarios only.
        from repro.replay import scenario_names

        parser = build_parser()
        for name in scenario_names():
            args = parser.parse_args(["serve", "--scenario", name])
            assert args.scenario == name
        for cmd in (["serve"], ["send", "--port", "9"]):
            with pytest.raises(SystemExit):
                parser.parse_args(cmd + ["--scenario", "hadoop-lossy"])

    def test_send_requires_port(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["send"])

    def test_query_rejects_unknown_op(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "--port", "1",
                                       "--op", "dance"])

    def test_end_to_end_subprocess(self, capsys):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve",
             "--scenario", "incast", "--packets", "800",
             "--duration", "60"],
            cwd=REPO, stdout=subprocess.PIPE, text=True,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        try:
            ready = proc.stdout.readline()
            assert ready.startswith("SERVICE READY")
            ports = dict(kv.split("=") for kv in ready.split()[2:])
            # Feed it over reliable UDP with simulated loss, in-process.
            assert main(["send", "--scenario", "incast", "--packets", "800",
                         "--port", ports["udp"], "--loss", "0.1"]) == 0
            sent = json.loads(capsys.readouterr().out)
            assert sent["records"] == 800 and sent["acked_frames"] > 0
            # The server ACKs a batch's last frame only after folding
            # it, so send returns with every record counted: no poll.
            assert main(["query", "--port", ports["query"],
                         "--op", "stats"]) == 0
            stats = json.loads(capsys.readouterr().out)["stats"]
            assert stats["records_ingested"] == 800
            assert main(["query", "--port", ports["query"],
                         "--flow-id", "0"]) == 0
            flow = json.loads(capsys.readouterr().out)
            assert flow["ok"] is True
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=30)
            final = json.loads(out)
            assert final["records"] == 800
            assert final["service"]["records_ingested"] == 800
            assert proc.returncode == 0
        finally:
            if proc.poll() is None:
                proc.kill()


# -- observability: metrics verb, scrape port, sender gauges ----------------

class TestObsService:
    def test_metrics_verb_round_trip(self):
        from repro.obs import MetricsRegistry
        obs = MetricsRegistry()
        coll = make_collector(obs=obs)
        with CollectorServer(coll, query_port=0, obs=obs) as srv:
            with ReliableUDPSender("127.0.0.1", srv.udp_port) as tx:
                tx.send_batch(*batch(30), now=1.0)
            srv.drain()
            with QueryClient("127.0.0.1", srv.query_port) as client:
                fams = client.metrics()["families"]
        # One shared registry: the front door's counters and the
        # sink's per-batch instruments arrive in the same dump.
        assert fams["pint_service_records_ingested_total"][
            "samples"][0]["value"] == 30
        assert sum(
            s["value"]
            for s in fams["pint_collector_records_total"]["samples"]
        ) == 30
        depth = fams["pint_service_ingest_queue_depth"]["samples"][0]
        assert depth["value"] == 0  # drained
        assert fams["pint_service_fold_records"]["samples"][0]["count"] == 1

    def test_metrics_verb_without_obs_is_error_envelope(self):
        with CollectorServer(make_collector(), query_port=0) as srv:
            with QueryClient("127.0.0.1", srv.query_port) as client:
                with pytest.raises(QueryError, match="no metrics"):
                    client.metrics()

    def test_metrics_port_serves_prometheus_text(self):
        import urllib.request
        from repro.obs import MetricsRegistry
        obs = MetricsRegistry()
        coll = make_collector(obs=obs)
        with CollectorServer(coll, obs=obs, metrics_port=0) as srv:
            assert srv.metrics_port
            with ReliableUDPSender("127.0.0.1", srv.udp_port) as tx:
                tx.send_batch(*batch(20), now=1.0)
            with urllib.request.urlopen(
                f"http://127.0.0.1:{srv.metrics_port}/metrics", timeout=5
            ) as resp:
                assert resp.status == 200
                body = resp.read().decode()
        assert "# TYPE pint_service_records_ingested_total counter" in body
        assert "pint_service_records_ingested_total 20" in body

    def test_sender_rtt_and_retransmit_instruments(self):
        from repro.obs import MetricsRegistry
        rng = np.random.default_rng(5)
        obs = MetricsRegistry()
        with CollectorServer(make_collector()) as srv:
            tx = ReliableUDPSender(
                "127.0.0.1", srv.udp_port, max_records=16,
                drop_fn=lambda seq, attempt: bool(rng.random() < 0.25),
                obs=obs, **FAST_RTO,
            )
            tx.send_batch(*batch(300), now=1.0)
            tx.flush()
            fams = obs.as_dict()["families"]
            assert fams["pint_sender_srtt_seconds"][
                "samples"][0]["value"] > 0.0
            assert fams["pint_sender_retransmits_total"][
                "samples"][0]["value"] == tx.retransmits > 0
            assert fams["pint_sender_acked_frames_total"][
                "samples"][0]["value"] == tx.acked_frames
            assert fams["pint_sender_inflight_frames"][
                "samples"][0]["value"] == 0  # all acked after flush
            tx.close()

    def test_serve_parser_accepts_metrics_port(self):
        args = build_parser().parse_args(["serve", "--metrics-port", "0"])
        assert args.metrics_port == 0
        assert build_parser().parse_args(["serve"]).metrics_port is None
        args = build_parser().parse_args(
            ["query", "--port", "1", "--op", "metrics"]
        )
        assert args.op == "metrics"


# -- query robustness: malformed and oversized requests ---------------------

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)


class TestQueryRobustness:
    @settings(max_examples=60, deadline=None)
    @given(request=_JSON_VALUES)
    def test_handler_never_raises_on_any_json_shape(self, request):
        import threading
        handler = QueryHandler(make_collector(), threading.Lock())
        response = handler.handle(request)
        assert isinstance(response, dict) and "ok" in response
        json.dumps(jsonable(response), allow_nan=False)

    def test_handler_bug_becomes_error_envelope(self):
        import threading
        # No collector at all: every verb that touches it explodes
        # internally, and the envelope -- not the exception -- surfaces.
        handler = QueryHandler(None, threading.Lock())
        response = handler.handle({"op": "snapshot"})
        assert response["ok"] is False
        assert "internal error" in response["error"]

    def test_junk_lines_never_drop_the_connection(self):
        import threading
        coll = make_collector()
        coll.ingest_batch(*batch(10), now=1.0)
        qs = QueryServer(coll, threading.Lock()).start()
        junk = [
            b"\x00\xff\xfe garbage",
            b"{",
            b"[1, 2, 3]",
            b'"just a string"',
            b"42",
            b"null",
            b'{"op": []}',
            b'{"op": "flow", "flow_id": {"deep": [1]}}',
            b'{"no_op_at_all": 1}',
        ]
        try:
            with QueryClient("127.0.0.1", qs.port) as client:
                for payload in junk:
                    client.sock.sendall(payload + b"\n")
                    line = client._fh.readline()
                    assert line, f"connection dropped on {payload!r}"
                    response = json.loads(line)
                    assert response["ok"] is False
                    assert "error" in response
                # After all that abuse, the protocol still works.
                assert client.ping()
                assert client.snapshot()["records"] == 10
        finally:
            qs.close()

    def test_oversized_line_answered_once_then_resyncs(self):
        import threading
        from repro.service.query import MAX_LINE
        coll = make_collector()
        coll.ingest_batch(*batch(10), now=1.0)
        qs = QueryServer(coll, threading.Lock()).start()
        try:
            with QueryClient("127.0.0.1", qs.port) as client:
                # Stream well past the cap without a newline: the
                # server must answer once and start discarding instead
                # of buffering without bound.
                chunk = b"x" * (1 << 16)
                for _ in range((MAX_LINE // len(chunk)) + 2):
                    client.sock.sendall(chunk)
                line = client._fh.readline()
                response = json.loads(line)
                assert response["ok"] is False
                assert "exceeds" in response["error"]
                # Finish the oversized line; the next request parses
                # cleanly on a re-synced stream.
                client.sock.sendall(b"tail of the monster line\n")
                assert client.ping()
                assert client.snapshot()["records"] == 10
        finally:
            qs.close()


class TestHopCountOverTheWire:
    def test_bad_batch_is_deferred_and_the_server_keeps_serving(self):
        from repro.exceptions import WorkerFailedError

        served = make_collector()
        with CollectorServer(served) as srv:
            fids, pids, hops, digs = batch(12)
            hops = hops.copy()
            hops[5] = 3_000_000  # one datagram must not wedge the sink
            with ReliableUDPSender("127.0.0.1", srv.udp_port) as tx:
                tx.send_batch(fids, pids, hops, digs, now=1.0)
                tx.send_batch(*batch(20, base=100), now=2.0)
            deadline = time.monotonic() + 10
            while (srv.service_stats().records_ingested < 20
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            stats = srv.service_stats()
            # Both batches arrived; only the good one was folded.
            assert stats.records_ingested == 20
            assert stats.batches_ingested == 1
            # The refusal is the deferred ingest error of the next
            # barrier (same contract as a parallel collector's drain).
            with pytest.raises(WorkerFailedError, match=r"\[1, 255\]") as err:
                srv.drain()
            assert isinstance(err.value, ReproError)
            assert served.snapshot().records == 20
            with ReliableUDPSender("127.0.0.1", srv.udp_port) as tx:
                tx.send_batch(*batch(15, base=200), now=3.0)
            srv.drain()
            assert served.snapshot().records == 35
