"""The collector's network front door: one UDP listener over a queue.

``CollectorServer`` is the boundary ROADMAP item 1 calls for -- the
step from "library" to "service": digest batches arrive as
:mod:`repro.service.wire` frames on a UDP socket (one datagram carries
one or more whole frames), pass through a *bounded* admission queue,
and a single ingest thread folds them into the wrapped collector --
serial :class:`~repro.collector.Collector` or
:class:`~repro.collector.ParallelCollector` alike, both already speak
``ingest_batch``.  The one data listener has one admission policy,
reliable delivery: only the exactly-once stream keeps a wire-fed sink
bit-identical to the in-process collector.

Admission is where a service differs from a library call, and every
way it can refuse work is explicit and counted (the BASEL lesson:
admission/drop policy is part of the system, not an accident):

* **queue full** -- the ingest thread is behind.  The frame is parked
  *unacked*, so the sender's retransmit re-offers it: the
  ``dropped_queue_full`` counter measures backpressure events, not
  loss.
* **bad version** -- a frame from a protocol this server does not
  speak (``dropped_bad_version``): version skew, surfaced, never
  misparsed.
* **bad frame** -- truncated/corrupt bytes, or a data frame without
  ``FLAG_RELIABLE`` (``dropped_bad_frame``): never queued, never
  ACKed.

Every source gets per-peer seq tracking: duplicates are never
re-ingested, and out-of-order frames are held in a bounded reorder
buffer (:data:`REORDER_LIMIT`) and delivered in seq order.  That
buffer is what lets a sender resend only the frame its cumulative ACK
is stuck on: once the hole
arrives, the frames held behind it are released and one ACK retires
them all.  ACKs are cumulative and come from
the ingest thread, once per folded batch rather than once per frame:
``ACK(s)`` says every frame up to ``s`` is off the admission queue --
folded, or held for its batch's reassembly -- which is a durability
promise, not a reception note.  A batch's last frame is ACKed only
after the batch is folded, so a sender whose every frame is ACKed has
every batch in the collector (see :meth:`CollectorServer._ingest_loop`
for when an ACK is sent).  An ACK echoes the earliest send stamp among
the transmissions that released the frames it retires -- a frame's
own, or for a frame held behind a hole the one that filled it (RFC
7323's rule; a re-ACK echoes the duplicate's own) -- so the sender
times every ACK, resent frames included, never the wait behind a
hole, and always the wait of the frame the ACK held back longest.
Fragment runs (``FLAG_MORE``) are reassembled per source before
ingesting, so the wrapped collector sees exactly the logical batches
the sender encoded and every batch-granular snapshot counter matches
the in-process run bit for bit.

Lifecycle mirrors the collector's own ``drain()/close()`` contract:
:meth:`drain` barriers until every admitted frame is folded (then
drains the collector), :meth:`close` stops the listener, drains what
was admitted, and surfaces any ingest error that happened on the
queue-consumer side -- never silently.
"""

from __future__ import annotations

import dataclasses
import queue
import socket
import struct
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.collector.snapshot import ServiceStats, Snapshot
from repro.exceptions import DeferredFailures, ReproError
from repro.obs.metrics import NULL_REGISTRY, SIZE_BUCKETS, merge_metrics
from repro.obs.prom import MetricsHTTPServer
from repro.service import wire
from repro.service.query import QueryServer, close_waking

#: Frames a sender may run ahead of its first hole before the server
#: refuses more (``dropped_window``): the reorder buffer's bound.
REORDER_LIMIT = 4096

#: Queue sentinel telling the ingest thread to exit.
_STOP = object()

#: Listener receive timeout in microseconds: the fallback poll of the
#: stopping event should ``close()``'s shutdown fail to wake a thread.
_POLL_US = 200_000


class ServiceError(ReproError):
    """Raised on service-lifecycle failures (timeouts, post-close use)."""


class _Peer:
    """Per-sender reliable-stream state: next expected seq + holes.

    ``expected`` is moved by the listener thread (admission), ``acked``
    by the ingest thread: every seq below it has been acknowledged.
    """

    __slots__ = ("expected", "buffer", "acked")

    def __init__(self) -> None:
        self.expected = 0
        self.buffer: Dict[int, wire.DataFrame] = {}
        self.acked = 0


class CollectorServer:
    """Serve a collector over loopback/LAN sockets.

    A sender may run at most :data:`REORDER_LIMIT` frames ahead of a
    hole; further frames are refused (``dropped_window``).

    Parameters
    ----------
    collector:
        Any object with the collector ingest surface
        (``ingest_batch``, ``drain``, ``close``, ``snapshot``, ``flow``,
        ``result``) -- serial or parallel.
    host / udp_port / query_port:
        Bind addresses.  Port 0 binds an ephemeral port (read the
        resolved one back from :attr:`udp_port` etc. after
        :meth:`start`).  ``udp_port`` is the data port; a
        ``query_port`` of ``None`` (the default) serves no queries.
    queue_frames:
        Admission queue bound, in frames.  Small on purpose: the queue
        is a shock absorber, not a second buffer tier -- sustained
        overload must surface as drops/backpressure, not latency.
        A sender's frames are ACKed only once the ingest thread has
        taken them off this queue, so its send window bounds how many
        of them sit here: one sender with ``WINDOW <= queue_frames``
        (:data:`repro.service.client.WINDOW`) never meets a full queue.
    obs:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`.  Every
        :class:`~repro.collector.snapshot.ServiceStats` counter is
        mirrored as ``pint_service_<name>_total`` (same numbers, one
        source of truth: ``_bump``), the admission queue's depth is a
        function-backed ``pint_service_ingest_queue_depth`` gauge, and
        fold times land in ``pint_service_fold_seconds``.  Share one
        registry with the wrapped collector and the ``metrics`` query
        verb / scrape endpoint serves the whole pipeline.
    metrics_port:
        ``None`` (default) serves no HTTP.  An integer binds a
        Prometheus scrape endpoint (``GET /metrics``) on ``host``; 0
        picks an ephemeral port (read it back after :meth:`start`).
    faults:
        Optional :class:`repro.faults.FaultPlan`; the server consults
        its *frame* faults on every received UDP datagram (corrupt/
        truncate/drop before decode -- chaos at the wire boundary,
        where the version/CRC checks must catch it) and its
        ``stall_queue`` faults before folding admitted frames (a slow
        ingest thread, exercising queue backpressure).
    """

    def __init__(
        self,
        collector,
        host: str = "127.0.0.1",
        udp_port: int = 0,
        # Accepted only because bench/ (frozen) passes it; delete with
        # those calls in the next benchmark PR.
        tcp_port: None = None,
        query_port: Optional[int] = None,
        queue_frames: int = 256,
        obs=None,
        metrics_port: Optional[int] = None,
        faults=None,
    ) -> None:
        if tcp_port is not None:
            raise ValueError(
                f"tcp_port must be None, got {tcp_port!r}: UDP is the "
                "only data transport"
            )
        if udp_port is None:
            raise ValueError("udp_port must be a port number (0 = ephemeral)")
        if queue_frames < 1:
            raise ValueError("queue_frames must be >= 1")
        self.collector = collector
        self.host = host
        self.udp_port = udp_port
        self.query_port = query_port
        self.queue_frames = queue_frames
        self.faults = faults

        self._queue: "queue.Queue" = queue.Queue(maxsize=queue_frames)
        #: Sources are keyed by their UDP address.
        self._peers: Dict[Tuple, _Peer] = {}
        #: Reassembly state: source -> frames of the open batch.
        self._pending: Dict[Tuple, List[wire.DataFrame]] = {}
        #: Ingest thread only: source -> (highest seq taken off the
        #: queue and not yet ACKed, earliest send stamp among those).
        self._unacked: Dict[Tuple, Tuple[int, int]] = {}
        #: Guards the wrapped collector (ingest thread vs query port).
        self._lock = threading.RLock()
        #: Guards the counters below.
        self._stats_lock = threading.Lock()
        self._counters = {f.name: 0 for f in
                          dataclasses.fields(ServiceStats)}
        #: Batches the collector refused, raised at the next barrier.
        self._failures = DeferredFailures("service ingest failed")

        self._stopping = threading.Event()
        self._started = False
        self._closed = False
        self._udp_sock: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._query_server: Optional[QueryServer] = None
        self.metrics_port = metrics_port
        self._metrics_server: Optional[MetricsHTTPServer] = None
        self.obs = obs if obs is not None else NULL_REGISTRY
        self._init_obs()

    def _init_obs(self) -> None:
        obs = self.obs
        #: One registry counter per ServiceStats field, bumped in
        #: lock-step with the dataclass counter -- the registry is a
        #: mirror, never a second source of truth.
        self._m = {
            name: obs.counter(
                f"pint_service_{name}_total",
                f"Front-door counter: ServiceStats.{name}.",
            )
            for name in self._counters
        }
        obs.gauge(
            "pint_service_ingest_queue_depth",
            "Frames sitting in the admission queue right now.",
        ).set_function(self._queue.qsize)
        self._m_fold_records = obs.histogram(
            "pint_service_fold_records",
            "Records per reassembled logical batch folded to the sink.",
            buckets=SIZE_BUCKETS,
        )
        self._sp_fold = obs.span(
            "pint_service_fold_seconds",
            "Time folding one reassembled batch into the collector.",
        )

    # -- counters ----------------------------------------------------------

    def _bump(self, name: str, by: int = 1) -> None:
        with self._stats_lock:
            self._counters[name] += by
        self._m[name].inc(by)

    def service_stats(self) -> ServiceStats:
        """Point-in-time copy of the front-door counters."""
        with self._stats_lock:
            return ServiceStats(**self._counters)

    def snapshot(self) -> Snapshot:
        """The wrapped collector's snapshot with service counters attached."""
        with self._lock:
            snap = self.collector.snapshot()
        snap = dataclasses.replace(snap, service=self.service_stats())
        if self.obs.enabled and getattr(
            self.collector, "obs", None
        ) is not self.obs:
            # A private server registry (the shared-registry case
            # already rode in on the collector's own snapshot).
            snap = snap.with_metrics(self.obs.as_dict())
        return snap

    def metrics(self) -> Optional[dict]:
        """Merged metrics dump: this server's registry + the sink's.

        ``None`` when nothing is instrumented -- the query port's
        ``metrics`` verb turns that into a structured error rather
        than an empty registry, so a scraper can tell "no metrics
        here" from "metrics enabled, nothing recorded yet".
        """
        parts = []
        if self.obs.enabled:
            parts.append(self.obs.as_dict())
        sink_obs = getattr(self.collector, "obs", None)
        if sink_obs is not None and sink_obs.enabled \
                and sink_obs is not self.obs:
            parts.append(sink_obs.as_dict())
        return merge_metrics(parts)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "CollectorServer":
        """Bind sockets and spawn the listener/ingest threads (idempotent)."""
        if self._closed:
            raise ServiceError("server is closed")
        if self._started:
            return self
        self._udp_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._udp_sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 21)
        self._udp_sock.bind((self.host, self.udp_port))
        # close() wakes the listener with shutdown(); the receive
        # timeout is only the fallback poll of _stopping.  It is the
        # kernel's SO_RCVTIMEO, not settimeout(): a shut-down UDP
        # socket polls readable while a non-blocking recvfrom still
        # says EAGAIN, so settimeout()'s poll loop would spin until its
        # tick instead of waking.
        self._udp_sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_RCVTIMEO,
            struct.pack("ll", 0, _POLL_US),
        )
        self.udp_port = self._udp_sock.getsockname()[1]
        # The ingest thread comes last: close() joins the listener
        # before it.
        self._threads = [
            threading.Thread(
                target=self._udp_loop, name="service-udp", daemon=True,
            ),
            threading.Thread(
                target=self._ingest_loop, name="service-ingest", daemon=True,
            ),
        ]
        if self.query_port is not None:
            self._query_server = QueryServer(
                self.collector, self._lock,
                host=self.host, port=self.query_port,
                stats_fn=self.service_stats,
                snapshot_fn=self.snapshot,
                metrics_fn=self.metrics,
            ).start()
            self.query_port = self._query_server.port
        if self.metrics_port is not None:
            self._metrics_server = MetricsHTTPServer(
                lambda: self.metrics() or {"families": {}},
                host=self.host, port=self.metrics_port,
            ).start()
            self.metrics_port = self._metrics_server.port
        for t in self._threads:
            t.start()
        self._started = True
        return self

    def drain(self, timeout: float = 30.0) -> None:
        """Barrier: every frame admitted so far is folded into the collector.

        Covers the admission queue (a popped frame mid-fold included),
        then delegates to the collector's own ``drain()``; a deferred
        ingest-side failure surfaces here (same contract as the
        parallel collector's drain).  Not waited for: frames still in
        flight on the network, frames parked unacked in a reorder
        buffer, and fragment runs whose terminating frame has not
        arrived (half a logical batch cannot be folded) -- a caller
        who needs "everything I sent arrived" flushes the sender first:
        a batch's last frame is ACKed only after its fold.
        """
        self._check_open()
        deadline = _Deadline(timeout)
        # unfinished_tasks (not empty()): a popped frame still being
        # folded counts as unfinished until the ingest thread calls
        # task_done, so the barrier covers the in-flight batch too.
        while self._queue.unfinished_tasks:
            if deadline.expired:
                raise ServiceError(
                    f"drain timed out after {timeout}s with "
                    f"{self._queue.unfinished_tasks} frame(s) unapplied"
                )
            deadline.sleep()
        with self._lock:
            self.collector.drain()
        self._failures.raise_pending()

    def wait_for_records(self, n: int, timeout: float = 30.0) -> None:
        """Block until ``n`` records have been ingested (or time out).

        A poll of ``records_ingested`` for a caller that does not hold
        the sender (a flushed sender needs no wait: its last ACK came
        after the fold).  Raises :class:`ServiceError` on timeout,
        carrying the shortfall, and a deferred ingest-side failure as
        soon as there is one: a batch the collector refused never
        counts as ingested, so waiting out the timeout would only hide
        why.
        """
        self._check_open()
        deadline = _Deadline(timeout)
        while True:
            self._failures.raise_pending()
            with self._stats_lock:
                got = self._counters["records_ingested"]
            if got >= n:
                break
            if deadline.expired:
                raise ServiceError(
                    f"waited {timeout}s for {n} records; only {got} "
                    "arrived (lost datagrams, or a stalled sender)"
                )
            deadline.sleep()
        self._failures.raise_pending()

    def close(self, close_collector: bool = False, timeout: float = 30.0) -> None:
        """Graceful drain-then-close (idempotent).

        Stops accepting new frames (the data socket is shut down,
        which wakes the listener blocked on it), folds everything
        already admitted, joins the threads, and re-raises any
        deferred ingest failure, the collector's own drain and close
        failures included -- nothing admitted is ever silently
        discarded.  The
        wrapped collector is left open unless ``close_collector`` is
        set (the caller may still be scoring its flows).
        """
        if self._closed:
            return
        self._closed = True
        self._stopping.set()
        if self._started:
            # The listener exits on its shut-down socket, then the
            # ingest thread drains the queue to the sentinel and exits.
            listener, ingest = self._threads
            close_waking(self._udp_sock)
            listener.join(timeout=timeout)
            try:
                self._queue.put(_STOP, timeout=timeout)
            except queue.Full:  # pragma: no cover - ingest thread wedged
                pass
            ingest.join(timeout=timeout)
        if self._query_server is not None:
            self._query_server.close()
        if self._metrics_server is not None:
            self._metrics_server.close()
        # A collector that fails its drain is still closed when asked
        # (a parallel one's workers must not outlive the server), and
        # its failure joins the server's own in one error.
        steps = [self.collector.drain]
        if close_collector:
            steps.append(self.collector.close)
        with self._lock:
            for step in steps:
                try:
                    step()
                except Exception as exc:
                    self._failures.park(f"{type(exc).__name__}: {exc}")
        self._failures.raise_pending()

    # -- checkpoint/restore ------------------------------------------------

    def save_checkpoint(self, path: str) -> None:
        """Drain, then write the wrapped collector's state to ``path``.

        The service-side half of crash recovery (``repro.service
        serve --checkpoint``): on a live server the admission queue is
        drained first, so the blob covers every frame the server ever
        ACKed or admitted; the write then happens under the ingest
        lock and goes through the atomic tmp+rename writer, so a
        crash mid-save leaves the previous file intact.
        Requires a collector with ``state_dict`` (the serial
        :class:`~repro.collector.Collector`); a supervised
        :class:`~repro.collector.ParallelCollector` checkpoints its
        workers internally instead.
        """
        from repro.collector.recovery import (
            capture_checkpoint, write_checkpoint,
        )
        if not hasattr(self.collector, "state_dict"):
            raise ServiceError(
                f"{type(self.collector).__name__} has no state_dict(): "
                "server-side checkpoints need a serial Collector (a "
                "supervised ParallelCollector checkpoints internally)"
            )
        if self._started and not self._closed:
            self.drain()
        with self._lock:
            self.collector.drain()
            data = capture_checkpoint(self.collector)
        write_checkpoint(path, data)

    def restore_checkpoint(self, path: str) -> None:
        """Install a checkpoint file into the wrapped collector.

        Call before :meth:`start` (or at least before senders connect):
        frames folded between restore and the first post-restore
        checkpoint are covered by sender-side retransmission, not by
        this file.  Typed checkpoint errors (bad CRC, version skew)
        propagate -- serving queries off a half-trusted blob is worse
        than refusing to start.
        """
        from repro.collector.recovery import read_checkpoint
        if not hasattr(self.collector, "load_state"):
            raise ServiceError(
                f"{type(self.collector).__name__} has no load_state(): "
                "server-side restore needs a serial Collector"
            )
        state = read_checkpoint(path)
        with self._lock:
            self.collector.load_state(state["collector"])

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("server is closed")
        if not self._started:
            raise ServiceError("server is not started (call start())")

    def __enter__(self) -> "CollectorServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- admission ---------------------------------------------------------

    def _on_datagram(self, data: bytes, addr) -> None:
        """Decode and admit one UDP datagram (may carry several frames)."""
        if self.faults is not None:
            mutated = self.faults.mutate_frame(data)
            if mutated is None:
                return  # injected drop: the datagram never existed
            data = mutated
        try:
            frames = wire.decode_frames(data)
        except wire.BadVersionError:
            self._bump("dropped_bad_version")
            return
        except wire.WireError:
            self._bump("dropped_bad_frame")
            return
        for frame in frames:
            if isinstance(frame, wire.DataFrame):
                self._admit(frame, addr)

    def _admit(self, frame: wire.DataFrame, addr) -> None:
        """Run one decoded data frame from ``addr`` through the policy."""
        if not frame.reliable:
            # No seq stream to dedup, order or ACK: a bad frame.
            self._bump("dropped_bad_frame")
            return
        self._bump("frames_received")
        peer = self._peers.setdefault(addr, _Peer())
        if frame.seq < peer.expected or frame.seq in peer.buffer:
            # Already admitted (or parked): the ACK was lost or the
            # retransmit raced it.  Never re-ingest.  An acknowledged
            # frame is re-promised under its own seq; one still on the
            # queue is ACKed when the ingest thread takes it.
            self._bump("duplicate_frames")
            if frame.seq < peer.acked:
                self._send_ack(addr, frame.seq, frame.stamp)
            elif frame.seq >= peer.expected:
                self._drain_peer(peer, addr, frame.stamp)
            return
        if frame.seq - peer.expected > REORDER_LIMIT:
            self._bump("dropped_window")
            return
        peer.buffer[frame.seq] = frame
        self._drain_peer(peer, addr, frame.stamp)

    def _drain_peer(self, peer: _Peer, addr, stamp: int) -> None:
        """Hand the peer's in-order prefix to the queue (unACKed).

        Every frame released carries ``stamp``, the send stamp of the
        transmission that released it: a frame that waited behind a
        hole is answered as of the transmission that filled the hole
        (RFC 7323's rule), so its ACK does not time the wait.
        """
        while peer.expected in peer.buffer:
            frame = peer.buffer[peer.expected]
            if not self._enqueue(frame, addr, stamp):
                # Queue full: park (still buffered, still unacked) --
                # the retransmit will re-offer it.  Counted as a
                # backpressure event, not a loss.
                self._bump("dropped_queue_full")
                return
            del peer.buffer[peer.expected]
            peer.expected += 1

    def _enqueue(self, frame: wire.DataFrame, addr, stamp: int) -> bool:
        """Hand one frame to the ingest queue; False when it is full.

        Never blocks: a full queue answers at once, so the listener
        keeps the socket drained.
        """
        try:
            self._queue.put_nowait((addr, frame, stamp))
            return True
        except queue.Full:
            return False

    def _send_ack(self, addr, seq: int, echo: int) -> None:
        try:
            self._udp_sock.sendto(wire.encode_ack(seq, echo), addr)
            self._bump("acks_sent")
        except OSError:  # pragma: no cover - racing close()
            pass

    # -- listener thread ---------------------------------------------------

    def _udp_loop(self) -> None:
        sock = self._udp_sock
        while not self._stopping.is_set():
            try:
                data, addr = sock.recvfrom(1 << 16)
            except BlockingIOError:
                continue  # SO_RCVTIMEO tick: re-check _stopping
            except OSError:
                break  # socket closed by close()
            if addr is None:
                break  # woken by close()'s shutdown: no datagram
            self._on_datagram(data, addr)

    # -- ingest thread -----------------------------------------------------

    def _ingest_loop(self) -> None:
        """Fold reassembled batches; send the cumulative ACKs.

        Each source is ACKed with the highest seq taken off the queue:
        (a) after a completed run has been folded, and (b) after a
        ``FLAG_MORE`` fragment is taken and the queue is empty.  Rule
        (b) keeps a batch of more frames than the sender's window from
        deadlocking: the sender waits for an ACK to send the rest, and
        the fold waits for the rest.  Rule (a) makes the ACK of a
        batch's last frame a fold barrier: a flushed sender's batches
        are all in the collector.
        """
        while True:
            item = self._queue.get()
            if item is _STOP:
                self._queue.task_done()
                break
            addr, frame, stamp = item
            if self.faults is not None:
                # Injected ingest-thread stall: the queue keeps
                # admitting (or backpressuring) while the fold lags.
                delay = self.faults.stall_seconds()
                if delay > 0.0:
                    time.sleep(delay)
            taken = self._unacked.get(addr)
            if taken is not None:
                stamp = wire.earliest_stamp(taken[1], stamp)
            self._unacked[addr] = (frame.seq, stamp)
            run = self._pending.setdefault(addr, [])
            run.append(frame)
            if not frame.more:  # the batch's terminating fragment
                del self._pending[addr]
                self._ingest_run(run)
                self._ack_taken()
            elif self._queue.empty():
                self._ack_taken()
            self._queue.task_done()

    def _ack_taken(self) -> None:
        """One cumulative ACK per source with frames taken but unACKed,
        echoing the earliest send stamp that released one of them."""
        for addr, (seq, echo) in self._unacked.items():
            self._peers[addr].acked = seq + 1
            self._send_ack(addr, seq, echo)
        self._unacked.clear()

    def _ingest_run(self, run: List[wire.DataFrame]) -> None:
        """Fold one reassembled logical batch into the collector."""
        last = run[-1]
        if len(run) == 1:
            fids, pids = last.flow_ids, last.pids
            hops, digs = last.hop_counts, last.digests
        else:
            fids = np.concatenate([f.flow_ids for f in run])
            pids = np.concatenate([f.pids for f in run])
            hops = np.concatenate([f.hop_counts for f in run])
            digs = np.concatenate([f.digests for f in run])
        try:
            with self._sp_fold, self._lock:
                n = self.collector.ingest_batch(
                    fids, pids, hops, digs, now=last.now
                )
        except Exception as exc:
            self._failures.park(f"{type(exc).__name__}: {exc}")
            return
        with self._stats_lock:
            self._counters["records_ingested"] += int(n)
            self._counters["batches_ingested"] += 1
        self._m["records_ingested"].inc(int(n))
        self._m["batches_ingested"].inc()
        self._m_fold_records.observe(int(n))


class _Deadline:
    """Tiny poll helper: expiry check + a short fixed sleep."""

    __slots__ = ("_deadline",)

    def __init__(self, timeout: float) -> None:
        self._deadline = time.monotonic() + timeout

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self._deadline

    def sleep(self) -> None:
        time.sleep(0.002)
