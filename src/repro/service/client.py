"""The digest-batch sender: reliable UDP.

:class:`ReliableUDPSender` gets a columnar batch from a dataplane to a
:class:`~repro.service.server.CollectorServer` exactly once, with the
same ``send_batch(flow_ids, pids, hop_counts, digests, now=...)``
signature as ``Collector.ingest_batch`` -- the replay driver swaps the
sender for the collector without touching its loop.  It is the
SNIPPETS 1-2 idiom: seq-numbered frames, an inflight map, per-ACK RTT
samples folded into EWMA ``srtt``/``rttvar`` (RFC 6298 shape: ``RTO =
srtt + 4*rttvar``, clamped), one retransmission timer (RFC 6298 section
5) and a bounded send window for flow control.  Every transmission
carries the sender's send stamp and every ACK echoes the earliest
stamp it retires (:mod:`repro.service.wire`, RFC 7323's timestamps), so
each ACK that retires frames is one unambiguous RTT sample -- Karn's
rule, which must discard any ACK that may have waited behind a resent
frame, has nothing left to discard; the back-off it protects still
holds until a sample arrives.  An ACK that retires nothing (a re-ACK,
or one overtaken by a later ACK) is no sample (RFC 7323 section 4.1).
ACKs are cumulative: ``ACK(s)`` retires every inflight frame up to
``s``.  The timer runs while any frame is
inflight, restarts on every ACK that retires frames, and on expiry
resends only the oldest unacked frame: the server holds the frames
that arrived behind that hole, so one resend and one cumulative ACK
retire them all.
Delivery is exactly-once end to end: the server dedups on seq, ACKs a
frame only once its ingest thread has taken it off the admission
queue, and ACKs a batch's last frame only after folding the batch --
so once :meth:`ReliableUDPSender.flush` returns, every batch sent has
been folded (or refused by the collector, which the server's next
``drain()`` raises).

``drop_fn`` is a deterministic loss hook for tests and demos: when it
returns True for ``(seq, attempt)`` (``attempt`` is 0 for a first
send, the sender's retry count for a resend), the frame is *not* put
on the wire (simulating network loss ahead of the sink) but stays
inflight and is resent -- this is how the lossy-loopback example
drives a seeded :class:`~repro.replay.impair.IIDLoss`-style channel
without root or tc.
"""

from __future__ import annotations

import select
import socket
import time
from typing import Callable, Dict, Optional

from repro.exceptions import ReproError
from repro.obs.metrics import NULL_REGISTRY
from repro.service import wire


#: The send stamp's clock: microseconds of ``time.monotonic``, modulo
#: 2^32 (it wraps every ~71 minutes; a round trip never comes close).
_STAMP_HZ = 1e6
_STAMP_MASK = 0xFFFFFFFF


def _stamp() -> int:
    """The send-stamp clock now."""
    return int(time.monotonic() * _STAMP_HZ) & _STAMP_MASK


#: RFC 6298's EWMA gains for the smoothed RTT and its deviation.
RTT_ALPHA = 0.125
RTT_BETA = 0.25

#: Max unacked frames in flight: 32 full datagrams span about 2 MiB of
#: payload.  ``send_batch`` blocks on ACK progress while the window is
#: full -- sender-side flow control matching the server's bounded
#: admission queue (the server ACKs a frame only once it is off that
#: queue).
WINDOW = 32

#: Resends of the frame the cumulative ACK is stuck on before
#: :class:`DeliveryError` (the sink is gone; buffering forever is not
#: reliability).  ACK progress resets the count.
MAX_RETRIES = 16

#: Timer back-off per resend: RFC 6298 section 5.5's doubling, capped
#: at ``max_rto`` and undone only by an RTT sample.
BACKOFF = 2.0


class DeliveryError(ReproError):
    """A reliable send could not be completed (retries/flush exhausted)."""


class ReliableUDPSender:
    """Seq/ACK/RTO reliable delivery over UDP (SNIPPETS 1-2 idiom).

    ACKs are cumulative -- ``ACK(s)`` retires every inflight frame up
    to ``s`` -- and a server sends one per folded batch (plus one when
    its queue runs dry mid-batch), not one per frame.  Each echoes the
    send stamp of the earliest transmission it retires, so the RTT
    sample is ``now - echo`` on every ACK that retires frames, a
    resend's round trip included -- under per-batch loss, where every
    ACK retires a resent frame, the estimate still converges.

    The send window (:data:`WINDOW`), the retry budget
    (:data:`MAX_RETRIES`) and the timer back-off (:data:`BACKOFF`) are
    module constants: after ``n`` resends without an RTT sample the
    timer waits ``rto * BACKOFF**n`` (capped at ``max_rto``), so a dead
    sink is not hammered at a constant rate.

    Parameters
    ----------
    max_records:
        Records per frame before a batch fragments; the default fills
        one datagram (``wire.MAX_UDP_RECORDS``).
    min_rto / max_rto / initial_rto:
        RTO bounds and the timeout before the first RTT sample
        (loopback-friendly; the EWMA gains are RFC 6298's
        :data:`RTT_ALPHA` / :data:`RTT_BETA`).
    send_timeout:
        Cap on the *total* time :meth:`send_batch` may block waiting
        for window space; past it a :class:`DeliveryError` is raised
        even if the oldest frame has not exhausted :data:`MAX_RETRIES`
        (a stalled-but-slowly-acking sink must not wedge the caller
        forever).
    drop_fn:
        Optional ``(seq, attempt) -> bool`` simulated-loss hook; True
        suppresses the actual ``sendto`` for that transmission.
    obs / obs_labels:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` (plus
        static labels, e.g. ``{"sink": "path"}``): live
        ``pint_sender_srtt_seconds`` / ``pint_sender_rttvar_seconds``
        gauges updated per RTT sample, a
        ``pint_sender_retransmits_total`` counter, and
        function-backed inflight/acked views -- the sender-side half
        of the wire picture the server's drop counters can't see.
    """

    def __init__(
        self,
        host: str,
        port: int,
        max_records: int = wire.MAX_UDP_RECORDS,
        min_rto: float = 0.02,
        max_rto: float = 2.0,
        initial_rto: float = 0.2,
        send_timeout: float = 60.0,
        drop_fn: Optional[Callable[[int, int], bool]] = None,
        obs=None,
        obs_labels: Optional[dict] = None,
    ) -> None:
        if max_records < 1:
            raise ValueError("max_records must be >= 1")
        if max_records > wire.MAX_UDP_RECORDS:
            raise ValueError(
                f"max_records {max_records} exceeds the UDP frame cap "
                f"({wire.MAX_UDP_RECORDS})"
            )
        self.addr = (host, port)
        self.max_records = max_records
        self.next_seq = 0
        self.frames_sent = 0      # transmissions, retransmits included
        self.records_sent = 0
        self.batches_sent = 0
        self.retransmits = 0
        self.acked_frames = 0
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.initial_rto = initial_rto
        self.send_timeout = send_timeout
        self.drop_fn = drop_fn
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        # seq -> payload, in seq order: frames enter in seq order and
        # a resend does not re-insert.
        self.inflight: Dict[int, bytearray] = {}
        # Resends of the oldest inflight frame, which is also the
        # timer's doublings: an ACK that retires frames is a sample
        # and resets both.
        self.retries = 0
        self._expires = 0.0       # the retransmission timer's deadline
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.setblocking(False)
        self.obs = obs if obs is not None else NULL_REGISTRY
        labels = dict(obs_labels) if obs_labels else {}
        self._g_srtt = self.obs.gauge(
            "pint_sender_srtt_seconds",
            "Smoothed RTT estimate (RFC 6298 EWMA).", labels=labels,
        )
        self._g_rttvar = self.obs.gauge(
            "pint_sender_rttvar_seconds",
            "RTT variance estimate (RFC 6298 EWMA).", labels=labels,
        )
        self._m_retx = self.obs.counter(
            "pint_sender_retransmits_total",
            "Frames retransmitted on RTO expiry.", labels=labels,
        )
        self.obs.gauge(
            "pint_sender_inflight_frames",
            "Unacked frames currently in the send window.", labels=labels,
        ).set_function(lambda: len(self.inflight))
        self.obs.counter(
            "pint_sender_acked_frames_total",
            "Frames acknowledged by the server.", labels=labels,
        ).set_function(lambda: self.acked_frames)

    # -- RTO ---------------------------------------------------------------

    @property
    def rto(self) -> float:
        """Current retransmission timeout (EWMA RTT + 4 deviations)."""
        if self.srtt is None:
            return self.initial_rto
        return min(self.max_rto,
                   max(self.min_rto, self.srtt + 4.0 * self.rttvar))

    def _scaled_rto(self, n: int) -> float:
        """The timer's span after ``n`` back-offs: RTO doubled, capped."""
        return min(self.max_rto, self.rto * BACKOFF ** n)

    def _restart_timer(self) -> None:
        self._expires = time.monotonic() + self._scaled_rto(self.retries)

    def _sample_rtt(self, r: float) -> None:
        if self.srtt is None:
            self.srtt = r
            self.rttvar = r / 2.0
        else:
            self.rttvar = ((1.0 - RTT_BETA) * self.rttvar
                           + RTT_BETA * abs(self.srtt - r))
            self.srtt = (1.0 - RTT_ALPHA) * self.srtt + RTT_ALPHA * r
        self._g_srtt.set(self.srtt)
        self._g_rttvar.set(self.rttvar)

    # -- send path ---------------------------------------------------------

    def send_batch(self, flow_ids, pids, hop_counts, digests,
                   now: Optional[float] = None) -> int:
        """Ship one batch reliably; blocks while the window is full.

        The window wait is bounded by ``send_timeout`` *in total* for
        the batch: :data:`MAX_RETRIES` catches a dead sink, but a sink
        acking at a trickle can hold the window full without the
        oldest frame ever exhausting its retries -- the deadline
        catches that.
        """
        base_seq = self.next_seq
        frames = wire.encode_frames(
            flow_ids, pids, hop_counts, digests, now,
            start_seq=base_seq, max_records=self.max_records, reliable=True,
        )
        self.next_seq += len(frames)
        deadline = time.monotonic() + self.send_timeout
        for i, payload in enumerate(frames):
            while len(self.inflight) >= WINDOW:
                if time.monotonic() >= deadline:
                    raise DeliveryError(
                        f"send window still full after "
                        f"{self.send_timeout}s "
                        f"({len(self.inflight)} frame(s) unacked); "
                        "sink stalled"
                    )
                self._pump(self.rto)
            if not self.inflight:
                self._restart_timer()
            frame = self.inflight[base_seq + i] = bytearray(payload)
            self._transmit(base_seq + i, frame, 0)
        records = wire.encoded_records(frames)
        self.records_sent += records
        if frames:
            self.batches_sent += 1
        return records

    def _transmit(self, seq: int, payload: bytearray, attempt: int) -> None:
        wire.stamp_frame(payload, _stamp())
        self.frames_sent += 1
        if self.drop_fn is not None and self.drop_fn(seq, attempt):
            return  # simulated network loss: never reaches the wire
        try:
            self.sock.sendto(payload, self.addr)
        except (BlockingIOError, InterruptedError):  # pragma: no cover
            pass  # RTO covers it: an unsendable frame just retries

    def _pump(self, max_wait: float) -> None:
        """Receive ACKs and resend on timer expiry (one cycle).

        Waits at most ``max_wait`` (or until the timer expires,
        whichever is sooner) for socket readability, drains every
        pending ACK, then checks the timer.
        """
        wait = max_wait
        if self.inflight:
            wait = max(0.0, min(wait, self._expires - time.monotonic()))
        readable, _, _ = select.select([self.sock], [], [], wait)
        if readable:
            while True:
                try:
                    data, _ = self.sock.recvfrom(1 << 12)
                except (BlockingIOError, InterruptedError):
                    break
                except OSError:
                    break
                try:
                    frame = wire.decode_frame(data)
                except wire.WireError:
                    continue  # not ours; ignore
                if isinstance(frame, wire.AckFrame):
                    self._on_ack(frame.seq, frame.echo)
        if self.inflight and time.monotonic() >= self._expires:
            self._resend_oldest()

    def _resend_oldest(self) -> None:
        """Timer expiry: resend the oldest unacked frame and back off."""
        seq = next(iter(self.inflight))
        if self.retries >= MAX_RETRIES:
            raise DeliveryError(
                f"frame seq={seq} unacked after {MAX_RETRIES} "
                f"retransmissions (rto={self.rto:.3f}s); sink unreachable"
            )
        self.retries += 1
        self.retransmits += 1
        self._m_retx.inc()
        self._restart_timer()
        self._transmit(seq, self.inflight[seq], self.retries)

    def _on_ack(self, seq: int, echo: int) -> None:
        """Retire every inflight frame up to ``seq``; if that retired
        any, take the RTT sample ``echo`` gives and restart the timer.

        The echo is the send stamp of the earliest transmission the ACK
        retires, so the sample is that transmission's own round trip
        whether or not it was a resend.  An ACK that retires nothing is
        stale and neither samples nor ends the back-off.  Progress
        resets the retry count, which is the back-off.
        """
        inflight = self.inflight
        acked = self.acked_frames
        while inflight:
            first = next(iter(inflight))
            if first > seq:
                break
            del inflight[first]
            self.acked_frames += 1
        if self.acked_frames != acked:
            self._sample_rtt(((_stamp() - echo) & _STAMP_MASK) / _STAMP_HZ)
            self.retries = 0
            self._restart_timer()

    def flush(self, timeout: float = 30.0) -> None:
        """Block until every sent frame is ACKed (or raise).

        The server ACKs a batch's last frame only after folding the
        batch, so on return every batch sent has been folded.
        """
        deadline = time.monotonic() + timeout
        while self.inflight:
            if time.monotonic() >= deadline:
                raise DeliveryError(
                    f"flush timed out after {timeout}s with "
                    f"{len(self.inflight)} frame(s) unacked"
                )
            self._pump(0.05)

    def __enter__(self) -> "ReliableUDPSender":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Flush, then release the socket."""
        try:
            if self.inflight:
                self.flush()
        finally:
            self.sock.close()

