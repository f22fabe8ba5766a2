"""Shared-memory ring-buffer transport for the parallel collector.

Pickling ndarrays over a pipe costs a serialise, a kernel copy per
64 KiB write and a deserialise for every scattered batch -- all
parent-side, all serial.  So the *data plane* is one
:class:`ShmRing` per worker: a ``multiprocessing.
shared_memory`` segment laid out as a fixed-slot SPSC ring, written
once by the parent (vectorised column copies) and read zero-copy by
the worker (``np.ndarray`` views straight over the segment).  Every
batch a worker folds -- of any length, live or replayed -- travels the
ring; the duplex pipe carries only sync RPCs.

Ring layout (one segment per worker)::

      offset 0      ┌────────────────────────────────────┐
                    │ consumed : int64   (consumer-owned) │  64 B header
      offset 64     ├────────────────────────────────────┤
                    │ slot 0:  seq | n | more : i64       │  64 B slot
                    │          t : f64   (+ padding)      │  header
                    │          fids[cap] ps[cap]          │  4 × cap × 8 B
                    │          hops[cap] digs[cap]        │  payload
                    ├────────────────────────────────────┤
                    │ slot 1:  ...                        │
                    └────────────────────────────────────┘

Seqlock-style publication: slot write ``i`` (0-based) lands in slot
``i % slots``; the producer writes the payload columns and the slot
header fields first and publishes by storing ``seq = i + 1`` *last*.
The consumer, having consumed ``c`` slots, polls slot ``c % slots``
until its ``seq`` reads ``c + 1``, reads the payload, and only then
stores ``consumed = c + 1`` back into the control header -- the
producer's licence to overwrite that slot with write ``c + slots``.
One writer per field, int64 stores are single machine words on every
platform we run on, and the seq/consumed pair brackets every payload
access, so no torn read is ever acted on.

Messages and the continuation rule: a message is one columnar batch,
folded by the worker as one batch of a ``Collector.ingest_run`` run,
and carried as a run of consecutive slots, every slot but the last
flagged ``more``, each repeating the message's clock stamp ``t``.
:meth:`ShmRing.push` splits a message longer than a slot into such a
run; :meth:`ShmRing.take` hands back whole messages only.  One
producer writes one slot sequence, so messages arrive in push order
with nothing able to overtake them.

Zero-copy safety: a single-slot message comes back as views over its
slot, released at the next ``take()``, so the worker copies it before
taking the next message of its run; the fold retains no view (its
:func:`repro.grouping.stable_order` grouping gathers with fancy
indexing, which copies).  A longer message is copied out slot by
slot, each slot released as soon as it is copied, so a message larger
than the whole ring still flows under back-pressure.

This is the only module allowed to *create* shared-memory segments
(lint rule R008 confines ``SharedMemory(create=True)`` here): one
owner per segment keeps the unlink discipline auditable.
"""

from __future__ import annotations

import time
from functools import partial
from multiprocessing import shared_memory
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

#: Control header bytes (one int64 used: the consumed count).
_CTRL_BYTES = 64
#: Per-slot header bytes (seq, n, more as int64; t as float64).
_SLOT_HEADER_BYTES = 64
#: Slot-header field offsets, in int64 words.
_SEQ, _N, _MORE = range(3)
#: Byte offset of the float64 batch clock stamp inside a slot header.
_T_OFFSET = 24


class RingMessage(NamedTuple):
    """One whole message, as :meth:`ShmRing.take` returns it."""

    t: float
    #: ``(fids, pids, hops, digs)`` int64 columns: views into the
    #: segment for a single-slot message (valid until the next
    #: ``take()``), copies for a longer one.
    columns: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class PeerGoneError(RuntimeError):
    """The other end of the ring stopped making progress (died/wedged)."""


class ShmRing:
    """Fixed-slot SPSC ring over one shared-memory segment.

    One side constructs with :meth:`create` (the parent; owns the
    segment name and must :meth:`unlink`), the other attaches with
    :meth:`attach` from the spec tuple.  Producer methods
    (``try_push``/``push``) and the consumer method (``take``) are
    each single-threaded by contract; the two sides run in different
    processes.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        slots: int,
        slot_records: int,
        owner: bool,
    ) -> None:
        self._shm = shm
        self._owner = owner
        self._unlinked = False
        self.slots = int(slots)
        self.slot_records = int(slot_records)
        self._slot_bytes = _SLOT_HEADER_BYTES + 4 * self.slot_records * 8
        self._size = _CTRL_BYTES + self.slots * self._slot_bytes
        buf = shm.buf
        # Bounds guard: every view below stays inside the segment (the
        # OS may round the mapping up, never down).
        assert buf.nbytes >= self._size, (
            f"shm segment {shm.name} is {buf.nbytes} B, ring layout "
            f"needs {self._size} B"
        )
        self._ctrl = np.frombuffer(buf, dtype=np.int64, count=1, offset=0)
        self._views: List[np.ndarray] = [self._ctrl]
        self._hdrs: List[np.ndarray] = []
        self._ts: List[np.ndarray] = []
        self._cols: List[np.ndarray] = []
        for s in range(self.slots):
            off = _CTRL_BYTES + s * self._slot_bytes
            hdr = np.frombuffer(buf, dtype=np.int64, count=3, offset=off)
            t = np.frombuffer(
                buf, dtype=np.float64, count=1, offset=off + _T_OFFSET
            )
            col = np.frombuffer(
                buf, dtype=np.int64, count=4 * self.slot_records,
                offset=off + _SLOT_HEADER_BYTES,
            ).reshape(4, self.slot_records)
            self._hdrs.append(hdr)
            self._ts.append(t)
            self._cols.append(col)
            self._views += [hdr, t, col]
        #: Slots pushed (producer-side) / consumed (consumer-side).
        #: Each side only trusts its own local count plus the single
        #: shared field the *other* side publishes.
        self._pushed = 0
        self._taken = 0
        #: Consumer-side: a zero-copy message is out (its slot is
        #: released by the next take()), and the copied slots of a
        #: message whose last slot has not arrived yet.
        self._held = False
        self._parts: List[np.ndarray] = []

    # -- construction ------------------------------------------------------

    @classmethod
    def create(cls, slots: int, slot_records: int) -> "ShmRing":
        """Parent side: allocate a fresh segment (auto-named)."""
        if slots < 2:
            # Two slots is the double-buffering floor: the producer
            # fills one while the consumer drains the other.
            raise ValueError("slots must be >= 2 (double buffering)")
        if slot_records < 1:
            raise ValueError("slot_records must be >= 1")
        size = _CTRL_BYTES + slots * (_SLOT_HEADER_BYTES + 4 * slot_records * 8)
        shm = shared_memory.SharedMemory(create=True, size=size)
        shm.buf[:_CTRL_BYTES] = b"\0" * _CTRL_BYTES
        ring = cls(shm, slots, slot_records, owner=True)
        for hdr in ring._hdrs:
            hdr[_SEQ] = 0
        return ring

    @classmethod
    def attach(cls, name: str, slots: int, slot_records: int) -> "ShmRing":
        """Worker side: map an existing segment by name.

        The attach must not claim ownership, or the resource tracker
        would unlink the segment at worker exit (bpo-38119).  It is
        untracked on 3.13+; before that it registers with the tracker
        the forked worker shares with the parent, whose registry is a
        set, so the registration is a no-op.
        """
        try:
            shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # track= is 3.13+
            shm = shared_memory.SharedMemory(name=name)
        return cls(shm, slots, slot_records, owner=False)

    def spec(self) -> tuple:
        """Picklable ``attach()`` arguments for the worker process."""
        return (self._shm.name, self.slots, self.slot_records)

    # -- producer side -----------------------------------------------------

    def try_push(
        self,
        fids: np.ndarray,
        pids: np.ndarray,
        hops: np.ndarray,
        digs: np.ndarray,
        t: float,
        more: bool = False,
    ) -> bool:
        """Publish one slot; False when the ring is full (no wait).

        ``more`` marks the slot as continued by the next one (see
        :meth:`push`, which splits messages longer than a slot).
        """
        n = int(fids.shape[0])
        if n > self.slot_records:
            raise ValueError(
                f"batch of {n} records exceeds slot capacity "
                f"{self.slot_records}; push() splits it across slots"
            )
        if self._pushed - int(self._ctrl[0]) >= self.slots:
            return False
        s = self._pushed % self.slots
        col = self._cols[s]
        col[0, :n] = fids
        col[1, :n] = pids
        col[2, :n] = hops
        col[3, :n] = digs
        self._ts[s][0] = t
        hdr = self._hdrs[s]
        hdr[_N] = n
        hdr[_MORE] = more
        hdr[_SEQ] = self._pushed + 1  # publish: payload precedes seq
        self._pushed += 1
        return True

    def push(
        self,
        fids: np.ndarray,
        pids: np.ndarray,
        hops: np.ndarray,
        digs: np.ndarray,
        t: float,
        alive: Callable[[], bool],
        timeout: Optional[float] = None,
    ) -> None:
        """Publish one message of any length as consecutive slots.

        Every slot lands through :meth:`push_wait`, so a message longer
        than the whole ring flows as the consumer frees slots, and no
        wait outlives the consumer's pulse: ``timeout`` bounds each
        slot's wait for room.
        """
        n = int(fids.shape[0])
        for lo in range(0, max(n, 1), self.slot_records):
            hi = min(lo + self.slot_records, n)
            attempt = partial(
                self.try_push, fids[lo:hi], pids[lo:hi], hops[lo:hi],
                digs[lo:hi], t, hi < n,
            )
            self.push_wait(attempt, alive, timeout)

    def push_wait(
        self,
        attempt: Callable[[], bool],
        alive: Callable[[], bool],
        timeout: Optional[float] = None,
        spin: float = 0.0001,
    ) -> None:
        """Run ``attempt`` until it lands, watching the consumer's pulse.

        ``attempt`` is a bound ``try_push`` closure.  Raises
        :class:`PeerGoneError` when the consumer process reports dead,
        or -- with ``timeout`` -- when a live consumer makes no room
        for that long (wedged; SIGSTOP and an infinite loop look
        identical from here, and both are cured by the supervisor
        replacing the worker).
        """
        if attempt():
            return
        deadline = (
            time.perf_counter() + timeout if timeout is not None else None
        )
        while True:
            if not alive():
                # One last look: the consumer may have advanced the
                # ring right before dying.
                if attempt():
                    return
                raise PeerGoneError("ring consumer died with the ring full")
            if deadline is not None and time.perf_counter() >= deadline:
                raise PeerGoneError(
                    f"ring consumer made no progress in {timeout}s "
                    "with the process alive (wedged)"
                )
            time.sleep(spin)
            if attempt():
                return

    def occupancy(self) -> int:
        """Producer-side live depth: slots pushed and not yet consumed."""
        return self._pushed - int(self._ctrl[0])

    # -- consumer side -----------------------------------------------------

    def take(self) -> Optional[RingMessage]:
        """The next whole message, or None until all of it has arrived.

        Releases the previous single-slot message first.  A message
        that fits one slot comes back as zero-copy views, valid until
        the next call; a longer one is copied out as its slots arrive,
        each slot released at once, and comes back concatenated.
        """
        if self._held:
            self._held = False
            self._release()
        while True:
            s = self._taken % self.slots
            hdr = self._hdrs[s]
            if int(hdr[_SEQ]) != self._taken + 1:
                return None
            payload = self._cols[s][:, :int(hdr[_N])]
            t, more = float(self._ts[s][0]), hdr[_MORE]
            if not more and not self._parts:
                self._held = True
                return RingMessage(t, tuple(payload))
            self._parts.append(payload.copy())
            self._release()
            if not more:
                joined = np.concatenate(self._parts, axis=1)
                self._parts = []
                return RingMessage(t, tuple(joined))

    @property
    def mid_message(self) -> bool:
        """True while part of a multi-slot message has been taken."""
        return bool(self._parts)

    def _release(self) -> None:
        """Hand the oldest unreleased slot back to the producer."""
        self._taken += 1
        self._ctrl[0] = self._taken

    # -- lifecycle ---------------------------------------------------------

    @property
    def name(self) -> str:
        return self._shm.name

    def close(self) -> None:
        """Drop this process's mapping (both sides; idempotent).

        All ndarray views are released first: ``mmap.close`` refuses
        to unmap while exported buffers exist, and a view kept alive
        by a stray traceback would otherwise turn close() into a
        BufferError.  When that still happens the mapping is left for
        process exit to reclaim -- a leaked map is recoverable, a
        crashed close() is not.
        """
        self._hdrs = []
        self._ts = []
        self._cols = []
        self._ctrl = None
        self._views.clear()
        try:
            self._shm.close()
        except BufferError:
            pass

    def unlink(self) -> None:
        """Remove the segment name (owner side only; idempotent)."""
        if not self._owner or self._unlinked:
            return
        self._unlinked = True
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass
