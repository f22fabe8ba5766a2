"""Shared-memory ring-buffer transport for the parallel collector.

Pickling ndarrays over a pipe costs a serialise, a kernel copy per
64 KiB write and a deserialise for every scattered batch -- all
parent-side, all serial.  So the *data plane* is one
:class:`ShmRing` per worker: a ``multiprocessing.
shared_memory`` segment laid out as a fixed-slot SPSC ring, written
once by the parent (vectorised column copies) and read zero-copy by
the worker (``np.ndarray`` views straight over the segment).  The
control plane -- sync RPCs, oversized batches, scalar ingests --
stays on the duplex pipe.

Ring layout (one segment per worker)::

      offset 0      ┌────────────────────────────────────┐
                    │ consumed : int64   (consumer-owned) │  64 B header
      offset 64     ├────────────────────────────────────┤
                    │ slot 0:  seq | kind | n | side : i64│  64 B slot
                    │          t : f64   (+ padding)      │  header
                    │          fids[cap] ps[cap]          │  4 × cap × 8 B
                    │          hops[cap] digs[cap]        │  payload
                    ├────────────────────────────────────┤
                    │ slot 1:  ...                        │
                    └────────────────────────────────────┘

Seqlock-style publication: message ``i`` (0-based) lands in slot
``i % slots``; the producer writes the payload columns and the slot
header fields first and publishes by storing ``seq = i + 1`` *last*.
The consumer, having consumed ``c`` messages, polls slot
``c % slots`` until its ``seq`` reads ``c + 1``, ingests the
zero-copy views, and only then stores ``consumed = c + 1`` back into
the control header -- the producer's licence to overwrite that slot
with message ``c + slots``.  One writer per field, int64 stores are
single machine words on every platform we run on, and the seq/
consumed pair brackets every payload access, so no torn read is ever
acted on.

Ordering with the pipe side-channel: the ring is the single ordering
spine.  Anything that must travel by pipe but interleave with ring
batches (an oversized batch, a scalar ingest, a journal replay) is
sent as a numbered side message *and* a tombstone slot
(``kind=1, n=0``) is pushed into the ring carrying that number; the
consumer blocks on the pipe when it meets a tombstone it has not
already satisfied.  ``collector/parallel.py`` owns that protocol;
this module only carries the slots.

Zero-copy safety: consumers never retain batch views past
``Collector.ingest_batch`` (its lexsort grouping gathers with fancy
indexing, which copies), so a slot may be reused the moment the
consumer advances past it.

This is the only module allowed to *create* shared-memory segments
(lint rule R008 confines ``SharedMemory(create=True)`` here): one
owner per segment keeps the unlink discipline auditable.
"""

from __future__ import annotations

import time
from multiprocessing import resource_tracker, shared_memory
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

#: Control header bytes (one int64 used: the consumed count).
_CTRL_BYTES = 64
#: Per-slot header bytes (seq, kind, n, side as int64; t as float64).
_SLOT_HEADER_BYTES = 64
#: Slot-header field offsets, in int64 words.
_SEQ, _KIND, _N, _SIDE = range(4)
#: Byte offset of the float64 batch clock stamp inside a slot header.
_T_OFFSET = 32

#: Slot kinds.  A DATA slot carries a columnar batch; a TOMBSTONE
#: carries no payload, only the side-channel sequence number whose
#: pipe message must be applied at this point of the stream.
KIND_DATA = 0
KIND_TOMBSTONE = 1


class RingSlot(NamedTuple):
    """One consumed-side view of a ready slot (views, not copies)."""

    kind: int
    side: int
    t: float
    #: ``(fids, pids, hops, digs)`` int64 views into the segment;
    #: empty arrays on a tombstone.  Valid until ``advance()``.
    columns: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class PeerGoneError(RuntimeError):
    """The other end of the ring stopped making progress (died/wedged)."""


def _release_views(arrays: List[np.ndarray]) -> None:
    arrays.clear()


class ShmRing:
    """Fixed-slot SPSC ring over one shared-memory segment.

    One side constructs with :meth:`create` (the parent; owns the
    segment name and must :meth:`unlink`), the other attaches with
    :meth:`attach` from the spec tuple.  Producer methods
    (``try_push*``) and consumer methods (``peek``/``advance``) are
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
            hdr = np.frombuffer(buf, dtype=np.int64, count=4, offset=off)
            t = np.frombuffer(
                buf, dtype=np.float64, count=1, offset=off + _T_OFFSET
            )
            col = np.frombuffer(
                buf, dtype=np.int64, count=4 * self.slot_records,
                offset=off + _SLOT_HEADER_BYTES,
            )
            self._hdrs.append(hdr)
            self._ts.append(t)
            self._cols.append(col)
            self._views += [hdr, t, col]
        #: Messages pushed (producer-side) / consumed (consumer-side).
        #: Each side only trusts its own local count plus the single
        #: shared field the *other* side publishes.
        self._pushed = 0
        self._taken = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def create(cls, slots: int = 8, slot_records: int = 16384) -> "ShmRing":
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
    def attach(
        cls, name: str, slots: int, slot_records: int, start_method: str
    ) -> "ShmRing":
        """Worker side: map an existing segment by name.

        Under ``spawn`` the child process runs its own resource
        tracker, which would treat this attach as an ownership claim
        and unlink the segment at child exit (bpo-38119); the attach
        is untracked (3.13+) or explicitly unregistered to leave the
        parent as the sole owner.  Under ``fork`` the tracker process
        is shared and registration is set-based, so the attach is
        already a no-op there.
        """
        try:
            shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # track= is 3.13+
            shm = shared_memory.SharedMemory(name=name)
            if start_method != "fork":
                resource_tracker.unregister(shm._name, "shared_memory")
        return cls(shm, slots, slot_records, owner=False)

    def spec(self, start_method: str) -> tuple:
        """Picklable ``attach()`` arguments for the worker process."""
        return (self._shm.name, self.slots, self.slot_records, start_method)

    # -- producer side -----------------------------------------------------

    def fits(self, n: int) -> bool:
        """True if an ``n``-record batch fits one slot."""
        return n <= self.slot_records

    def _free_slot(self) -> Optional[int]:
        if self._pushed - int(self._ctrl[0]) >= self.slots:
            return None
        return self._pushed % self.slots

    def try_push(
        self,
        fids: np.ndarray,
        pids: np.ndarray,
        hops: np.ndarray,
        digs: np.ndarray,
        t: float,
    ) -> bool:
        """Publish one batch; False when the ring is full (no wait)."""
        n = int(fids.shape[0])
        if n > self.slot_records:
            raise ValueError(
                f"batch of {n} records exceeds slot capacity "
                f"{self.slot_records}; callers must route oversized "
                "batches through the pipe fallback"
            )
        s = self._free_slot()
        if s is None:
            return False
        cap = self.slot_records
        col = self._cols[s]
        col[0:n] = fids
        col[cap:cap + n] = pids
        col[2 * cap:2 * cap + n] = hops
        col[3 * cap:3 * cap + n] = digs
        self._ts[s][0] = t
        hdr = self._hdrs[s]
        hdr[_KIND] = KIND_DATA
        hdr[_N] = n
        hdr[_SIDE] = 0
        hdr[_SEQ] = self._pushed + 1  # publish: payload precedes seq
        self._pushed += 1
        return True

    def try_push_tombstone(self, side_index: int) -> bool:
        """Publish a side-channel marker slot; False when full."""
        s = self._free_slot()
        if s is None:
            return False
        hdr = self._hdrs[s]
        hdr[_KIND] = KIND_TOMBSTONE
        hdr[_N] = 0
        hdr[_SIDE] = side_index
        hdr[_SEQ] = self._pushed + 1
        self._pushed += 1
        return True

    def push_wait(
        self,
        attempt: Callable[[], bool],
        alive: Callable[[], bool],
        timeout: Optional[float] = None,
        spin: float = 0.0001,
    ) -> None:
        """Run ``attempt`` until it lands, watching the consumer's pulse.

        ``attempt`` is a bound ``try_push``/``try_push_tombstone``
        closure.  Raises :class:`PeerGoneError` when the consumer
        process reports dead, or -- with ``timeout`` -- when a live
        consumer makes no room for that long (wedged; SIGSTOP and an
        infinite loop look identical from here, and both are cured by
        the supervisor replacing the worker).
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
        """Producer-side live depth: pushed and not yet consumed."""
        return self._pushed - int(self._ctrl[0])

    # -- consumer side -----------------------------------------------------

    def peek(self) -> Optional[RingSlot]:
        """The next ready slot as zero-copy views, or None (empty).

        The returned views are valid until :meth:`advance`; consumers
        must not retain them past it (``Collector.ingest_batch``'s
        gather-copies satisfy this by construction).
        """
        s = self._taken % self.slots
        hdr = self._hdrs[s]
        if int(hdr[_SEQ]) != self._taken + 1:
            return None
        n = int(hdr[_N])
        cap = self.slot_records
        col = self._cols[s]
        return RingSlot(
            kind=int(hdr[_KIND]),
            side=int(hdr[_SIDE]),
            t=float(self._ts[s][0]),
            columns=(
                col[0:n], col[cap:cap + n],
                col[2 * cap:2 * cap + n], col[3 * cap:3 * cap + n],
            ),
        )

    def advance(self) -> None:
        """Release the slot :meth:`peek` returned back to the producer."""
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
        _release_views(self._views)
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
