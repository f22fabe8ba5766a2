"""Checkpoint/restore + replay journal: the collector's crash story.

A PINT sink shard is pure deterministic fold state -- flow tables,
peeling decoders, KLL sketches, counters -- so the whole fault-
tolerance design reduces to two primitives (the Basil discipline from
PAPERS.md: keep enough replayable state that a restarted participant
reconverges to the *exact* answer):

* **checkpoint** -- a worker serialises its full collector state
  (:meth:`~repro.collector.collector.Collector.state_dict`) into a
  versioned, CRC-guarded binary blob on a configurable cadence;
* **journal** -- the parent keeps every message sent since the last
  checkpoint ACK in a bounded :class:`BatchJournal`.

``restore(checkpoint) ; replay(journal)`` then reconstructs the exact
pre-crash state: a SIGKILL mid-batch takes the partially-applied batch
with it, the restore rewinds to the checkpoint, and the replay applies
every since-checkpoint message exactly once -- exactly-once semantics
*by reconstruction*, not by dedup.  The round-trip property
``restore(checkpoint(c)) == c`` is asserted at snapshot and
per-flow-answer granularity in ``tests/test_recovery.py``.

Checkpoint wire format (version rules in DESIGN.md section 9)::

    magic  b"PCKP"   | 4 bytes
    version u16 LE   | bumped on any layout change; no silent skew
    length  u32 LE   | payload byte count (truncation detection)
    crc32   u32 LE   | zlib.crc32 of the payload (torn-write detection)
    payload          | pickled state dict (store arrays + consumer objects)

Decoding rejects, with typed errors, exactly the failure modes a
crash-during-write produces: short header, bad magic, version skew
(:class:`~repro.exceptions.CheckpointVersionError`), length or CRC
mismatch (:class:`~repro.exceptions.CheckpointError`).  File writes go
through a tmp-and-rename so a torn write leaves the *previous*
checkpoint intact.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from collections import deque
from typing import Deque, Dict, List, Optional

from repro.exceptions import CheckpointError, CheckpointVersionError

#: Bump on any change to the pickled state layout.  A restore across
#: versions must fail loudly (CheckpointVersionError), never misread.
#: v2: path consumers and decoders pickle a reference to their sink's
#: one shared PathQueryContext (once per blob) instead of carrying
#: universe, scheme and hashes per flow.
#: v3: peeling decoders pickle open hops only -- no singleton candidate
#: array per settled hop, no resolved pending XOR entries.
#: v4: a sink's raw/hash path flows and congestion flows are not
#: pickled objects but one store capture per collector (a dozen arrays
#: in canonical order, ``PathStateStore.state_dict``); flow tables hold
#: their bookkeeping as four columns plus the count of store rows that
#: are theirs.  Only consumers that are still objects (latency,
#: fragment-mode and topology-aware path flows) pickle whole.
#: v5: a store capture names the query it was taken from (path: mode,
#: digest bits, hash count, seed, pinned scheme, a digest of the
#: universe; congestion: the codec's bits, epsilon and ``max_util``),
#: and a restore into a sink of another query raises RestoreError.
CHECKPOINT_VERSION = 5

_MAGIC = b"PCKP"
_HEADER = struct.Struct("<4sHII")  # magic, version, payload len, crc32


def encode_checkpoint(state: dict) -> bytes:
    """Serialise one state dict into the framed checkpoint format."""
    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(
        _MAGIC, CHECKPOINT_VERSION, len(payload), zlib.crc32(payload)
    ) + payload


def validate_checkpoint(data: bytes, worker=None) -> None:
    """Header + CRC check without unpickling (cheap accept/reject).

    Raises :class:`CheckpointError` /
    :class:`CheckpointVersionError`; returns None on a valid blob.
    """
    if len(data) < _HEADER.size:
        raise CheckpointError(
            f"checkpoint truncated: {len(data)} bytes < "
            f"{_HEADER.size}-byte header", worker=worker,
        )
    magic, version, length, crc = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise CheckpointError(
            f"bad checkpoint magic {magic!r}", worker=worker,
        )
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"checkpoint version {version} != supported "
            f"{CHECKPOINT_VERSION}", version=version, worker=worker,
        )
    payload = data[_HEADER.size:]
    if len(payload) != length:
        raise CheckpointError(
            f"checkpoint payload truncated: {len(payload)} bytes, "
            f"header promised {length}", worker=worker,
        )
    if zlib.crc32(payload) != crc:
        raise CheckpointError(
            "checkpoint CRC mismatch (torn or corrupted write)",
            worker=worker,
        )


def decode_checkpoint(data: bytes, worker=None) -> dict:
    """Validate and unpickle one checkpoint blob.

    A CRC-valid payload that names a module or class this build does
    not have (a blob written by another version of the code) raises
    :class:`CheckpointError`, chained to the unpickling error.
    """
    validate_checkpoint(data, worker=worker)
    try:
        return pickle.loads(data[_HEADER.size:])
    except (pickle.UnpicklingError, ImportError, AttributeError) as exc:
        raise CheckpointError(
            f"checkpoint payload does not unpickle in this build: {exc}",
            worker=worker,
        ) from exc


def write_checkpoint(path: str, data: bytes) -> None:
    """Atomic file write: tmp + fsync + rename.

    A crash mid-write leaves either the old checkpoint or the new one,
    never a torn file -- the on-disk half of the fallback-to-previous
    contract (the in-memory half is the parent keeping the last valid
    blob until a new one validates).
    """
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def read_checkpoint(path: str, worker=None) -> dict:
    """Read + validate + unpickle a checkpoint file."""
    with open(path, "rb") as fh:
        return decode_checkpoint(fh.read(), worker=worker)


class JournalEntry:
    """One journalled message: the raw pipe tuple plus loss accounting."""

    __slots__ = ("msg", "records", "shard_counts")

    def __init__(
        self, msg: tuple, records: int, shard_counts: Dict[int, int]
    ) -> None:
        self.msg = msg
        self.records = records
        self.shard_counts = shard_counts


class BatchJournal:
    """Bounded FIFO of messages sent since the last checkpoint ACK.

    The window arithmetic (DESIGN.md section 9): with a checkpoint
    every ``C`` messages and capacity ``J >= C``, the journal never
    evicts on the healthy path -- a checkpoint ACK clears it before it
    fills.  Eviction therefore only happens when checkpointing itself
    is failing (write dropped/corrupted, worker wedged at the sync
    point); the evicted entries' per-shard record counts accrue in
    ``dropped_by_shard`` so a later recovery can mark exactly which
    shards lost exactly how many records.  An eviction is *potential*
    loss: if the worker survives to its next valid checkpoint the
    dropped entries were long applied and the accrual is discarded.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("journal capacity must be >= 1")
        self.capacity = capacity
        self.entries: Deque[JournalEntry] = deque()
        self.dropped_batches = 0
        self.dropped_records = 0
        self.dropped_by_shard: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def full(self) -> bool:
        return len(self.entries) >= self.capacity

    @property
    def records(self) -> int:
        """Records across the retained entries (replay volume)."""
        return sum(e.records for e in self.entries)

    def append(
        self, msg: tuple, records: int, shard_counts: Dict[int, int]
    ) -> Optional[JournalEntry]:
        """Retain one message; returns the evicted entry when full.

        The caller decides what an eviction means (degrade vs raise);
        the journal only does the bounded-FIFO accounting.
        """
        evicted: Optional[JournalEntry] = None
        if len(self.entries) >= self.capacity:
            evicted = self.entries.popleft()
            self.dropped_batches += 1
            self.dropped_records += evicted.records
            for sid, n in evicted.shard_counts.items():
                self.dropped_by_shard[sid] = (
                    self.dropped_by_shard.get(sid, 0) + n
                )
        self.entries.append(JournalEntry(msg, records, shard_counts))
        return evicted

    def clear(self) -> None:
        """Checkpoint ACK: everything retained is now covered."""
        self.entries.clear()

    def clear_dropped(self) -> None:
        """A valid checkpoint also covers previously evicted entries
        (the worker applied them before the snapshot was cut)."""
        self.dropped_batches = 0
        self.dropped_records = 0
        self.dropped_by_shard = {}

    def replay_messages(self) -> List[tuple]:
        """The retained messages, oldest first (FIFO replay order)."""
        return [e.msg for e in self.entries]


def capture_checkpoint(collector, metrics: Optional[dict] = None,
                       worker: int = 0) -> bytes:
    """Encode one collector's full state as a checkpoint blob.

    ``metrics`` (a registry dump) rides along for forensics and
    continuity -- the restore path reinstates collector state exactly
    but starts a fresh registry, so the dump is how a post-mortem
    still sees the pre-crash counters.
    """
    return encode_checkpoint({
        "worker": worker,
        "collector": collector.state_dict(),
        "metrics": metrics,
    })


def restore_collector(collector, data: bytes, worker=None) -> dict:
    """Decode a checkpoint blob and install it into ``collector``.

    Returns the decoded state dict (callers may want the ``metrics``
    sidecar).  Raises the typed checkpoint errors on a bad blob and
    :class:`~repro.exceptions.RestoreError` on a layout mismatch.
    """
    state = decode_checkpoint(data, worker=worker)
    collector.load_state(state["collector"])
    return state


__all__ = [
    "BatchJournal",
    "CHECKPOINT_VERSION",
    "JournalEntry",
    "capture_checkpoint",
    "decode_checkpoint",
    "encode_checkpoint",
    "read_checkpoint",
    "restore_collector",
    "validate_checkpoint",
    "write_checkpoint",
]
