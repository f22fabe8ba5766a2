"""Versioned binary wire format for columnar digest batches.

The unit a PINT sink receives off the network is a **frame**: a fixed
struct-packed header followed (for data frames) by four little-endian
``int64`` columns -- ``flow_id``, ``pid``, ``hop_count``, ``digest`` --
exactly the columnar batch :meth:`repro.collector.Collector.
ingest_batch` consumes, so a received frame feeds the collector with
zero per-record Python work (``np.frombuffer`` views straight into the
payload bytes).

Layout (all little-endian, no padding)::

    common   magic:u16 = 0x4950 ("PI")   version:u8   ftype:u8
    DATA     seq:u32  count:u32  flags:u8  now:f64  stamp:u32
             flow_id[count]:i64  pid[count]:i64
             hop_count[count]:i64  digest[count]:i64
    ACK      seq:u32  echo:u32

ACKs are cumulative: ``ACK(s)`` acknowledges every frame with a seq up
to ``s``.  A server only ever ACKs the in-order prefix of a stream, so
one ACK per folded batch retires all its frames, and a re-ACK of a
single duplicate under its own seq is still a valid cumulative ACK.
Acknowledged means taken off the server's admission queue: folded, or
held for its batch's reassembly.

``stamp`` is the sender's clock (microseconds, modulo 2^32) when *this
transmission* of the frame left -- a resend carries a new one
(:func:`stamp_frame` rewrites it in place) -- and an ACK's ``echo`` is
the earliest stamp among the transmissions that released the frames
it retires: a frame's own, or for a frame held behind a hole the one
that filled it (RFC 7323's timestamp echo; "earliest" modulo 2^32,
:func:`earliest_stamp`).  Every ACK is then one unambiguous round-trip
sample, even one that retires a resent frame, which is what Karn's
rule otherwise has to discard; and an ACK delayed over several frames
times the one that waited longest, so the sample covers the delay the
sender's timer has to outlast.

``version`` is checked before anything else in the frame is trusted:
a frame from a newer protocol is rejected as
:class:`BadVersionError` (and counted separately by the server), so
the format can evolve without a flag day -- old sinks refuse loudly
instead of misparsing, new sinks can keep a decoder per version.

Flags:

* ``FLAG_RELIABLE`` -- the sender numbers frames contiguously from 0
  and retransmits on RTO until the frame is acknowledged; the server
  deduplicates and delivers in seq order.  The server admits only
  such frames; one without the flag (the codec still encodes it, for
  its own tests) is counted as a bad frame and never ingested.
* ``FLAG_MORE`` -- this frame is a *fragment* of a larger logical
  batch (a UDP datagram caps a frame at ~64 KiB); the server
  coalesces a run of MORE frames with its terminating non-MORE frame
  back into one ``ingest_batch`` call, so batch boundaries -- and
  therefore every batch-granular counter in the snapshot -- survive
  the wire bit-identically.
* ``FLAG_NO_TIME`` -- the sender has no clock column; the sink
  ingests with ``now=None`` (records-driven collector clock).

Malformed input is rejected with typed errors, never a crash: short
buffers raise :class:`TruncatedFrameError`, wrong magic
:class:`BadMagicError`, unknown frame types / impossible counts /
trailing datagram bytes :class:`BadFrameError`.  All subclass
:class:`WireError` (itself a :class:`~repro.exceptions.ReproError`),
which is what the server catches to count a drop and move on.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.collector.records import Column, normalize_batch
from repro.exceptions import ReproError

#: First two bytes of every frame: ``b"PI"`` read as a little-endian u16.
MAGIC = 0x4950
#: Current protocol version; bump on any layout change (2: the send
#: stamp and its echo).
VERSION = 2

FT_DATA = 1
FT_ACK = 2

FLAG_RELIABLE = 0x01
FLAG_MORE = 0x02
FLAG_NO_TIME = 0x04
_KNOWN_FLAGS = FLAG_RELIABLE | FLAG_MORE | FLAG_NO_TIME

_COMMON = struct.Struct("<HBB")
_DATA_HDR = struct.Struct("<HBBIIBdI")
_ACK = struct.Struct("<HBBII")
#: The send stamp: the data header's last field.
_STAMP = struct.Struct("<I")
_STAMP_AT = _DATA_HDR.size - _STAMP.size
_STAMP_MASK = 0xFFFFFFFF

#: Hard per-frame record cap: a count field beyond this is corruption,
#: not a big batch, and must not drive a gigabyte allocation.
MAX_FRAME_RECORDS = 1 << 20
#: Largest record count that still fits one UDP datagram (65507-byte
#: payload ceiling minus the data header, 32 bytes per record).
MAX_UDP_RECORDS = (65507 - _DATA_HDR.size) // 32

_COL_BYTES = 8  # one little-endian int64 per column cell
_COLS = 4


class WireError(ReproError):
    """Base class for wire-format violations (always typed, never a crash)."""


class TruncatedFrameError(WireError):
    """The buffer ends before the frame its header promises."""


class BadMagicError(WireError):
    """The first two bytes are not the protocol magic."""


class BadVersionError(WireError):
    """The frame's protocol version is not one this decoder speaks."""

    def __init__(self, version: int) -> None:
        super().__init__(
            f"unsupported wire protocol version {version} "
            f"(this decoder speaks {VERSION})"
        )
        self.version = version


class BadFrameError(WireError):
    """Structurally invalid frame (unknown type, bad count, trailing bytes)."""


@dataclass(frozen=True)
class DataFrame:
    """One decoded data frame: a (fragment of a) columnar digest batch."""

    seq: int
    #: Batch clock reading, or None when the sender set FLAG_NO_TIME.
    now: Optional[float]
    reliable: bool
    #: True when this frame is a non-final fragment of a logical batch.
    more: bool
    #: The sender's clock when this transmission left (see module doc).
    stamp: int
    flow_ids: np.ndarray
    pids: np.ndarray
    hop_counts: np.ndarray
    digests: np.ndarray

    @property
    def count(self) -> int:
        return int(self.flow_ids.shape[0])


@dataclass(frozen=True)
class AckFrame:
    """Server acknowledgement of every reliable data frame up to ``seq``."""

    seq: int
    #: The earliest send stamp among the transmissions this ACK retires.
    echo: int


Frame = Union[DataFrame, AckFrame]


# -- encoding --------------------------------------------------------------

def encode_frame(
    flow_ids: Column,
    pids: Column,
    hop_counts: Column,
    digests: Column,
    now: Optional[float],
    seq: int,
    *,
    reliable: bool = False,
    more: bool = False,
) -> bytes:
    """Pack one data frame (zero-record frames are legal keepalives),
    stamped 0: a sender stamps each transmission (:func:`stamp_frame`)."""
    fids, ps, hops, digs = normalize_batch(flow_ids, pids, hop_counts, digests)
    n = int(fids.shape[0])
    if n > MAX_FRAME_RECORDS:
        raise ValueError(
            f"frame of {n} records exceeds MAX_FRAME_RECORDS "
            f"({MAX_FRAME_RECORDS}); fragment with encode_frames"
        )
    flags = 0
    if reliable:
        flags |= FLAG_RELIABLE
    if more:
        flags |= FLAG_MORE
    if now is None:
        flags |= FLAG_NO_TIME
        now = 0.0
    header = _DATA_HDR.pack(
        MAGIC, VERSION, FT_DATA, seq & 0xFFFFFFFF, n, flags, float(now), 0
    )
    return b"".join((
        header,
        fids.astype("<i8", copy=False).tobytes(),
        ps.astype("<i8", copy=False).tobytes(),
        hops.astype("<i8", copy=False).tobytes(),
        digs.astype("<i8", copy=False).tobytes(),
    ))


def encode_frames(
    flow_ids: Column,
    pids: Column,
    hop_counts: Column,
    digests: Column,
    now: Optional[float] = None,
    *,
    start_seq: int = 0,
    max_records: int = 1024,
    reliable: bool = False,
) -> List[bytes]:
    """Pack one columnar batch as a run of frames (vectorised).

    Batches larger than ``max_records`` are fragmented; every fragment
    but the last carries ``FLAG_MORE`` so the receiver reassembles the
    original batch boundary before ingesting.  Frames are numbered
    contiguously from ``start_seq``.  An empty batch encodes to no
    frames (there is nothing to ship).
    """
    if max_records < 1:
        raise ValueError("max_records must be >= 1")
    fids, ps, hops, digs = normalize_batch(flow_ids, pids, hop_counts, digests)
    n = int(fids.shape[0])
    if n == 0:
        return []
    out: List[bytes] = []
    seq = start_seq
    for lo in range(0, n, max_records):
        hi = min(lo + max_records, n)
        out.append(encode_frame(
            fids[lo:hi], ps[lo:hi], hops[lo:hi], digs[lo:hi],
            now, seq, reliable=reliable, more=hi < n,
        ))
        seq += 1
    return out


def encode_ack(seq: int, echo: int) -> bytes:
    """Pack one ACK frame echoing the send stamp ``echo``."""
    return _ACK.pack(MAGIC, VERSION, FT_ACK, seq & 0xFFFFFFFF, echo & _STAMP_MASK)


def stamp_frame(frame: bytearray, stamp: int) -> None:
    """Rewrite an encoded data frame's send stamp in place."""
    _STAMP.pack_into(frame, _STAMP_AT, stamp & _STAMP_MASK)


def earliest_stamp(a: int, b: int) -> int:
    """The earlier of two send stamps on the wrapping 32-bit clock."""
    return a if (b - a) & _STAMP_MASK < 1 << 31 else b


# -- decoding --------------------------------------------------------------

def _check_common(buf: bytes, offset: int) -> int:
    """Validate magic + version at ``offset``; return the frame type."""
    if len(buf) - offset < _COMMON.size:
        raise TruncatedFrameError(
            f"{len(buf) - offset} bytes is shorter than the "
            f"{_COMMON.size}-byte frame prefix"
        )
    magic, version, ftype = _COMMON.unpack_from(buf, offset)
    if magic != MAGIC:
        raise BadMagicError(
            f"bad frame magic 0x{magic:04x} (expected 0x{MAGIC:04x})"
        )
    if version != VERSION:
        raise BadVersionError(version)
    return ftype


def _decode_at(buf: bytes, offset: int) -> Tuple[Frame, int]:
    """Decode the frame at ``offset``; return it and the next offset."""
    ftype = _check_common(buf, offset)
    if ftype == FT_ACK:
        length = _ACK.size
    elif ftype != FT_DATA:
        raise BadFrameError(f"unknown frame type {ftype}")
    elif len(buf) - offset < _DATA_HDR.size:
        length = _DATA_HDR.size  # the header itself is cut short
    else:
        _, _, _, seq, count, flags, now, stamp = _DATA_HDR.unpack_from(
            buf, offset
        )
        if count > MAX_FRAME_RECORDS:
            raise BadFrameError(
                f"frame claims {count} records "
                f"(cap {MAX_FRAME_RECORDS}); rejecting as corrupt"
            )
        if flags & ~_KNOWN_FLAGS:
            raise BadFrameError(f"unknown flag bits 0x{flags:02x}")
        length = _DATA_HDR.size + _COLS * _COL_BYTES * count
    if len(buf) - offset < length:
        raise TruncatedFrameError(
            f"frame at offset {offset} is truncated "
            f"({len(buf) - offset} bytes available)"
        )
    if ftype == FT_ACK:
        seq, echo = _ACK.unpack_from(buf, offset)[3:]
        return AckFrame(seq=seq, echo=echo), offset + length
    base = offset + _DATA_HDR.size
    cols = [
        np.frombuffer(buf, dtype="<i8", count=count,
                      offset=base + i * _COL_BYTES * count)
        for i in range(_COLS)
    ]
    frame = DataFrame(
        seq=seq,
        now=None if flags & FLAG_NO_TIME else now,
        reliable=bool(flags & FLAG_RELIABLE),
        more=bool(flags & FLAG_MORE),
        stamp=stamp,
        flow_ids=cols[0], pids=cols[1], hop_counts=cols[2], digests=cols[3],
    )
    return frame, offset + length


def decode_frame(datagram: bytes) -> Frame:
    """Decode exactly one frame (the UDP unit: one frame per datagram).

    Strict: trailing bytes after the frame are rejected -- a datagram
    is either one well-formed frame or garbage, and garbage must be
    counted, not half-ingested.
    """
    frame, end = _decode_at(datagram, 0)
    if end != len(datagram):
        raise BadFrameError(
            f"{len(datagram) - end} trailing byte(s) after the frame"
        )
    return frame


def decode_frames(data: bytes) -> List[Frame]:
    """Decode a buffer holding whole frames back-to-back.

    Every byte must be consumed: a partial frame at the tail raises
    :class:`TruncatedFrameError`.
    """
    frames: List[Frame] = []
    offset = 0
    while offset < len(data):
        frame, offset = _decode_at(data, offset)
        frames.append(frame)
    return frames


def encoded_records(frames: Sequence[bytes]) -> int:
    """Total records across encoded data frames, read off their lengths."""
    width = _COLS * _COL_BYTES
    return sum((len(frame) - _DATA_HDR.size) // width for frame in frames)

