"""Live collector service: the network front door to a PINT sink.

``repro.collector`` is a library -- you call ``ingest_batch`` on an
object you hold.  This package is the same sink as a *service*: digest
batches travel a versioned binary wire format (:mod:`~repro.service.
wire`) over UDP into a :class:`CollectorServer` that admits,
reassembles and folds them through a bounded queue, while a JSON query
port (:mod:`~repro.service.query`) serves snapshots and per-flow
answers to anything that can open a socket.  The one sender,
:class:`ReliableUDPSender` (:mod:`~repro.service.client`), delivers
exactly once; ``python -m repro.service`` is the operator CLI over all
of it.

See DESIGN.md section 7 for the wire layout, the admission/drop
taxonomy, and why an ACK is a durability promise.
"""

from repro.service.client import DeliveryError, ReliableUDPSender
from repro.service.query import QueryClient, QueryError, QueryHandler, QueryServer
from repro.service.server import CollectorServer, ServiceError
from repro.service.wire import (
    FLAG_MORE,
    FLAG_NO_TIME,
    FLAG_RELIABLE,
    FT_ACK,
    FT_DATA,
    MAGIC,
    MAX_FRAME_RECORDS,
    MAX_UDP_RECORDS,
    VERSION,
    AckFrame,
    BadFrameError,
    BadMagicError,
    BadVersionError,
    DataFrame,
    TruncatedFrameError,
    WireError,
    decode_frame,
    decode_frames,
    encode_ack,
    encode_frame,
    encode_frames,
)

__all__ = [
    "AckFrame",
    "BadFrameError",
    "BadMagicError",
    "BadVersionError",
    "CollectorServer",
    "DataFrame",
    "DeliveryError",
    "FLAG_MORE",
    "FLAG_NO_TIME",
    "FLAG_RELIABLE",
    "FT_ACK",
    "FT_DATA",
    "MAGIC",
    "MAX_FRAME_RECORDS",
    "MAX_UDP_RECORDS",
    "QueryClient",
    "QueryError",
    "QueryHandler",
    "QueryServer",
    "ReliableUDPSender",
    "ServiceError",
    "TruncatedFrameError",
    "VERSION",
    "WireError",
    "decode_frame",
    "decode_frames",
    "encode_ack",
    "encode_frame",
    "encode_frames",
]
