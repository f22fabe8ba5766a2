"""Ingestion record shapes for the sink-side collector.

The collector's wire unit is the 4-tuple ``(flow_id, pid, hop_count,
digest)`` -- everything a PINT sink learns from one data packet: which
flow it belongs to, the packet identifier every switch hashed, how many
hops it traversed, and the digest those hops folded into it.

Two call shapes are supported:

* scalar -- one :class:`TelemetryRecord` per packet (the DES hook);
* columnar -- four parallel sequences (lists or NumPy arrays), the
  shape a batching ingestion front-end hands over.  Columnar batches
  are normalised once into ``int64`` arrays so the router and the
  per-flow grouping run vectorised.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

#: Anything a columnar ingest column may arrive as.
Column = Union[Sequence[int], np.ndarray]

#: Longest path a record may claim: switches read the hop number off
#: the 8-bit TTL.  The sink's decoders size per-hop state and decision
#: tables from the claimed count, so the front door bounds it.
MAX_HOPS = 255


class TelemetryRecord(NamedTuple):
    """One sink observation: the per-packet PINT export."""

    flow_id: int
    pid: int
    hop_count: int
    digest: int


def int64_field(value, name: str) -> int:
    """``value`` as an ``int``, if it is a 64-bit integer.

    The one integer rule of every front door -- scalar ingest on both
    collectors and the query port: an integer (Python or NumPy) in
    ``[-2**63, 2**63)`` passes, anything else raises ``ValueError``.
    Strings, floats (integral or not), bools and None are refused, not
    coerced, so two spellings of one id can never name two flows.
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(
        value, (int, np.integer)
    ) or not -(1 << 63) <= int(value) < (1 << 63):
        raise ValueError(f"{name} must be a 64-bit integer, got {value!r}")
    return int(value)


def check_record(
    flow_id, pid, hop_count, digest, code_bits: Optional[int] = None
) -> Tuple[int, int, int, int]:
    """One scalar record through the front door: every field a 64-bit
    integer (:func:`int64_field`), then the range rules of
    :func:`check_batch`.  Returns the fields as ``int``."""
    fid, p, hops, dig = (
        int64_field(value, name) for value, name in
        zip((flow_id, pid, hop_count, digest), TelemetryRecord._fields)
    )
    check_hop_range(hops, hops)
    if code_bits is not None:
        check_code_range(dig, dig, code_bits)
    return fid, p, hops, dig


def check_batch(
    hop_counts: np.ndarray, digests: np.ndarray, code_bits: Optional[int]
) -> None:
    """The range rules of a normalised, non-empty batch: hop counts in
    ``[1, MAX_HOPS]`` and, on a sink whose flows hold ``code_bits``-bit
    codes, every digest a code.  Run before the clock ticks or any
    table is touched, so a rejected batch leaves the sink as it was."""
    check_hop_range(int(hop_counts.min()), int(hop_counts.max()))
    if code_bits is not None:
        check_code_range(int(digests.min()), int(digests.max()), code_bits)


def check_hop_range(lowest: int, highest: int) -> None:
    """Reject hop counts outside ``[1, MAX_HOPS]`` at the front door.

    Called with the extremes of a batch's hop column (or one record's
    count twice) before the clock ticks or any table is touched, so a
    rejected batch leaves the sink exactly as it was.  Not part of
    :func:`normalize_batch`: the wire codec shares that and carries
    arbitrary ``int64`` columns.
    """
    if lowest < 1 or highest > MAX_HOPS:
        raise ValueError(
            f"hop counts must lie in [1, {MAX_HOPS}], got "
            f"{lowest}..{highest}: batch rejected"
        )


def check_code_range(lowest: int, highest: int, bits: int) -> None:
    """Reject congestion codes outside ``[0, 2**bits)`` at the front door.

    A code is an exponent of the sink's codec grid; one past the top
    would decode to a utilisation beyond ``max_util`` (and, far enough
    out, overflow the decode).  Called like :func:`check_hop_range`,
    before the clock ticks, on a sink whose flows hold codes.
    """
    if lowest < 0 or highest >= 1 << bits:
        raise ValueError(
            f"congestion codes must lie in [0, {(1 << bits) - 1}], got "
            f"{lowest}..{highest}: batch rejected"
        )


def _column(values: Column, name: str) -> np.ndarray:
    """One column as ``int64``; a non-empty column of any non-integer
    dtype (float, bool, string, object) is refused, not cast."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(
            f"{name} column must hold integers, got dtype {arr.dtype}: "
            "batch rejected"
        )
    return arr if arr.dtype == np.int64 else np.asarray(values, np.int64)


def normalize_batch(
    flow_ids: Column,
    pids: Column,
    hop_counts: Column,
    digests: Column,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Coerce a columnar batch into equal-length ``int64`` arrays.

    Raises ``ValueError`` on ragged columns or a column that does not
    hold integers -- a malformed batch must fail loudly at the front
    door, not deep inside a shard.
    """
    fids, ps, hops, digs = (
        _column(values, name) for values, name in
        zip((flow_ids, pids, hop_counts, digests), TelemetryRecord._fields)
    )
    if fids.ndim != 1:
        raise ValueError(
            f"columnar batch requires 1-D columns, flow_ids has shape "
            f"{fids.shape}"
        )
    n = fids.shape[0]
    if not (ps.shape == hops.shape == digs.shape == (n,)):
        raise ValueError(
            "columnar batch requires four equal-length 1-D columns, got "
            f"shapes {fids.shape}/{ps.shape}/{hops.shape}/{digs.shape}"
        )
    return fids, ps, hops, digs
