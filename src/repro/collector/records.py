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
    :func:`check_ranges`.  Returns the fields as ``int``."""
    fid, p, hops, dig = (
        int64_field(value, name) for value, name in
        zip((flow_id, pid, hop_count, digest), TelemetryRecord._fields)
    )
    check_ranges(hops, hops, dig, dig, code_bits)
    return fid, p, hops, dig


def check_ranges(
    hop_lo: int, hop_hi: int, code_lo: int, code_hi: int,
    code_bits: Optional[int],
) -> None:
    """The front door's range rules, on the extremes of a batch's
    columns (or one record's fields twice), before the clock ticks:
    hop counts in ``[1, MAX_HOPS]`` and, on a sink whose flows hold
    ``code_bits``-bit codes, every digest an exponent of its codec
    grid (one past the top decodes beyond ``max_util``).  Not in
    :func:`normalize_batch`, which the wire codec shares for arbitrary
    ``int64`` columns."""
    if hop_lo < 1 or hop_hi > MAX_HOPS:
        raise ValueError(
            f"hop counts must lie in [1, {MAX_HOPS}], got "
            f"{hop_lo}..{hop_hi}: batch rejected"
        )
    if code_bits is not None and (code_lo < 0 or code_hi >= 1 << code_bits):
        raise ValueError(
            f"congestion codes must lie in [0, {(1 << code_bits) - 1}], "
            f"got {code_lo}..{code_hi}: batch rejected"
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


def admit_batch(columns, code_bits: Optional[int], clock, now):
    """One columnar batch through the front door of either collector.

    Normalises ``columns`` (:func:`normalize_batch`), drops an empty
    batch (None: the clock does not tick), range-checks the rest
    (:func:`check_ranges`) and only then ticks ``clock`` (an
    :class:`~repro.collector.collector.IngestClock`) for its records.
    Returns ``(fids, pids, hops, digests, t)``.
    """
    fids, ps, hops, digs = normalize_batch(*columns)
    n = int(fids.shape[0])
    if n == 0:
        return None
    codes = (0, 0) if code_bits is None else (
        int(digs.min()), int(digs.max())
    )
    check_ranges(int(hops.min()), int(hops.max()), *codes, code_bits)
    return fids, ps, hops, digs, clock.tick(now, n)
