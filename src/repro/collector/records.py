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

from typing import NamedTuple, Sequence, Tuple, Union

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


def normalize_batch(
    flow_ids: Column,
    pids: Column,
    hop_counts: Column,
    digests: Column,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Coerce a columnar batch into equal-length ``int64`` arrays.

    Raises ``ValueError`` on ragged columns -- a malformed batch must
    fail loudly at the front door, not deep inside a shard.
    """
    fids = np.asarray(flow_ids, dtype=np.int64)
    ps = np.asarray(pids, dtype=np.int64)
    hops = np.asarray(hop_counts, dtype=np.int64)
    digs = np.asarray(digests, dtype=np.int64)
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
