"""Columnar batch decode of the latency query.

The sink's batched execution replays the same ``GlobalHash`` decisions
the scalar consumers make, in array passes over the flow-grouped
``(flow_id, pid, hop_count, digest)`` columns
:meth:`Collector.ingest_batch` produces.  Path and congestion flows
fold into their sink's column store
(:mod:`repro.coding.store`, :func:`repro.collector.consumers.
consume_groups`); this module is the latency query's half: one
whole-batch reservoir-carrier replay shared by every flow group
(:class:`CarrierCache`), a table-gather digest decode and one
``add_array`` per carrier -- sample-identical to the scalar loop in
raw mode and guarantee-identical in sketch mode (the KLL compaction
coin order differs -- see :meth:`KLLSketch.extend_array`).  See
DESIGN.md section 4 for the layering contract.
"""

from __future__ import annotations

import numpy as np

from repro.hashing import GlobalHash, reservoir_carrier_zip


class CarrierCache:
    """Whole-batch reservoir-carrier replay, shared across flow groups.

    The carrier hop depends only on the packet id, the hop count and
    the query's reservoir hash -- never on the flow -- so one
    vectorised replay over the *batch* columns serves every flow group
    the batch fans out into, instead of paying ``O(hops)`` small array
    passes per group.  ``ingest_batch`` hands every group the same
    column objects with different bounds, which is what the cache keys
    on; it holds the keyed columns alive so a recycled object id
    cannot alias the next batch.

    Contract: callers must key on columns that are *immutable once
    ingested* -- ``ingest_batch`` satisfies this by construction (its
    lexsort fancy-indexing materialises fresh arrays every batch).
    The cache is deliberately not used by the public whole-column
    entry points, whose callers may legitimately refill one buffer in
    place between calls.
    """

    def __init__(self, g: GlobalHash) -> None:
        self.g = g
        self._pids = None
        self._hops = None
        self._carriers = None

    def carriers(self, pids: np.ndarray, hops: np.ndarray) -> np.ndarray:
        """Carrier hops for the whole column pair (cached per batch)."""
        if pids is not self._pids or hops is not self._hops:
            self._pids = pids
            self._hops = hops
            self._carriers = reservoir_carrier_zip(self.g, pids, hops)
        return self._carriers


def decode_latency_slice(
    consumer, pids, hop_counts, digests, lo: int, hi: int,
    carriers=None,
) -> None:
    """Attribute and store rows ``[lo, hi)`` of a latency column.

    Carrier hops come from the consumer's :class:`CarrierCache` -- one
    vectorised reservoir replay over the *whole batch*, shared by
    every flow group (and, through the factory, by every flow) -- then
    one table gather decodes the slice's digests and each carrier's
    samples land in its store via a single ``add_array``.  Store
    creation mirrors the scalar path: the first record (in column
    order) that hits a carrier sizes its sketch from *that* record's
    hop count.  ``carriers`` accepts a pre-sliced carrier column for
    callers that must not touch the cache.
    """
    n = hi - lo
    if n <= 0:
        return
    if n == 1:
        # One row: the scalar path is cheaper than the array passes.
        consumer.consume(int(pids[lo]), int(hop_counts[lo]), int(digests[lo]))
        return
    if carriers is None:
        carriers = consumer._carrier_cache.carriers(pids, hop_counts)[lo:hi]
    values = consumer.compressor.decode_array(digests[lo:hi])
    hops = hop_counts[lo:hi]
    for carrier in np.unique(carriers).tolist():
        lane = carriers == carrier
        first = int(np.argmax(lane))
        store = consumer._store_for(int(carrier), int(hops[first]))
        store.add_array(values[lane])


def decode_latency_columns(consumer, pids, hop_counts, digests) -> None:
    """Attribute and store one flow's latency column (whole-column form).

    The standalone entry point behind ``consume_batch``.  Computes the
    carrier column directly instead of going through the
    :class:`CarrierCache`: external callers may refill the same buffer
    objects between calls, which an identity-keyed cache would wrongly
    treat as a hit.
    """
    pids = np.asarray(pids)
    hops = np.asarray(hop_counts, dtype=np.int64)
    digs = np.asarray(digests, dtype=np.int64)
    n = int(pids.shape[0])
    if n == 0:
        return
    carriers = reservoir_carrier_zip(consumer.g, pids, hops) if n > 1 else None
    decode_latency_slice(consumer, pids, hops, digs, 0, n, carriers)
