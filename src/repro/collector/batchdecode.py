"""Columnar batch-decode engine: the sink's vectorised hot path.

PR 1 made ingest *routing* columnar (one vectorised shard hash, one
lexsort) and PR 2 made the *encode* dataplane columnar, but every
digest still crossed a scalar ``observe()`` per packet on its way into
the per-flow decoders -- exactly where the paper concentrates the
sink's decoding cost (§4).  This module is the execution layer that
closes that gap: it takes the lexsort-grouped ``(flow_id, pid,
hop_count, digest)`` column slices that :meth:`Collector.ingest_batch`
already produces and decodes whole flow groups at once.

Layering contract (see DESIGN.md §4):

* the *scalar reference decoders* (``repro.coding`` peeling decoders,
  per-sample KLL updates) define the semantics and keep serving the
  one-record ``Collector.ingest`` path;
* this *columnar execution layer* replays the same ``GlobalHash``
  decisions in array passes (layer selection, reservoir carriers, XOR
  acting sets, fragment scatter) and dispatches
  ``peel_converging`` / ``verify_complete`` / ``extend_array`` /
  ``decode_array``; a flow whose digests conflict is handed back to
  the scalar layer, rows and all (:func:`decode_path_groups`);
* equivalence tests pin the two layers together: path decode is
  bit-identical record-for-record (including ``DecodingError`` resets
  mid-column), latency decode is sample-identical in raw mode and
  guarantee-identical in sketch mode (the KLL compaction coin order
  differs -- see :meth:`KLLSketch.extend_array`).
"""

from __future__ import annotations

import numpy as np

from repro.coding.decoder import peel_converging, verify_complete
from repro.coding.encoder import FRAGMENT, unpack_reps_array
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


def decode_path_columns(consumer, pids, hop_counts, digests) -> None:
    """Feed one flow's column slice through its peeling decoder.

    Bit-identical to the scalar per-record loop, including reset
    semantics (see :func:`decode_path_groups`, of which this is the
    one-flow case).  A flow whose decoder is already complete only
    needs the consistency scan (the one-flow case of
    :func:`verify_path_groups`).
    """
    pids = np.asarray(pids)
    n = int(pids.shape[0])
    if n == 0:
        return
    if consumer.is_complete:
        context = consumer.context
        reps = unpack_reps_array(
            np.asarray(digests), context.digest_bits, context.num_hashes
        )
        consumer._decoder.observe_batch(pids, reps)
        return
    decode_path_groups(
        consumer.context, [(consumer, 0, n)], pids,
        np.asarray(hop_counts), np.asarray(digests),
    )


def _group_rows(groups) -> tuple:
    """Column rows of ``(consumer, lo, hi)`` groups, gathered in order.

    Returns the groups' lower bounds, their sizes, each group's first
    row in the gathered sub-batch and the column row of every
    sub-batch row.
    """
    los = np.asarray([g[1] for g in groups], dtype=np.int64)
    sizes = np.asarray([g[2] for g in groups], dtype=np.int64) - los
    starts = np.cumsum(sizes) - sizes
    # Sub-batch row i of group j is column row los[j] + (i - starts[j]).
    rows = np.repeat(los - starts, sizes) + np.arange(int(sizes.sum()))
    return los, sizes, starts, rows


def verify_path_groups(context, groups, pids, digests) -> None:
    """Check several complete flows' slices of one batch in one pass.

    ``groups`` holds ``(consumer, lo, hi)`` as in
    :func:`decode_path_groups`; every consumer references ``context``
    and its (raw or hash) decoder is complete, so its rows can only
    confirm or contradict the decoded path.  The rows of all groups
    are gathered once and checked together
    (:func:`repro.coding.decoder.verify_complete`), each against its
    own decoder's path length -- a complete decoder ignores what later
    rows claim as their hop count, like the scalar path.  Per-flow
    ``packets_seen`` / ``inconsistencies`` end up exactly as if each
    group had been scanned alone; nothing can raise.
    """
    _, sizes, _, rows = _group_rows(groups)
    reps = unpack_reps_array(
        digests[rows], context.digest_bits, context.num_hashes
    )
    verify_complete(
        [g[0]._decoder for g in groups], sizes.tolist(),
        pids[rows].astype(np.uint64), reps,
    )


def decode_path_groups(
    context, groups, pids, hop_counts, digests, fallbacks=None
) -> None:
    """Decode several flows' slices of one batch in one cross-flow pass.

    ``groups`` holds ``(consumer, lo, hi)`` -- rows ``[lo, hi)`` of the
    columns belong to that path consumer -- and every consumer
    references ``context`` and is still converging.  The rows of all
    groups are gathered once and go through one fixpoint peel
    (:func:`repro.coding.decoder.peel_converging`): each flow against
    its *decoder's* path length -- the first record's hop count,
    whatever later rows claim.  The peel leaves every flow whose
    digests are mutually consistent in exactly the state the scalar
    per-record loop reaches, and leaves the others untouched, naming
    why (a hop without candidates, an XOR residual that does not
    cancel, a topology-aware context).  Those flows' rows then take
    the scalar reference itself, :meth:`PathDigestConsumer.consume`
    row by row -- which owns the reset semantics: a contradicting
    digest raises :class:`DecodingError` inside the decoder, the
    consumer counts it, drops the decoder and rebuilds it from the
    *next* row's hop count, the re-convergence a reroute triggers.
    ``fallbacks`` maps each reason to a counter bumped once per flow
    handed over.

    Fragment-mode flows keep their own scatter: each decoder splits
    its rows over its per-fragment raw sub-problems.
    """
    los, sizes, starts, rows = _group_rows(groups)
    sub_pids = pids[rows].astype(np.uint64)
    reps = unpack_reps_array(
        digests[rows], context.digest_bits, context.num_hashes
    )
    decoders = [
        group[0]._ensure_decoder(hops)
        for group, hops in zip(groups, hop_counts[los].tolist())
    ]
    if context.mode == FRAGMENT:
        for decoder, a, b in zip(
            decoders, starts.tolist(), (starts + sizes).tolist()
        ):
            decoder.observe_batch(sub_pids[a:b], reps[a:b])
        return
    reasons = peel_converging(decoders, sizes.tolist(), sub_pids, reps)
    for (consumer, lo, hi), reason in zip(groups, reasons):
        if reason is None:
            continue
        if fallbacks is not None:
            fallbacks[reason].inc()
        for row in zip(
            pids[lo:hi].tolist(), hop_counts[lo:hi].tolist(),
            digests[lo:hi].tolist(),
        ):
            consumer.consume(*row)


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
