"""Inference-side decoders for the distributed coding schemes (§4.2).

All decoders share the contract:

* ``observe(packet_id, digest)`` -- feed one collected digest;
* ``decoded`` -- mapping of 1-based hop number to recovered block;
* ``is_complete`` -- True once all ``k`` blocks are known;
* ``missing`` -- number of still-unknown hops (the Fig. 5 y-axis).

The decoders recompute every encoder decision from the shared
:class:`~repro.coding.encoder.CodecContext` (which layer the packet
served, which hop the reservoir kept, which hops xor-ed), exactly as the
paper's Recording/Inference modules do, and then run *peeling*: an XOR
digest whose acting set contains a single unknown hop reveals (raw mode)
or constrains (hash mode) that hop, which may unlock further digests.

Everything flows of one query have in common -- universe, widths, seed,
per-``k`` scheme and hashes -- lives in a
:class:`~repro.coding.context.PathQueryContext` the decoders only
reference: a sink builds one and creates each flow's decoder with
``from_context``; the plain constructors build a private one.

Every decoder also exposes ``observe_batch(packet_ids, reps)`` -- the
columnar entry point of the sink's batch-decode engine
(:mod:`repro.collector.batchdecode`).  It is bit-identical to feeding
the rows to ``observe`` in order, but replays all per-packet hash
decisions (layer, reservoir carrier, XOR acting set) in vectorised
passes (:meth:`PathQueryContext.replay`), and -- once the decoder is
complete -- collapses whole column slices into a single consistency
scan, which is where the sink's §4 decoding cost concentrates.
``observe_rows(decisions, lo, hi)`` is the same walk over rows whose
decisions were already replayed, possibly together with other flows'.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.coding.context import BatchDecisions, PathQueryContext
from repro.coding.encoder import FRAGMENT, HASH, RAW
from repro.coding.message import DistributedMessage
from repro.coding.schemes import BASELINE, CodingScheme
from repro.exceptions import DecodingError
from repro.hashing import reservoir_carrier, xor_acting_hops


def _normalize_batch_reps(packet_ids, reps, num_hashes: int):
    """Coerce batch inputs to uint64 columns and validate the shape.

    ``astype`` (not ``asarray(dtype=...)``) so negative packet ids wrap
    to their 64-bit representation -- the same masking the scalar hash
    path applies via ``mix._as_int``.
    """
    pids = np.asarray(packet_ids).astype(np.uint64)
    mat = np.asarray(reps)
    if mat.ndim != 2 or mat.shape != (pids.shape[0], num_hashes):
        raise ValueError(
            f"reps must have shape ({pids.shape[0]}, {num_hashes}), "
            f"got {mat.shape}"
        )
    return pids, mat.astype(np.uint64)


def verify_complete(
    decoders: Sequence["_PeelingDecoder"],
    sizes: Sequence[int],
    pids: np.ndarray,
    reps: np.ndarray,
    carriers: Optional[np.ndarray] = None,
) -> None:
    """Consistency scan of complete decoders' rows (pure counting).

    The rows are grouped by decoder -- ``sizes[j]`` consecutive rows of
    the uint64 ``pids`` column and ``reps`` matrix belong to
    ``decoders[j]`` -- and every decoder is complete and references the
    same context.  One pass checks them all
    (:meth:`PathQueryContext.verify`): a Baseline row whose digest
    contradicts its carrier hop's decoded block counts one
    inconsistency on its decoder, exactly like ``observe`` on a decoded
    hop; XOR rows have no unknown hop and are no-ops.  ``carriers``
    accepts the rows' already-replayed carrier column.
    """
    owner = np.repeat(np.arange(len(decoders)), sizes)
    bad = decoders[0].context.verify(
        pids, reps, owner, [d.k for d in decoders],
        [d._decoded_column() for d in decoders], carriers,
    )
    for decoder, size, count in zip(decoders, sizes, bad.tolist()):
        decoder.packets_seen += size
        decoder.inconsistencies += count


class _PendingXor:
    """An undecodable XOR digest waiting for more hops to resolve."""

    __slots__ = ("packet_id", "residual", "unknown")

    def __init__(self, packet_id: int, residual: List[int], unknown: Set[int]):
        self.packet_id = packet_id
        #: Digest with every *known* hop's contribution xor-ed out.
        self.residual = residual
        #: Acting hops whose block is still unknown.
        self.unknown = unknown


class _ContextBound:
    """Decoders are built either standalone or against a shared context."""

    @classmethod
    def from_context(cls, context: PathQueryContext, k: int):
        """A decoder for one ``k``-hop flow of ``context``'s query.

        The sink-side constructor: nothing query-wide is rebuilt, the
        decoder only references ``context``.
        """
        self = cls.__new__(cls)
        self._bind(context, k)
        return self


class _PeelingDecoder(_ContextBound):
    """What the raw and hash peeling decoders share.

    State common to both: the decoded hops, the pending XOR digests
    and -- per still-unknown hop, created on first use -- the pending
    entries that reference it.  Subclasses supply ``observe``, the
    in-order walk over replayed rows (``_peel_rows``); the
    complete-decoder consistency scan is shared
    (:func:`verify_complete`).
    """

    def _bind(self, context: PathQueryContext, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.context = context
        self.ctx = context.codec_for(k)
        self.decoded: Dict[int, int] = {}
        self.inconsistencies = 0
        self.packets_seen = 0
        self._pending: List[_PendingXor] = []
        #: unknown hop -> pending digests that reference it.
        self._hop_refs: Dict[int, List[_PendingXor]] = {}
        #: Decoded blocks as a (k,) array, built lazily once complete
        #: (decoded values never change afterwards) for the batched
        #: consistency scans.
        self._decoded_arr: Optional[np.ndarray] = None

    @property
    def missing(self) -> int:
        """Hops still unknown."""
        return self.k - len(self.decoded)

    @property
    def is_complete(self) -> bool:
        """True when every hop's block has been recovered."""
        return len(self.decoded) == self.k

    def observe_batch(self, packet_ids, reps) -> None:
        """Feed a digest column at once; bit-identical to in-order observe.

        ``reps`` is the ``(n, num_hashes)`` unpacked digest matrix (see
        :func:`~repro.coding.encoder.unpack_reps_array`; raw digests
        are 1-tuples).  All per-packet hash replays run as array
        passes, and rows past the completion point reduce to one
        vectorised consistency scan.  A digest that contradicts the
        candidate sets raises :class:`DecodingError` exactly where the
        scalar loop would; the exception carries a ``batch_pos``
        attribute (the offending row) so callers can reset and resume
        behind it.
        """
        pids, mat = _normalize_batch_reps(packet_ids, reps, self.ctx.num_hashes)
        n = len(pids)
        if n == 0:
            return
        if self.is_complete:
            self._verify_complete(pids, mat)
            return
        ks = np.full(n, self.k, dtype=np.int64)
        self.observe_rows(self.context.replay(pids, mat, ks), 0, n)

    def observe_rows(self, decisions: BatchDecisions, lo: int, hi: int) -> None:
        """Feed rows ``[lo, hi)`` of an already-replayed batch, in order.

        Peels until the decoder completes, then hands the unconsumed
        suffix -- decisions included -- to the consistency scan.  The
        rows' decisions must have been replayed with this decoder's
        ``k``; a :class:`DecodingError` carries the offending row of
        ``decisions`` in ``batch_pos``.
        """
        stop = self._peel_rows(decisions, lo, hi)
        if stop < hi:
            self._verify_complete(
                decisions.pids[stop:hi], decisions.reps[stop:hi],
                decisions.carriers[stop:hi],
            )

    def _verify_complete(
        self,
        pids: np.ndarray,
        reps: np.ndarray,
        carriers: Optional[np.ndarray] = None,
    ) -> None:
        """Consistency scan of this (complete) decoder's rows.

        The one-decoder case of :func:`verify_complete`.  ``carriers``
        accepts the carrier column already replayed for these rows
        (the mid-batch completion hand-off).
        """
        verify_complete([self], [len(pids)], pids, reps, carriers)

    def _decoded_column(self) -> np.ndarray:
        """The decoded blocks as a uint64 (k,) array (complete only)."""
        if self._decoded_arr is None:
            self._decoded_arr = np.asarray(
                [self.decoded[h] for h in range(1, self.k + 1)],
                dtype=np.int64,
            ).astype(np.uint64)
        return self._decoded_arr

    def _park(self, packet_id: int, residual: List[int], unknown: Set[int]) -> None:
        """Keep an XOR digest with several unknown hops for later peeling."""
        entry = _PendingXor(packet_id, residual, unknown)
        self._pending.append(entry)
        for hop in unknown:
            self._hop_refs.setdefault(hop, []).append(entry)

    def known_blocks(self) -> Dict[int, int]:
        """Hops decoded so far (1-based) -- the partial-decode answer.

        Well-defined at any point of the stream: loss leaves hops
        missing, duplicates only re-confirm, so a sink can always
        report *which* hops it knows even when the flow never
        completes (the decode-under-loss contract).
        """
        return dict(self.decoded)

    def path(self) -> List[int]:
        """The recovered message, hop 1 first (raises if incomplete)."""
        if not self.is_complete:
            raise DecodingError(f"{self.missing} hops still unknown")
        return [self.decoded[h] for h in range(1, self.k + 1)]


class RawDecoder(_PeelingDecoder):
    """Decoder for raw digests (block value fits the budget).

    Baseline packets reveal their carrier hop's block outright; XOR
    packets peel.  Also tracks ``inconsistencies``: Baseline packets
    whose digest contradicts an already-decoded hop, the paper's §7
    signal for multipath/route changes.
    """

    def __init__(
        self,
        k: int,
        scheme: CodingScheme,
        digest_bits: int = 8,
        seed: int = 0,
    ) -> None:
        self._bind(
            PathQueryContext((), digest_bits, 1, seed, scheme, mode=RAW), k
        )

    def observe(self, packet_id: int, digest: Tuple[int, ...]) -> None:
        """Feed one collected digest (1-tuple in raw mode)."""
        self.packets_seen += 1
        value = digest[0]
        layer_idx = self.ctx.layer_of(packet_id)
        layer = self.ctx.scheme.layers[layer_idx]
        g = self.ctx.g[layer_idx]
        if layer.kind == BASELINE:
            carrier = reservoir_carrier(g, packet_id, self.k)
            if carrier in self.decoded:
                if self.decoded[carrier] != value:
                    self.inconsistencies += 1
                return
            self._resolve(carrier, value)
            return
        self._peel_xor(
            packet_id, value, xor_acting_hops(g, packet_id, self.k, layer.xor_p)
        )

    def _peel_xor(self, packet_id: int, value: int, acting: List[int]) -> None:
        """One XOR digest: strip the known hops, resolve or park the rest."""
        residual = value
        unknown: Set[int] = set()
        for hop in acting:
            if hop in self.decoded:
                residual ^= self.decoded[hop]
            else:
                unknown.add(hop)
        if not unknown:
            return
        if len(unknown) == 1:
            self._resolve(unknown.pop(), residual)
            return
        self._park(packet_id, [residual], unknown)

    def _peel_rows(self, d: BatchDecisions, lo: int, hi: int) -> int:
        """In-order walk over replayed rows, until complete.

        Same state transitions as :meth:`observe`, minus all per-packet
        hashing; returns the first unconsumed row.
        """
        carriers = d.carrier_list
        for i in range(lo, hi):
            if self.is_complete:
                return i
            self.packets_seen += 1
            value = d.rep_rows[i][0]
            acting = d.acting[i]
            if acting is not None:
                self._peel_xor(d.pid_list[i], value, acting)
                continue
            carrier = carriers[i]
            if carrier in self.decoded:
                if self.decoded[carrier] != value:
                    self.inconsistencies += 1
                continue
            self._resolve(carrier, value)
        return hi

    def state_bytes(self) -> int:
        """Rough resident-state estimate (decoded map + pending digests).

        Content-based: a complete decoder counts its ``8 * k``-byte
        decoded column whether or not a batched scan has materialised
        it yet, so identical state reports identical bytes however the
        records were fed.
        """
        arr = 8 * self.k if self.is_complete else 0
        return 16 * len(self.decoded) + 64 * len(self._pending) + arr

    def _resolve(self, hop: int, value: int) -> None:
        """Record a decoded hop and peel any digests it unblocks."""
        worklist = [(hop, value)]
        while worklist:
            hop, value = worklist.pop()
            if hop in self.decoded:
                if self.decoded[hop] != value:
                    self.inconsistencies += 1
                continue
            self.decoded[hop] = value
            for entry in self._hop_refs.pop(hop, ()):
                if hop not in entry.unknown:
                    continue
                entry.unknown.discard(hop)
                entry.residual[0] ^= value
                if len(entry.unknown) == 1:
                    last = next(iter(entry.unknown))
                    entry.unknown.clear()
                    worklist.append((last, entry.residual[0]))


class HashDecoder(_PeelingDecoder):
    """Decoder for hash-compressed digests over a known universe V.

    Maintains a candidate set per hop (NumPy array of universe values);
    each Baseline packet from hop ``i`` keeps only candidates ``v`` with
    ``h(v, packet) == digest`` -- an expected ``2^-b`` shrink per hash
    instantiation.  XOR digests join the peeling pool: once all acting
    hops but one are decoded, the leftover behaves like a Baseline
    packet for that hop (paper §4.2).  A hop no digest has narrowed yet
    holds no array of its own: its candidates are the context's shared
    universe.
    """

    def __init__(
        self,
        k: int,
        universe,
        scheme: CodingScheme,
        digest_bits: int = 8,
        num_hashes: int = 1,
        seed: int = 0,
        adjacency: Optional[Dict[int, Set[int]]] = None,
    ) -> None:
        self._bind(
            PathQueryContext(
                universe, digest_bits, num_hashes, seed, scheme,
                adjacency=adjacency, mode=HASH,
            ),
            k,
        )

    def _bind(self, context: PathQueryContext, k: int) -> None:
        super()._bind(context, k)
        if context.universe.size < 1:
            raise ValueError("universe must be non-empty")
        #: hop -> narrowed candidate array; a missing hop still has the
        #: whole universe.
        self._candidates: Dict[int, np.ndarray] = {}
        #: Optional topology knowledge: value -> possible neighbouring
        #: values.  When set, decoding a hop restricts the candidate
        #: sets of the adjacent hops to the decoded switch's graph
        #: neighbours -- the Inference Module knows the network map, so
        #: consecutive path switches must be adjacent.  This is the
        #: natural extension the paper's path-conformance use case
        #: implies, and it slashes the packets needed on sparse
        #: topologies (see bench_ext_adjacency.py).
        self.adjacency = context.adjacency

    def _candidates_of(self, hop: int) -> np.ndarray:
        """The hop's candidate array (the shared universe if untouched)."""
        return self._candidates.get(hop, self.context.universe)

    def candidates_left(self, hop: int) -> int:
        """Size of the hop's remaining candidate set (1 when decoded)."""
        if hop in self.decoded:
            return 1
        return int(self._candidates_of(hop).size)

    def untouched(self, hop: int) -> bool:
        """True while no digest has narrowed ``hop``'s candidates."""
        return hop not in self._candidates

    def observe(self, packet_id: int, digest: Tuple[int, ...]) -> None:
        """Feed one collected digest (``num_hashes`` entries)."""
        if len(digest) != self.ctx.num_hashes:
            raise ValueError("digest arity does not match num_hashes")
        self.packets_seen += 1
        layer_idx = self.ctx.layer_of(packet_id)
        layer = self.ctx.scheme.layers[layer_idx]
        g = self.ctx.g[layer_idx]
        if layer.kind == BASELINE:
            carrier = reservoir_carrier(g, packet_id, self.k)
            self._constrain(carrier, packet_id, list(digest))
            return
        self._peel_xor(
            packet_id, list(digest),
            xor_acting_hops(g, packet_id, self.k, layer.xor_p),
        )

    def _peel_xor(
        self,
        packet_id: int,
        residual: List[int],
        acting: List[int],
        universe_mask: Optional[np.ndarray] = None,
    ) -> None:
        """One XOR digest: strip the known hops, constrain or park the rest.

        ``universe_mask`` is the digest's precomputed match against
        the universe (see :meth:`_constrain`); it is dropped as soon
        as a known hop is stripped, since the residual then differs
        from the digest it was computed for.
        """
        unknown: Set[int] = set()
        for hop in acting:
            if hop in self.decoded:
                universe_mask = None
                for rep in range(self.ctx.num_hashes):
                    residual[rep] ^= self.ctx.value_digest(
                        rep, packet_id, self.decoded[hop]
                    )
            else:
                unknown.add(hop)
        if not unknown:
            return
        if len(unknown) == 1:
            self._constrain(unknown.pop(), packet_id, residual, universe_mask)
            return
        self._park(packet_id, residual, unknown)

    def _peel_rows(self, d: BatchDecisions, lo: int, hi: int) -> int:
        """In-order walk over replayed rows, until complete.

        Same state transitions as :meth:`observe`, minus the per-packet
        layer/carrier/acting hashing -- and, where the row carries a
        universe mask, minus the first candidate filter; returns the
        first unconsumed row.
        """
        carriers = d.carrier_list
        for i in range(lo, hi):
            if self.is_complete:
                return i
            self.packets_seen += 1
            acting = d.acting[i]
            try:
                if acting is None:
                    self._constrain(
                        carriers[i], d.pid_list[i], d.rep_rows[i], d.masks[i]
                    )
                else:
                    self._peel_xor(
                        d.pid_list[i], d.rep_rows[i], acting, d.masks[i]
                    )
            except DecodingError as err:
                err.batch_pos = i
                raise
        return hi

    # -- internals -------------------------------------------------------

    def _constrain(
        self,
        hop: int,
        packet_id: int,
        needed: List[int],
        universe_mask: Optional[np.ndarray] = None,
    ) -> None:
        """Keep only candidates of ``hop`` whose hash matches ``needed``.

        ``universe_mask`` is the match already computed against the
        whole universe (:meth:`PathQueryContext.match_universe`); it
        applies only while the hop is untouched.
        """
        if hop in self.decoded:
            value = self.decoded[hop]
            ok = all(
                self.ctx.value_digest(rep, packet_id, value) == needed[rep]
                for rep in range(self.ctx.num_hashes)
            )
            if not ok:
                self.inconsistencies += 1
            return
        cands = self._candidates.get(hop)
        if cands is None and universe_mask is not None:
            remaining = self.context.universe[universe_mask]
        else:
            if cands is None:
                cands = self.context.universe
            mask = np.ones(cands.size, dtype=bool)
            for rep in range(self.ctx.num_hashes):
                hashed = self.ctx.h[rep].bits_array(
                    self.ctx.digest_bits, cands, packet_id
                )
                mask &= hashed == np.uint64(needed[rep])
            remaining = cands[mask]
        if remaining.size == 0:
            raise DecodingError(
                f"hop {hop}: no candidate matches digest (corrupt input "
                "or value outside the universe)"
            )
        self._candidates[hop] = remaining
        if remaining.size == 1:
            self._settle(hop, int(remaining[0]))

    def _settle(self, hop: int, value: int) -> None:
        """A hop reached a unique candidate; peel dependent XOR digests."""
        worklist = [(hop, value)]
        while worklist:
            hop, value = worklist.pop()
            if hop in self.decoded:
                continue
            self.decoded[hop] = value
            self._candidates[hop] = np.asarray([value], dtype=np.int64)
            for entry in self._hop_refs.pop(hop, ()):
                if hop not in entry.unknown:
                    continue
                entry.unknown.discard(hop)
                for rep in range(self.ctx.num_hashes):
                    entry.residual[rep] ^= self.ctx.value_digest(
                        rep, entry.packet_id, value
                    )
                if len(entry.unknown) == 1:
                    last = next(iter(entry.unknown))
                    entry.unknown.clear()
                    before = self.decoded.get(last)
                    self._constrain(last, entry.packet_id, entry.residual)
                    after_cands = self._candidates_of(last)
                    if before is None and after_cands.size == 1 and last not in self.decoded:
                        worklist.append((last, int(after_cands[0])))
            if self.adjacency is not None:
                for nbr_hop in (hop - 1, hop + 1):
                    if not 1 <= nbr_hop <= self.k or nbr_hop in self.decoded:
                        continue
                    allowed = self.adjacency.get(value)
                    if allowed is None:
                        continue
                    cands = self._candidates_of(nbr_hop)
                    narrowed = cands[np.isin(cands, list(allowed))]
                    if narrowed.size == 0:
                        raise DecodingError(
                            f"hop {nbr_hop}: no candidate adjacent to "
                            f"decoded switch {value}"
                        )
                    if narrowed.size < cands.size:
                        self._candidates[nbr_hop] = narrowed
                        if narrowed.size == 1 and nbr_hop not in self.decoded:
                            worklist.append((nbr_hop, int(narrowed[0])))

    def state_bytes(self) -> int:
        """Rough resident-state estimate (candidate arrays dominate).

        Content-based, so identical state reports identical bytes
        however the records were fed: only *narrowed* candidate arrays
        count (untouched hops alias the context's one universe array),
        and a complete decoder counts its ``8 * k``-byte decoded column
        whether or not a batched scan has materialised it yet.  Kept
        next to the state it measures so memory-accounting callers
        (e.g. the collector's snapshots) need no knowledge of decoder
        internals.
        """
        cand = sum(arr.nbytes for arr in self._candidates.values())
        arr = 8 * self.k if self.is_complete else 0
        return cand + 64 * len(self._pending) + arr


class FragmentDecoder(_ContextBound):
    """Decoder for fragment mode: F independent raw sub-problems.

    Each packet carries fragment ``f = frag(packet) in {0..F-1}`` of its
    contributing hop(s); decoding fragment ``f`` for every hop is an
    independent instance of the raw problem.  A hop's block is the
    concatenation of its F decoded fragments -- the paper's observation
    that fragmentation behaves "as if there were k*F hops".
    """

    def __init__(
        self,
        k: int,
        value_bits: int,
        scheme: CodingScheme,
        digest_bits: int = 8,
        seed: int = 0,
    ) -> None:
        self._bind(
            PathQueryContext(
                (), digest_bits, 1, seed, scheme, value_bits, mode=FRAGMENT
            ),
            k,
        )

    def _bind(self, context: PathQueryContext, k: int) -> None:
        value_bits = context.value_bits
        if value_bits is None or value_bits < 1:
            raise ValueError("value_bits must be >= 1")
        self.k = k
        self.context = context
        self.value_bits = value_bits
        self.digest_bits = context.digest_bits
        self.num_fragments = -(-value_bits // context.digest_bits)
        self.ctx = context.codec_for(k)
        self._subdecoders = [
            RawDecoder.from_context(context, k)
            for _ in range(self.num_fragments)
        ]
        self.packets_seen = 0

    @property
    def missing(self) -> int:
        """Unknown (hop, fragment) pairs, scaled to whole hops."""
        pieces = sum(dec.missing for dec in self._subdecoders)
        return -(-pieces // self.num_fragments)

    @property
    def is_complete(self) -> bool:
        """True when every fragment of every hop is decoded."""
        return all(dec.is_complete for dec in self._subdecoders)

    def observe(self, packet_id: int, digest: Tuple[int, ...]) -> None:
        """Route the digest to the packet's fragment sub-problem."""
        self.packets_seen += 1
        frag = self.ctx.fragment_index(packet_id, self.num_fragments)
        self._subdecoders[frag].observe(packet_id, digest)

    def observe_batch(self, packet_ids, reps) -> None:
        """Scatter a digest column to the fragment sub-problems at once.

        One vectorised fragment-selection hash replaces the per-packet
        ``fragment_index`` call; each sub-problem's rows (boolean-mask
        slices preserve order) then run its own batched raw decode.
        Sub-problems are independent, so cross-fragment ordering is
        immaterial and the final state is bit-identical to the scalar
        loop.
        """
        pids, mat = _normalize_batch_reps(packet_ids, reps, 1)
        self.observe_rows(BatchDecisions(pids, mat), 0, len(pids))

    def observe_rows(self, decisions: BatchDecisions, lo: int, hi: int) -> None:
        """Scatter rows ``[lo, hi)`` of a batch to the sub-problems.

        Only the columns of ``decisions`` are read: each sub-problem
        replays the decisions of its own lane.
        """
        if hi <= lo:
            return
        pids = decisions.pids[lo:hi]
        mat = decisions.reps[lo:hi]
        self.packets_seen += hi - lo
        frags = self.ctx.frag.choice_array(self.num_fragments, pids)
        for frag in range(self.num_fragments):
            lane = frags == frag
            if lane.any():
                self._subdecoders[frag].observe_batch(pids[lane], mat[lane])

    def state_bytes(self) -> int:
        """Sum of the fragment sub-decoders' resident state."""
        return sum(dec.state_bytes() for dec in self._subdecoders)

    def known_blocks(self) -> Dict[int, int]:
        """Hops whose *every* fragment is decoded, reassembled.

        A hop with some-but-not-all fragments stays unknown: a partial
        concatenation is not a prefix of the value, so reporting it
        would hand callers a wrong block rather than a missing one.
        """
        out: Dict[int, int] = {}
        for hop in range(1, self.k + 1):
            value = 0
            for frag, dec in enumerate(self._subdecoders):
                piece = dec.decoded.get(hop)
                if piece is None:
                    break
                value |= piece << (frag * self.digest_bits)
            else:
                out[hop] = value
        return out

    def path(self) -> List[int]:
        """Reassembled blocks, hop 1 first (raises if incomplete)."""
        if not self.is_complete:
            raise DecodingError("fragments still missing")
        out = []
        for hop in range(1, self.k + 1):
            value = 0
            for frag, dec in enumerate(self._subdecoders):
                value |= dec.decoded[hop] << (frag * self.digest_bits)
            out.append(value)
        return out


def make_decoder(
    encoder,
    message: Optional[DistributedMessage] = None,
    adjacency: Optional[Dict[int, Set[int]]] = None,
):
    """Build the matching decoder for a :class:`PathEncoder`.

    Convenience used by tests and benchmarks; pulls mode, widths and
    seed straight from the encoder so the pair cannot drift apart.
    ``adjacency`` enables topology-aware inference (hash mode only).
    """
    msg = message if message is not None else encoder.message
    ctx = encoder.ctx
    if encoder.mode == HASH:
        return HashDecoder(
            msg.k, msg.universe, ctx.scheme, ctx.digest_bits,
            ctx.num_hashes, ctx.seed, adjacency=adjacency,
        )
    if encoder.mode == RAW:
        return RawDecoder(msg.k, ctx.scheme, ctx.digest_bits, ctx.seed)
    # Derive the width from the encoder's *effective* fragment count --
    # a value_bits override (the sink's universe-wide layout) widens it
    # past the message's own block_bits, and the decoder must split
    # into the same number of sub-problems or nothing lines up.
    return FragmentDecoder(
        msg.k, encoder.num_fragments * ctx.digest_bits, ctx.scheme,
        ctx.digest_bits, ctx.seed,
    )
