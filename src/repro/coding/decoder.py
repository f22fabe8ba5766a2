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

Every decoder also exposes ``observe_batch(packet_ids, reps)``, the
columnar form of ``observe`` and bit-identical to feeding it the rows
in order.  The scalar ``observe`` stays the specification; the batched
execution lives in one place, the sink's
:class:`~repro.coding.store.PathStateStore`, which holds every flow's
state as columns -- a lone decoder's ``observe_batch`` lends its state
to a private one-row store for the length of the call.

Peeling state is *open hops only*: a settled hop lives in ``decoded``
and nowhere else (no singleton candidate array), and an XOR digest
leaves the pending list the moment it comes down to one unknown hop --
what remains is exactly the state the next digest can still change,
and it does not depend on the order the digests arrived in.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.coding.context import PathQueryContext
from repro.coding.encoder import FRAGMENT, HASH, RAW
from repro.coding.message import DistributedMessage
from repro.coding.schemes import BASELINE, CodingScheme
from repro.exceptions import DecodingError
from repro.hashing import reservoir_carrier, xor_acting_hops
from repro.hashing.mix import MASK64


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


class _PendingXor:
    """An XOR digest still waiting on two or more unknown hops."""

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
    (those still waiting on two or more hops) and -- per unknown hop,
    created on first use -- the pending entries that reference it.
    Subclasses supply the scalar ``observe``; ``observe_batch`` is
    shared.
    """

    def _bind(self, context: PathQueryContext, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.context = context
        self.ctx = context.codec_for(k)
        #: hop -> block; insertion order carries no meaning.
        self.decoded: Dict[int, int] = {}
        self.inconsistencies = 0
        self.packets_seen = 0
        self._pending: List[_PendingXor] = []
        #: unknown hop -> pending digests that reference it.
        self._hop_refs: Dict[int, List[_PendingXor]] = {}
        #: The decoded blocks as the uint64 (k,) column a store row
        #: holds them in; set by the store once complete, else None.
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
        are 1-tuples).  The decoder's state is adopted into a private
        one-row :class:`~repro.coding.store.PathStateStore`, the rows
        are folded there -- one consistency scan once complete, one
        fixpoint peel while converging -- and the result read back.
        When the peel finds the rows in conflict (or the context is
        topology-aware, which it does not model) they go through
        ``observe`` one by one instead, so a digest that contradicts
        the candidate sets raises :class:`DecodingError` exactly where
        the scalar loop would; the exception carries a ``batch_pos``
        attribute (the offending row) so callers can reset and resume
        behind it.
        """
        pids, mat = _normalize_batch_reps(packet_ids, reps, self.ctx.num_hashes)
        n = len(pids)
        if n == 0:
            return
        if self.context.adjacency is None or self.is_complete:
            # Imported here: the store is built on the decoders.
            from repro.coding.store import PathStateStore

            store = PathStateStore(self.context)
            row = store.alloc(0)
            store.absorb(row, self, 0)
            at = np.zeros(1, dtype=np.int64)
            if not store.fold(at + row, at, at + n, pids, at + self.k, mat):
                store.read_into(row, self)
                return
        for i, (pid, row) in enumerate(zip(pids.tolist(), mat.tolist())):
            try:
                self.observe(pid, tuple(row))
            except DecodingError as err:
                err.batch_pos = i
                raise

    def _park(self, packet_id: int, residual: List[int], unknown: Set[int]) -> None:
        """Keep an XOR digest with several unknown hops for later peeling.

        The packet id is kept in its 64-bit form (what every hash of it
        reads), so scalar and batched feeding park equal entries.
        """
        entry = _PendingXor(packet_id & MASK64, residual, unknown)
        self._pending.append(entry)
        for hop in unknown:
            self._hop_refs.setdefault(hop, []).append(entry)

    def _release(self, entry: _PendingXor) -> int:
        """A pending digest is down to one unknown hop: it is state no
        longer.  Drops it (its ``unknown`` left empty) and returns that
        hop; the caller applies the residual to it."""
        last = entry.unknown.pop()
        self._pending.remove(entry)
        # Absent while ``last`` itself is mid-settle further up the stack.
        refs = self._hop_refs.get(last)
        if refs is not None:
            refs.remove(entry)
            if not refs:
                del self._hop_refs[last]
        return last

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

    def state_bytes(self) -> int:
        """Rough resident-state estimate (decoded map + pending digests).

        Content-based: only digests still pending count, and a complete
        decoder counts its ``8 * k``-byte decoded column whether or not
        a batched scan has materialised it yet, so identical state
        reports identical bytes however the records were fed.
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
                entry.unknown.discard(hop)
                entry.residual[0] ^= value
                if len(entry.unknown) == 1:
                    worklist.append((self._release(entry), entry.residual[0]))


class HashDecoder(_PeelingDecoder):
    """Decoder for hash-compressed digests over a known universe V.

    Maintains a candidate set per hop (NumPy array of universe values);
    each Baseline packet from hop ``i`` keeps only candidates ``v`` with
    ``h(v, packet) == digest`` -- an expected ``2^-b`` shrink per hash
    instantiation.  XOR digests join the peeling pool: once all acting
    hops but one are decoded, the leftover behaves like a Baseline
    packet for that hop (paper §4.2).  Only *open, narrowed* hops hold
    an array: a hop no digest has narrowed yet has the context's
    shared universe, a settled hop has its entry in ``decoded``.
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
        #: open hop -> narrowed candidate array; a missing hop is either
        #: settled (see ``decoded``) or still has the whole universe.
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
        """The hop's candidates: its block once settled, its narrowed
        array while open, the shared universe if untouched."""
        if hop in self.decoded:
            return np.asarray([self.decoded[hop]], dtype=np.int64)
        return self._candidates.get(hop, self.context.universe)

    def candidates_left(self, hop: int) -> int:
        """Size of the hop's remaining candidate set (1 when decoded)."""
        return int(self._candidates_of(hop).size)

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
        self, packet_id: int, residual: List[int], acting: List[int]
    ) -> None:
        """One XOR digest: strip the known hops, constrain or park the rest."""
        unknown: Set[int] = set()
        for hop in acting:
            if hop in self.decoded:
                for rep in range(self.ctx.num_hashes):
                    residual[rep] ^= self.ctx.value_digest(
                        rep, packet_id, self.decoded[hop]
                    )
            else:
                unknown.add(hop)
        if not unknown:
            return
        if len(unknown) == 1:
            self._constrain(unknown.pop(), packet_id, residual)
            return
        self._park(packet_id, residual, unknown)

    # -- internals -------------------------------------------------------

    def _constrain(self, hop: int, packet_id: int, needed: List[int]) -> None:
        """Keep only candidates of ``hop`` whose hash matches ``needed``."""
        if hop in self.decoded:
            value = self.decoded[hop]
            ok = all(
                self.ctx.value_digest(rep, packet_id, value) == needed[rep]
                for rep in range(self.ctx.num_hashes)
            )
            if not ok:
                self.inconsistencies += 1
            return
        cands = self._candidates.get(hop, self.context.universe)
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
        if remaining.size == 1:
            self._settle(hop, int(remaining[0]))
        else:
            self._candidates[hop] = remaining

    def _settle(self, hop: int, value: int) -> None:
        """A hop reached a unique candidate; peel dependent XOR digests."""
        worklist = [(hop, value)]
        while worklist:
            hop, value = worklist.pop()
            if hop in self.decoded:
                continue
            self.decoded[hop] = value
            self._candidates.pop(hop, None)
            for entry in self._hop_refs.pop(hop, ()):
                if hop not in entry.unknown:
                    # Released further down the stack: a settle it
                    # triggered got to this entry first.
                    continue
                entry.unknown.discard(hop)
                for rep in range(self.ctx.num_hashes):
                    entry.residual[rep] ^= self.ctx.value_digest(
                        rep, entry.packet_id, value
                    )
                if len(entry.unknown) == 1:
                    # ``_constrain`` settles the hop itself the moment
                    # it is down to one candidate.
                    self._constrain(
                        self._release(entry), entry.packet_id, entry.residual
                    )
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
        however the records were fed: narrowed candidate arrays count
        in full and a settled hop as its one 8-byte block (untouched
        hops alias the context's one universe array), only digests
        still pending count, and a complete decoder counts its
        ``8 * k``-byte decoded column whether or not a batched scan has
        materialised it yet.  Kept next to the state it measures so
        memory-accounting callers (e.g. the collector's snapshots) need
        no knowledge of decoder internals.
        """
        cand = sum(arr.nbytes for arr in self._candidates.values())
        arr = 8 * self.k if self.is_complete else 0
        return cand + 8 * len(self.decoded) + 64 * len(self._pending) + arr


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

    @property
    def inconsistencies(self) -> int:
        """Contradicting Baseline digests, over all fragment sub-problems."""
        return sum(dec.inconsistencies for dec in self._subdecoders)

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
        if not len(pids):
            return
        self.packets_seen += len(pids)
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
