"""The per-switch Encoding Module for static aggregation (paper §4.2).

:class:`PathEncoder` simulates what the chain of switches does to one
packet's digest.  It supports the three digest representations the paper
describes:

* ``raw`` -- the block itself fits the budget and is written verbatim;
* ``hash`` -- blocks are wide (32-bit switch IDs) but drawn from a known
  universe V; the digest carries ``h(M_i, packet)`` ("Reducing the
  Bit-overhead using Hashing");
* ``fragment`` -- blocks are wide and V is unknown; each packet carries
  one hash-chosen b-bit fragment ("Reducing the Bit-overhead using
  Fragmentation").

"Multiple instantiations" (several independent smaller hashes per
packet, e.g. the paper's 2x(b=8) configuration) is the ``num_hashes``
parameter; the encoder then emits a tuple of digests whose total width
is ``num_hashes * digest_bits``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.coding.decisions import DecisionReplay
from repro.coding.message import DistributedMessage
from repro.coding.schemes import BASELINE, CodingScheme
from repro.hashing import GlobalHash, reservoir_carrier, xor_acting_hops

#: Digest representation modes.
RAW = "raw"
HASH = "hash"
FRAGMENT = "fragment"


def pack_reps(reps, digest_bits: int) -> int:
    """Pack per-hash digests into one int, rep 0 in the low bits.

    The wire layout of a "multiple instantiations" digest: ``reps[i]``
    occupies bits ``[i*b, (i+1)*b)``.  Shared by every component that
    serialises or parses packed digests (runtime, collector, tests) so
    the layout cannot drift between them.
    """
    mask = (1 << digest_bits) - 1
    out = 0
    for rep, val in enumerate(reps):
        out |= (val & mask) << (rep * digest_bits)
    return out


def unpack_reps(digest: int, digest_bits: int, num_hashes: int) -> Tuple[int, ...]:
    """Inverse of :func:`pack_reps`: split a packed digest into reps."""
    mask = (1 << digest_bits) - 1
    return tuple(
        (digest >> (rep * digest_bits)) & mask for rep in range(num_hashes)
    )


def pack_reps_array(reps: np.ndarray, digest_bits: int) -> np.ndarray:
    """Vectorised :func:`pack_reps` over a (n, num_hashes) digest matrix.

    Row-for-row identical to ``pack_reps(row, digest_bits)``; returns
    int64 -- the collector's digest column dtype.
    """
    mask = np.uint64((1 << digest_bits) - 1)
    out = np.zeros(reps.shape[0], dtype=np.uint64)
    for rep in range(reps.shape[1]):
        out |= (reps[:, rep].astype(np.uint64) & mask) << np.uint64(
            rep * digest_bits
        )
    return out.astype(np.int64)


def unpack_reps_array(
    digests: np.ndarray, digest_bits: int, num_hashes: int
) -> np.ndarray:
    """Vectorised :func:`unpack_reps` over a packed digest column.

    Row-for-row identical to ``unpack_reps(digest, digest_bits,
    num_hashes)``; returns a ``(n, num_hashes)`` uint64 matrix, the
    shape the batch decoders consume.
    """
    digs = np.asarray(digests).astype(np.uint64)
    mask = np.uint64((1 << digest_bits) - 1)
    out = np.empty((digs.shape[0], num_hashes), dtype=np.uint64)
    for rep in range(num_hashes):
        out[:, rep] = (digs >> np.uint64(rep * digest_bits)) & mask
    return out


class CodecContext:
    """Derived hash functions shared by encoder and decoder.

    Mirrors the paper's set-up: a layer-selection hash, one action hash
    ``g`` per layer, ``num_hashes`` value-compression hashes ``h``, and
    a fragment-selection hash.  Everything is derived deterministically
    from one seed, so a decoder constructed with the same seed replays
    the encoder's decisions exactly.
    """

    def __init__(
        self,
        scheme: CodingScheme,
        digest_bits: int,
        num_hashes: int = 1,
        seed: int = 0,
    ) -> None:
        if digest_bits < 1:
            raise ValueError("digest_bits must be >= 1")
        if num_hashes < 1:
            raise ValueError("num_hashes must be >= 1")
        self.scheme = scheme
        self.digest_bits = digest_bits
        self.num_hashes = num_hashes
        self.seed = seed
        root = GlobalHash(seed, "pint")
        self.select = root.derive("layer-select")
        self.g: List[GlobalHash] = [
            root.derive(f"g-layer{idx}") for idx in range(len(scheme.layers))
        ]
        self.h: List[GlobalHash] = [
            root.derive(f"h-rep{rep}") for rep in range(num_hashes)
        ]
        self.frag = root.derive("fragment-select")

    def layer_of(self, packet_id: int) -> int:
        """The layer index this packet serves at every hop."""
        return self.scheme.layer_index(self.select, packet_id)

    def value_digest(self, rep: int, packet_id: int, value: int) -> int:
        """h_rep(value, packet): the compressed digest contribution."""
        return self.h[rep].bits(self.digest_bits, packet_id, value)

    def fragment_index(self, packet_id: int, num_fragments: int) -> int:
        """Which fragment number this packet carries (hash-chosen)."""
        return self.frag.choice(num_fragments, packet_id)


class PathEncoder:
    """Encodes packets for one flow's fixed path.

    Parameters
    ----------
    message:
        The distributed message (per-hop blocks, optional universe).
    scheme:
        Layer structure (Baseline / XOR / Hybrid / Multi-layer).
    digest_bits:
        Per-hash digest width ``b`` (the query bit budget divided by
        ``num_hashes``).
    mode:
        ``"raw"``, ``"hash"``, ``"fragment"`` or ``"auto"``: auto picks
        hash when a universe is known, raw when blocks fit, fragment
        otherwise.
    num_hashes:
        Independent hash instantiations per packet (hash mode only).
    seed:
        Root seed for all derived global hashes.
    value_bits:
        Fragment mode only: value width the fragment count is derived
        from, overriding the message's own ``block_bits()``.  A sink
        decoding many paths shares one fragment layout derived from
        the universe-wide width; encoders must fragment against the
        same width or the sub-problems cannot line up.
    """

    def __init__(
        self,
        message: DistributedMessage,
        scheme: CodingScheme,
        digest_bits: int = 8,
        mode: str = "auto",
        num_hashes: int = 1,
        seed: int = 0,
        value_bits: Optional[int] = None,
    ) -> None:
        if mode == "auto":
            if message.universe is not None:
                mode = HASH
            elif message.block_bits() <= digest_bits:
                mode = RAW
            else:
                mode = FRAGMENT
        if mode not in (RAW, HASH, FRAGMENT):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == RAW and message.block_bits() > digest_bits:
            raise ValueError(
                f"raw mode needs blocks <= {digest_bits} bits; "
                f"got {message.block_bits()}"
            )
        if mode == HASH and message.universe is None:
            raise ValueError("hash mode needs a value universe")
        if mode != HASH and num_hashes != 1:
            raise ValueError("multiple hash instantiations need hash mode")
        self.message = message
        self.mode = mode
        self.ctx = CodecContext(scheme, digest_bits, num_hashes, seed)
        #: Number of fragments F = ceil(q / b) (1 unless fragment mode).
        self.num_fragments = 1
        if mode == FRAGMENT:
            width = message.block_bits()
            if value_bits is not None:
                if value_bits < width:
                    raise ValueError(
                        f"value_bits ({value_bits}) narrower than the "
                        f"widest block ({width} bits)"
                    )
                width = value_bits
            self.num_fragments = -(-width // digest_bits)

    @property
    def bit_overhead(self) -> int:
        """Total digest bits added to each packet."""
        return self.ctx.digest_bits * self.ctx.num_hashes

    def _contribution(self, packet_id: int, hop: int) -> Tuple[int, ...]:
        """What hop ``hop`` (1-based) would write for this packet."""
        value = self.message.blocks[hop - 1]
        if self.mode == HASH:
            return tuple(
                self.ctx.value_digest(rep, packet_id, value)
                for rep in range(self.ctx.num_hashes)
            )
        if self.mode == FRAGMENT:
            frag = self.ctx.fragment_index(packet_id, self.num_fragments)
            b = self.ctx.digest_bits
            return ((value >> (frag * b)) & ((1 << b) - 1),)
        return (value,)

    def step(
        self, packet_id: int, hop: int, digest: Tuple[int, ...]
    ) -> Tuple[int, ...]:
        """What switch ``hop`` (1-based) does to the digest in-flight.

        This is the actual per-switch Encoding Module: stateless, using
        only the packet id, the hop number (from TTL) and the switch's
        own block.  Folding ``step`` over hops 1..k from the zero digest
        equals :meth:`encode` exactly (tested property).
        """
        layer_idx = self.ctx.layer_of(packet_id)
        layer = self.ctx.scheme.layers[layer_idx]
        g = self.ctx.g[layer_idx]
        if layer.kind == BASELINE:
            if g.uniform(hop, packet_id) < 1.0 / hop:
                return self._contribution(packet_id, hop)
            return digest
        if g.uniform(hop, packet_id) < layer.xor_p:
            contribution = self._contribution(packet_id, hop)
            return tuple(
                digest[rep] ^ contribution[rep]
                for rep in range(self.ctx.num_hashes)
            )
        return digest

    def encode(self, packet_id: int) -> Tuple[int, ...]:
        """Run one packet through the whole path; return its digest(s).

        The returned tuple has ``num_hashes`` entries of ``digest_bits``
        bits each.  A packet no acting hop touched carries zeros (the
        PINT Source initialises the digest to the zero bitstring).
        """
        k = self.message.k
        layer_idx = self.ctx.layer_of(packet_id)
        layer = self.ctx.scheme.layers[layer_idx]
        g = self.ctx.g[layer_idx]
        if layer.kind == BASELINE:
            carrier = reservoir_carrier(g, packet_id, k)
            return self._contribution(packet_id, carrier)
        digest = [0] * self.ctx.num_hashes
        for hop in xor_acting_hops(g, packet_id, k, layer.xor_p):
            contribution = self._contribution(packet_id, hop)
            for rep in range(self.ctx.num_hashes):
                digest[rep] ^= contribution[rep]
        return tuple(digest)

    def encode_many(self, packet_ids) -> np.ndarray:
        """Vectorised :meth:`encode` for hash mode over many packets.

        The single-message case of :func:`encode_columns` (every lane
        reads this encoder's one row of blocks), kept for benchmark
        harnesses that push 10^5 packets down one path.
        """
        if self.mode != HASH:
            raise ValueError("encode_many supports hash mode only")
        pids = np.asarray(packet_ids, dtype=np.uint64)
        table = np.asarray(self.message.blocks, dtype=np.int64)[None, :]
        return self._encode_table(pids, table, np.zeros(len(pids), np.int64))

    def _encode_table(
        self, pids: np.ndarray, table: np.ndarray, table_rows: np.ndarray
    ) -> np.ndarray:
        """:func:`encode_columns` down this encoder's own path length."""
        scheme = self.ctx.scheme
        return encode_columns(
            DecisionReplay(self.ctx.seed, lambda k: scheme), self.ctx,
            self.mode, self.num_fragments, pids,
            np.full(len(pids), self.message.k), table, table_rows,
        )


def encode_columns(
    decisions: DecisionReplay,
    ctx: CodecContext,
    mode: str,
    num_fragments: int,
    pids: np.ndarray,
    ks: np.ndarray,
    table: np.ndarray,
    table_rows: np.ndarray,
) -> np.ndarray:
    """The whole switch chain over a column of packets, any mix of paths.

    Row ``i`` is packet ``pids[i]`` (uint64) on a ``ks[i]``-hop path
    whose hop-``h`` block is ``table[table_rows[i], h - 1]`` (``table``
    C-contiguous).  ``decisions`` replays which layer each packet
    serves and which hops act on it; ``ctx`` supplies the value and
    fragment hashes, which -- like ``mode`` and ``num_fragments`` --
    depend on no path length, so one call serves rows of every ``k``.
    Returns the ``(n, num_hashes)`` uint64 digests, row for row
    :meth:`PathEncoder.encode` on that row's path.

    The chain: decision grid -> one ``(row, hop)`` pair per Baseline
    row (its carrier) and one per acting hop of an XOR row -> the
    pairs' blocks in one gather -> what each pair writes, one
    pairwise hash per rep over *all* pairs -> Baseline rows keep their
    pair's value, an XOR row the xor of its run of pairs.
    """
    n = pids.shape[0]
    b = ctx.digest_bits
    out = np.zeros((n, ctx.num_hashes), dtype=np.uint64)
    if not n:
        return out
    base, carriers, xor_rows, hops = decisions.decide(pids, ks)
    pair_rows = np.concatenate((base, xor_rows))
    pair_pids = pids.take(pair_rows)
    # Widened before the multiply: a narrow ``table_rows`` (a trace's
    # int32 path ids) times a Python int stays narrow and would wrap.
    blocks = table.ravel().take(
        table_rows.take(pair_rows).astype(np.intp) * table.shape[1]
        + np.concatenate((carriers, hops)) - 1
    )
    # An XOR row's pairs are contiguous: one reduceat folds each run.
    starts = np.ones(xor_rows.shape[0], dtype=bool)
    starts[1:] = xor_rows[1:] != xor_rows[:-1]
    run0 = np.flatnonzero(starts)
    for rep in range(ctx.num_hashes):
        if mode == HASH:
            wrote = ctx.h[rep].bits_zip(b, pair_pids, blocks)
        elif mode == FRAGMENT:
            frags = ctx.frag.choice_array(num_fragments, pair_pids)
            wrote = ((blocks >> (frags * b)) & ((1 << b) - 1)).astype(np.uint64)
        else:
            wrote = blocks.astype(np.uint64)
        out[base, rep] = wrote[:base.size]
        out[xor_rows[run0], rep] = np.bitwise_xor.reduceat(
            wrote[base.size:], run0
        )
    return out
