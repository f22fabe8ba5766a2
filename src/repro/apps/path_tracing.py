"""Path tracing: static per-flow aggregation (paper §3.2, §4.2, §6.3).

Two surfaces:

* :class:`PathTracer` -- standalone harness over a topology: how many
  packets does PINT need to recover a flow's switch path (the Fig. 10
  quantity), for a given bit budget / hash count / typical diameter d.
* :class:`PathTracingRuntime` -- the Encoding/Recording modules plugged
  into :class:`repro.core.PINTFramework` for concurrent-query runs,
  operating hop-by-hop on live packets.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.coding import (
    CodecContext,
    CodingScheme,
    DistributedMessage,
    HashDecoder,
    multilayer_scheme,
    pack_reps,
    packet_count_distribution,
    unpack_reps,
)
from repro.coding.schemes import BASELINE
from repro.coding.simulate import TrialStats
from repro.core.framework import QueryRuntime
from repro.core.query import Query
from repro.core.values import HopView, PacketContext

if TYPE_CHECKING:
    # Annotations only: the sink library imports this module and must
    # not pay for networkx (loaded by repro.net.topology).
    from repro.net.topology import Topology


class PathTracer:
    """Monte-Carlo path-tracing harness over a topology.

    Parameters
    ----------
    topology:
        Supplies the switch-ID universe V and concrete paths.
    digest_bits:
        Per-hash budget b (1, 4 or 8 in the paper's Fig. 10).
    num_hashes:
        Independent hash instantiations (2 for the paper's 2x(b=8)).
    d:
        Typical path length the scheme is tuned for; the paper uses
        d=10 on ISP topologies and d=5 on the fat-tree.
    scheme:
        Optional override of the coding scheme (defaults to the paper's
        Baseline + XOR-layer structure for the given d).
    """

    def __init__(
        self,
        topology: Topology,
        digest_bits: int = 8,
        num_hashes: int = 1,
        d: int = 10,
        scheme: Optional[CodingScheme] = None,
        seed: int = 0,
        use_adjacency: bool = False,
    ) -> None:
        self.topology = topology
        self.digest_bits = digest_bits
        self.num_hashes = num_hashes
        self.scheme = scheme if scheme is not None else multilayer_scheme(d)
        self.seed = seed
        self.universe = topology.switch_universe()
        #: Topology-aware inference: exploit switch adjacency to narrow
        #: candidate sets (an extension beyond the paper's decoder).
        self.adjacency = topology.switch_adjacency() if use_adjacency else None

    @property
    def bit_overhead(self) -> int:
        """Digest bits per packet."""
        return self.digest_bits * self.num_hashes

    def packets_for_path(
        self, path: Sequence[int], trials: int = 50, seed_offset: int = 0
    ) -> TrialStats:
        """Packets-to-decode distribution for one concrete switch path."""
        message = DistributedMessage.from_path(path, self.universe)
        return packet_count_distribution(
            message,
            self.scheme,
            trials=trials,
            digest_bits=self.digest_bits,
            num_hashes=self.num_hashes,
            seed=self.seed + seed_offset,
            mode="hash",
            adjacency=self.adjacency,
        )

    def packets_vs_path_length(
        self,
        lengths: Sequence[int],
        trials: int = 30,
        rng: Optional[random.Random] = None,
    ) -> Dict[int, TrialStats]:
        """The Fig. 10 sweep: packet counts per path length."""
        rng = rng if rng is not None else random.Random(self.seed)
        out: Dict[int, TrialStats] = {}
        for idx, hops in enumerate(lengths):
            src, dst = self.topology.pair_at_distance(hops, rng)
            path = self.topology.switch_path(src, dst)
            out[hops] = self.packets_for_path(path, trials, seed_offset=1000 * idx)
        return out


class PathTracingRuntime(QueryRuntime):
    """Framework runtime: hop-by-hop encoding + per-flow peeling decode.

    ``on_hop`` is exactly the switch pipeline of §5 (choose layer,
    compute g, hash the switch ID to the bit budget, write/xor the
    digest); ``on_sink`` feeds the per-flow :class:`HashDecoder`.
    """

    def __init__(
        self,
        query: Query,
        universe: Sequence[int],
        d: int,
        num_hashes: int = 1,
        seed: int = 0,
        scheme: Optional[CodingScheme] = None,
    ) -> None:
        super().__init__(query)
        if query.bit_budget % num_hashes:
            raise ValueError("bit budget must split evenly across hashes")
        self.universe = tuple(universe)
        self.scheme = scheme if scheme is not None else multilayer_scheme(d)
        self.hash_bits = query.bit_budget // num_hashes
        self.ctx = CodecContext(self.scheme, self.hash_bits, num_hashes, seed)
        self._decoders: Dict[int, HashDecoder] = {}
        self._flow_paths: Dict[int, int] = {}

    # -- digest slicing: reps packed low-to-high inside the query slice --

    def _unpack(self, digest: int) -> List[int]:
        return list(unpack_reps(digest, self.hash_bits, self.ctx.num_hashes))

    def _pack(self, reps: Sequence[int]) -> int:
        return pack_reps(reps, self.hash_bits)

    def on_hop(self, ctx: PacketContext, hop: HopView, digest: int) -> int:
        """Switch-side encoding (stateless, hash-driven)."""
        pid = ctx.packet_id
        layer_idx = self.ctx.layer_of(pid)
        layer = self.ctx.scheme.layers[layer_idx]
        g = self.ctx.g[layer_idx]
        reps = self._unpack(digest)
        if layer.kind == BASELINE:
            if g.uniform(hop.hop_number, pid) < 1.0 / hop.hop_number:
                reps = [
                    self.ctx.value_digest(rep, pid, hop.switch_id)
                    for rep in range(self.ctx.num_hashes)
                ]
        elif g.uniform(hop.hop_number, pid) < layer.xor_p:
            for rep in range(self.ctx.num_hashes):
                reps[rep] ^= self.ctx.value_digest(rep, pid, hop.switch_id)
        return self._pack(reps)

    def on_sink(self, ctx: PacketContext, digest: int) -> None:
        """Recording Module: feed the flow's decoder."""
        decoder = self._decoders.get(ctx.flow_id)
        if decoder is None:
            decoder = HashDecoder(
                ctx.path_len,
                self.universe,
                self.ctx.scheme,
                self.ctx.digest_bits,
                self.ctx.num_hashes,
                self.ctx.seed,
            )
            self._decoders[ctx.flow_id] = decoder
        decoder.observe(ctx.packet_id, tuple(self._unpack(digest)))

    # -- Inference Module -------------------------------------------------

    def flow_path(self, flow_id: int) -> Optional[List[int]]:
        """The flow's decoded switch path, or None if incomplete."""
        decoder = self._decoders.get(flow_id)
        if decoder is None or not decoder.is_complete:
            return None
        return decoder.path()

    def progress(self, flow_id: int) -> Tuple[int, int]:
        """(decoded hops, total hops) for a flow."""
        decoder = self._decoders.get(flow_id)
        if decoder is None:
            return (0, 0)
        return (decoder.k - decoder.missing, decoder.k)

    def route_change_signals(self, flow_id: int) -> int:
        """Digests inconsistent with the decoded path (paper §7).

        A Baseline packet whose digest contradicts an already-decoded
        hop signals a route change / multipath with probability
        1 - 2^-q per packet; callers can reset the flow's decoder when
        this counter starts climbing.
        """
        decoder = self._decoders.get(flow_id)
        return decoder.inconsistencies if decoder is not None else 0

    def reset_flow(self, flow_id: int) -> None:
        """Drop a flow's decoder state (e.g. after a detected reroute)."""
        self._decoders.pop(flow_id, None)
