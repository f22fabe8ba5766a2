"""Latency quantiles: dynamic per-flow aggregation (paper §3.2, §6.2).

Each packet carries the (compressed) latency of one uniformly-sampled
hop via distributed Reservoir Sampling (§4.1, "Example #1"); the
Recording Module attributes the sample to its hop by recomputing the
global hash and feeds a per-(flow, hop) store -- either a raw sample
list ("PINT" in Fig. 9) or a KLL sketch ("PINT_S").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.approx import MultiplicativeCompressor, epsilon_for_bits
from repro.core.framework import QueryRuntime
from repro.core.query import Query
from repro.core.values import HopView, PacketContext
from repro.hashing import GlobalHash, reservoir_carrier
from repro.sketch import KLLSketch, exact_quantile


class LatencyCompressor:
    """Maps latency seconds onto a b-bit multiplicative grid.

    Latencies are quantised in nanoseconds; epsilon is auto-fitted so
    the largest representable latency (``max_latency_s``) encodes within
    the budget (the §4.3 "32-bit latency into b bits" trick).
    """

    def __init__(self, bits: int, max_latency_s: float = 4.0, seed: int = 0):
        if bits < 1:
            raise ValueError("bits must be >= 1")
        self.bits = bits
        max_ns = max_latency_s * 1e9
        eps = epsilon_for_bits(bits, max_ns) * 1.0001
        self._comp = MultiplicativeCompressor(eps, bits=bits, max_value=max_ns)
        self._grid = GlobalHash(seed, "latency-rounding")

    @property
    def epsilon(self) -> float:
        """The multiplicative error of one encoded sample."""
        return self._comp.epsilon

    def encode(self, latency_s: float, *key_parts) -> int:
        """Compress one latency (randomized rounding, unbiased)."""
        return self._comp.encode_randomized(latency_s * 1e9, self._grid, *key_parts)

    def decode(self, code: int) -> float:
        """Recover the approximate latency in seconds."""
        return self._comp.decode(code) * 1e-9


class HopLatencyStore:
    """Per-(flow, hop) sample store: raw list or KLL sketch."""

    def __init__(self, sketch_size: Optional[int] = None) -> None:
        self.sketch_size = sketch_size
        self._raw: List[float] = []
        self._sketch: Optional[KLLSketch] = (
            KLLSketch(k_param=sketch_size) if sketch_size else None
        )
        self.count = 0

    def add(self, latency_s: float) -> None:
        """Record one decoded latency sample."""
        self.count += 1
        if self._sketch is not None:
            self._sketch.update(latency_s)
        else:
            self._raw.append(latency_s)

    def quantile(self, phi: float) -> float:
        """Estimated phi-quantile of this hop's latency stream."""
        if self._sketch is not None:
            return self._sketch.quantile(phi)
        return exact_quantile(self._raw, phi)

    def stored_items(self) -> int:
        """Digests currently held (space accounting for Fig. 9)."""
        if self._sketch is not None:
            return self._sketch.size
        return len(self._raw)


class LatencyRuntime(QueryRuntime):
    """Framework runtime for the median/tail-latency query."""

    def __init__(
        self,
        query: Query,
        seed: int = 0,
        max_latency_s: float = 4.0,
        sketch_size: Optional[int] = None,
    ) -> None:
        super().__init__(query)
        self.compressor = LatencyCompressor(query.bit_budget, max_latency_s, seed)
        self.g = GlobalHash(seed, "latency-reservoir")
        self.sketch_size = sketch_size if sketch_size else query.space_budget
        self._stores: Dict[Tuple[int, int], HopLatencyStore] = {}

    def on_hop(self, ctx: PacketContext, hop: HopView, digest: int) -> int:
        """Reservoir-overwrite the digest with this hop's latency code."""
        if self.g.uniform(hop.hop_number, ctx.packet_id) < 1.0 / hop.hop_number:
            return self.compressor.encode(
                hop.hop_latency, ctx.packet_id, hop.hop_number
            )
        return digest

    def on_sink(self, ctx: PacketContext, digest: int) -> None:
        """Attribute the sample to its carrier hop and store it."""
        carrier = reservoir_carrier(self.g, ctx.packet_id, ctx.path_len)
        key = (ctx.flow_id, carrier)
        store = self._stores.get(key)
        if store is None:
            per_hop = None
            if self.sketch_size:
                # Split the per-flow space budget evenly across hops (§4.1).
                per_hop = max(4, self.sketch_size // max(1, ctx.path_len))
            store = HopLatencyStore(per_hop)
            self._stores[key] = store
        store.add(self.compressor.decode(digest))

    # -- Inference Module --------------------------------------------------

    def quantile(self, flow_id: int, hop: int, phi: float) -> float:
        """Estimated phi-quantile of (flow, hop) latency."""
        return self._stores[(flow_id, hop)].quantile(phi)

    def samples_at(self, flow_id: int, hop: int) -> int:
        """Number of samples attributed to (flow, hop)."""
        store = self._stores.get((flow_id, hop))
        return store.count if store else 0


def simulate_latency_estimation(
    latencies_per_hop: Sequence[Sequence[float]],
    bits: int,
    num_packets: int,
    phi: float,
    sketch_size: Optional[int] = None,
    seed: int = 0,
    max_latency_s: float = 4.0,
) -> Dict[int, Tuple[float, float]]:
    """End-to-end Fig. 9 harness over synthetic per-hop latency streams.

    ``latencies_per_hop[i][j]`` is hop i+1's latency for packet j+1.
    Runs the full encode -> sample -> (sketch) -> quantile pipeline and
    returns per-hop (estimate, ground truth) at quantile ``phi``.
    """
    k = len(latencies_per_hop)
    if any(len(s) < num_packets for s in latencies_per_hop):
        raise ValueError("need num_packets latencies per hop")
    comp = LatencyCompressor(bits, max_latency_s, seed)
    g = GlobalHash(seed, "latency-reservoir")
    stores = {
        hop: HopLatencyStore(sketch_size) for hop in range(1, k + 1)
    }
    for pid in range(1, num_packets + 1):
        digest = 0
        wrote = False
        for hop in range(1, k + 1):
            if g.uniform(hop, pid) < 1.0 / hop:
                digest = comp.encode(latencies_per_hop[hop - 1][pid - 1], pid, hop)
                wrote = True
        if not wrote:
            continue
        carrier = reservoir_carrier(g, pid, k)
        stores[carrier].add(comp.decode(digest))
    out: Dict[int, Tuple[float, float]] = {}
    for hop in range(1, k + 1):
        truth = exact_quantile(
            list(latencies_per_hop[hop - 1][:num_packets]), phi
        )
        est = (
            stores[hop].quantile(phi)
            if stores[hop].count
            else float("nan")
        )
        out[hop] = (est, truth)
    return out
