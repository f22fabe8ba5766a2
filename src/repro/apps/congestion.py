"""Congestion feedback: per-packet max-aggregation (paper §3.2, §4.3).

HPCC needs, per ACK, the *bottleneck* (max) link utilisation along the
path.  PINT's insight (§4.3 Example #3): keep only the max in the
digest, compressed to 8 bits with multiplicative approximation and
randomized rounding so the feedback is unbiased on average.

Because the multiplicative code is monotone in the value, taking the
max of codes equals coding the max -- which is why the per-switch logic
is a single compare-and-write, feasible in one pipeline stage (§5).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.approx import MultiplicativeCompressor
from repro.core.framework import QueryRuntime
from repro.core.query import Query
from repro.core.values import HopView, PacketContext
from repro.hashing import GlobalHash


class UtilizationCodec:
    """8-bit (by default) multiplicative codec for link utilisation.

    The paper's "8 bits support eps = 0.025": a (1+eps)^2 grid with 2^8
    exponents spans a ~3x10^5 dynamic range.  We anchor the top of the
    grid at ``max_util`` (transient utilisation can exceed 1 during
    incast) so everything down to ``max_util / range`` is resolved and
    smaller values round to the grid floor.
    """

    def __init__(
        self,
        bits: int = 8,
        epsilon: float = 0.025,
        max_util: float = 16.0,
        seed: int = 0,
    ) -> None:
        if max_util <= 0:
            raise ValueError("max_util must be positive")
        base = (1.0 + epsilon) ** 2
        # Scale so that max_util maps to the top exponent of the grid.
        self.scale = base ** ((1 << bits) - 1) / max_util
        self._comp = MultiplicativeCompressor(
            epsilon, bits=bits, max_value=max_util * self.scale
        )
        self.bits = bits
        self.epsilon = epsilon
        self.max_util = max_util
        self._grid = GlobalHash(seed, "util-rounding")

    def encode(self, utilization: float, *key_parts) -> int:
        """Compress a utilisation fraction (randomized rounding)."""
        scaled = min(utilization, self.max_util) * self.scale
        return self._comp.encode_randomized(scaled, self._grid, *key_parts)

    def encode_array(
        self, utilizations: np.ndarray, pids: np.ndarray, hops
    ) -> np.ndarray:
        """Vectorised :meth:`encode` keyed ``(pid, hop)``, one per lane.

        ``hops`` is one hop number for all lanes or a column of them.
        The rounding coins come from ``uniform_zip`` -- per-lane packet
        id, then per-lane hop number -- exactly the key order the
        scalar ``encode(util, pid, hop)`` folds, so both paths draw the
        same coin and emit the same code (property-tested).
        """
        scaled = (
            np.minimum(np.asarray(utilizations, dtype=np.float64), self.max_util)
            * self.scale
        )
        pids = np.asarray(pids)
        coins = self._grid.uniform_zip(
            pids, np.broadcast_to(np.asarray(hops, dtype=np.int64), pids.shape)
        )
        return self._comp.encode_randomized_array(scaled, coins)

    def decode(self, code: int) -> float:
        """Recover the approximate utilisation fraction."""
        return self._comp.decode(code) / self.scale

    def decode_array(self, codes: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`decode`, lane-for-lane bit-identical.

        One table gather and one divide for a whole code column -- the
        shape the batch-decode engine and the replay scorer consume.
        """
        return self._comp.decode_array(codes) / self.scale


class CongestionRuntime(QueryRuntime):
    """Framework runtime carrying max path utilisation to the sink.

    ``on_sink`` invokes ``feedback`` -- in a full deployment this is the
    ACK path back to the HPCC sender; in the combined experiment it
    feeds the congestion-control statistics.
    """

    def __init__(
        self,
        query: Query,
        seed: int = 0,
        epsilon: float = 0.025,
        feedback: Optional[Callable[[int, float], None]] = None,
    ) -> None:
        super().__init__(query)
        self.codec = UtilizationCodec(query.bit_budget, epsilon, seed=seed)
        self.feedback = feedback
        self.last_feedback: Dict[int, float] = {}
        self.feedback_count = 0

    def on_hop(self, ctx: PacketContext, hop: HopView, digest: int) -> int:
        """Keep the max of the digest and this hop's encoded utilisation."""
        code = self.codec.encode(
            hop.egress_tx_utilization, ctx.packet_id, hop.hop_number
        )
        return max(digest, code)

    def on_sink(self, ctx: PacketContext, digest: int) -> None:
        """Deliver the decoded bottleneck utilisation."""
        value = self.codec.decode(digest)
        self.last_feedback[ctx.flow_id] = value
        self.feedback_count += 1
        if self.feedback is not None:
            self.feedback(ctx.flow_id, value)

    def bottleneck(self, flow_id: int) -> Optional[float]:
        """Latest decoded bottleneck utilisation for a flow."""
        return self.last_feedback.get(flow_id)
