"""Encoding schemes: Baseline, XOR, Hybrid interleave, Multi-layer.

A *scheme* is a probability distribution over layers plus each layer's
behaviour (paper §4.2 and Algorithm 1):

* layer 0 ("baseline") runs distributed Reservoir Sampling -- the packet
  ends up carrying a single uniformly-chosen hop's block;
* XOR layers xor each hop's block into the digest independently with a
  per-layer probability ``p_l``.

All layer and action decisions are driven by global hashes of the packet
id, so the encoder objects are stateless and the decoder can replay
every decision -- the paper's implicit-coordination requirement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List

from repro.analysis.iterated import (
    baseline_share,
    hybrid_xor_probability,
    layer_probability,
    num_xor_layers,
)
from repro.hashing import GlobalHash


#: Layer kinds.
BASELINE = "baseline"
XOR = "xor"


@dataclass(frozen=True)
class Layer:
    """One layer of a coding scheme.

    ``kind`` is :data:`BASELINE` (reservoir, ``xor_p`` ignored) or
    :data:`XOR` (independent xor with probability ``xor_p`` per hop).
    """

    kind: str
    xor_p: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in (BASELINE, XOR):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind == XOR and not 0.0 < self.xor_p <= 1.0:
            raise ValueError("xor layers need xor_p in (0, 1]")


@dataclass(frozen=True)
class CodingScheme:
    """A weighted set of layers; packets hash-select one layer each.

    Attributes
    ----------
    layers:
        The layer definitions.
    shares:
        Matching selection probabilities (must sum to 1).
    name:
        Human-readable label used by benchmarks.
    """

    layers: tuple
    shares: tuple
    name: str = "scheme"

    def __post_init__(self) -> None:
        if len(self.layers) != len(self.shares):
            raise ValueError("layers and shares must align")
        if not self.layers:
            raise ValueError("scheme needs at least one layer")
        if abs(sum(self.shares) - 1.0) > 1e-9:
            raise ValueError("shares must sum to 1")
        if any(s < 0 for s in self.shares):
            raise ValueError("shares must be non-negative")

    def layer_index(self, select: GlobalHash, packet_id: int) -> int:
        """Which layer this packet serves (identical at every hop)."""
        u = select.uniform(packet_id)
        acc = 0.0
        for idx, share in enumerate(self.shares):
            acc += share
            if u < acc:
                return idx
        return len(self.shares) - 1


def baseline_scheme() -> CodingScheme:
    """Pure Baseline: every packet reservoir-samples one hop (§4.2)."""
    return CodingScheme((Layer(BASELINE),), (1.0,), name="baseline")


def xor_scheme(p: float) -> CodingScheme:
    """Pure XOR at probability ``p`` (the paper plots p = 1/d)."""
    return CodingScheme((Layer(XOR, p),), (1.0,), name=f"xor(p={p:g})")


def hybrid_scheme(d: int, tau: float = 0.75) -> CodingScheme:
    """Interleaved Baseline + one XOR layer (§4.2 "Interleaving").

    The paper sets tau = 3/4 and xor probability
    ``log log d / log d`` (or ``1 / log d`` when d <= 15, footnote 8).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must be in (0, 1)")
    p = hybrid_xor_probability(d)
    return CodingScheme(
        (Layer(BASELINE), Layer(XOR, p)),
        (tau, 1.0 - tau),
        name=f"hybrid(d={d})",
    )


@lru_cache(maxsize=1024)
def multilayer_scheme(d: int) -> CodingScheme:
    """Algorithm 1: Baseline layer + L XOR layers with tower probabilities.

    tau = loglog*d / (1 + loglog*d); the remaining (1 - tau) is split
    evenly across layers l = 1..L with p_l = (e ↑↑ (l-1)) / d.
    Pure in ``d`` with an immutable result, so memoised: sinks,
    encoders and the sim ask for the same few path lengths per flow.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    num_layers = num_xor_layers(d)
    tau = baseline_share(d)
    layers: List[Layer] = [Layer(BASELINE)]
    shares: List[float] = [tau]
    xor_share = (1.0 - tau) / num_layers
    for level in range(1, num_layers + 1):
        layers.append(Layer(XOR, layer_probability(level, d)))
        shares.append(xor_share)
    return CodingScheme(tuple(layers), tuple(shares), name=f"multilayer(d={d})")


def improved_multilayer_scheme(d: int) -> CodingScheme:
    """Appendix A.3 revision: tau' = (1 + loglog*d) / (2 + loglog*d).

    A strictly better constant on the additive O(k) term; offered for
    the ablation benchmark.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    num_layers = num_xor_layers(d)
    lls = math.log2(max(2, num_layers + 1))  # smooth surrogate of loglog*d
    tau = (1.0 + lls) / (2.0 + lls)
    layers: List[Layer] = [Layer(BASELINE)]
    shares: List[float] = [tau]
    xor_share = (1.0 - tau) / num_layers
    for level in range(1, num_layers + 1):
        layers.append(Layer(XOR, layer_probability(level, d)))
        shares.append(xor_share)
    return CodingScheme(tuple(layers), tuple(shares), name=f"multilayer+(d={d})")
