"""What every flow of one path query shares, and its batched replay.

A sink decodes thousands of flows under *one* query: the same switch
universe, digest width, hash seed and digest representation, and --
per path length ``k`` -- the same coding scheme and derived hashes.
:class:`PathQueryContext` holds that once per sink; the per-flow
decoders (:mod:`repro.coding.decoder`) keep a reference and own only
what differs between flows: decoded hops, narrowed candidate sets and
pending XOR digests.  Building a flow's decoder therefore costs a few
empty containers instead of a universe sort, a scheme construction and
half a dozen string-hashed :class:`~repro.hashing.GlobalHash` keys.

The context is also where the per-packet encoder decisions are
replayed for a batch (:meth:`PathQueryContext.replay`).  The decision
hashes derive from the root seed only, never from the flow or its path
length, so one pass serves rows of any mix of flows: the fixpoint peel
(:mod:`repro.coding.peel`) hands it the rows of every still-converging
flow of a batch at once.  Flows whose path is already decoded need far
less -- only which hop a Baseline row carries
(:meth:`PathQueryContext.baseline_carriers`), shared across flows the
same way.  Both are driven by the sink's
:class:`~repro.coding.store.PathStateStore`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Set, Tuple

import numpy as np

from repro.coding.decisions import DecisionReplay
from repro.coding.encoder import HASH, CodecContext
from repro.coding.schemes import CodingScheme, multilayer_scheme


class PathQueryContext:
    """Immutable per-sink state shared by every flow's path decoder.

    Parameters mirror the decoders': ``universe`` is the switch-id
    universe V (kept as a sorted, de-duplicated, read-only ``int64``
    array; empty for raw and fragment digests, which need none),
    ``scheme`` pins one coding scheme for every path length (None:
    Algorithm 1's ``multilayer_scheme(k)`` per length, matching
    encoders tuned to each flow's path), ``value_bits`` is the
    fragment layout width, ``adjacency`` the optional topology map of
    :class:`~repro.coding.decoder.HashDecoder` and ``mode`` the digest
    representation.  The only state that grows after construction is
    per path length ``k``, filled on first use of a length: the cache
    of schemes and :class:`CodecContext` s, and the decision tables of
    the context's :class:`~repro.coding.decisions.DecisionReplay`.
    """

    def __init__(
        self,
        universe: Iterable[int] = (),
        digest_bits: int = 8,
        num_hashes: int = 1,
        seed: int = 0,
        scheme: Optional[CodingScheme] = None,
        value_bits: Optional[int] = None,
        adjacency: Optional[Dict[int, Set[int]]] = None,
        mode: str = HASH,
    ) -> None:
        uni = np.asarray(sorted({int(v) for v in universe}), dtype=np.int64)
        uni.setflags(write=False)
        self.universe = uni
        self.digest_bits = digest_bits
        self.num_hashes = num_hashes
        self.seed = seed
        self.scheme = scheme
        self.value_bits = value_bits
        self.adjacency = adjacency
        self.mode = mode
        self._codecs: Dict[int, CodecContext] = {}
        self._decisions = DecisionReplay(seed, self.scheme_for)

    def __getstate__(self) -> Dict[str, Any]:
        """Everything but the decision tables: they are a pure function
        of ``(seed, scheme_for(k))`` and are rebuilt, never pickled."""
        state = self.__dict__.copy()
        del state["_decisions"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._decisions = DecisionReplay(self.seed, self.scheme_for)

    def scheme_for(self, k: int) -> CodingScheme:
        """The coding scheme flows of path length ``k`` are decoded under."""
        return self.scheme if self.scheme is not None else multilayer_scheme(k)

    def codec_for(self, k: int) -> CodecContext:
        """The derived hashes for path length ``k`` (built once per ``k``)."""
        codec = self._codecs.get(k)
        if codec is None:
            codec = CodecContext(
                self.scheme_for(k), self.digest_bits, self.num_hashes,
                self.seed,
            )
            self._codecs[k] = codec
        return codec

    def replay(
        self, pids: np.ndarray, ks: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Replay every row's encoder decisions; ``ks`` is its path length.

        What the scalar ``observe`` derives per packet -- the layer,
        the reservoir carrier (Baseline rows) and the XOR acting set
        (XOR rows) -- in one pass over rows that may belong to any mix
        of flows and path lengths, through the same
        :class:`~repro.coding.decisions.DecisionReplay` arithmetic the
        vectorised switch chain encodes with: one layer-selection
        hash, then one decision grid per kind of row, each row against
        its own ``k`` and its own scheme's XOR probability.  Lane for
        lane equal to the scalar decisions.  Returns the int64 carrier
        column (the carrier hop; 0 on XOR rows) and the ``(n,
        max(ks))`` boolean acting matrix (row ``i``, column ``h - 1``:
        hop ``h`` xor-ed into row ``i``; all False on Baseline rows).
        ``pids`` must be non-empty.
        """
        base, carried, rows, hops = self._decisions.decide(pids, ks)
        carriers = np.zeros(pids.shape[0], dtype=np.int64)
        carriers[base] = carried
        acting = np.zeros((pids.shape[0], int(ks.max())), dtype=bool)
        acting[rows, hops - 1] = True
        return carriers, acting

    def baseline_carriers(
        self, pids: np.ndarray, ks: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The rows on a Baseline layer and the hop each one carries.

        All a *complete* flow's rows need (paper §7): a Baseline row
        must carry its carrier hop's decoded block, an XOR row has no
        unknown hop left and is an exact no-op, so this is not
        :meth:`replay` (no acting sets).  ``ks[i]`` is the path length
        of row ``i``'s flow; rows may belong to any mix of flows.  One
        layer-selection hash over all rows, then the decision grid of
        the Baseline rows only
        (:class:`~repro.coding.decisions.DecisionReplay`).  Lane for
        lane the scalar ``observe`` decisions.  ``pids`` must be
        non-empty.
        """
        decisions = self._decisions
        slots = decisions.slots(pids, ks)
        base = np.flatnonzero(decisions.baseline.take(slots))
        hops = decisions.carriers(
            pids.take(base), slots.take(base), int(ks.max())
        )
        return base, hops
