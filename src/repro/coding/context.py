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
flow of a batch at once, a lone decoder's ``observe_batch`` its own
rows.  Flows whose path is already decoded need far less -- only which
hop a Baseline row carries -- and get a pass of their own
(:meth:`PathQueryContext.verify`), shared across flows the same way.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.coding.encoder import HASH, CodecContext
from repro.coding.schemes import BASELINE, XOR, CodingScheme, multilayer_scheme
from repro.hashing import reservoir_carrier_zip, xor_acting_zip


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
    the per-``k`` cache of schemes and :class:`CodecContext` s, filled
    on first use of a path length.
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
        of flows and path lengths: one layer-selection hash, then one
        carrier or acting replay per layer index, each row against its
        own ``k`` and its own scheme's XOR probability.  Lane for lane
        equal to the scalar decisions (the hashes are keyed on the
        root seed and the layer index only).  Returns the int64
        carrier column (the carrier hop; 0 on XOR rows) and the
        ``(n, max(ks))`` boolean acting matrix (row ``i``, column
        ``h - 1``: hop ``h`` xor-ed into row ``i``; all False on
        Baseline rows).  ``pids`` must be non-empty.
        """
        n = int(pids.shape[0])
        lengths = np.unique(ks).tolist()
        codecs = [self.codec_for(k) for k in lengths]
        uniforms = codecs[0].select.uniform_array(pids)
        layer_idx = np.empty(n, dtype=np.int64)
        # Per-row XOR probability; 0 marks Baseline rows.
        xor_p = np.zeros(n, dtype=np.float64)
        for codec, k in zip(codecs, lengths):
            at_k = ks == k
            idx = codec.layer_of_uniforms(uniforms[at_k])
            layer_idx[at_k] = idx
            layer_p = np.asarray([
                layer.xor_p if layer.kind == XOR else 0.0
                for layer in codec.scheme.layers
            ])
            xor_p[at_k] = layer_p[idx]
        carriers = np.zeros(n, dtype=np.int64)
        acting = np.zeros((n, int(lengths[-1])), dtype=bool)
        for idx in range(int(layer_idx.max()) + 1):
            g = next(c.g[idx] for c in codecs if len(c.g) > idx)
            lane = layer_idx == idx
            base = np.flatnonzero(lane & (xor_p == 0.0))
            if base.size:
                carriers[base] = reservoir_carrier_zip(g, pids[base], ks[base])
            xor = np.flatnonzero(lane & (xor_p > 0.0))
            if xor.size:
                acts = xor_acting_zip(g, pids[xor], ks[xor], xor_p[xor])
                acting[xor, :acts.shape[1]] = acts
        return carriers, acting

    def verify(
        self,
        pids: np.ndarray,
        reps: np.ndarray,
        owner: np.ndarray,
        ks: Sequence[int],
        columns: Sequence[np.ndarray],
    ) -> np.ndarray:
        """Count, per flow, the rows that contradict its decoded path.

        The consistency check of *complete* decoders (paper §7), for
        rows of any mix of flows at once: ``owner[i]`` is the index of
        row ``i``'s flow, ``ks[j]`` flow ``j``'s path length and
        ``columns[j]`` its decoded blocks as a uint64 ``(k,)`` array.
        A Baseline row must carry its carrier hop's decoded block --
        compared outright for raw digests, re-hashed under every rep
        for hash digests; a row failing any rep counts once.  XOR rows
        of a complete decoder have no unknown hop left and are exact
        no-ops, so they are never replayed: this is not :meth:`replay`
        (no acting sets).  Returns the ``(len(ks),)`` counts.
        """
        lens = np.asarray(ks, dtype=np.int64)
        base, hops = self._baseline_carriers(pids, owner, lens)
        flow = owner[base]
        starts = np.cumsum(lens) - lens
        expected = np.concatenate(columns)[starts[flow] + hops - 1]
        got = reps[base]
        if self.mode == HASH:
            # Any codec serves: the value hashes do not depend on k.
            h = self.codec_for(int(lens[0])).h
            base_pids = pids[base]
            bad = np.zeros(base.size, dtype=bool)
            for rep in range(self.num_hashes):
                hashed = h[rep].bits_zip(self.digest_bits, base_pids, expected)
                bad |= hashed != got[:, rep]
        else:
            bad = got[:, 0] != expected
        return np.bincount(flow[bad], minlength=lens.size)

    def _baseline_carriers(
        self, pids: np.ndarray, owner: np.ndarray, ks: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The rows on a Baseline layer and the hop each one carries.

        One layer-selection hash over all rows; one cumulative walk per
        distinct layer layout (path lengths whose schemes share their
        selection shares and layer kinds walk together: the XOR
        probabilities, the only other thing a length changes, do not
        matter here); one ``reservoir_carrier_zip`` per Baseline layer
        index over the Baseline rows only, each row against its own
        flow's ``k``.  Lane for lane the scalar ``observe`` decisions.
        """
        row_ks = ks[owner]
        codecs = {k: self.codec_for(k) for k in set(ks.tolist())}
        uniforms = next(iter(codecs.values())).select.uniform_array(pids)
        walks: Dict[tuple, List[int]] = {}
        for k, codec in codecs.items():
            scheme = codec.scheme
            layout = (scheme.shares, tuple(x.kind for x in scheme.layers))
            walks.setdefault(layout, []).append(k)
        #: The row's layer index where that layer is Baseline, else -1.
        base_layer = np.full(pids.shape[0], -1, dtype=np.int64)
        for (_, kinds), lengths in walks.items():
            walked = np.zeros(max(codecs) + 1, dtype=bool)
            walked[lengths] = True
            rows = np.flatnonzero(walked[row_ks])
            idx = codecs[lengths[0]].layer_of_uniforms(uniforms[rows])
            is_base = np.asarray([kind == BASELINE for kind in kinds])
            base_layer[rows] = np.where(is_base[idx], idx, -1)
        base = np.flatnonzero(base_layer >= 0)
        base_layer = base_layer[base]
        hops = np.empty(base.size, dtype=np.int64)
        for idx in sorted({
            i for _, kinds in walks for i, kind in enumerate(kinds)
            if kind == BASELINE
        }):
            g = next(c.g[idx] for c in codecs.values() if len(c.g) > idx)
            lane = np.flatnonzero(base_layer == idx)
            rows = base[lane]
            hops[lane] = reservoir_carrier_zip(g, pids[rows], row_ks[rows])
        return base, hops
