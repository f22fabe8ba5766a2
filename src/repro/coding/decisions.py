"""One replay of the per-packet coding decisions, for switch chain and sink.

PINT spends no header bit on coordination because every switch and the
Inference Module evaluate the *same* global hashes of the packet id
(paper §4.1--§4.2): which layer the packet serves, ``g(p_j, i) < 1/i``
for the reservoir of a Baseline layer, ``g(p_j, i) < p`` for an XOR
layer.  The scalar forms -- :meth:`CodingScheme.layer_index`,
:func:`~repro.hashing.reservoir_carrier`,
:func:`~repro.hashing.xor_acting_hops` -- are the specification.
:class:`DecisionReplay` is their one array form: the vectorised switch
chain (:func:`repro.coding.encoder.encode_columns`) and the sink's
batch decoders (:class:`repro.coding.context.PathQueryContext`) both
read it, so the two sides agree by construction.

Every coin is an integer compare (:func:`~repro.hashing.unit_threshold`)
and every table is indexed by a *slot*: one per ``(path length k,
layer)``.  The decision hashes key on the root seed and the layer
index only, never on ``k``, so one pass serves a column mixing rows of
any path lengths; a length not seen before extends the tables, which
are a pure function of ``(seed, scheme_for(k))``.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

import numpy as np

from repro.coding.schemes import BASELINE, CodingScheme
from repro.hashing import (
    GlobalHash,
    acting_grid,
    cumulative_thresholds,
    lane_blocks,
    last_acting,
    threshold_walk,
    unit_threshold,
)

#: A layer threshold no draw reaches (the threshold of ``p = 1`` is
#: above every draw): pads the cut table of schemes with fewer layers
#: than the tallest one seen.
_NEVER = unit_threshold(1.0)


class DecisionReplay:
    """Layer, carrier and acting hops of every row of a column.

    ``seed`` is the root seed the encoders and decoders derive their
    hashes from (:class:`repro.coding.encoder.CodecContext`) and
    ``scheme_for(k)`` the coding scheme of ``k``-hop paths.  Rows are
    described by two columns -- uint64 packet ids and int64 path
    lengths -- and decided in two steps (:meth:`decide` runs both):
    :meth:`slots` draws the layer of every row (one hash pass), then
    :meth:`carriers` (Baseline rows) and :meth:`pairs` (XOR rows)
    build the hop-major grid of their ``(hop, packet)`` coins, a lane
    block at a time.  :attr:`baseline` says which of the two a slot
    takes.
    """

    def __init__(
        self, seed: int, scheme_for: Callable[[int], CodingScheme]
    ) -> None:
        self._root = GlobalHash(seed, "pint")
        self._select = self._root.derive("layer-select")
        self._scheme_for = scheme_for
        #: Action hash of each layer index met so far.
        self._g: List[GlobalHash] = []
        #: Path length -> its first slot (-1: not tabulated yet).
        self._first_slot = np.full(1, -1, dtype=np.int64)
        #: Path length -> thresholds of its first L-1 partial layer
        #: shares, one column per length (:data:`_NEVER` below them).
        self._cuts = np.empty((0, 1), dtype=np.uint64)
        #: Per slot: is the layer a Baseline (reservoir) layer?
        self.baseline = np.empty(0, dtype=bool)
        #: Per (hop - 1, slot): the fold salt of the slot's layer hash
        #: at that hop, and the threshold the hop acts under -- ``1/h``
        #: on a Baseline layer, ``xor_p`` on an XOR layer, 0 (never)
        #: past the slot's own path length.
        self._salt = np.empty((0, 0), dtype=np.uint64)
        self._act = np.empty((0, 0), dtype=np.uint64)

    # -- tables --------------------------------------------------------------

    def _tabulate(self, k: int) -> None:
        """Append the slots of path length ``k``; earlier slots keep
        their numbers and their entries."""
        scheme = self._scheme_for(k)
        layers = scheme.layers
        height = max(k, self._salt.shape[0])
        grown = height - self._salt.shape[0]
        if grown:
            # No earlier slot is that long: it never acts down there.
            self._salt = np.pad(self._salt, ((0, grown), (0, 0)))
            self._act = np.pad(self._act, ((0, grown), (0, 0)))
        while len(self._g) < len(layers):
            self._g.append(self._root.derive(f"g-layer{len(self._g)}"))
        hops = np.arange(1, k + 1)
        salt = np.empty((height, len(layers)), dtype=np.uint64)
        act = np.zeros((height, len(layers)), dtype=np.uint64)
        for idx, layer in enumerate(layers):
            salt[:, idx] = self._g[idx].hop_salts(height)
            p = 1.0 / hops if layer.kind == BASELINE else layer.xor_p
            act[:k, idx] = unit_threshold(p)
        self._first_slot[k] = self.baseline.shape[0]
        self._salt = np.concatenate((self._salt, salt), axis=1)
        self._act = np.concatenate((self._act, act), axis=1)
        self.baseline = np.concatenate(
            (self.baseline, [layer.kind == BASELINE for layer in layers])
        )
        # The last layer saturates (the scalar walk's fallback), so
        # only the first L-1 partial sums cut.
        cuts = cumulative_thresholds(scheme.shares[:-1])
        taller = cuts.shape[0] - self._cuts.shape[0]
        if taller > 0:
            self._cuts = np.pad(
                self._cuts, ((0, taller), (0, 0)), constant_values=_NEVER
            )
        self._cuts[:cuts.shape[0], k] = cuts

    def _first_slots(self, ks: np.ndarray) -> np.ndarray:
        """Each row's first slot, tabulating path lengths new to us."""
        if int(ks.min()) < 1:
            raise ValueError("path lengths are 1-based")
        longer = int(ks.max()) + 1 - self._first_slot.shape[0]
        if longer > 0:
            self._first_slot = np.pad(
                self._first_slot, (0, longer), constant_values=-1
            )
            self._cuts = np.pad(
                self._cuts, ((0, 0), (0, longer)), constant_values=_NEVER
            )
        first = self._first_slot.take(ks)
        if int(first.min()) < 0:
            for k in np.unique(ks[first < 0]).tolist():
                self._tabulate(k)
            first = self._first_slot.take(ks)
        return first

    # -- decisions -----------------------------------------------------------

    def slots(self, pids: np.ndarray, ks: np.ndarray) -> np.ndarray:
        """The slot -- ``(path length, layer)`` -- of every row.

        One layer-selection hash over the column; a row's layer is the
        count of its own scheme's partial-share thresholds at or below
        its draw, which is where :meth:`CodingScheme.layer_index`
        stops, saturating last layer included.
        """
        if not ks.shape[0]:
            return np.empty(0, dtype=np.int64)
        first = self._first_slots(ks)
        draws = self._select.draws_array(pids)
        return first + threshold_walk(draws, self._cuts.take(ks, axis=1))

    def acting(
        self, pids: np.ndarray, slots: np.ndarray, top: int
    ) -> np.ndarray:
        """The hop-major ``(top, n)`` grid: does hop ``h`` act on row ``i``?

        ``top`` is at least the longest path among the rows and at most
        the longest tabulated.  Entry ``[h - 1, i]`` is the scalar
        ``g.uniform(h, pid_i) < 1/h`` (Baseline slot) or ``< xor_p``
        (XOR slot), False past the row's own path length.
        """
        return acting_grid(
            self._salt[:top].take(slots, axis=1),
            pids.astype(np.uint64, copy=False),
            self._act[:top].take(slots, axis=1),
        )

    def carriers(
        self, pids: np.ndarray, slots: np.ndarray, top: int
    ) -> np.ndarray:
        """The reservoir carrier of every (Baseline) row: the last hop
        that wrote, as :func:`~repro.hashing.reservoir_carrier`."""
        out = np.empty(pids.shape[0], dtype=np.int64)
        for lanes in lane_blocks(pids.shape[0], top):
            out[lanes] = last_acting(
                self.acting(pids[lanes], slots[lanes], top)
            )
        return out

    def pairs(
        self, pids: np.ndarray, slots: np.ndarray, top: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Every acting ``(row, hop)`` of the (XOR) rows, row-major.

        Row ``i``'s pairs are contiguous and list the hops of
        :func:`~repro.hashing.xor_acting_hops` in ascending order, so
        a ``reduceat`` over the runs of the row column folds what the
        pairs contribute; a row no hop acts on has no pair.
        """
        rows: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
        hops: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
        for lanes in lane_blocks(pids.shape[0], top):
            grid = self.acting(pids[lanes], slots[lanes], top)
            row, hop = np.divmod(np.flatnonzero(grid.T), top)
            rows.append(row + lanes.start)
            hops.append(hop + 1)
        return np.concatenate(rows), np.concatenate(hops)

    def decide(
        self, pids: np.ndarray, ks: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every decision of a (non-empty) column, both kinds of row.

        Returns ``(base, carriers, rows, hops)``: the rows on a
        Baseline layer with the hop each one carries, and every acting
        ``(row, hop)`` pair of the rows on an XOR layer, row-major as
        :meth:`pairs` lists them.  What the switch chain writes and
        what the sink's decoders peel are both read off these four
        columns.
        """
        top = int(ks.max())
        slots = self.slots(pids, ks)
        on_base = self.baseline.take(slots)
        base = np.flatnonzero(on_base)
        xor = np.flatnonzero(~on_base)
        carriers = self.carriers(pids.take(base), slots.take(base), top)
        rows, hops = self.pairs(pids.take(xor), slots.take(xor), top)
        return base, carriers, xor.take(rows), hops
