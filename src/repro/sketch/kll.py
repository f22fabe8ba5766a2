"""KLL streaming quantile sketch (Karnin-Lang-Liberty, FOCS 2016).

The paper's Recording Module compresses each (flow, hop) sampled
substream with "the state of the art KLL sketch [39]" (§6.2) so that
per-flow storage is O(eps^-1) instead of one entry per packet.  This is
a from-scratch implementation of the classic compactor hierarchy:

* level ``l`` holds items with weight ``2**l``;
* a full compactor sorts its buffer, keeps every other item (random
  offset), and promotes survivors to level ``l+1``;
* capacities decay geometrically (``c**(H-l)``) so total space is
  O(k_param / (1-c)).

``quantile(phi)`` answers rank queries with additive rank error
O(1/k_param) with high probability.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Tuple

import numpy as np

#: Buffers at least this long sort via NumPy during compaction; below
#: it, ``list.sort`` wins.  Either sort promotes the same multiset
#: (equal floats are indistinguishable), so the estimator is unchanged.
_NUMPY_SORT_MIN = 512


class KLLSketch:
    """Mergeable quantile sketch over a numeric stream.

    Parameters
    ----------
    k_param:
        Top-compactor capacity; space and accuracy knob.  Rank error is
        ~ O(1/k_param).  The paper's "100 digests" sketch corresponds to
        k_param ~= 100.
    c:
        Capacity decay per level below the top (2/3 is the published
        default).
    rng:
        Optional random source (for the coin flips of each compaction);
        pass a seeded :class:`random.Random` for determinism.
    """

    def __init__(
        self,
        k_param: int = 128,
        c: float = 2.0 / 3.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if k_param < 4:
            raise ValueError("k_param must be >= 4")
        if not 0.5 < c < 1.0:
            raise ValueError("c must be in (0.5, 1)")
        self.k_param = k_param
        self.c = c
        self._rng = rng if rng is not None else random.Random(0x4B4C4C)
        #: compactors[l] is the buffer of items at weight 2**l.
        self._compactors: List[List[float]] = [[]]
        self._size = 0
        self._count = 0

    # -- core operations ---------------------------------------------------

    def update(self, value: float) -> None:
        """Insert one stream item."""
        self._compactors[0].append(float(value))
        self._size += 1
        self._count += 1
        if self._size > self._max_size():
            self._compress()

    def extend(self, values: Iterable[float]) -> None:
        """Insert many stream items.

        Compacts after every insertion exactly as a stream of
        :meth:`update` calls would, so scalar-pinned streams replay
        unchanged.
        """
        for v in values:
            self.update(v)

    def merge(self, other: "KLLSketch") -> None:
        """Fold ``other`` into this sketch (same-weight buffers concat)."""
        while len(self._compactors) < len(other._compactors):
            self._compactors.append([])
        for level, buf in enumerate(other._compactors):
            self._compactors[level].extend(buf)
        self._count += other._count
        self._size = sum(len(b) for b in self._compactors)
        while self._size > self._max_size():
            self._compress()

    # -- queries -------------------------------------------------------------

    def quantile(self, phi: float) -> float:
        """Estimate the phi-quantile (phi in [0, 1]) of the stream."""
        if not 0.0 <= phi <= 1.0:
            raise ValueError("phi must be in [0, 1]")
        items = self._weighted_items()
        if not items:
            raise ValueError("empty sketch")
        total = sum(w for _, w in items)
        target = phi * total
        acc = 0
        for value, weight in items:
            acc += weight
            if acc >= target:
                return value
        return items[-1][0]

    def rank(self, value: float) -> float:
        """Estimated fraction of stream items <= value."""
        items = self._weighted_items()
        if not items:
            raise ValueError("empty sketch")
        total = sum(w for _, w in items)
        below = sum(w for v, w in items if v <= value)
        return below / total

    def cdf(self, values: Iterable[float]) -> List[float]:
        """Ranks for a sorted list of probe values."""
        return [self.rank(v) for v in values]

    @property
    def count(self) -> int:
        """Number of items inserted (exact)."""
        return self._count

    @property
    def size(self) -> int:
        """Number of (value, weight) pairs currently stored."""
        return self._size

    def stored_bytes(self, bytes_per_item: int = 4) -> int:
        """Approximate memory footprint, for the Fig. 9 sweeps."""
        return self._size * bytes_per_item

    # -- internals -------------------------------------------------------------

    def _capacity(self, level: int) -> int:
        height = len(self._compactors) - 1
        cap = int(self.k_param * (self.c ** (height - level))) + 1
        return max(2, cap)

    def _max_size(self) -> int:
        return sum(self._capacity(lv) for lv in range(len(self._compactors)))

    def _compress(self) -> None:
        for level, buf in enumerate(self._compactors):
            if len(buf) >= self._capacity(level):
                if level + 1 == len(self._compactors):
                    self._compactors.append([])
                offset = self._rng.randint(0, 1)
                if len(buf) >= _NUMPY_SORT_MIN:
                    srt = np.sort(np.asarray(buf, dtype=np.float64))
                    promoted = srt[offset::2].tolist()
                else:
                    buf.sort()
                    promoted = buf[offset::2]
                self._compactors[level + 1].extend(promoted)
                self._compactors[level] = []
                self._size = sum(len(b) for b in self._compactors)
                return

    def _weighted_items(self) -> List[Tuple[float, int]]:
        items: List[Tuple[float, int]] = []
        for level, buf in enumerate(self._compactors):
            weight = 1 << level
            items.extend((v, weight) for v in buf)
        items.sort(key=lambda pair: pair[0])
        return items
