"""Global hash functions for implicit switch coordination (paper §4.1).

A :class:`GlobalHash` is a keyed hash known to every switch and to the
Inference Module.  Applying it to a packet identifier (and optionally a
hop number) lets all parties agree on probabilistic outcomes -- which
query set a packet serves, whether hop ``i`` samples the packet, which
fragment a packet carries -- without spending a single header bit on
coordination.

Three named hashes from the paper map onto instances of this class:

* ``q`` -- query-selection hash on packet ids (§4.1);
* ``g`` -- per-(packet, hop) action hash used by reservoir sampling and
  the XOR layers (§4.1, §4.2);
* ``h`` -- (value, packet id) compression hash used to squeeze wide
  values into ``q``-bit digests (§4.2, "Reducing the Bit-overhead using
  Hashing").
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator, Sequence, Union

import numpy as np

from repro.hashing import mix

#: Accepted key-part types; strings are folded via :func:`mix.string_to_int`.
Part = Union[int, str, bytes]

#: 2**53 as a float: the scale between a unit draw and its integer form.
_TWO53 = float(2.0 ** 53)

#: Cap on the elements of one block of a hop-major decision grid
#: (hops x lanes); callers cut their lanes with :func:`lane_blocks`, so
#: a grid's uint64 temporaries are half a MiB each -- cache-resident --
#: whatever the column and path lengths.  Measured, not a knob: one
#: 400k-lane grid costs 1.3-1.6x a blocked one (DESIGN.md section 3).
#: Whole-trace row passes (``lane_blocks(rows, 1)``) use the same
#: block, so their temporaries do not grow with the trace; the replay
#: loop encodes row blocks of about half of it.
GRID_BLOCK = 1 << 16


def _as_int(part: Part) -> int:
    """Normalise a key part to a 64-bit integer."""
    if isinstance(part, int):
        return part & mix.MASK64
    if isinstance(part, str):
        return mix.string_to_int(part)
    if isinstance(part, bytes):
        return mix.string_to_int(part.decode("latin-1"))
    raise TypeError(f"unsupported hash part type: {type(part)!r}")


class GlobalHash:
    """A deterministic, seedable hash function shared network-wide.

    Parameters
    ----------
    seed:
        Integer key.  Two instances with the same seed and name are the
        same function on every machine and in every process.
    name:
        Optional purpose label ("g", "h", "query-select", ...) folded
        into the key, so independent hashes can be derived from one seed.
    """

    __slots__ = ("seed", "name", "_key")

    def __init__(self, seed: int = 0, name: str = "") -> None:
        self.seed = seed
        self.name = name
        self._key = mix.combine(seed, mix.string_to_int(name))

    def derive(self, name: str) -> "GlobalHash":
        """Return an independent hash derived from this one.

        Used, e.g., to derive per-layer XOR hashes or the two
        independent hashes of the ``2x(b=8)`` path-tracing variant.
        """
        return GlobalHash(self._key, name)

    # -- scalar API ------------------------------------------------------

    def raw(self, *parts: Part) -> int:
        """Return the 64-bit hash of the given key parts."""
        return mix.combine(self._key, *[_as_int(p) for p in parts])

    def uniform(self, *parts: Part) -> float:
        """Return a float uniform on [0, 1), determined by ``parts``."""
        return mix.to_unit(self.raw(*parts))

    def bits(self, width: int, *parts: Part) -> int:
        """Return a ``width``-bit digest value (an int in [0, 2**width))."""
        if not 1 <= width <= 64:
            raise ValueError("width must be in [1, 64]")
        return self.raw(*parts) >> (64 - width)

    def bernoulli(self, p: float, *parts: Part) -> bool:
        """Return True with probability ``p``, determined by ``parts``.

        This is the paper's ``g(p_j, i) < p`` test: every switch
        evaluating the same parts reaches the same verdict.
        """
        return self.uniform(*parts) < p

    def choice(self, n: int, *parts: Part) -> int:
        """Return an index uniform on {0, ..., n-1}."""
        if n <= 0:
            raise ValueError("n must be positive")
        return int(self.uniform(*parts) * n)

    def weighted_choice(self, weights: Sequence[float], *parts: Part) -> int:
        """Return index i with probability weights[i] / sum(weights).

        Used by the Query Engine to pick which query set a packet
        serves, per the execution-plan distribution (§3.4).
        """
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("weights must have positive sum")
        u = self.uniform(*parts) * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if u < acc:
                return i
        return len(weights) - 1

    # -- vectorised API --------------------------------------------------

    def raw_array(self, parts: np.ndarray, *salts: Part) -> np.ndarray:
        """Vectorised :meth:`raw` over one integer part per lane.

        ``salts`` are folded first, so ``raw_array(pids, hop)`` equals
        ``[raw(hop, pid) for pid in pids]`` bit-for-bit.
        """
        acc = mix.begin(self._key)
        for salt in salts:
            acc = mix.fold(acc, _as_int(salt))
        return mix.fold_array(acc, np.asarray(parts))

    def uniform_array(self, parts: np.ndarray, *salts: Part) -> np.ndarray:
        """Vectorised :meth:`uniform`."""
        return mix.to_unit_array(self.raw_array(parts, *salts))

    def draws_array(self, parts: np.ndarray, *salts: Part) -> np.ndarray:
        """:meth:`uniform_array` in integer form: each lane's 53-bit draw.

        ``draws_array(...)[i] * 2**-53 == uniform_array(...)[i]``
        exactly, so ``uniform < p`` is ``draw < unit_threshold(p)``.
        """
        return self.raw_array(parts, *salts) >> np.uint64(11)

    def hop_salts(self, top: int) -> np.ndarray:
        """What hops ``1..top`` fold into a packet id before the mix.

        ``raw(hop, pid) == mix64(hop_salts(top)[hop - 1] ^ pid)``: the
        per-hop column a decision grid (:func:`acting_grid`) is built
        from, so every ``(packet, hop)`` coin of a column costs one
        xor and one shared mix pass.
        """
        hops = np.arange(1, top + 1, dtype=np.uint64)
        return mix.fold_array(mix.begin(self._key), hops) + np.uint64(mix.GOLDEN)

    def bits_array(self, width: int, parts: np.ndarray, *salts: Part) -> np.ndarray:
        """Vectorised :meth:`bits`."""
        if not 1 <= width <= 64:
            raise ValueError("width must be in [1, 64]")
        return self.raw_array(parts, *salts) >> np.uint64(64 - width)

    def bits_zip(
        self, width: int, first_parts: np.ndarray, second_parts: np.ndarray
    ) -> np.ndarray:
        """Per-lane (first, second) key pairs: h(first_i, second_i).

        Lane-for-lane equal to ``[bits(width, f, s) for f, s in
        zip(first_parts, second_parts)]`` -- the shape needed to hash
        many packets each against its *own* block value, as a batch
        mixing several paths requires.
        """
        if not 1 <= width <= 64:
            raise ValueError("width must be in [1, 64]")
        accs = mix.fold_array(mix.begin(self._key), np.asarray(first_parts))
        return mix.fold_zip(accs, np.asarray(second_parts)) >> np.uint64(
            64 - width
        )

    def bits_outer(
        self, width: int, first_parts: np.ndarray, second_parts: np.ndarray
    ) -> np.ndarray:
        """Every (first, second) pairing: ``out[i, j] = h(first_i, second_j)``.

        Entry for entry equal to ``bits(width, first_parts[i],
        second_parts[j])`` -- the shape needed to hash many packets
        each against a whole value universe (the candidate filter of a
        batch's converging flows, :mod:`repro.coding.peel`).
        """
        if not 1 <= width <= 64:
            raise ValueError("width must be in [1, 64]")
        accs = mix.fold_array(mix.begin(self._key), np.asarray(first_parts))
        return mix.fold_zip(
            accs[:, None], np.asarray(second_parts)[None, :]
        ) >> np.uint64(64 - width)

    def uniform_zip(
        self, first_parts: np.ndarray, second_parts: np.ndarray
    ) -> np.ndarray:
        """Per-lane (first, second) key pairs, mapped onto [0, 1).

        Lane-for-lane equal to ``[uniform(f, s) for f, s in
        zip(first_parts, second_parts)]`` -- the ``(packet, hop)``
        keyed coins the randomized-rounding compressors draw in bulk,
        each record with its own hop count.
        """
        accs = mix.fold_array(mix.begin(self._key), np.asarray(first_parts))
        return mix.to_unit_array(mix.fold_zip(accs, np.asarray(second_parts)))

    def choice_array(self, n: int, parts: np.ndarray, *salts: Part) -> np.ndarray:
        """Vectorised :meth:`choice`: uniform indices on {0, ..., n-1}.

        Lane-for-lane identical to the scalar uniform->index mapping
        ``int(uniform(*salts, part) * n)``; the shared scale-and-floor
        used by shard routing and fragment selection, kept here so no
        caller hand-rolls (and drifts from) the mapping.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        return (self.uniform_array(parts, *salts) * n).astype(np.int64)


def unit_threshold(p: Union[float, np.ndarray]) -> np.ndarray:
    """The integer ``T`` with ``to_unit(x) < p  <=>  (x >> 11) < T``.

    ``to_unit(x) = (x >> 11) * 2**-53`` is exact in float64 and so is
    ``p * 2**53``, hence over the integers the coin ``uniform < p`` is
    the compare ``draw < ceil(p * 2**53)`` -- exactly, for every ``x``
    and every float ``p``.  ``p <= 0`` gives 0 (never); ``p >= 1``
    gives ``2**53``, above every draw (always: hop 1's ``1/1``).
    Elementwise over an array of probabilities; uint64 either way.
    """
    return np.ceil(np.clip(p, 0.0, 1.0) * _TWO53).astype(np.uint64)


def cumulative_thresholds(probs: Sequence[float]) -> np.ndarray:
    """:func:`unit_threshold` of every partial sum of ``probs``.

    The scalar walks over a distribution (execution-plan entries,
    coding layers) accumulate ``acc += p`` left to right and stop at
    the first ``u < acc``; these are the same partial sums, in the same
    float accumulation order, as integer thresholds.
    """
    return unit_threshold(np.asarray(list(accumulate(probs)), dtype=np.float64))


def threshold_walk(draws: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """How many of each lane's thresholds are at or below its draw.

    ``thresholds`` is ``(m, n)`` -- or ``(m, 1)``, shared by all lanes
    -- and non-decreasing down each column, as partial sums of
    non-negative shares are; the count is then the first index whose
    threshold exceeds the draw, i.e. where the scalar cumulative walk
    stops, and ``m`` where it runs off the end.
    """
    return (thresholds <= draws).sum(axis=0)


def lane_blocks(lanes: int, top: int) -> Iterator[slice]:
    """Cut ``lanes`` columns into slices of at most ``GRID_BLOCK // top``."""
    step = max(1, GRID_BLOCK // max(1, top))
    for lo in range(0, lanes, step):
        yield slice(lo, lo + step)


def acting_grid(
    salts: np.ndarray, packet_ids: np.ndarray, thresholds: np.ndarray
) -> np.ndarray:
    """Every ``(hop, packet)`` coin of a column at once, hop-major.

    ``salts`` is :meth:`GlobalHash.hop_salts` as a ``(top, 1)`` column
    (one hash for every lane) or gathered per lane as ``(top, n)``;
    ``thresholds`` broadcasts against ``(top, n)`` likewise.  Entry
    ``[h - 1, i]`` of the boolean result is ``g(packet_i, h) <
    p[h - 1, i]`` for the ``p`` behind the thresholds
    (:func:`unit_threshold`): one xor, one in-place mix pass and one
    integer compare for the whole grid.
    """
    grid = salts ^ packet_ids
    mix.mix64_inplace(grid, np.empty_like(grid))
    grid >>= np.uint64(11)
    return grid < thresholds


def last_acting(grid: np.ndarray) -> np.ndarray:
    """The last acting hop of every column of a grid (0: none acts).

    On a Baseline grid this is the reservoir carrier.  Reduced in the
    narrowest unsigned dtype that holds the grid's height.
    """
    top = grid.shape[0]
    hops = np.arange(1, top + 1, dtype=np.min_scalar_type(top))
    last = (grid.view(np.uint8) * hops[:, None]).max(axis=0, initial=0)
    return last.astype(np.int64)


def reservoir_write(g: GlobalHash, packet_id: Part, hop: int) -> bool:
    """Does hop ``hop`` (1-based) overwrite the digest of this packet?

    Implements the distributed Reservoir Sampling rule of §4.1: hop ``i``
    writes iff ``g(packet, i) < 1/i``.  Hop 1 always writes, so a packet
    that traversed at least one hop always carries a sample.
    """
    if hop < 1:
        raise ValueError("hop numbers are 1-based")
    return g.uniform(hop, packet_id) < 1.0 / hop


def reservoir_carrier(g: GlobalHash, packet_id: Part, path_len: int) -> int:
    """Which hop's value does the packet carry after ``path_len`` hops?

    The carrier is the *last* hop that wrote, i.e.
    ``max{ i : g(packet, i) < 1/i }``.  The Recording Module runs exactly
    this computation to attribute each digest to a hop (§4.1), which is
    the implicit switch/collector coordination trick of the paper.
    Returns a 1-based hop index; uniform on {1..path_len}.
    """
    carrier = 1
    for hop in range(2, path_len + 1):
        if reservoir_write(g, packet_id, hop):
            carrier = hop
    return carrier


def xor_acting_hops(
    g: GlobalHash, packet_id: Part, path_len: int, p: float
) -> list:
    """Hops (1-based) that xor this packet under XOR probability ``p``.

    Each hop acts independently iff ``g(packet, i) < p`` (§4.2); the
    Recording Module recomputes this set to drive the peeling decoder.
    """
    return [i for i in range(1, path_len + 1) if g.uniform(i, packet_id) < p]
