"""Low-level deterministic 64-bit mixing primitives.

PINT coordinates switches *implicitly*: every switch evaluates the same
global hash function on the packet identifier and reaches the same
probabilistic decision without exchanging any bits (paper Section 4.1).
These primitives provide that global hash.  We use the splitmix64
finaliser, which passes standard avalanche tests, is cheap in pure
Python, and vectorises trivially with NumPy for bulk simulation.

Two call styles are provided throughout the package:

* scalar (`mix64`, `combine`) -- used by the readable, switch-semantics
  code paths;
* vectorised (`mix64_array`) -- used by benchmark harnesses that push
  hundreds of thousands of packets through the encoders.

Property tests assert that the two styles agree bit-for-bit.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: Mask for 64-bit wrap-around arithmetic in pure Python.
MASK64 = (1 << 64) - 1

#: Multiplicative constants of the splitmix64 finaliser.
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB
#: Golden-ratio increment used to derive per-purpose sub-keys.
GOLDEN = 0x9E3779B97F4A7C15

#: 2**-53 as a float; we keep the top 53 bits so the product is an
#: exact float strictly below 1.0 (multiplying the full 64 bits can
#: round up to exactly 1.0).
_INV53 = float(2.0 ** -53)


def mix64(x: int) -> int:
    """Apply the splitmix64 finaliser to a 64-bit integer.

    The result is a well-mixed 64-bit value; flipping any input bit
    flips each output bit with probability ~1/2.
    """
    x &= MASK64
    x = ((x ^ (x >> 30)) * _C1) & MASK64
    x = ((x ^ (x >> 27)) * _C2) & MASK64
    return x ^ (x >> 31)


def begin(seed: int) -> int:
    """Start a fold chain from a 64-bit seed."""
    return mix64((seed & MASK64) ^ GOLDEN)


def fold(acc: int, part: int) -> int:
    """Fold one integer part into an accumulated fold state."""
    return mix64((acc + GOLDEN) ^ (part & MASK64))


def combine(seed: int, *parts: int) -> int:
    """Fold integer ``parts`` into ``seed``, mixing after each fold.

    This is the scalar building block of :class:`~repro.hashing.GlobalHash`.
    The fold is order-sensitive: ``combine(s, a, b) != combine(s, b, a)``
    in general, which is what we want for (packet id, hop) style keys.
    """
    acc = begin(seed)
    for part in parts:
        acc = fold(acc, part)
    return acc


def to_unit(x: int) -> float:
    """Map a 64-bit hash to a float uniform on [0, 1)."""
    return ((x & MASK64) >> 11) * _INV53


def mix64_inplace(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser over a ``uint64`` array, in place.

    ``scratch`` is a ``uint64`` array of ``x``'s shape that receives
    the shifted copies, so a pass allocates nothing -- what a grid of
    many hops x many lanes (:func:`repro.hashing.acting_grid`) needs.
    uint64 *array* arithmetic wraps silently (only NumPy scalar
    arithmetic warns on overflow), so no ``np.errstate`` is needed.
    Returns ``x``.
    """
    np.right_shift(x, np.uint64(30), out=scratch)
    x ^= scratch
    x *= np.uint64(_C1)
    np.right_shift(x, np.uint64(27), out=scratch)
    x ^= scratch
    x *= np.uint64(_C2)
    np.right_shift(x, np.uint64(31), out=scratch)
    x ^= scratch
    return x


def mix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finaliser over a ``uint64`` array.

    ``asarray`` keeps a 0-d input on the array path.
    """
    x = np.asarray(x).astype(np.uint64, copy=True)
    return mix64_inplace(x, np.empty_like(x))


def fold_array(acc: int, parts: np.ndarray) -> np.ndarray:
    """Vectorised :func:`fold`: one part per lane, shared fold state.

    Bit-for-bit identical to the scalar path:
    ``fold_array(acc, parts)[i] == fold(acc, parts[i])``.
    """
    # The one scalar sum: wrapped as a Python int, where uint64 scalar
    # addition would warn on overflow.
    lanes = np.uint64((acc + GOLDEN) & MASK64) ^ parts.astype(np.uint64)
    return mix64_array(lanes)


def fold_zip(accs: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """Fold per-lane parts into per-lane fold states, pairwise.

    Lane-for-lane identical to the scalar path:
    ``fold_zip(accs, parts)[i] == fold(accs[i], parts[i])`` -- the
    shape needed to hash many (packet, block) pairs at once when the
    block differs per lane (mixed-path batches).
    """
    lanes = (np.asarray(accs).astype(np.uint64) + np.uint64(GOLDEN)) ^ (
        parts.astype(np.uint64)
    )
    return mix64_array(lanes)


def to_unit_array(x: np.ndarray) -> np.ndarray:
    """Vectorised map of 64-bit hashes onto [0, 1)."""
    return (x.astype(np.uint64) >> np.uint64(11)) * _INV53


@lru_cache(maxsize=4096)
def string_to_int(text: str) -> int:
    """Deterministically fold a string into a 64-bit integer.

    Used so that hash *names* ("layer-select", "xor-0", ...) derive
    independent sub-keys in a platform-stable way (``hash()`` is salted
    per process and therefore unusable).  Memoised (bounded): every
    :class:`~repro.hashing.GlobalHash` construction folds its name,
    and a program uses a handful of names.
    """
    acc = 0
    for byte in text.encode("utf-8"):
        acc = mix64((acc + GOLDEN) ^ byte)
    return acc
