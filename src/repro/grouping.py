"""Linear-time stable grouping of int64 columns.

Scoring a replay groups whole-trace columns by flow id: the congestion
truth per flow, the set of path-query flows, and the per-flow reorder
count of a delivery schedule.  A sink groups every batch (or run of
batches) it folds by flow id too, and counts the distinct rows its
records name (:func:`distinct`).  A comparison sort of a million-row
flow-id column costs tens of milliseconds; the flow ids of a trace
span few distinct values, so a radix sort over 16-bit digits -- which
NumPy's stable argsort already is for 16-bit dtypes -- does the same
work in one or two linear passes.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Bits per radix digit: NumPy's ``kind="stable"`` argsort is a radix
#: sort for dtypes of at most 16 bits, so every digit pass is O(n).
_DIGIT_BITS = 16


def stable_order(keys: np.ndarray) -> np.ndarray:
    """Exactly ``np.argsort(keys, kind="stable")`` for an int64 column.

    An LSD radix sort over the 16-bit digits of ``keys - keys.min()``
    (wrapped to uint64, so full-range keys need no special case).  The
    number of passes follows the key span: one pass below 2**16, four
    for full-range 64-bit keys.  Every pass is a stable sort of one
    digit, so ties keep their input order, as the stable argsort's do.
    """
    keys = np.asarray(keys, dtype=np.int64)
    if keys.shape[0] == 0:
        return np.zeros(0, dtype=np.intp)
    offset = (keys - keys.min()).view(np.uint64)
    top = int(offset.max())
    # astype(uint16) keeps the low 16 bits: the digit under the shift.
    order: np.ndarray = np.argsort(offset.astype(np.uint16), kind="stable")
    shift = _DIGIT_BITS
    while top >> shift:
        digit = (offset[order] >> np.uint64(shift)).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += _DIGIT_BITS
    return order


def run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Boolean column: where each run of equal sorted keys begins."""
    starts = np.ones(sorted_keys.shape[0], dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    return starts


def sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` for an int64 column: the runs of its order."""
    ordered = np.asarray(keys, dtype=np.int64)[stable_order(keys)]
    return ordered[run_starts(ordered)]


def distinct(keys: np.ndarray, span: int) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct values of an int64 column of values in ``[0, span)``,
    ascending, and how many times each occurs.

    Counted in one pass over ``span`` when that is within a few times
    the column's length, else found by one sort: either way the work is
    in the keys, not in whatever range they index (a sink's records
    name rows of a store that may hold far more flows than a batch).
    """
    if span <= 8 * keys.shape[0]:
        counts = np.bincount(keys, minlength=span)
        values = np.flatnonzero(counts)
        return values, counts[values]
    ordered = np.sort(keys)
    first = np.flatnonzero(run_starts(ordered))
    return ordered[first], np.diff(np.append(first, ordered.shape[0]))
