"""Global hash functions and implicit-coordination helpers (paper §4.1).

Public surface:

* :class:`GlobalHash` -- seedable network-wide hash with scalar and
  vectorised APIs.
* :func:`reservoir_write` / :func:`reservoir_carrier` -- the distributed
  Reservoir Sampling rule and its collector-side inverse.
* :func:`xor_acting_hops` -- which hops xor a given packet.
* :func:`unit_threshold` / :func:`threshold_walk` / :func:`acting_grid`
  -- the same coins in array form: every ``uniform < p`` as an exact
  integer compare, a whole column's ``(hop, packet)`` grid in one pass
  (the kernels :class:`repro.coding.decisions.DecisionReplay`, the one
  array form of the decisions above, is built from).
* :mod:`repro.hashing.bitvector` -- the O(log k)/packet decode variant.
"""

from repro.hashing.global_hash import (
    GlobalHash,
    acting_grid,
    cumulative_thresholds,
    lane_blocks,
    last_acting,
    reservoir_carrier,
    reservoir_write,
    threshold_walk,
    unit_threshold,
    xor_acting_hops,
)
from repro.hashing.bitvector import (
    acting_hops_fast,
    acting_mask,
    random_bitvector,
    set_bits,
)
from repro.hashing import mix

__all__ = [
    "GlobalHash",
    "unit_threshold",
    "cumulative_thresholds",
    "threshold_walk",
    "lane_blocks",
    "acting_grid",
    "last_acting",
    "reservoir_write",
    "reservoir_carrier",
    "xor_acting_hops",
    "acting_hops_fast",
    "acting_mask",
    "random_bitvector",
    "set_bits",
    "mix",
]
