"""Execution plans: the Query Engine's output (paper §3.4, Fig. 3).

An :class:`ExecutionPlan` is a probability distribution over *query
sets*; every switch hashes the packet id against this distribution to
decide which queries act on the packet, so all switches agree without
communication.  Each set's cumulative bit budget must fit the global
per-packet budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.query import Query
from repro.exceptions import BudgetError
from repro.hashing import (
    GlobalHash,
    cumulative_thresholds,
    lane_blocks,
    threshold_walk,
)


@dataclass(frozen=True)
class PlanEntry:
    """One (query set, probability) row of the execution plan."""

    queries: Tuple[Query, ...]
    probability: float

    def bits(self) -> int:
        """Cumulative digest bits of this set."""
        return sum(q.bit_budget for q in self.queries)


class ExecutionPlan:
    """A validated distribution over query sets.

    Parameters
    ----------
    entries:
        The (query set, probability) rows.  Probabilities must sum to at
        most 1 (the remainder maps to "no query on this packet").
    global_budget:
        The per-packet digest width every row must respect.
    seed:
        Seed of the set-selection global hash.
    """

    def __init__(
        self,
        entries: Sequence[PlanEntry],
        global_budget: int,
        seed: int = 0,
    ) -> None:
        if global_budget < 1:
            raise BudgetError("global budget must be >= 1 bit")
        total_p = sum(e.probability for e in entries)
        if total_p > 1.0 + 1e-9:
            raise BudgetError(f"plan probabilities sum to {total_p:.4f} > 1")
        for entry in entries:
            if entry.bits() > global_budget:
                raise BudgetError(
                    f"query set {[q.name for q in entry.queries]} needs "
                    f"{entry.bits()} bits > global budget {global_budget}"
                )
            if entry.probability <= 0:
                raise BudgetError("plan entries need positive probability")
        self.entries: List[PlanEntry] = list(entries)
        self.global_budget = global_budget
        self._select = GlobalHash(seed, "query-set-select")

    def query_frequency(self, query: Query) -> float:
        """Total probability mass carrying ``query``."""
        return sum(
            e.probability for e in self.entries if query in e.queries
        )

    def validate_frequencies(self) -> None:
        """Check every query's requested frequency is met (§3.3)."""
        seen: Dict[str, float] = {}
        for entry in self.entries:
            for q in entry.queries:
                seen[q.name] = seen.get(q.name, 0.0) + entry.probability
        queries = {q.name: q for e in self.entries for q in e.queries}
        for name, query in queries.items():
            if seen.get(name, 0.0) + 1e-9 < query.frequency:
                raise BudgetError(
                    f"query {name!r} runs on {seen.get(name, 0.0):.4f} of "
                    f"packets < requested frequency {query.frequency:.4f}"
                )

    def select(self, packet_id: int) -> Tuple[Query, ...]:
        """Query set served by this packet (same answer at every switch)."""
        u = self._select.uniform(packet_id)
        acc = 0.0
        for entry in self.entries:
            acc += entry.probability
            if u < acc:
                return entry.queries
        return ()

    def select_array(self, packet_ids: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`select`: one plan-entry index per lane.

        Returns -1 for lanes no entry claims ("no query on this
        packet").  Lane-for-lane consistent with the scalar walk --
        same hash, same cumulative-probability accumulation order, and
        ``u < acc`` as the exact integer compare of
        :func:`~repro.hashing.unit_threshold` -- so
        ``entries[select_array(p)[i]].queries == select(p[i])``
        wherever the index is non-negative.  The draws are made one
        block of lanes at a time (:func:`~repro.hashing.lane_blocks`),
        so a whole-trace column costs its ``int64`` answer plus one
        block of hash temporaries.
        """
        cuts = cumulative_thresholds([e.probability for e in self.entries])
        packet_ids = np.asarray(packet_ids)
        idx = np.empty(packet_ids.shape[0], dtype=np.int64)
        for lanes in lane_blocks(packet_ids.shape[0], 1):
            idx[lanes] = threshold_walk(
                self._select.draws_array(packet_ids[lanes]), cuts[:, None]
            )
        idx[idx == len(self.entries)] = -1
        return idx

    def digest_offset(self, queries: Tuple[Query, ...], query: Query) -> int:
        """Bit offset of ``query``'s digest inside this set's packing.

        Digests are packed low-to-high in set order; every switch and
        the sink derive identical offsets from the (deterministic) set.
        """
        offset = 0
        for q in queries:
            if q is query or q.name == query.name:
                return offset
            offset += q.bit_budget
        raise KeyError(f"{query.name!r} not in this query set")
