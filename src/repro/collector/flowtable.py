"""Per-shard flow state: LRU/TTL-bounded table of digest consumers.

A production sink cannot keep state for every flow it ever saw; the
paper's storage argument (O(1) digests per packet, bounded per-flow
state) only pays off if the collector also *bounds the number of live
flows*.  The table enforces two orthogonal limits:

* ``max_flows`` -- hard capacity; inserting past it evicts the least
  recently touched flow (LRU, via ``OrderedDict`` move-to-end);
* ``ttl`` -- idle expiry; a periodic sweep evicts flows whose last
  record is older than ``ttl`` on the caller's clock (sim seconds when
  driven from the DES, ingested-record count when free-running).

Evicted state is simply dropped (the consumer is told, ``release()``,
so a store-backed flow gives its row back): PINT's decoders are
rebuildable from future packets of the same flow (every packet re-selects its layer and
carrier by global hash), so eviction costs extra packets, not
correctness -- the same trade BASEL makes between buffer occupancy and
admission (PAPERS.md).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.coding.store import narrow
from repro.collector.consumers import ConsumerFactory, DigestConsumer


class FlowEntry:
    """One live flow: its consumer plus bookkeeping."""

    __slots__ = ("flow_id", "consumer", "last_seen", "records", "generation")

    def __init__(
        self, flow_id: int, consumer: DigestConsumer, now: float, generation: int
    ) -> None:
        self.flow_id = flow_id
        self.consumer = consumer
        self.last_seen = now
        self.records = 0
        #: Table-wide creation sequence number: a re-created entry
        #: (post-eviction) always carries a higher generation than its
        #: predecessor, letting tests assert clean re-init without the
        #: table remembering every flow_id it ever saw.
        self.generation = generation


class FlowTable:
    """LRU/TTL-bounded mapping of flow_id -> :class:`FlowEntry`."""

    def __init__(
        self,
        consumer_factory: ConsumerFactory,
        max_flows: Optional[int] = None,
        ttl: Optional[float] = None,
    ) -> None:
        if max_flows is not None and max_flows < 1:
            raise ValueError("max_flows must be >= 1")
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive")
        self.consumer_factory = consumer_factory
        self.max_flows = max_flows
        self.ttl = ttl
        self._entries: "OrderedDict[int, FlowEntry]" = OrderedDict()
        # Counters surfaced in snapshots.
        self.created = 0
        self.lru_evictions = 0
        self.ttl_evictions = 0
        self._last_sweep = float("-inf")

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, flow_id: int) -> bool:
        return flow_id in self._entries

    def get(self, flow_id: int) -> Optional[FlowEntry]:
        """Look up a flow without touching LRU order."""
        return self._entries.get(flow_id)

    def touch(self, flow_id: int, now: float) -> FlowEntry:
        """Fetch-or-create the flow's entry and mark it most recent."""
        entry = self._entries.get(flow_id)
        if entry is not None:
            entry.last_seen = now
            self._entries.move_to_end(flow_id)
            return entry
        self.created += 1
        entry = FlowEntry(
            flow_id, self.consumer_factory(flow_id), now, self.created
        )
        self._entries[flow_id] = entry
        if self.max_flows is not None:
            while len(self._entries) > self.max_flows:
                self._entries.popitem(last=False)[1].consumer.release()
                self.lru_evictions += 1
        return entry

    def evict(self, flow_id: int) -> bool:
        """Drop one flow's state explicitly (e.g. on flow FIN)."""
        entry = self._entries.pop(flow_id, None)
        if entry is not None:
            entry.consumer.release()
        return entry is not None

    def expire(self, now: float) -> int:
        """Sweep out flows idle for longer than ``ttl``; return count."""
        if self.ttl is None:
            return 0
        deadline = now - self.ttl
        evicted = 0
        # Entries are LRU-ordered, so expiry stops at the first keeper.
        while self._entries:
            flow_id, entry = next(iter(self._entries.items()))
            if entry.last_seen > deadline:
                break
            del self._entries[flow_id]
            entry.consumer.release()
            evicted += 1
        self.ttl_evictions += evicted
        return evicted

    def maybe_expire(self, now: float) -> int:
        """Amortised expiry: sweep at most every ``ttl / 4`` clock units."""
        if self.ttl is None:
            return 0
        if now - self._last_sweep < self.ttl / 4.0:
            return 0
        self._last_sweep = now
        return self.expire(now)

    # -- accounting --------------------------------------------------------

    def items(self) -> Iterator[Tuple[int, FlowEntry]]:
        """Iterate (flow_id, entry), LRU-oldest first."""
        return iter(self._entries.items())

    def accounting(self) -> Tuple[int, float, int]:
        """(completed flows, coverage sum, state bytes), in one pass.

        The three snapshot aggregates over the live flows, computed by
        the consumers' own kind (``DigestConsumer.account``: a loop
        over consumer objects, column arithmetic for store rows).
        Coverage is summed in LRU order, which is the same on every
        record-identical replay, so parallel workers reproduce the
        serial sum bit-for-bit.

        State bytes: each consumer reports its own footprint, decoder
        state included -- candidate sets, decoded values, pending XOR
        entries -- as a sum of non-negative terms over live entries
        only, so it shrinks with eviction and can never go negative
        (tested invariant).  The table's own overhead is a
        *content-based* estimate (base plus a per-entry slot cost),
        never ``sys.getsizeof`` of the dict: a dict's allocated size
        depends on its insertion/deletion history, and a
        checkpoint-restored table -- same entries, fresh dict -- must
        report byte-identical snapshots (the
        ``restore(checkpoint(c)) == c`` property).
        """
        consumers = [e.consumer for e in self._entries.values()]
        n = len(consumers)
        done, coverage, nbytes = (
            type(consumers[0]).account(consumers) if n else (0, 0.0, 0)
        )
        per_entry = 96  # dict slot + FlowEntry slots, roughly
        return done, coverage, nbytes + per_entry * n + 64 + 8 * n

    def completed_flows(self) -> int:
        """Flows whose consumer currently has a decodable answer."""
        return self.accounting()[0]

    def coverage_sum(self) -> float:
        """Sum of per-flow decode coverage over live flows (dividing by
        the flow count gives the mean fraction of each flow's answer
        the sink knows)."""
        return self.accounting()[1]

    def state_bytes(self) -> int:
        """Estimated resident bytes across all live consumers."""
        return self.accounting()[2]

    # -- checkpoint/restore ------------------------------------------------

    def state_dict(self) -> dict:
        """Everything needed to rebuild this table bit-for-bit.

        Entries are captured in LRU order (oldest first) with their
        generations, so a restored table evicts the same victims in
        the same order and re-creates entries with the same sequence
        numbers a never-crashed table would have used.  The
        bookkeeping is four columns; ``consumers`` holds the consumer
        objects, which a collector whose flows are store rows replaces
        by the store's own capture (:meth:`Collector.state_dict`).
        """
        entries = list(self._entries.values())
        n = len(entries)
        return {
            "created": self.created,
            "lru_evictions": self.lru_evictions,
            "ttl_evictions": self.ttl_evictions,
            "last_sweep": self._last_sweep,
            "flow_id": narrow(np.fromiter(
                (e.flow_id for e in entries), dtype=np.int64, count=n
            )),
            "last_seen": np.fromiter(
                (e.last_seen for e in entries), dtype=np.float64, count=n
            ),
            "records": narrow(np.fromiter(
                (e.records for e in entries), dtype=np.int64, count=n
            )),
            "generation": narrow(np.fromiter(
                (e.generation for e in entries), dtype=np.int64, count=n
            )),
            "consumers": [e.consumer for e in entries],
        }

    def load_state(self, state: dict) -> None:
        """Install a :meth:`state_dict` capture, replacing live state.

        Counters are restored verbatim (``created`` keeps generation
        numbering continuous across the restart) and entries are
        reinserted in captured LRU order into a fresh dict.
        """
        for entry in self._entries.values():
            entry.consumer.release()
        self._entries = OrderedDict()
        for fid, consumer, last_seen, records, generation in zip(
            state["flow_id"].tolist(), state["consumers"],
            state["last_seen"].tolist(), state["records"].tolist(),
            state["generation"].tolist(),
        ):
            entry = FlowEntry(fid, consumer, last_seen, generation)
            entry.records = records
            self._entries[fid] = entry
        self.created = state["created"]
        self.lru_evictions = state["lru_evictions"]
        self.ttl_evictions = state["ttl_evictions"]
        self._last_sweep = state["last_sweep"]
