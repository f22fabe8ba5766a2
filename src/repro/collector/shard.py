"""Hash-sharded partitioning of flow state.

A :class:`ShardRouter` maps ``flow_id -> shard`` with a keyed global
hash, so the mapping is stable across processes and restarts (the same
property the switches rely on for implicit coordination, §4.1).  Every
flow's entire record stream lands on one :class:`Shard` -- shards share
nothing but their sink's store, so a deployment can pin them to worker
threads/processes and scale to millions of flows with O(1) lookups per
shard.

A shard is a bounded index from a flow id to that flow's row in the
sink's store (:class:`repro.coding.store.RowStore`), and the single
place flows are admitted and evicted.  A production sink cannot keep
state for every flow it ever saw; the paper's storage argument (O(1)
digests per packet, bounded per-flow state) only pays off if the
collector also *bounds the number of live flows*.  Two orthogonal
limits:

* ``max_flows`` -- hard capacity; admitting past it evicts the least
  recently touched flow (LRU, via ``OrderedDict`` move-to-end);
* ``ttl`` -- idle expiry; a periodic sweep evicts flows whose last
  record is older than ``ttl`` on the caller's clock (sim seconds when
  driven from the DES, ingested-record count when free-running).

Evicted state is simply dropped (the flow's row goes back to the
store): PINT's decoders are rebuildable from future packets of the
same flow (every packet re-selects its layer and carrier by global
hash), so eviction costs extra packets, not correctness -- the same
trade BASEL makes between buffer occupancy and admission (PAPERS.md).
Most flows of a real trace are a packet or two long, so a shard mostly
*admits* flows and keeps no object per flow: the bookkeeping is three
columns of the store, and the shard is one ordered map ``flow_id ->
row`` -- the single source of LRU order -- plus its counters.

The router's scalar and vectorised paths agree bit-for-bit (they reuse
:class:`repro.hashing.GlobalHash`'s paired APIs), so a record routed
one-at-a-time and the same record inside a columnar batch always reach
the same shard.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from itertools import repeat
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.coding.store import RowStore, narrow
from repro.collector.consumers import ConsumerRows
from repro.collector.snapshot import ShardStats
from repro.hashing import GlobalHash


class ShardRouter:
    """Stable flow_id -> shard index mapping via a keyed hash."""

    def __init__(self, num_shards: int, seed: int = 0) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards
        self._hash = GlobalHash(seed, "collector-shard")

    def shard_of(self, flow_id: int) -> int:
        """Shard index for one flow."""
        return self._hash.choice(self.num_shards, flow_id)

    def shard_of_array(self, flow_ids: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`shard_of`, lane-for-lane identical."""
        return self._hash.choice_array(self.num_shards, np.asarray(flow_ids))


class Shard:
    """One share-nothing partition: an LRU/TTL-bounded map of flow_id ->
    row of the sink's ``store``, plus its counters."""

    def __init__(
        self,
        shard_id: int,
        store: RowStore,
        max_flows: Optional[int] = None,
        ttl: Optional[float] = None,
    ) -> None:
        if max_flows is not None and max_flows < 1:
            raise ValueError("max_flows must be >= 1")
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive")
        self.shard_id = shard_id
        #: Where the flows live; shared with the other shards of a sink.
        self.store = store
        self.max_flows = max_flows
        self.ttl = ttl
        #: flow_id -> row, least recently touched first.
        self.index: "OrderedDict[int, int]" = OrderedDict()
        self.created = 0
        self.lru_evictions = 0
        self.ttl_evictions = 0
        self._last_sweep = float("-inf")
        self.records = 0
        #: ingest_batch calls that touched this shard (records/batches
        #: is the snapshot's amortisation metric; the front door bumps
        #: this once per batch, not once per flow group).
        self.batches = 0
        #: Set by the supervisor when recovery could not replay every
        #: lost message for this shard (journal window exceeded): the
        #: shard keeps serving, but its answers may undercount by
        #: ``records_lost`` records.  Sticky until the process ends --
        #: degradation is a fact about the data, not a transient.
        self.degraded = False
        self.records_lost = 0

    def __len__(self) -> int:
        return len(self.index)

    def mark_degraded(self, records_lost: int) -> None:
        """Record unreplayable loss against this shard."""
        self.degraded = True
        self.records_lost += int(records_lost)

    # -- admission ---------------------------------------------------------

    def touch_row(self, flow_id: int, now: float) -> int:
        """Fetch-or-admit the flow, mark it most recent; return its row.

        An admitted flow's row carries the shard-wide creation sequence
        number as its ``generation``: a flow re-admitted after eviction
        always reads a higher one than its predecessor.
        """
        index, store = self.index, self.store
        row = index.get(flow_id)
        if row is not None:
            index.move_to_end(flow_id)
        else:
            self.created += 1
            index[flow_id] = row = store.alloc(flow_id)
            store.generation[row] = self.created
            if self.max_flows is not None:
                while len(index) > self.max_flows:
                    store.release(index.popitem(last=False)[1])
                    self.lru_evictions += 1
        store.last_seen[row] = now
        return row

    def touch_many(
        self, flow_ids: np.ndarray, counts: np.ndarray, now: float
    ) -> np.ndarray:
        """Touch a batch's flows, ``counts[i]`` records each; return rows.

        ``flow_ids`` must ascend without repeats: the shard ends up
        where touching them one by one in that order (``records +=
        count`` after each) leaves it, and that order has to be one
        every replay of the batch reproduces -- LRU order is what
        eviction, the coverage sum and a checkpoint read.  Misses take
        their rows in one allocation, the columns are written once,
        and order maintenance is one C-level pass over the map.  Only
        a batch that overflows ``max_flows`` is order-sensitive
        *within* itself (an early flow may be a later one's victim):
        it goes one flow at a time, and a flow the batch itself
        evicted again comes back as row -1.
        """
        index, store = self.index, self.store
        ids = flow_ids.tolist()
        found = list(map(index.get, ids, repeat(-1)))
        misses = found.count(-1)
        if self.max_flows is not None and len(index) + misses > self.max_flows:
            for flow_id, count in zip(ids, counts.tolist()):
                row = self.touch_row(flow_id, now)
                store.flow_records[row] += count
            found = list(map(index.get, ids, repeat(-1)))
            return np.asarray(found, dtype=np.int64)
        rows = np.asarray(found, dtype=np.int64)
        if misses:
            new = np.flatnonzero(rows < 0)
            rows[new] = fresh = store.alloc_many(flow_ids[new])
            store.generation[fresh] = np.arange(
                self.created + 1, self.created + misses + 1
            )
            self.created += misses
            index.update(zip(flow_ids[new].tolist(), fresh.tolist()))
        if misses < len(ids):
            # New flows are at the end by now; moving every flow there
            # in turn leaves the batch in ascending order.
            deque(map(index.move_to_end, ids), maxlen=0)
        store.last_seen[rows] = now
        store.flow_records[rows] += counts
        return rows

    # -- eviction ----------------------------------------------------------

    def _drop(self, flow_ids: List[int]) -> int:
        """Forget ``flow_ids`` (all live) and free their rows."""
        self.store.release_many([self.index.pop(fid) for fid in flow_ids])
        return len(flow_ids)

    def evict(self, flow_id: int) -> bool:
        """Drop one flow's state explicitly (e.g. on flow FIN)."""
        return flow_id in self.index and self._drop([flow_id]) == 1

    def expire(self, now: float) -> int:
        """Sweep out flows idle for longer than ``ttl``; return count."""
        if self.ttl is None:
            return 0
        deadline = now - self.ttl
        last_seen = self.store.last_seen
        dead: List[int] = []
        # The map is LRU-ordered, so expiry stops at the first keeper.
        for flow_id, row in self.index.items():
            if last_seen[row] > deadline:
                break
            dead.append(flow_id)
        self.ttl_evictions += self._drop(dead)
        return len(dead)

    def maybe_expire(self, now: float) -> int:
        """Amortised expiry: sweep at most every ``ttl / 4`` clock units."""
        if self.ttl is None:
            return 0
        if now - self._last_sweep < self.ttl / 4.0:
            return 0
        self._last_sweep = now
        return self.expire(now)

    def clear(self) -> None:
        """Drop every flow (counters stay): the first half of a restore."""
        self._drop(list(self.index))

    # -- accounting --------------------------------------------------------

    def rows(self) -> np.ndarray:
        """The live flows' rows, LRU-oldest first."""
        return np.fromiter(
            self.index.values(), dtype=np.int64, count=len(self.index)
        )

    def accounting(self) -> Tuple[int, float, int]:
        """(completed flows, coverage sum, state bytes), in one pass.

        The three snapshot aggregates over the live flows, computed by
        the store (``account``: column arithmetic, or a loop over
        consumer objects).  Coverage is summed in LRU order, which is
        the same on every record-identical replay, so parallel workers
        reproduce the serial sum bit-for-bit.

        State bytes: each flow is charged its own footprint, decoder
        state included, as a sum of non-negative terms over live flows
        only, so it shrinks with eviction and can never go negative
        (tested invariant).  The index's own overhead is a
        *content-based* estimate (base plus a per-entry slot cost,
        pinned when a flow was a dict slot and an entry object), never
        ``sys.getsizeof`` of the dict: a dict's allocated size depends
        on its insertion/deletion history, and a checkpoint-restored
        shard must report byte-identical snapshots (the
        ``restore(checkpoint(c)) == c`` property).
        """
        n = len(self.index)
        done, coverage, nbytes = (
            self.store.account(self.rows()) if n else (0, 0.0, 0)
        )
        per_entry = 96
        return done, coverage, nbytes + per_entry * n + 64 + 8 * n

    def stats(self) -> ShardStats:
        """Counters for the metrics snapshot."""
        completed, coverage_sum, state_bytes = self.accounting()
        return ShardStats(
            shard_id=self.shard_id,
            flows=len(self.index),
            records=self.records,
            batches=self.batches,
            created=self.created,
            lru_evictions=self.lru_evictions,
            ttl_evictions=self.ttl_evictions,
            completed_flows=completed,
            coverage_sum=coverage_sum,
            state_bytes=state_bytes,
            degraded=self.degraded,
            records_lost=self.records_lost,
        )

    # -- checkpoint/restore ------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Everything needed to rebuild this shard's index bit-for-bit.

        Flows are captured in LRU order (oldest first) with their
        generations, so a restored shard evicts the same victims in
        the same order and admits flows with the same sequence numbers
        a never-crashed shard would have used.  The bookkeeping is
        four column slices; ``consumers`` holds the consumer objects,
        or -- flows whose state is the store's to capture
        (:meth:`Collector.state_dict`) -- how many there are.  The
        ingest counters and degradation marks are the collector's to
        capture beside this.
        """
        rows, store = self.rows(), self.store
        return {
            "created": self.created,
            "lru_evictions": self.lru_evictions,
            "ttl_evictions": self.ttl_evictions,
            "last_sweep": self._last_sweep,
            "flow_id": narrow(store.flow_id[rows]),
            "last_seen": store.last_seen[rows],
            "records": narrow(store.flow_records[rows]),
            "generation": narrow(store.generation[rows]),
            "consumers": (
                store.of(rows) if isinstance(store, ConsumerRows) else len(rows)
            ),
        }

    def load_state(
        self, state: Dict[str, Any], rows: Optional[np.ndarray] = None
    ) -> None:
        """Install a :meth:`state_dict` capture, replacing live flows.

        Counters are restored verbatim (``created`` keeps generation
        numbering continuous across the restart) and flows are
        reinserted in captured LRU order into a fresh map.  ``rows``
        are the store rows already holding the captured flows' state
        (a collector loads its column store first); without them the
        captured consumer objects get rows here.
        """
        self.clear()
        store = self.store
        flow_ids = state["flow_id"].astype(np.int64)
        if rows is None:
            if not isinstance(store, ConsumerRows):
                raise TypeError("a column store's rows are its collector's to load")
            rows = store.alloc_many(flow_ids, state["consumers"])
        else:
            store.flow_id[rows] = flow_ids
        store.last_seen[rows] = state["last_seen"]
        store.flow_records[rows] = state["records"]
        store.generation[rows] = state["generation"]
        self.index = OrderedDict(zip(flow_ids.tolist(), rows.tolist()))
        self.created = state["created"]
        self.lru_evictions = state["lru_evictions"]
        self.ttl_evictions = state["ttl_evictions"]
        self._last_sweep = state["last_sweep"]
