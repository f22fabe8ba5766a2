"""Hash-sharded partitioning of flow state.

A :class:`ShardRouter` maps ``flow_id -> shard`` with a keyed global
hash, so the mapping is stable across processes and restarts (the same
property the switches rely on for implicit coordination, §4.1).  Every
flow's entire record stream lands on one :class:`Shard` -- shards share
nothing but their sink's store, so a deployment can pin them to worker
threads/processes and scale to millions of flows with O(1) lookups per
shard.

A shard is the bounded share of a sink's flows that one partition
holds, and the single place flows are admitted and evicted.  A
production sink cannot keep state for every flow it ever saw; the
paper's storage argument (O(1) digests per packet, bounded per-flow
state) only pays off if the collector also *bounds the number of live
flows*.  Two orthogonal limits:

* ``max_flows`` -- hard capacity; admitting past it evicts the least
  recently touched flow (LRU);
* ``ttl`` -- idle expiry; a periodic sweep evicts flows whose last
  record is older than ``ttl`` on the caller's clock (sim seconds when
  driven from the DES, ingested-record count when free-running).

Evicted state is simply dropped (the flow's row goes back to the
store): PINT's decoders are rebuildable from future packets of the
same flow (every packet re-selects its layer and carrier by global
hash), so eviction costs extra packets, not correctness -- the same
trade BASEL makes between buffer occupancy and admission (PAPERS.md).

Most flows of a real trace are a packet or two long, so a shard mostly
*admits* flows and keeps no object per flow, nor a map of its own:
the sink's store (:class:`repro.coding.store.RowStore`) holds the one
flow index and, per row, the bookkeeping -- the admitting shard's id
and a touch stamp among them.  A shard's LRU order is its rows by
stamp (:meth:`Shard.rows`), which snapshots and checkpoints read; a
TTL sweep drops the rows stamped before the first keeper without
ordering the rest, and one with no flow due (its deadline precedes the
shard's lower bound on ``last_seen``) reads no column at all.  A shard
with ``max_flows`` also keeps an oldest-first queue of ``(stamp, row)``
touches whose stale entries are skipped as they surface, so picking a
capacity victim never scans the shard.
:func:`touch_flows` admits and touches a whole batch's flows across a
sink's shards in array passes.

The router's scalar and vectorised paths agree bit-for-bit (they reuse
:class:`repro.hashing.GlobalHash`'s paired APIs), so a record routed
one-at-a-time and the same record inside a columnar batch always reach
the same shard.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Optional, Sequence, Tuple

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
    """One share-nothing partition: the LRU/TTL bounds and counters of
    the flows it holds, which are rows of the sink's ``store``."""

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
        self.flows = 0
        self.created = 0
        self.lru_evictions = 0
        self.ttl_evictions = 0
        self._last_sweep = float("-inf")
        #: A lower bound on the flows' ``last_seen`` (+inf: no flows,
        #: -inf: unknown): a sweep whose deadline precedes it has
        #: nothing to expire and reads no column.
        self._oldest = float("inf")
        #: With ``max_flows``: ``(stamp, row)`` per touch, oldest first,
        #: an entry stale once its row's stamp moved on (stamps are
        #: never reused).  A bounded shard is only touched by
        #: :meth:`touch_row` and :meth:`load_state`, which both feed it.
        self._lru: Deque[Tuple[int, int]] = deque()
        self.records = 0
        #: Batches that touched this shard, each batch of a run on its
        #: own (records/batches is the snapshot's amortisation metric;
        #: the front door bumps this once per batch, not once per flow
        #: group).
        self.batches = 0
        #: Set by the supervisor when recovery could not replay every
        #: lost message for this shard (journal window exceeded): the
        #: shard keeps serving, but its answers may undercount by
        #: ``records_lost`` records.  Sticky until the process ends --
        #: degradation is a fact about the data, not a transient.
        self.degraded = False
        self.records_lost = 0

    def __len__(self) -> int:
        return self.flows

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
        store = self.store
        row = store.index.find_one(flow_id)
        if row < 0:
            self.created += 1
            self.flows += 1
            row = store.admit_one(flow_id, self.shard_id)
            store.generation[row] = self.created
        stamp = store.restamp_one(row)
        store.last_seen[row] = now
        if now < self._oldest:
            self._oldest = now
        if self.max_flows is not None:
            lru = self._lru
            lru.append((stamp, row))
            if len(lru) > 2 * self.flows + 64:
                stamps = store.stamp
                self._lru = deque(
                    entry for entry in lru if stamps[entry[1]] == entry[0]
                )
            while self.flows > self.max_flows:
                self._evict_oldest()
        return row

    def _evict_oldest(self) -> None:
        """Drop the least recently touched flow (capacity pressure)."""
        store = self.store
        lru, stamps = self._lru, store.stamp
        while True:
            stamp, row = lru.popleft()
            if stamps.item(row) == stamp:
                break
        store.release(row)
        self.flows -= 1
        self.lru_evictions += 1

    # -- eviction ----------------------------------------------------------

    def _drop(self, rows: np.ndarray) -> int:
        """Forget the flows in ``rows`` (all this shard's), free the rows."""
        release = self.store.release
        for row in rows.tolist():
            release(row)
        self.flows -= rows.shape[0]
        return int(rows.shape[0])

    def evict(self, flow_id: int) -> bool:
        """Drop one flow's state explicitly (e.g. on flow FIN)."""
        store = self.store
        row = store.index.find_one(flow_id)
        if row < 0 or store.shard[row] != self.shard_id:
            return False
        store.release(row)
        self.flows -= 1
        return True

    def expire(self, now: float) -> int:
        """Sweep out flows idle for longer than ``ttl``; return count."""
        if self.ttl is None:
            return 0
        deadline = now - self.ttl
        if deadline < self._oldest:
            return 0
        store = self.store
        held = np.flatnonzero(store.shard[:store.rows] == self.shard_id)
        stamps = store.stamp[held]
        seen = store.last_seen[held]
        # Expiry takes the LRU prefix up to the first keeper: the flows
        # touched before every keeper.  Only those are put in order.
        keep = seen > deadline
        self._oldest = float("inf")
        if keep.any():
            gone = stamps < stamps[keep].min()
            self._oldest = float(seen[~gone].min())
            if not gone.any():
                return 0
            held, stamps = held[gone], stamps[gone]
        dead = self._drop(held[np.argsort(stamps)])
        self.ttl_evictions += dead
        return dead

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
        self._drop(self.rows())
        self._lru.clear()

    # -- accounting --------------------------------------------------------

    def rows(self) -> np.ndarray:
        """The live flows' rows, LRU-oldest first."""
        return self.store.shard_rows(self.shard_id)

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
        the allocated size of a table: that depends on its
        insertion/deletion history, and a checkpoint-restored shard
        must report byte-identical snapshots (the
        ``restore(checkpoint(c)) == c`` property).
        """
        n = self.flows
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
            flows=self.flows,
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
        """Everything needed to rebuild this shard's flows bit-for-bit.

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
        numbering continuous across the restart) and the flows are
        indexed and stamped in captured LRU order.  ``rows`` are the
        store rows already holding the captured flows' state (a
        collector loads its column store first); without them the
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
        store.enter(rows, self.shard_id)
        store.restamp(rows)
        if self.max_flows is not None:
            self._lru.extend(zip(store.stamp[rows].tolist(), rows.tolist()))
        self.flows = int(rows.shape[0])
        self.created = state["created"]
        self.lru_evictions = state["lru_evictions"]
        self.ttl_evictions = state["ttl_evictions"]
        self._last_sweep = state["last_sweep"]
        self._oldest = float("-inf")


def touch_flows(
    shards: Sequence[Shard],
    flow_ids: np.ndarray,
    shard_ids: np.ndarray,
    rows: np.ndarray,
    counts: np.ndarray,
    now: float,
) -> np.ndarray:
    """Touch a batch's flows across a sink's shards; return their rows.

    ``flow_ids`` ascend without repeats, ``shard_ids`` route them,
    ``rows`` are what the store's index answered (-1: a flow to admit;
    filled in here) and ``counts`` the records each flow gets.  The shards end up where
    touching the flows one by one -- shard-major, then by ascending
    flow id, ``records += count`` after each -- leaves them, and that
    order has to be one every replay of the batch reproduces: LRU order
    is what the coverage sum, a checkpoint and a TTL sweep read.
    Within a shard that order is ascending flow id, so one stamp pass
    in array order writes it.  The misses are admitted as one
    allocation, shard-major, and the columns are written once.
    Capacity eviction is order-sensitive within a batch (an early flow
    may be a later one's victim), so the shards must be unbounded; a
    bounded sink admits its flows with :meth:`Shard.touch_row`, record
    by record in batch order, and shares the rest of the batch path.
    Every shard holding flows has its sweep bound lowered to ``now``
    once: a touched shard needs it, and for the rest it is a no-op
    unless ``now`` steps back (an empty shard's stays +inf).
    """
    store = shards[0].store
    miss = np.flatnonzero(rows < 0)
    if miss.size:
        sids = shard_ids[miss]
        # Shard ids are small: a stable sort on a narrow type is a
        # radix sort.
        order = np.argsort(
            sids.astype(np.min_scalar_type(len(shards) - 1)), kind="stable"
        )
        miss, sids = miss[order], sids[order]
        per_shard = np.bincount(sids, minlength=len(shards))
        created = np.asarray([shard.created for shard in shards], dtype=np.int64)
        # Each shard numbers its new flows on from its own count.
        rank = np.arange(miss.shape[0]) - (np.cumsum(per_shard) - per_shard)[sids]
        rows[miss] = fresh = store.admit(flow_ids[miss], sids)
        store.generation[fresh] = created[sids] + rank + 1
        for shard, new in zip(shards, per_shard.tolist()):
            if new:
                shard.created += new
                shard.flows += new
    for shard in shards:
        if shard.flows and now < shard._oldest:
            shard._oldest = now
    store.restamp(rows)
    store.last_seen[rows] = now
    store.flow_records[rows] += counts
    return rows
