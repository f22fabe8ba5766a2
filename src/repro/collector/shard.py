"""Hash-sharded partitioning of flow state.

A :class:`ShardRouter` maps ``flow_id -> shard`` with a keyed global
hash, so the mapping is stable across processes and restarts (the same
property the switches rely on for implicit coordination, §4.1).  Every
flow's entire record stream lands on one :class:`Shard`, which owns a
private :class:`FlowTable` -- shards share nothing, so a deployment can
pin them to worker threads/processes and scale to millions of flows
with O(1) lookups per shard.

The router's scalar and vectorised paths agree bit-for-bit (they reuse
:class:`repro.hashing.GlobalHash`'s paired APIs), so a record routed
one-at-a-time and the same record inside a columnar batch always reach
the same shard.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.collector.consumers import ConsumerFactory
from repro.collector.flowtable import FlowTable
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
    """One share-nothing partition: a flow table plus ingest counters."""

    def __init__(
        self,
        shard_id: int,
        consumer_factory: ConsumerFactory,
        max_flows: Optional[int] = None,
        ttl: Optional[float] = None,
    ) -> None:
        self.shard_id = shard_id
        self.table = FlowTable(consumer_factory, max_flows=max_flows, ttl=ttl)
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

    def mark_degraded(self, records_lost: int) -> None:
        """Record unreplayable loss against this shard."""
        self.degraded = True
        self.records_lost += int(records_lost)

    def ingest(
        self, flow_id: int, pid: int, hop_count: int, digest: int, now: float
    ) -> None:
        """Fold one record into the flow's consumer."""
        table = self.table
        row = table.touch_row(flow_id, now)
        table.store.flow_records[row] += 1
        table.view(row).consume(pid, hop_count, digest)
        self.records += 1
        table.maybe_expire(now)

    def expire(self, now: float) -> int:
        """TTL sweep of this shard's table."""
        return self.table.expire(now)

    def stats(self) -> ShardStats:
        """Counters for the metrics snapshot."""
        table = self.table
        completed, coverage_sum, state_bytes = table.accounting()
        return ShardStats(
            shard_id=self.shard_id,
            flows=len(table),
            records=self.records,
            batches=self.batches,
            created=table.created,
            lru_evictions=table.lru_evictions,
            ttl_evictions=table.ttl_evictions,
            completed_flows=completed,
            coverage_sum=coverage_sum,
            state_bytes=state_bytes,
            degraded=self.degraded,
            records_lost=self.records_lost,
        )
