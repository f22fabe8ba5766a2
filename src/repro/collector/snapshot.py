"""Metrics export: point-in-time snapshots of collector state.

The operational surface a monitoring stack scrapes: per-shard flow
counts, ingest counters, eviction counters, decode-completion rates and
estimated resident bytes, plus whole-collector aggregates.  Snapshots
are plain frozen dataclasses -- cheap to take, trivially serialisable
(``as_dict``) and comparable in tests.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Iterable, List, Optional

from repro.obs.metrics import merge_metrics


@dataclass(frozen=True)
class ShardStats:
    """One shard's counters at snapshot time."""

    shard_id: int
    flows: int
    records: int
    batches: int
    created: int
    lru_evictions: int
    ttl_evictions: int
    completed_flows: int
    state_bytes: int
    #: Sum of per-flow decode coverage (see
    #: :attr:`DigestConsumer.coverage`) over the shard's live flows --
    #: the decode-under-loss aggregate impaired replays degrade.
    coverage_sum: float = 0.0
    #: True when worker recovery exceeded the replay-journal window
    #: for this shard: it keeps serving, but ``records_lost`` records
    #: were neither restored nor replayed and its answers may
    #: undercount.  Always False/0 on a fault-free run, so degraded
    #: accounting never perturbs bit-identity assertions.
    degraded: bool = False
    records_lost: int = 0

    @property
    def completion_rate(self) -> float:
        """Fraction of live flows with a decodable answer."""
        return self.completed_flows / self.flows if self.flows else 0.0

    @property
    def mean_coverage(self) -> float:
        """Mean per-flow decode coverage (NaN with no live flows)."""
        return self.coverage_sum / self.flows if self.flows else float("nan")


@dataclass(frozen=True)
class ServiceStats:
    """Network front-door counters (see :mod:`repro.service.server`).

    The wire boundary can lose work the in-process collector never
    could -- a malformed datagram, a frame from a future protocol
    version, an admission queue already full -- and each loss reason
    gets its own counter so operators can tell overload
    (``dropped_queue_full``) from version skew (``dropped_bad_version``)
    from corruption (``dropped_bad_frame``, which also counts a data
    frame without ``FLAG_RELIABLE``: the server admits only the
    exactly-once stream).  ``dropped_queue_full`` counts backpressure
    events, not loss: a frame that meets a full queue is parked
    unacked and re-admitted on the sender's retransmit.
    """

    frames_received: int = 0
    records_ingested: int = 0
    batches_ingested: int = 0
    acks_sent: int = 0
    duplicate_frames: int = 0
    dropped_queue_full: int = 0
    dropped_bad_version: int = 0
    dropped_bad_frame: int = 0
    #: Reliable frames beyond the per-peer reorder window (a sender
    #: too far ahead of a stalled stream); unacked, so retransmitted.
    dropped_window: int = 0


@dataclass(frozen=True)
class RecoveryStats:
    """Supervision counters (see :mod:`repro.collector.parallel`).

    The fault-tolerance ledger: how often workers were restarted, how
    much checkpoint/journal machinery ran, and what -- if anything --
    was actually lost.  Rides on :attr:`Snapshot.recovery` with
    ``compare=False`` (like :attr:`Snapshot.metrics`): a recovered run
    and a fault-free run with bit-identical collector state must still
    compare equal, restarts and all.
    """

    #: Worker processes replaced (restore + journal replay each).
    restarts: int = 0
    #: Checkpoints accepted / rejected (dropped write, bad CRC, ...).
    checkpoints_taken: int = 0
    checkpoints_rejected: int = 0
    #: Journal messages / records re-sent to replacement workers.
    replayed_batches: int = 0
    replayed_records: int = 0
    #: Journal evictions (checkpointing was failing): *potential* loss.
    journal_dropped_batches: int = 0
    journal_dropped_records: int = 0
    #: Shards currently marked degraded and their summed actual loss
    #: (filled from the merged shard stats at snapshot time).
    degraded_shards: int = 0
    records_lost: int = 0


@dataclass(frozen=True)
class Snapshot:
    """Whole-collector view: per-shard stats + aggregates.

    ``service`` is populated only by the network front door
    (:meth:`repro.service.server.CollectorServer.snapshot`); snapshots
    taken straight off a collector carry ``None`` there, so in-process
    and behind-the-wire snapshots of the same collector state still
    compare equal on every shard counter.

    ``metrics`` carries the owning registry's dump
    (:meth:`~repro.obs.metrics.MetricsRegistry.as_dict`) when the
    collector was built with ``obs=``; it is excluded from equality
    *and* from :meth:`as_dict` on purpose -- metrics contain wall-time
    histograms, and two bit-identical collector states must keep
    comparing equal regardless of how long their runs took.  Read it
    explicitly (or via the query port's ``metrics`` verb).
    """

    taken_at: float
    shards: List[ShardStats] = field(default_factory=list)
    service: Optional[ServiceStats] = None  # repro-lint: disable=R004 reason=wire counters are part of the delivery contract the service benches assert on, so service is deliberately equality-bearing
    metrics: Optional[Dict] = field(default=None, compare=False)
    #: Supervision ledger (restarts, replay volume, loss) attached by
    #: a supervised :class:`~repro.collector.parallel.
    #: ParallelCollector`; ``compare=False`` and excluded from
    #: :meth:`as_dict` for the same reason as ``metrics`` -- how a
    #: state was *reached* (cleanly or through recovery) must never
    #: break equality of bit-identical states.
    recovery: Optional[RecoveryStats] = field(default=None, compare=False)

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def flows(self) -> int:
        """Live flows across all shards."""
        return sum(s.flows for s in self.shards)

    @property
    def records(self) -> int:
        """Records ingested since construction."""
        return sum(s.records for s in self.shards)

    @property
    def evictions(self) -> int:
        """LRU + TTL evictions across all shards."""
        return sum(s.lru_evictions + s.ttl_evictions for s in self.shards)

    @property
    def completed_flows(self) -> int:
        """Flows with a decodable answer across all shards."""
        return sum(s.completed_flows for s in self.shards)

    @property
    def completion_rate(self) -> float:
        """Decode-completion rate over all live flows."""
        flows = self.flows
        return self.completed_flows / flows if flows else 0.0

    @property
    def coverage_sum(self) -> float:
        """Summed per-flow decode coverage across all shards."""
        return sum(s.coverage_sum for s in self.shards)

    @property
    def mean_coverage(self) -> float:
        """Mean per-flow decode coverage across all live flows.

        NaN when no flows are live (e.g. every flow of an impaired
        replay was fully dropped); JSON writers must route snapshots
        through :func:`repro.jsonutil.jsonable`, which serialises
        the NaN as null instead of crashing strict parsers.
        """
        flows = self.flows
        return self.coverage_sum / flows if flows else float("nan")

    @property
    def state_bytes(self) -> int:
        """Estimated resident consumer state, bytes."""
        return sum(s.state_bytes for s in self.shards)

    @property
    def max_shard_flows(self) -> int:
        """Hottest shard's flow count (skew / balance check)."""
        return max((s.flows for s in self.shards), default=0)

    @property
    def degraded_shards(self) -> List[int]:
        """Shard ids currently marked degraded (empty when healthy)."""
        return [s.shard_id for s in self.shards if s.degraded]

    @property
    def records_lost(self) -> int:
        """Records recovery could not restore or replay, all shards."""
        return sum(s.records_lost for s in self.shards)

    @classmethod
    def merged(
        cls,
        parts: Iterable["Snapshot"],
        taken_at: Optional[float] = None,
    ) -> "Snapshot":
        """Merge partial snapshots over *disjoint* shard subsets.

        The parallel collector scatters shards across worker processes;
        each worker snapshots only the shards it owns, and this merge
        reassembles the whole-collector view -- shard lists are
        concatenated and ordered by ``shard_id``, so the result is
        field-for-field identical to the snapshot a single-process
        collector over the same shards would have taken.  Overlapping
        shard ids are rejected (a shard's counters live in exactly one
        worker; summing duplicates would double-count).

        ``taken_at`` defaults to the latest part (workers trail the
        front-door clock only by in-flight batches; pass the front
        door's own clock for an exact stamp).

        Per-part ``metrics`` registries fold via
        :func:`~repro.obs.metrics.merge_metrics` -- parts carrying
        ``None`` (an uninstrumented worker) contribute nothing, and
        when *every* part carries ``None`` the merged field stays
        ``None``.  Worker snapshots carry no ``service`` or
        ``recovery`` part: the front door and the supervisor attach
        those to the merged whole.
        """
        parts = list(parts)
        shards = [s for p in parts for s in p.shards]
        ids = [s.shard_id for s in shards]
        if len(set(ids)) != len(ids):
            raise ValueError(
                "cannot merge snapshots with overlapping shard ids "
                f"(got {sorted(ids)})"
            )
        if taken_at is None:
            taken_at = max((p.taken_at for p in parts), default=0.0)
        return cls(
            taken_at=taken_at,
            shards=sorted(shards, key=lambda s: s.shard_id),
            metrics=merge_metrics(p.metrics for p in parts),
        )

    def with_metrics(self, extra: Optional[Dict]) -> "Snapshot":
        """This snapshot with ``extra`` metrics folded in (or as-is)."""
        if extra is None:
            return self
        return replace(self, metrics=merge_metrics([self.metrics, extra]))

    def with_recovery(
        self, recovery: Optional["RecoveryStats"]
    ) -> "Snapshot":
        """This snapshot with the supervision ledger attached (or as-is)."""
        if recovery is None:
            return self
        return replace(self, recovery=recovery)

    def as_dict(self) -> Dict:
        """JSON-friendly dump, aggregates included."""
        return {
            "taken_at": self.taken_at,
            "flows": self.flows,
            "records": self.records,
            "evictions": self.evictions,
            "completed_flows": self.completed_flows,
            "completion_rate": self.completion_rate,
            "coverage_sum": self.coverage_sum,
            # None (JSON null), not NaN, when no flows are live: the
            # dump stays strict-JSON and snapshot dicts stay ==-
            # comparable (NaN != NaN would break the serial/parallel
            # equivalence assertions on idle collectors).
            "mean_coverage": self.mean_coverage if self.flows else None,
            "state_bytes": self.state_bytes,
            # Healthy runs dump [] / 0 here, so degraded accounting
            # never perturbs the bit-identity comparisons bench gates
            # make on these dicts.  `recovery` itself is deliberately
            # excluded, like `metrics`: it describes the journey, not
            # the state.
            "degraded_shards": self.degraded_shards,
            "records_lost": self.records_lost,
            "shards": [asdict(s) for s in self.shards],
            "service": asdict(self.service) if self.service else None,  # repro-lint: disable=R004 reason=service is equality-bearing (see field declaration), so it serializes with the answer
        }
