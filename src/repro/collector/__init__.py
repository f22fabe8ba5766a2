"""Sink-side streaming telemetry collector (the servable PINT sink).

The paper makes per-packet digests tiny by moving reconstruction work
to the sink (§3-§4); this subpackage is that sink as a service layer:
a :class:`Collector` front door routing ``(flow_id, pid, hop_count,
digest)`` records to hash-sharded, share-nothing partitions, each
an LRU/TTL-bounded :class:`Shard` index from a flow id to the
flow's row in the sink's store, where per-flow state lives as columns
or as :class:`DigestConsumer` objects that wrap the existing decoders
(path peeling, latency KLL, congestion max).  Batched columnar ingestion
(:meth:`Collector.ingest_batch`) amortises per-record overhead and
folds a batch's path and congestion flows into their sink's column
store in array passes (:func:`repro.collector.consumers.fold_rows`)
-- bit-identical to the scalar reference decoders; a
:class:`Snapshot` surface exports operational metrics and
``answers()`` returns the per-flow answers as an :class:`AnswerTable`
of columns (:mod:`repro.collector.answers`).  For multi-core
sinks, :class:`ParallelCollector` scatters batches across worker
processes by shard partition with bit-identical merged results (see
:mod:`repro.collector.parallel`).

See DESIGN.md ("Collector architecture") for the layer diagram and
``examples/collector_service.py`` for an end-to-end run.
"""

from repro.collector.answers import AnswerTable
from repro.collector.collector import Collector, IngestClock
from repro.collector.consumers import (
    CongestionDigestConsumer,
    DigestConsumer,
    LatencyDigestConsumer,
    PathDigestConsumer,
    congestion_consumer_factory,
    latency_consumer_factory,
    path_consumer_factory,
)
from repro.collector.parallel import ParallelCollector
from repro.collector.records import MAX_HOPS, TelemetryRecord, normalize_batch
from repro.collector.recovery import (
    CHECKPOINT_VERSION,
    BatchJournal,
    capture_checkpoint,
    read_checkpoint,
    restore_collector,
    write_checkpoint,
)
from repro.collector.shard import Shard, ShardRouter
from repro.collector.snapshot import (
    RecoveryStats,
    ServiceStats,
    ShardStats,
    Snapshot,
)

__all__ = [
    "AnswerTable",
    "BatchJournal",
    "CHECKPOINT_VERSION",
    "Collector",
    "CongestionDigestConsumer",
    "DigestConsumer",
    "IngestClock",
    "LatencyDigestConsumer",
    "MAX_HOPS",
    "ParallelCollector",
    "PathDigestConsumer",
    "RecoveryStats",
    "ServiceStats",
    "Shard",
    "ShardRouter",
    "ShardStats",
    "Snapshot",
    "TelemetryRecord",
    "capture_checkpoint",
    "congestion_consumer_factory",
    "latency_consumer_factory",
    "normalize_batch",
    "path_consumer_factory",
    "read_checkpoint",
    "restore_collector",
    "write_checkpoint",
]
