"""The collector front door: sharded, batched sink-side ingestion.

``Collector`` is the service boundary a telemetry sink exposes: feed it
``(flow_id, pid, hop_count, digest)`` tuples -- one at a time from a DES
hook, or in columnar batches from a capture pipeline -- and query
per-flow answers and operational metrics back out.

Three ingestion paths:

* :meth:`ingest` -- scalar; routes with one hash, touches one flow
  table entry, dispatches one consumer call.  Per-record Python
  overhead dominates at scale.
* :meth:`ingest_batch` -- columnar.  Records of flows the sink's
  column store calls *steady* (a path flow already decoded, any known
  congestion flow) are folded where they stand, without a sort; the
  rest are grouped by flow with one stable sort in C and every store
  folds its groups in array passes.  Routing, table touches and
  counters are per-*flow* work, which is where its throughput over the
  scalar loop comes from (``benchmarks/bench_decode_throughput.py``
  asserts >=5x; mirrors the vectorised-encoder work on the switch
  side).
* :meth:`ingest_run` -- batches that wait together (a replay's row
  block, a parallel worker's ring backlog) fold as one run: one index
  pass, one grouping and one peel, each batch's bookkeeping its own.

Time: every ingest accepts an optional ``now`` (sim seconds when driven
from the DES).  When omitted the collector free-runs on a logical clock
of records ingested, so TTLs are then expressed in records.  The first
ingest pins the mode; mixing the two on one collector raises (record
counts added to a seconds clock would TTL-evict everything).
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List, Optional

import numpy as np

from repro.coding.store import FALLBACK_REASONS
from repro.collector.answers import AnswerTable
from repro.collector.consumers import (
    ConsumerFactory,
    ConsumerRows,
    DigestConsumer,
    answer_rows,
    fold_rows,
    sink_store,
)
from repro.collector.records import Column, admit_batch, check_record
from repro.collector.shard import Shard, ShardRouter, touch_flows
from repro.collector.snapshot import Snapshot
from repro.exceptions import CollectorClosedError, RestoreError
from repro.grouping import distinct, run_starts, stable_order
from repro.obs.metrics import NULL_REGISTRY, SIZE_BUCKETS


class IngestClock:
    """The collector's clock: caller-driven seconds or free-running records.

    Every ingest accepts an optional ``now``; the first call pins which
    of the two units the clock runs on.  Mixing ``now``-driven and
    free-running ingests would add raw record counts onto a seconds
    clock and TTL-evict everything on the next sweep, so a mixed call
    fails loudly instead.  Factored out of :class:`Collector` so the
    multi-process front door (:class:`repro.collector.parallel.
    ParallelCollector`) ticks the *same* clock parent-side and hands
    workers an explicit ``now`` -- keeping worker TTL accounting
    bit-identical to a single-process collector.
    """

    __slots__ = ("now", "mode")

    def __init__(self) -> None:
        self.now = 0.0
        #: "time" (caller supplies now) or "records" (free-running),
        #: fixed by the first tick; the two units cannot mix.
        self.mode: Optional[str] = None

    def tick(self, now: Optional[float], records: int) -> float:
        """Advance the clock (caller time wins when given)."""
        mode = "records" if now is None else "time"
        if self.mode is None:
            self.mode = mode
        elif self.mode != mode:
            hint = "without" if now is None else "with"
            raise ValueError(
                f"collector clock is {self.mode}-driven; cannot "
                f"ingest {hint} an explicit 'now' (mixing units corrupts "
                "TTL accounting)"
            )
        if now is None:
            self.now += records
        else:
            self.now = max(self.now, float(now))
        return self.now

    def expire_time(self, now: Optional[float]) -> float:
        """Resolve an ``expire(now)`` argument under the same guard."""
        if now is None:
            return self.now
        if self.mode == "records":
            raise ValueError(
                "collector clock is records-driven; cannot expire with "
                "an explicit 'now' (mixing units corrupts TTL accounting)"
            )
        return float(now)


class Collector:
    """Sharded streaming collector over per-flow digest consumers.

    Parameters
    ----------
    consumer_factory:
        Called once per live flow to build its :class:`DigestConsumer`
        (see :mod:`repro.collector.consumers` for the three queries).
    num_shards:
        Share-nothing partitions; flows hash-route to one shard each.
    max_flows_per_shard / ttl:
        Flow-table bounds (LRU capacity, idle expiry) applied per shard.
    obs / obs_labels:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` (shared
        freely across components) and static labels distinguishing
        this collector's series (e.g. ``{"sink": "path"}``).  Omitted,
        all instrumentation collapses to shared no-ops; enabled, the
        hot path pays per-*batch* work only -- batch-size histogram,
        two stage spans (each timed in wall and in thread CPU time),
        per-batch counter bumps -- while
        eviction/creation totals and the live-flow gauge are read
        straight off the shards at export time.  Either way the
        ingested state is bit-identical (metrics observe, they never
        steer: the ``obs`` axis of ``tests/equivalence.py``), and
        ``bench_obs_overhead.py`` pins the <5% overhead ceiling.
    """

    def __init__(
        self,
        consumer_factory: ConsumerFactory,
        num_shards: int = 8,
        max_flows_per_shard: Optional[int] = None,
        ttl: Optional[float] = None,
        seed: int = 0,
        obs=None,
        obs_labels: Optional[Dict[str, str]] = None,
    ) -> None:
        # Every flow of this sink is a row of one store, shared by the
        # shards and indexed by flow id: a store of its own.
        self._store, self._view = sink_store(consumer_factory)
        #: Width of the codes this sink's flows hold (None: not codes).
        self._code_bits = self._store.code_bits
        self.router = ShardRouter(num_shards, seed)
        self.num_shards = num_shards
        self.max_flows_per_shard = max_flows_per_shard
        self.ttl = ttl
        self.shards: List[Shard] = [
            Shard(i, self._store, max_flows_per_shard, ttl)
            for i in range(self.num_shards)
        ]
        self.clock = IngestClock()
        self._closed = False
        self.obs = obs if obs is not None else NULL_REGISTRY
        self._init_obs(dict(obs_labels) if obs_labels else {})

    def _init_obs(self, labels: Dict[str, str]) -> None:
        """Bind this collector's instruments once, up front.

        Hot-path sites touch pre-bound attributes only; registry
        lookups (dict + lock) happen here, never per batch.
        """
        obs = self.obs
        self._m_records = obs.counter(
            "pint_collector_records_total",
            "Records folded into consumers", labels,
        )
        self._m_batches = obs.counter(
            "pint_collector_batches_total",
            "Batches applied (each batch of a run counts)", labels,
        )
        self._m_batch_size = obs.histogram(
            "pint_collector_batch_records",
            "Records per batch", labels, buckets=SIZE_BUCKETS,
        )
        self._m_run_batches = obs.histogram(
            "pint_collector_run_batches",
            "Batches per fold: above 1 when a backlog is folded as one "
            "run", labels, buckets=tuple(float(2 ** i) for i in range(7)),
        )
        self._sp_group = obs.span(
            "pint_collector_group_seconds",
            "Per-batch normalize + check + tick, and per-fold grouping "
            "time", labels,
        )
        self._sp_consume = obs.span(
            "pint_collector_consume_seconds",
            "Per-fold index pass, flow-table touches and consumer "
            "dispatch time", labels,
        )
        # The same two stages in this thread's CPU time: a stage whose
        # wall time runs far above its CPU time was waiting (a worker
        # descheduled on a busy box), not working.
        self._cpu_group = obs.span(
            "pint_collector_group_cpu_seconds",
            "Thread CPU time of pint_collector_group_seconds", labels,
            clock=time.thread_time,
        )
        self._cpu_consume = obs.span(
            "pint_collector_consume_cpu_seconds",
            "Thread CPU time of pint_collector_consume_seconds", labels,
            clock=time.thread_time,
        )
        self._sp_answers = obs.span(
            "pint_collector_answers_seconds",
            "Time in answers(): building (across workers: gathering and "
            "merging) the sink's AnswerTable -- the read-out cost.", labels,
        )
        self._m_answer_rows = obs.counter(
            "pint_collector_answer_rows_total",
            "Flow rows returned by answers()", labels,
        )
        self._m_fallbacks = {
            reason: obs.counter(
                "pint_collector_decode_fallback_flows_total",
                "Converging flows the batched peel handed to the scalar "
                "decoder, by reason; counted once per fold (a run of "
                "batches is one fold)",
                {**labels, "reason": reason},
            )
            for reason in FALLBACK_REASONS
        }
        # Totals that already live in the shards are *read* at export
        # time rather than double-counted on the hot path.
        shards = self.shards
        obs.counter(
            "pint_collector_flows_created_total",
            "Flow-table entries ever created", labels,
        ).set_function(lambda: sum(s.created for s in shards))
        obs.counter(
            "pint_collector_lru_evictions_total",
            "Flows evicted by LRU capacity pressure", labels,
        ).set_function(lambda: sum(s.lru_evictions for s in shards))
        obs.counter(
            "pint_collector_ttl_evictions_total",
            "Flows evicted by idle TTL", labels,
        ).set_function(lambda: sum(s.ttl_evictions for s in shards))
        obs.gauge(
            "pint_collector_live_flows",
            "Flow-table entries currently live", labels,
        ).set_function(lambda: sum(len(s) for s in shards))

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """The collector's current clock reading."""
        return self.clock.now

    # -- ingestion ---------------------------------------------------------

    def ingest(
        self,
        flow_id: int,
        pid: int,
        hop_count: int,
        digest: int,
        now: Optional[float] = None,
    ) -> None:
        """Fold one record into its flow's consumer (scalar path)."""
        self._check_open()
        flow_id, pid, hop_count, digest = check_record(
            flow_id, pid, hop_count, digest, self._code_bits
        )
        t = self.clock.tick(now, 1)
        shard = self.shards[self.router.shard_of(flow_id)]
        row = shard.touch_row(flow_id, t)
        self._store.flow_records[row] += 1
        self._view(row).consume(pid, hop_count, digest)
        shard.records += 1
        shard.maybe_expire(t)
        self._m_records.inc()

    def ingest_batch(
        self,
        flow_ids: Column,
        pids: Column,
        hop_counts: Column,
        digests: Column,
        now: Optional[float] = None,
    ) -> int:
        """Fold a columnar batch; returns the number of records.

        A batch is a run of one (:meth:`ingest_run`).  Records of the
        same flow are applied in their batch order; ordering *across*
        flows is unspecified.  Decoding state never notices (flows are
        independent problems).  Table semantics at batch granularity:

        * unbounded, no TTL -- recency order among same-batch flows is
          group order rather than record order, which nothing
          observes;
        * ``ttl`` set -- every touched flow shares the batch's clock
          reading, so TTL is batch-granular: a flow idle past its TTL
          whose next record arrives *in this batch* is revived with
          its state intact, where a record-at-a-time replay might
          sweep it first (depending on which record triggers the
          amortised sweep) and rebuild it fresh.  Keeping the state is
          the cheaper side of the race -- TTL eviction is a resource
          policy and PINT state is always rebuildable -- and it buys
          the per-group fast path;
        * ``max_flows_per_shard`` set -- capacity eviction *is*
          order-sensitive and observable, so flows are admitted by a
          walk over the records in batch order
          (:meth:`_admit_records`, TTL sweeps included) whose eviction
          victims and counters are exactly those of a record-at-a-time
          replay; the grouping, accounting and fold are the unbounded
          path's, each surviving flow folding its records from its
          last admission on.

        A run of several batches keeps all of this per batch: each
        batch is checked and ticks the clock on its own, counts in the
        batch metrics, touches its own distinct flows with its own
        ``now`` and counts (admissions, generations, stamps,
        ``last_seen``, ``flow_records``) after the batches before it,
        and bumps its shards' ``records`` and ``batches``.  Only the
        decoding is the run's: one index pass, one steadiness read,
        one stable grouping by flow and one fold.
        """
        return self.ingest_run([((flow_ids, pids, hop_counts, digests), now)])

    def ingest_run(self, batches, park=None) -> int:
        """Fold ``(columns, now)`` batches as one run; returns the records.

        Each of ``batches`` is what one :meth:`ingest_batch` call takes:
        ``((flow_ids, pids, hop_counts, digests), now)``.  The state is
        bit-identical to one :meth:`ingest_batch` per batch, in order.
        A flow that decodes mid-run peels its later records instead of
        verifying them, which batch-size independence makes exact.  A
        sink whose admission or sweeps are order-sensitive within a run
        (``max_flows_per_shard``, ``ttl``), or whose flows are the
        caller's objects (their factory and methods may raise
        part-way), folds the run one batch at a time.

        A batch that fails its checks leaves the sink as it was.
        ``park`` is called inside the ``except`` block of a batch that
        fails (or, for a whole run, a fold that fails) and the rest go
        on.  Without it the failure raises once the batches before the
        failing one are folded, as a loop of :meth:`ingest_batch` calls
        would have left them.
        """
        self._check_open()

        def guarded(step, *args):
            try:
                return step(*args)
            except Exception:
                if park is None:
                    raise
                park()
                return None

        run = []
        try:
            for columns, now in batches:
                batch = guarded(self._prepare, columns, now)
                if batch is not None:
                    run.append(batch)
        finally:
            # Reached from a failing batch too: the batches before it
            # fold before its error leaves.
            whole = (
                self.max_flows_per_shard is None and self.ttl is None
                and not isinstance(self._store, ConsumerRows)
            )
            for part in [run] if whole and run else [[b] for b in run]:
                self._m_run_batches.observe(len(part))
                guarded(self._fold, part)
        return sum(int(batch[0].shape[0]) for batch in run)

    def _prepare(self, columns, now: Optional[float]):
        """Check one batch and tick the clock for it: ``(fids, pids,
        hops, digests, t)``, or None for an empty batch."""
        with self._sp_group, self._cpu_group:
            batch = admit_batch(columns, self._code_bits, self.clock, now)
        if batch is not None:
            n = int(batch[0].shape[0])
            self._m_batch_size.observe(n)
            self._m_records.inc(n)
            self._m_batches.inc()
        return batch

    def _fold(self, run) -> None:
        """Fold prepared batches, in order, as one run (see
        :meth:`ingest_run`; a bounded sink's run is one batch)."""
        store = self._store
        if len(run) == 1:
            fids, ps, hops, digs, t = run[0]
        else:
            fids, ps, hops, digs = (
                np.concatenate(column) for column in list(zip(*run))[:4]
            )
            t = run[-1][4]
        bounded = self.max_flows_per_shard is not None
        rest = owners = hit = seen = None
        if not bounded:
            with self._sp_consume, self._cpu_consume:
                # The run's one index pass: every record's row (-1: a
                # flow to admit), which also says which flows are
                # steady as of the run's start.  Their records (``hit``)
                # are folded where they stand and never reach the sort.
                owners = store.index.find(fids)
                steady = store.steady(owners)
                if steady.all():
                    hit, rest = slice(None), np.zeros(0, dtype=np.int64)
                elif steady.any():
                    hit, rest = np.flatnonzero(steady), np.flatnonzero(~steady)
                if hit is not None:
                    seen = store.verify(owners[hit], ps[hit], digs[hit])
        with self._sp_group, self._cpu_group:
            # Stable grouping by flow (a flow has one shard): ties keep
            # run order so per-flow streams stay sequential.
            if rest is None:
                order = stable_order(fids)
            else:
                order = rest[stable_order(fids[rest])]
            sfids = fids[order]
            sps = ps[order]
            shops = hops[order]
            sdigs = digs[order]
            starts = np.flatnonzero(run_starts(sfids))
            bounds = np.append(starts, order.size)
        with self._sp_consume, self._cpu_consume:
            sizes = np.diff(bounds)
            firsts = bounds[:-1]
            if bounded:
                # Capacity eviction and the amortised sweep are
                # order-sensitive: admit flows record by record, in
                # batch order (each shard sees its own records in
                # order), then see which flows the walk left live (-1:
                # evicted after its last record).
                sids = self._shard_ids(fids)
                admitted = self._admit_records(fids, sids, t)
                sids = sids[order[starts]]
                touched = self._account(sids, sizes)
                rows = store.index.find(sfids[starts])
                # A group folds from its flow's last admission on:
                # records before a mid-batch re-admission belonged to
                # a consumer the scalar path discards.
                firsts = np.maximum(starts, np.maximum.reduceat(
                    np.where(admitted[order], np.arange(order.size), 0),
                    starts,
                ))
                live = rows >= 0
                rows, firsts = rows[live], firsts[live]
                sizes = bounds[1:][live] - firsts
                store.flow_records[rows] += sizes
            else:
                rows, touched = self._touch_run(
                    run, owners, hit, seen, order, sfids, starts
                )
            # The peel's temporaries set a run's peak: what only the
            # grouping and the touches read goes first.
            del fids, ps, hops, digs, owners, order, sfids
            if rows.size:
                fold_rows(
                    store, rows, firsts, sizes, sps, shops, sdigs,
                    self._m_fallbacks,
                )
            for shard in touched:
                shard.maybe_expire(t)

    def _touch_run(self, run, owners, hit, seen, order, sfids, starts):
        """Touch each batch's distinct flows, batch by batch; returns
        the rows of the run's flow groups and the shards touched.

        A batch's flows are its (batch, flow) pairs: runs of the
        grouping (which keeps run order inside a flow) for the records
        left to fold, and for the steady records ``hit`` (None: there
        are none) the distinct (batch, row) keys -- in a run of one,
        the rows ``verify`` saw.  Ordered batch-major and by ascending
        flow id inside a batch, each batch's pairs are one
        :func:`touch_flows` call -- LRU order is what the coverage sum
        and a checkpoint read -- which admits the flows new to the
        sink.  A later batch of the run looks its new flows up again:
        an earlier batch may have admitted them.
        """
        store = self._store
        many = len(run) > 1
        pairs, bid = starts, None
        if many:
            # Each record's batch.
            bid = np.repeat(
                np.arange(len(run)), [batch[0].shape[0] for batch in run]
            )
            pairs = np.flatnonzero(run_starts(sfids) | run_starts(bid[order]))
        fid, row = sfids[pairs], owners[order[pairs]]
        sids = self._shard_ids(fid)
        counts = np.diff(np.append(pairs, order.size))
        pair_bid = bid[order[pairs]] if many else None
        grouped = None
        if hit is not None:
            held, held_counts = seen
            if many:
                stride = np.int64(store.rows)
                keys, held_counts = distinct(
                    owners[hit] + stride * bid[hit], len(run) * store.rows
                )
                held = keys % stride
                pair_bid = np.concatenate((keys // stride, pair_bid))
            fid = np.concatenate((store.flow_id[held], fid))
            merged = np.argsort(fid, kind="stable")
            fid = fid[merged]
            row = np.concatenate((held, row))[merged]
            # A held row's shard is the one that admitted it.
            sids = np.concatenate((store.shard[held], sids))[merged]
            counts = np.concatenate((held_counts, counts))[merged]
            if many:
                pair_bid = pair_bid[merged]
            # Merging keeps the groups in their order.
            grouped = merged >= held.shape[0]
        edges = [0, fid.shape[0]]
        if pair_bid is not None:
            # Batch-major (a stable sort on a narrow type: one radix pass).
            by_batch = np.argsort(
                pair_bid.astype(np.min_scalar_type(len(run) - 1)),
                kind="stable",
            )
            fid, row, sids, counts = (
                fid[by_batch], row[by_batch], sids[by_batch],
                counts[by_batch],
            )
            edges = np.searchsorted(
                pair_bid[by_batch], np.arange(len(run) + 1)
            ).tolist()
        touched: List[Shard] = []
        for b, batch in enumerate(run):
            lo, hi = edges[b], edges[b + 1]
            rows = row[lo:hi]
            if b:
                miss = np.flatnonzero(rows < 0)
                if miss.size:
                    rows[miss] = store.index.find(fid[lo:hi][miss])
            touch_flows(
                self.shards, fid[lo:hi], sids[lo:hi], rows, counts[lo:hi],
                batch[4],
            )
            touched += self._account(sids[lo:hi], counts[lo:hi])
        if not many:
            return row if grouped is None else row[grouped], touched
        group_rows = owners[order[starts]]
        new = np.flatnonzero(group_rows < 0)
        group_rows[new] = store.index.find(sfids[starts[new]])
        return group_rows, touched

    def _account(self, sids: np.ndarray, counts: np.ndarray) -> List[Shard]:
        """Count one batch's records on its shards; returns those shards."""
        touched = []
        records = np.bincount(sids, counts, self.num_shards).tolist()
        for shard, count in zip(self.shards, records):
            if count:
                shard.records += int(count)
                shard.batches += 1
                touched.append(shard)
        return touched

    def _shard_ids(self, fids: np.ndarray) -> np.ndarray:
        """Each flow id's shard."""
        if self.num_shards > 1 and fids.shape[0]:
            return self.router.shard_of_array(fids)
        return np.zeros(fids.shape[0], dtype=np.int64)

    def _admit_records(
        self, fids: np.ndarray, sids: np.ndarray, t: float
    ) -> np.ndarray:
        """Touch each record's flow in batch order, as record-at-a-time
        ingestion would (capacity eviction and the amortised TTL sweep
        included); returns which records admitted their flow."""
        shards = self.shards
        fresh = []
        for i, (fid, sid) in enumerate(zip(fids.tolist(), sids.tolist())):
            shard = shards[sid]
            created = shard.created
            shard.touch_row(fid, t)
            if shard.created != created:
                fresh.append(i)
            shard.maybe_expire(t)
        admitted = np.zeros(fids.shape[0], dtype=bool)
        admitted[fresh] = True
        return admitted

    # -- queries -----------------------------------------------------------

    def flow(self, flow_id: int) -> Optional[DigestConsumer]:
        """The flow's live consumer (for a row of a column store, a
        handle built on demand), or None if absent/evicted."""
        row = self._store.index.find_one(flow_id)
        return None if row < 0 else self._view(row)

    def flows(self, flow_ids) -> List[Optional[DigestConsumer]]:
        """Bulk :meth:`flow`, in input order: one index pass.

        Callers scoring many flows can treat serial and parallel
        collectors alike (the parallel bulk form batches one RPC per
        worker).
        """
        fids = np.asarray(flow_ids, dtype=np.int64)
        if fids.size == 0:
            return []
        view = self._view
        return [
            view(row) if row >= 0 else None
            for row in self._store.index.find(fids).tolist()
        ]

    def result(self, flow_id: int):
        """The flow's query answer, or None (unknown flow / undecoded)."""
        consumer = self.flow(flow_id)
        return consumer.result() if consumer is not None else None

    def answers(self, flow_ids=None) -> AnswerTable:
        """The sink's answers as columns, one row per live flow.

        The read path of the sink (:mod:`repro.collector.answers`):
        every live flow, or the live ones among ``flow_ids`` (align a
        list of your own with :meth:`AnswerTable.rows_of`; unknown and
        evicted ids get no row).  Rows ascend by flow id whatever the
        shard layout, so any sink fed the same records returns an equal
        table.  The store builds it (:func:`~repro.collector.consumers.
        answer_rows`; a sink holds one query's flows).  Strictly a
        read: no LRU touch, no consumer state written -- a checkpoint
        taken before and after is the same bytes.
        """
        with self._sp_answers:
            store = self._store
            if flow_ids is None:
                # Every allocated row of this sink's store is a live flow.
                rows = store.live_rows()
                rows = rows[np.argsort(store.flow_id[rows])]
            else:
                rows = store.index.find(
                    np.unique(np.asarray(flow_ids, dtype=np.int64))
                )
                rows = rows[rows >= 0]
            table = answer_rows(store, rows)
        self._m_answer_rows.inc(len(table))
        return table

    def __len__(self) -> int:
        """Live flows across all shards."""
        return sum(s.flows for s in self.shards)

    # -- operations --------------------------------------------------------

    def expire(self, now: Optional[float] = None) -> int:
        """Force a TTL sweep on every shard; returns evicted flows.

        Subject to the same clock-mode guard as ingestion: a
        wall-clock ``now`` against a records-driven collector would
        silently evict everything.
        """
        self._check_open()
        t = self.clock.expire_time(now)
        return sum(shard.expire(t) for shard in self.shards)

    def evict(self, flow_id: int) -> bool:
        """Drop one flow's state (e.g. its FIN was observed)."""
        self._check_open()
        shard = self.shards[self.router.shard_of(flow_id)]
        return shard.evict(flow_id)

    def snapshot(self) -> Snapshot:
        """Point-in-time metrics across all shards.

        When an ``obs`` registry is attached its full dump rides on
        :attr:`Snapshot.metrics` (excluded from ``as_dict`` and
        equality -- timings may never break bit-identity checks).
        """
        return Snapshot(
            taken_at=self.clock.now,
            shards=[shard.stats() for shard in self.shards],
            metrics=self.obs.as_dict() if self.obs.enabled else None,
        )

    # -- checkpoint/restore ------------------------------------------------

    def state_dict(self) -> Dict:
        """Capture full collector state for a checkpoint.

        Everything a bit-identical rebuild needs: the clock (value
        *and* mode -- a restored collector must keep rejecting mixed
        units), and per shard the ingest counters, degradation marks
        and, under ``"table"``, the flow index's :meth:`~repro.collector.
        shard.Shard.state_dict`.  Consumer objects pickle whole (sketches
        and all); flows that are store rows are captured once, as the
        store's arrays under ``"store"`` -- row ``i`` of that capture
        is the ``i``-th flow of the shards in shard-major LRU order, so
        each shard's capture keeps only how many rows are its own.
        Plain picklable dict -- the framing/CRC/versioning lives in
        :mod:`repro.collector.recovery`, not here.
        """
        tables = [s.state_dict() for s in self.shards]
        state = {
            "num_shards": self.num_shards,
            "clock": {"now": self.clock.now, "mode": self.clock.mode},
            "shards": [
                {
                    "shard_id": s.shard_id,
                    "records": s.records,
                    "batches": s.batches,
                    "degraded": s.degraded,
                    "records_lost": s.records_lost,
                    "table": table,
                }
                for s, table in zip(self.shards, tables)
            ],
        }
        if not isinstance(self._store, ConsumerRows):
            state["store"] = self._store.state_dict(
                np.concatenate([s.rows() for s in self.shards])
            )
        return state

    def load_state(self, state: Dict) -> None:
        """Install a :meth:`state_dict` capture, replacing live state.

        Restores *into* the existing shard and store objects (never
        replaces them): pre-bound obs instruments hold function
        closures over ``self.shards``, and those must keep reading the
        restored counters.  The collector must have been built with
        the same layout the capture came from; a shard-count mismatch
        raises :class:`~repro.exceptions.RestoreError` rather than
        scattering state across the wrong partitions.
        """
        if state["num_shards"] != self.num_shards:
            raise RestoreError(
                f"checkpoint has {state['num_shards']} shards, this "
                f"collector has {self.num_shards}; restore requires an "
                "identical layout"
            )
        columnar = "store" in state
        if columnar == isinstance(self._store, ConsumerRows):
            raise RestoreError(
                "checkpoint and collector disagree on whether flows are "
                "store rows; restore requires the same consumer factory"
            )
        if columnar:
            self._store.check_state(state["store"])
        self.clock.now = state["clock"]["now"]
        # Interned like the literal tick() assigns: pickle shares equal
        # strings by identity, and a capture must not tell a restored
        # clock from a live one.
        mode = state["clock"]["mode"]
        self.clock.mode = mode and sys.intern(mode)
        # Every row goes back before the store takes the capture's;
        # each shard then owns its run of the loaded rows.
        for shard in self.shards:
            shard.clear()
        if columnar:
            self._store.load_state(state["store"])
        row = 0
        for shard_state in state["shards"]:
            shard = self.shards[shard_state["shard_id"]]
            shard.records = shard_state["records"]
            shard.batches = shard_state["batches"]
            shard.degraded = shard_state["degraded"]
            shard.records_lost = shard_state["records_lost"]
            table = shard_state["table"]
            rows = None
            if columnar:
                rows = np.arange(row, row + table["consumers"])
                row += table["consumers"]
            shard.load_state(table, rows)

    def _check_open(self) -> None:
        """Writes into a closed collector must fail like the parallel
        front door's do -- silently accepting records after close()
        would hide a lifecycle bug a process-backed deployment turns
        into data loss."""
        if self._closed:
            raise CollectorClosedError(
                "collector is closed; ingest before close(), not after"
            )

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    def drain(self) -> None:
        """Wait until every ingested record is applied (no-op here).

        The single-process collector applies records synchronously, so
        there is nothing to wait for; the method exists so callers can
        treat :class:`Collector` and :class:`repro.collector.parallel.
        ParallelCollector` interchangeably.
        """

    def close(self) -> None:
        """Mark the collector closed (idempotent).

        There are no processes to stop here, but the lifecycle
        contract is shared with :class:`~repro.collector.parallel.
        ParallelCollector`: after ``close()``, the writes -- :meth:`ingest`,
        :meth:`ingest_batch`, :meth:`evict` and :meth:`expire` -- raise
        :class:`~repro.exceptions.CollectorClosedError` on both
        implementations.  Reads
        (:meth:`flow`, :meth:`snapshot`, ...) stay valid on the serial
        collector -- its state lives in this process, not in workers
        that close() tore down -- which is the one deliberate
        asymmetry (a parallel collector's state is *gone*, so its
        reads raise too; see DESIGN.md section 5).
        """
        self._closed = True

    def __enter__(self) -> "Collector":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
