"""ReplayDriver: scenario traces through the dataplane into a Collector.

The end-to-end encode→collect path at array speed: a
:class:`ReplayDriver` builds an execution plan over a path-tracing and
a congestion query and draws every packet's query set once, with the
vectorised plan-selection hash (§3.4).  It then walks the delivered
stream in row blocks of a few batches: per block and plan entry, one
gather per column and one encode call -- path digests from the
:class:`~repro.replay.dataplane.TraceDataplane`, congestion codes from
:func:`~repro.replay.dataplane.compress_utilizations`.  Each sink then
takes the block's batches -- read-only slices of those columns, each
with its own ``now`` -- at once: an in-process serial sink folds them
as one run (:meth:`Collector.ingest_run`: one index pass, one grouping
and one peel per block, each batch's bookkeeping its own), a parallel
sink or a wire sender takes them one batch at a time.  The switch side
keys on per-packet hashes only, so the block size moves no answer; the
sinks see exactly the batches a batch-at-a-time loop would make, and
fold them to the same state.

After the stream drains, the driver scores the sink against the
trace's ground truth: which flows' paths decoded, whether they decoded
*correctly* (path churn makes these differ), and how far the decoded
bottleneck utilisation sits from the true per-flow max.  One
:class:`ScenarioReport` per scenario carries throughput and accuracy
side by side.
"""

from __future__ import annotations

import math
import time
from contextlib import ExitStack
from dataclasses import asdict, dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.apps.congestion import UtilizationCodec
from repro.collector import (
    Collector,
    ParallelCollector,
    congestion_consumer_factory,
    path_consumer_factory,
)
from repro.collector.parallel import check_settings
from repro.core.plan import ExecutionPlan, PlanEntry
from repro.core.query import AggregationType, Query
from repro.core.values import MetadataType
from repro.hashing import GlobalHash, global_hash, lane_blocks
from repro.obs.metrics import NULL_REGISTRY, StageTimes
from repro.replay.dataplane import TraceDataplane, compress_utilizations
from repro.grouping import run_starts, stable_order
from repro.replay.impair import (
    DeliverySummary,
    ImpairmentModel,
    delivered_mask,
    describe_models,
    plan_delivery,
    summarize_delivery,
)
from repro.replay.scenarios import build_trace, scenario_names
from repro.replay.trace import Trace
from repro.service import CollectorServer, ReliableUDPSender

#: The one execution plan every replay runs (§3.4): entry 0 stamps
#: path digests on ``PATH_SHARE`` of the packets, entry 1 a
#: ``CONGESTION_BITS``-bit bottleneck-utilisation digest on
#: ``CONGESTION_SHARE``.
PATH_SHARE = 0.8
CONGESTION_SHARE = 0.2
CONGESTION_BITS = 8


@dataclass(frozen=True)
class ScenarioReport:
    """Throughput + decode-accuracy summary of one replayed trace."""

    scenario: str
    records: int
    flows: int
    batches: int
    seconds: float
    #: Path-query records ingested and the per-flow decode outcome.
    path_records: int
    path_flows: int
    path_decoded: int
    path_correct: int
    #: Decoder resets across flows (reroutes / churn detected mid-flow).
    path_resets: int
    #: Congestion-query records and the decoded-vs-true max error.
    congestion_records: int
    congestion_flows: int
    congestion_median_rel_err: float
    #: -- impairment bookkeeping (defaults = the perfect network) ----------
    #: Records the scenario *sent*; ``records`` counts what the network
    #: delivered (duplicates included) and the sink actually ingested.
    offered_records: int = 0
    dropped_records: int = 0
    duplicated_records: int = 0
    #: Deliveries arriving after a later-sent record of their flow.
    reordered_records: int = 0
    #: Mean per-flow decode coverage over path-query flows the sink
    #: holds state for; NaN when every such flow was fully dropped
    #: (JSON writers turn the NaN into null: ``repro.jsonutil.jsonable``).
    path_coverage_mean: float = float("nan")
    #: Fully-decoded path flows that lost at least one path record --
    #: the paper's "any subset still decodes" claim, counted.
    path_completed_under_loss: int = 0
    #: One-line descriptions of the applied impairment models.
    impairments: Tuple[str, ...] = ()
    #: -- wire transport bookkeeping (defaults = the library path) ----------
    #: How batches reached the sinks: "in-process" or "udp".
    transport: str = "in-process"
    #: Wire frames transmitted (retransmits included) across both sinks.
    wire_frames: int = 0
    #: Reliable-UDP retransmissions (0 in-process).
    wire_retransmits: int = 0
    #: -- fault-recovery bookkeeping (defaults = a fault-free run) ----------
    #: Worker processes the supervised path sink replaced mid-replay,
    #: and the journal messages replayed into their replacements.
    restarts: int = 0
    replayed_batches: int = 0
    #: Shards that exceeded their journal window during recovery (and
    #: the records neither restored nor replayed); 0/0 whenever the
    #: journal was sized to the checkpoint cadence.
    degraded_shards: int = 0
    records_lost: int = 0
    #: Per-stage wall time of the replay loop, insertion-ordered
    #: ``(stage, seconds)`` pairs: where ``seconds`` actually went
    #: (select / encode / ingest / transport / decode, plus impair
    #: when models ran).  ``select`` is one whole-trace draw of the
    #: execution plan, made once before the loop.  ``encode`` is timed
    #: per row block: the block's gathers, its congestion truth, its
    #: two encode calls and its batches' clock readings.  ``ingest`` is
    #: timed per row block and sink: the sink calls alone (one
    #: ``ingest_run`` per block on an in-process serial sink).  The
    #: stages run one after another and never overlap, so the
    #: ``ingest`` share alone says whether the sink is the bottleneck.
    #: Always measured -- two clock reads per stage per block.
    stage_seconds: Tuple[Tuple[str, float], ...] = ()

    @property
    def delivery_rate(self) -> float:
        """Fraction of offered records delivered at least once."""
        if self.offered_records <= 0:
            return float("nan")
        return (
            self.offered_records - self.dropped_records
        ) / self.offered_records

    def as_dict(self) -> dict:
        """JSON-ready dump: fields plus the derived rates.

        May contain NaN (coverage of fully-dropped streams, median
        error of empty congestion sets); writers must route it
        through :func:`repro.jsonutil.jsonable`, which turns
        non-finite floats into JSON null.
        """
        d = asdict(self)
        d["impairments"] = list(self.impairments)
        d["stage_seconds"] = {k: v for k, v in self.stage_seconds}
        d["records_per_sec"] = self.records_per_sec
        d["path_coverage"] = self.path_coverage
        d["path_accuracy"] = self.path_accuracy
        d["delivery_rate"] = self.delivery_rate
        return d

    @property
    def records_per_sec(self) -> float:
        """End-to-end replay rate: ``records`` over ``seconds``.

        ``seconds`` runs from the plan draw (``select``) through
        encode of every block and ingest of every batch to the
        transport flush and the sinks' drain; impairment planning
        before it and scoring (``decode``) after it are outside.

        Always finite: a degenerate zero-second measurement (an empty
        trace, or a clock too coarse to see the work) reports 0.0
        rather than ``inf`` -- ``json.dump`` would otherwise emit the
        non-standard ``Infinity`` token into the bench artifacts.
        """
        return self.records / self.seconds if self.seconds > 0 else 0.0

    @property
    def path_coverage(self) -> float:
        """Fraction of path-query flows that reached a decoded answer."""
        return self.path_decoded / self.path_flows if self.path_flows else 0.0

    @property
    def path_accuracy(self) -> float:
        """Fraction of decoded paths the flow actually traversed.

        A churned flow's decoder may legitimately answer with an
        earlier path; only a path the flow never used counts as wrong.
        """
        return self.path_correct / self.path_decoded if self.path_decoded else 0.0

    def summary(self) -> str:
        """One human-readable report line."""
        err = self.congestion_median_rel_err
        err_s = f"{err * 100:.1f}%" if not math.isnan(err) else "n/a"
        line = (
            f"{self.scenario:<15} {self.records:>7} rec "
            f"{self.records_per_sec:>11,.0f} rec/s  "
            f"path {self.path_decoded}/{self.path_flows} decoded "
            f"({self.path_accuracy * 100:.0f}% correct, "
            f"{self.path_resets} resets)  "
            f"cong err {err_s}"
        )
        if self.impairments:
            cov = self.path_coverage_mean
            cov_s = f"{cov * 100:.0f}%" if not math.isnan(cov) else "n/a"
            line += (
                f"  [delivered {self.records}/{self.offered_records}"
                f" (-{self.dropped_records} +{self.duplicated_records}"
                f" ~{self.reordered_records}), cov {cov_s}]"
            )
        return line

    def stage_summary(self) -> str:
        """One line of where the replay's wall time went, by stage."""
        total = sum(s for _, s in self.stage_seconds)
        if total <= 0:
            return "stages: n/a"
        parts = [
            f"{stage} {secs * 1e3:,.0f}ms ({secs / total * 100:.0f}%)"
            for stage, secs in self.stage_seconds
        ]
        return "stages: " + "  ".join(parts)


#: One batch as a sink takes it: ``((flow_ids, pids, hop_counts,
#: digests), now)``.
Batch = Tuple[Tuple[np.ndarray, ...], float]


@dataclass
class _Sink:
    """One sink as :meth:`ReplayDriver.replay` drives it.

    ``ingest`` takes one row block's batches, in order: an in-process
    serial collector folds them as one run
    (:meth:`Collector.ingest_run`), while a parallel collector (whose
    workers fold their own backlogs as runs) and a wire sender take
    them one ``ingest_batch`` / ``send_batch`` call each.  The replay
    loop never asks which; ``server``/``tx`` are set only on the wire
    path.
    """

    collector: Union[Collector, ParallelCollector]
    ingest: Callable[[List[Batch]], object]
    server: Optional[CollectorServer] = None
    tx: Optional[ReliableUDPSender] = None
    records: int = 0


def _batch_by_batch(ingest: Callable[..., object]):
    """A run of batches as one ``ingest(*columns, now=now)`` call each."""

    def each(run: List[Batch]) -> None:
        for columns, now in run:
            ingest(*columns, now=now)

    return each


class ReplayDriver:
    """Streams scenario traces through the vectorised dataplane.

    Parameters
    ----------
    digest_bits / num_hashes / seed:
        Path-query encoder configuration; the sink consumers derive
        the matching decoders from the same values.
    batch_size:
        Records per columnar batch: the unit of a sink's clock and
        counters.  The switch side encodes row blocks of whole batches
        (about half a ``GRID_BLOCK`` of rows, at least one batch), and
        an in-process serial sink folds each block's batches as one
        run.
    num_shards:
        Collector sharding (both sinks).
    workers:
        ``None`` (default) replays into single-process collectors; an
        integer builds a :class:`~repro.collector.ParallelCollector`
        *path* sink with that many worker processes (at most
        ``num_shards`` -- every worker owns at least one shard), so
        every scenario can replay parallel.  The congestion sink
        always stays in-process: its max-aggregation is cheaper than
        the scatter transport (DESIGN.md section 5), so ``workers=N``
        costs exactly N extra processes, all spent on the
        decode-heavy query.  Results are bit-identical either way;
        the knob only moves where the decode work runs.
    mode:
        Path-digest representation the dataplane stamps and the sink
        decodes: "hash" (default), "raw" or "fragment" -- the three
        §4.2 representations the impairment sweeps compare under loss.
    impairments:
        Optional sequence of :class:`~repro.replay.impair.
        ImpairmentModel` applied between encode and ingest: the driver
        plans one delivery schedule over the whole trace (so bursty
        loss and reorder bounds span batch boundaries) and replays
        *delivered* records only, in delivered order -- on the serial
        and the ``workers=N`` paths alike.  An empty sequence (or all
        zero-rate models) is bit-identical to no impairment.
    transport:
        ``None`` (default) ingests in-process -- the library path.
        ``"udp"`` instead stands up one
        :class:`~repro.service.CollectorServer` per sink on loopback
        and ships every batch through the :mod:`repro.service.wire`
        format over reliable seq/ACK/RTO UDP.  Fragment reassembly
        (``FLAG_MORE``) and in-order exactly-once delivery
        make the wire run bit-identical to the in-process one --
        snapshots and per-flow answers alike: the ``transport`` axis
        of ``tests/equivalence.py``.
    obs:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` threaded
        through every component the driver builds: both sink
        collectors (labelled ``{"sink": "path"}`` /
        ``{"sink": "congestion"}``), the parallel scatter when
        ``workers`` is set, and the reliable UDP sender when
        ``transport="udp"``.  Stage wall-times additionally land in
        ``pint_replay_stage_seconds{stage=...}`` per replay.  The
        per-report :attr:`ScenarioReport.stage_seconds` breakdown is
        *always* measured, registry or not.
    """

    # Read only by bench/stageloop.py (frozen); not constructor
    # parameters.  Delete with those reads in the next benchmark PR.
    worker_transport = "shm"
    has_congestion = True
    congestion_bits = CONGESTION_BITS

    def __init__(
        self,
        digest_bits: int = 8,
        num_hashes: int = 1,
        seed: int = 0,
        num_shards: int = 4,
        batch_size: int = 8192,
        workers: Optional[int] = None,
        mode: str = "hash",
        impairments: Optional[Sequence[ImpairmentModel]] = None,
        transport: Optional[str] = None,
        obs=None,
        checkpoint_every: Optional[int] = None,
        journal_batches: Optional[int] = None,
        faults=None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if mode not in ("raw", "hash", "fragment"):
            raise ValueError(
                f"mode must be 'raw', 'hash' or 'fragment', got {mode!r}"
            )
        if transport not in (None, "udp"):
            raise ValueError(
                f"transport must be None or 'udp', got {transport!r}"
            )
        self.transport = transport
        self.mode = mode
        self.obs = obs if obs is not None else NULL_REGISTRY
        self.impairments: List[ImpairmentModel] = (
            list(impairments) if impairments is not None else []
        )
        if workers is None and (
            checkpoint_every is not None or faults is not None
        ):
            raise ValueError(
                "checkpoint_every/faults require workers: supervision "
                "and worker fault injection only exist on the "
                "ParallelCollector path sink"
            )
        check_settings(
            workers, num_shards, checkpoint_every, journal_batches, faults
        )
        self.workers = workers
        self.checkpoint_every = checkpoint_every
        self.journal_batches = journal_batches
        self.faults = faults
        self.digest_bits = digest_bits
        self.num_hashes = num_hashes
        self.seed = seed
        self.num_shards = num_shards
        self.batch_size = batch_size
        path_q = Query(
            "path", MetadataType.SWITCH_ID, AggregationType.STATIC_PER_FLOW,
            bit_budget=digest_bits * num_hashes, frequency=PATH_SHARE,
        )
        cong_q = Query(
            "congestion", MetadataType.EGRESS_TX_UTILIZATION,
            AggregationType.PER_PACKET, bit_budget=CONGESTION_BITS,
            frequency=CONGESTION_SHARE,
        )
        entries = [
            PlanEntry((path_q,), PATH_SHARE),
            PlanEntry((cong_q,), CONGESTION_SHARE),
        ]
        self.plan = ExecutionPlan(
            entries, max(e.bits() for e in entries), seed
        )
        self.codec = UtilizationCodec(CONGESTION_BITS, seed=seed)
        #: Synthetic ground-truth utilisation per packet: a keyed hash
        #: of the pid, so truth is replayable without storing a column.
        self._util_hash = GlobalHash(seed, "replay-util")

    def utilizations(self, trace: Trace) -> np.ndarray:
        """Ground-truth bottleneck utilisation per record, in (0, 1.5)."""
        return self._truth(trace.pid)

    def _truth(self, pids: np.ndarray) -> np.ndarray:
        """:meth:`utilizations` of the records with packet ids ``pids``."""
        utils = np.empty(pids.shape[0], dtype=np.float64)
        for block in lane_blocks(pids.shape[0], 1):
            utils[block] = self._util_hash.uniform_array(pids[block]) * 1.5
        return utils

    def _block_rows(self) -> int:
        """Rows per block of the replay loop: a whole number of batches,
        at least one, near half a hash block (``GRID_BLOCK``, read at
        call time so the block follows it)."""
        batches = global_hash.GRID_BLOCK // 2 // self.batch_size
        return max(1, batches) * self.batch_size

    def _encode_block(
        self,
        trace: Trace,
        dataplane: TraceDataplane,
        entry: np.ndarray,
        rows: np.ndarray,
        edges: List[int],
    ) -> List[Tuple[List[int], Tuple[np.ndarray, ...]]]:
        """Plan entry i's sink columns over one block of trace ``rows``.

        Per entry: one gather per column, then one encode call -- path
        digests, or congestion codes over the truth drawn from the
        gathered ``pid``.  Each entry comes with ``bounds``: how many
        of its rows precede each of the block's batch ``edges``, so
        batch ``j`` is ``col[bounds[j]:bounds[j + 1]]`` of every
        column.  The columns are read-only: a sink writing into its
        input would corrupt the batches after it.
        """
        part = entry.take(rows)
        columns = []
        for index in range(2):
            pos = np.flatnonzero(part == index)
            mine = rows.take(pos)
            fids = trace.flow_id.take(mine)
            pids = trace.pid.take(mine)
            path_ids = trace.path_id.take(mine)
            hops = trace.lengths_of(path_ids)
            if index == 0:
                values = dataplane.encode(path_ids, pids)
            else:
                values = compress_utilizations(
                    self.codec, self._truth(pids), pids, hops
                )
            cols = (fids, pids, hops, values)
            for col in cols:
                col.flags.writeable = False
            columns.append((np.searchsorted(pos, edges).tolist(), cols))
        return columns

    def _make_sink(
        self, stack: ExitStack, consumer_factory, sink_label: str,
        workers: Optional[int],
    ) -> _Sink:
        """Build one sink and everything between it and the loop.

        A serial collector, or a parallel one when ``workers`` is set;
        behind ``transport``, additionally a loopback server plus the
        matching sender.  Each piece's release is pushed on ``stack``
        as it comes up, so a failure half-way -- or anywhere later in
        the replay -- unwinds sender, server, collector in that order.
        ``sink_label`` keeps the two sinks' metric streams apart in
        the shared registry (``{"sink": "path"|"congestion"}``).
        """
        obs = None if not self.obs.enabled else self.obs
        labels = {"sink": sink_label}
        if workers is None:
            collector = Collector(
                consumer_factory, num_shards=self.num_shards, seed=self.seed,
                obs=obs, obs_labels=labels,
            )
        else:
            collector = ParallelCollector(
                consumer_factory, workers=workers,
                num_shards=self.num_shards, seed=self.seed,
                obs=obs, obs_labels=labels,
                checkpoint_every=self.checkpoint_every,
                journal_batches=self.journal_batches,
                faults=self.faults,
            )
        stack.callback(collector.close)
        if self.transport is None:
            return _Sink(collector, (
                collector.ingest_run if workers is None
                else _batch_by_batch(collector.ingest_batch)
            ))
        server = CollectorServer(collector).start()
        stack.callback(server.close)
        tx = ReliableUDPSender(
            "127.0.0.1", server.udp_port, obs=obs, obs_labels=labels,
        )
        # Bare socket release, not tx.close(): the success path flushed
        # already, and an error path must not spend a flush timeout
        # re-offering frames nobody will score.
        stack.callback(tx.sock.close)
        return _Sink(collector, _batch_by_batch(tx.send_batch), server, tx)

    def replay(self, trace: Trace) -> ScenarioReport:
        """Stream one trace end-to-end; return its report."""
        dataplane = TraceDataplane(
            trace, digest_bits=self.digest_bits, num_hashes=self.num_hashes,
            mode=self.mode, seed=self.seed,
        )
        with ExitStack() as stack:
            path = self._make_sink(
                stack,
                path_consumer_factory(
                    trace.universe, digest_bits=self.digest_bits,
                    num_hashes=self.num_hashes, seed=self.seed,
                    mode=self.mode, value_bits=dataplane.value_bits,
                ),
                "path", self.workers,
            )
            # Always serial: the max-aggregation consumer is cheaper
            # than the scatter transport, so workers would only burn
            # cores the path sink needs (DESIGN.md section 5).
            cong = self._make_sink(
                stack,
                congestion_consumer_factory(
                    bits=CONGESTION_BITS, seed=self.seed,
                ),
                "congestion", None,
            )
            sinks = [path, cong]
            # Stage accounting: two clock reads per section per block,
            # cheap enough to leave on unconditionally, so *every*
            # report can say where its wall time went.
            stages = StageTimes()
            sp_encode = stages.span("encode")
            sp_ingest = stages.span("ingest")
            # The delivery schedule is planned over the whole trace up
            # front: bursty-loss state and reorder displacement must
            # span batch boundaries, exactly as a network precedes the
            # sink's batching.  No models -> the schedule is the
            # identity and the loop below is the exact pre-impairment
            # code path (bit-identity is golden-tested).
            delivery: Optional[np.ndarray] = None
            if self.impairments:
                with stages.span("impair"):
                    delivery = plan_delivery(
                        self.impairments, len(trace), trace.flow_id
                    )
            total = len(trace) if delivery is None else int(delivery.shape[0])
            block = self._block_rows()
            batches = 0
            start = time.perf_counter()
            with stages.span("select"):
                # Every packet's query set, drawn once: the blocks
                # below and the score read the same column.
                entry = self.plan.select_array(trace.pid).astype(np.int8)
            for lo in range(0, total, block):
                hi = min(lo + block, total)
                # The block's trace rows, and its batches' edges as
                # positions in the block.
                rows = (
                    np.arange(lo, hi, dtype=np.int64) if delivery is None
                    else delivery[lo:hi]
                )
                edges = list(range(0, hi - lo, self.batch_size)) + [hi - lo]
                with sp_encode:
                    columns = self._encode_block(
                        trace, dataplane, entry, rows, edges
                    )
                    # Delivered order is not time order under reorder;
                    # a batch's clock is the newest send stamp it holds
                    # (IngestClock is monotone anyway).
                    clock = trace.ts.take(rows)
                    nows = [
                        float(
                            clock[last - 1] if delivery is None
                            else clock[first:last].max()
                        )
                        for first, last in zip(edges, edges[1:])
                    ]
                # Freed before the sinks fold the block: a fold's
                # temporaries, not these, set the loop's peak.
                del rows, clock
                for sink, (bounds, cols) in zip(sinks, columns):
                    run = [
                        (tuple(c[a:b] for c in cols), now)
                        for a, b, now in zip(bounds, bounds[1:], nows)
                        if a != b
                    ]
                    if run:
                        with sp_ingest:
                            sink.ingest(run)
                    sink.records += bounds[-1] - bounds[0]
                batches += len(edges) - 1
                # Freed before the next block is built, so a replay
                # holds one block's columns at a time, not two.
                del columns, run
            with stages.span("transport"):
                # Wire path: flush the retransmit queues -- the server
                # ACKs a batch's last frame only after folding it, so a
                # flushed sender's records are in the sink -- and drain
                # the server, which raises a refused batch.  The wire
                # is part of the measured path, so the clock keeps
                # running until the sinks hold it all.
                for sink in sinks:
                    if sink.tx is not None:
                        sink.tx.flush()
                        sink.server.drain()
                # The throughput clock stops only after every scattered
                # batch is applied -- a no-op barrier on serial sinks,
                # the honest accounting on parallel ones.
                for sink in sinks:
                    sink.collector.drain()
            seconds = time.perf_counter() - start
            with stages.span("decode"):
                report = self._score(
                    trace, path, cong, entry, batches, seconds, delivery,
                )
            report = replace(report, stage_seconds=stages.items())
            if self.obs.enabled:
                for stage, secs in stages.items():
                    self.obs.histogram(
                        "pint_replay_stage_seconds",
                        "Whole-replay wall time per pipeline stage.",
                        labels={"stage": stage},
                    ).observe(secs)
            if self.checkpoint_every is not None:
                rec = path.collector.recovery_stats(
                    path.collector.snapshot()
                )
                report = replace(
                    report, restarts=rec.restarts,
                    replayed_batches=rec.replayed_batches,
                    degraded_shards=rec.degraded_shards,
                    records_lost=rec.records_lost,
                )
            if self.transport is not None:
                report = replace(
                    report, transport=self.transport,
                    wire_frames=sum(s.tx.frames_sent for s in sinks),
                    wire_retransmits=sum(s.tx.retransmits for s in sinks),
                )
            return report

    def _score(
        self,
        trace: Trace,
        path: _Sink,
        cong: _Sink,
        entry: np.ndarray,
        batches: int,
        seconds: float,
        delivery: Optional[np.ndarray],
    ) -> ScenarioReport:
        """Compare the sinks' answers against the trace's ground truth.

        Path flows are scored against the *offered* stream (a flow
        whose packets were all dropped still counts undecoded -- that
        is the degradation the sweeps chart), while congestion truth
        is the max over *delivered* records: the sink cannot know a
        utilisation the network never carried to it.  ``entry`` is the
        plan column the replay drew over the offered trace; congestion
        truth is redrawn (:meth:`utilizations`) at the rows it groups.
        Path truth is two sets, counted rather than sorted while their
        keys are dense (:meth:`Trace.path_pairs`,
        :meth:`Trace.distinct_flows`): the (flow, path) pairs and the
        flows with path rows.
        """
        # The truth as two counted sets: every (flow, path) pair of the
        # trace, and the flows with path rows.
        pairs = trace.path_pairs()
        path_flows = trace.distinct_flows(entry == 0)
        summary: Optional[DeliverySummary] = None
        delivered_rows: Optional[np.ndarray] = None
        dropped_flows = np.zeros(0, dtype=np.int64)
        if delivery is not None:
            delivered = delivered_mask(len(trace), delivery)
            summary = summarize_delivery(
                len(trace), delivery, trace.flow_id, delivered
            )
            delivered_rows = np.flatnonzero(delivered)
            dropped_flows = trace.distinct_flows((entry == 0) & ~delivered)
        # The sink's answers as columns (one small RPC per worker on a
        # parallel sink); flows it holds no state for have no row and
        # are skipped.  ``path_flows`` ascends, so every reduction
        # below runs in flow-id order.
        answers = path.collector.answers()
        rows = answers.rows_of(path_flows)
        rows = rows[rows >= 0]
        decoded = correct = resets = completed_under_loss = 0
        coverage_mean = float("nan")
        if rows.size:
            cols = answers.columns
            resets = int(cols["decode_errors"][rows].sum())
            k = cols["k"][rows]
            coverage = np.zeros(rows.size, dtype=np.float64)
            np.divide(cols["known"][rows], k, out=coverage, where=k > 0)
            coverage_mean = float(np.mean(coverage))
            done = rows[answers.row_lengths()[rows] > 0]
            decoded = int(done.size)
            completed_under_loss = int(
                np.isin(answers.flow_id[done], dropped_flows).sum()
            )
            # Only decoded flows reach a Python loop -- the one that
            # cuts their hops out of the CSR: any path the flow
            # traversed is a correct answer.
            hops = answers.values.tolist()
            correct = int(trace.traversed(answers.flow_id[done], [
                hops[lo:hi] for lo, hi in zip(
                    answers.offsets[done].tolist(),
                    answers.offsets[done + 1].tolist(),
                )
            ], pairs).sum())
        median_err = float("nan")
        cong_flows = 0
        if cong.records:
            if delivered_rows is None:
                sel = np.flatnonzero(entry == 1)
            else:
                sel = delivered_rows[entry[delivered_rows] == 1]
            fids = trace.flow_id[sel]
            order = stable_order(fids)
            fids = fids[order]
            true_utils = self._truth(trace.pid.take(sel[order]))
            starts = np.flatnonzero(run_starts(fids))
            group_max = np.maximum.reduceat(true_utils, starts)
            # Each surviving flow's encoded max, decoded as one column
            # (a table gather, bit-identical to the scalar decode).
            cong_answers = cong.collector.answers()
            rows = cong_answers.rows_of(fids[starts])
            live = rows >= 0
            if live.any():
                codes = cong_answers.columns["max_code"][rows[live]]
                truth_arr = group_max[live][codes >= 0]
                codes = codes[codes >= 0]
                cong_flows = int(codes.size)
                if cong_flows:
                    got = self.codec.decode_array(codes)
                    errs = np.abs(got - truth_arr) / truth_arr
                    median_err = float(np.median(errs))
        return ScenarioReport(
            scenario=trace.name,
            records=(
                len(trace) if delivery is None else int(delivery.shape[0])
            ),
            flows=int(np.count_nonzero(run_starts(pairs[0]))),
            batches=batches,
            seconds=seconds,
            path_records=path.records,
            path_flows=int(path_flows.size),
            path_decoded=decoded,
            path_correct=correct,
            path_resets=resets,
            congestion_records=cong.records,
            congestion_flows=cong_flows,
            congestion_median_rel_err=median_err,
            offered_records=len(trace),
            dropped_records=summary.dropped if summary else 0,
            duplicated_records=summary.duplicated if summary else 0,
            reordered_records=summary.reordered if summary else 0,
            path_coverage_mean=coverage_mean,
            path_completed_under_loss=completed_under_loss,
            impairments=describe_models(self.impairments),
        )

    def run_scenario(
        self, name: str, packets: int = 20_000, seed: int = 0, **kw
    ) -> ScenarioReport:
        """Build ``name``'s trace and replay it."""
        return self.replay(build_trace(name, packets=packets, seed=seed, **kw))

    def run_all(
        self, packets: int = 20_000, seed: int = 0
    ) -> List[ScenarioReport]:
        """Replay every registered scenario; one report each.

        The driver's own ``impairments`` apply to every replay, so an
        impaired sweep is ``ReplayDriver(impairments=[...]).run_all()``.
        """
        return [
            self.run_scenario(name, packets=packets, seed=seed)
            for name in scenario_names()
        ]
