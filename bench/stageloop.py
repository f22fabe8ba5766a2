"""The bench's own stage loop: ``ReplayDriver.replay`` call for call.

``ReplayDriver.replay`` is the program; it returns a report and closes
its sinks, so neither the per-flow answers nor the time spent in each
layer can be read from outside.  This module repeats the same sequence
of *public* ``repro`` calls -- same objects, same arguments, same order
-- with a span around every call into a layer, and keeps the answers.
It is used three ways:

* untraced, as the warm-up rep of a timed run: it yields the snapshot
  and the answers digest of the configuration under test;
* traced, for the per-layer ledger;
* as the serial in-process reference the configuration under test must
  equal (``serial_reference=True``).

The scores it computes are cross-checked against the ``ScenarioReport``
of the timed ``replay()`` reps, so the mirror cannot drift unnoticed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.apps.congestion import UtilizationCodec
from repro.collector import (
    Collector,
    ParallelCollector,
    congestion_consumer_factory,
    path_consumer_factory,
)
from repro.replay.dataplane import TraceDataplane, compress_utilizations
from repro.replay.impair import plan_delivery, summarize_delivery
from repro.service import CollectorServer, ReliableUDPSender

from spans import Tracer

#: Spans that exist only to keep answers; ``replay()`` does not do this
#: work, so it is left out of the wall compared with ``replay()``.
EPILOGUE_SPANS = ("collector.snapshot.snapshot", "bench.digest")


@dataclass
class LoopResult:
    """Counts, answers and state of one pass of the stage loop."""

    offered: int
    delivered: int
    batches: int
    path_records: int
    cong_records: int
    path_flows: int
    decoded: int
    correct: int
    resets: int
    coverage_mean: float
    cong_flows: int
    cong_median_rel_err: float
    dropped: int
    duplicated: int
    reordered: int
    path_snapshot: Dict
    cong_snapshot: Optional[Dict]
    digest: str
    wire_frames: int = 0
    retransmits: int = 0
    service_counters: Dict[str, int] = field(default_factory=dict)
    #: The closed serial path collector (reads stay valid after close);
    #: None when the path sink lived in worker processes.
    path_sink: Optional[Collector] = None

    @property
    def sink_records(self) -> int:
        """Records the sinks hold according to their own snapshots."""
        cong = self.cong_snapshot["records"] if self.cong_snapshot else 0
        return self.path_snapshot["records"] + cong

    @property
    def flows_created(self) -> int:
        return sum(s["created"] for s in self.path_snapshot["shards"])

    @property
    def shard_skew(self) -> float:
        records = [s["records"] for s in self.path_snapshot["shards"]]
        mean = sum(records) / len(records) if records else 0.0
        return max(records) / mean if mean > 0 else 0.0


def make_dataplane(trace, driver) -> TraceDataplane:
    """The dataplane ``replay()`` builds for ``trace``."""
    return TraceDataplane(
        trace, digest_bits=driver.digest_bits, num_hashes=driver.num_hashes,
        mode=driver.mode, seed=driver.seed,
    )


def path_factory(trace, driver, dataplane):
    """The path-sink consumer factory ``replay()`` builds."""
    return path_consumer_factory(
        trace.universe, digest_bits=driver.digest_bits,
        num_hashes=driver.num_hashes, seed=driver.seed,
        mode="hash" if driver.mode == "auto" else driver.mode,
        value_bits=dataplane.value_bits,
    )


def run_loop(
    trace, driver, tracer: Tracer, serial_reference: bool = False
) -> LoopResult:
    """One pass: trace rows -> sinks -> scored, digested answers.

    ``driver`` supplies the configuration (its public attributes and
    its ``plan``); ``serial_reference`` overrides it with serial
    in-process sinks on the same delivered rows.
    """
    workers = None if serial_reference else driver.workers
    transport = None if serial_reference else driver.transport
    span = tracer.span
    models = driver.impairments
    path_sink = cong_sink = None
    path_server = cong_server = path_tx = cong_tx = None
    closed = False
    try:
        with span("replay"):
            with span("replay.dataplane.setup"):
                dataplane = make_dataplane(trace, driver)
                hop_counts = trace.hop_counts
                utils = (
                    driver.utilizations(trace)
                    if driver.has_congestion else None
                )
            with span("collector.construct"):
                factory = path_factory(trace, driver, dataplane)
                if workers is None:
                    path_sink = Collector(
                        factory, num_shards=driver.num_shards,
                        seed=driver.seed,
                    )
                else:
                    path_sink = ParallelCollector(
                        factory, workers=workers,
                        num_shards=driver.num_shards, seed=driver.seed,
                        transport=driver.worker_transport,
                    )
                codec = None
                if driver.has_congestion:
                    cong_sink = Collector(
                        congestion_consumer_factory(
                            bits=driver.congestion_bits, seed=driver.seed,
                        ),
                        num_shards=driver.num_shards, seed=driver.seed,
                    )
                    codec = UtilizationCodec(
                        driver.congestion_bits, seed=driver.seed
                    )
            path_ingest = path_sink.ingest_batch
            cong_ingest = (
                cong_sink.ingest_batch if cong_sink is not None else None
            )
            path_span = "collector.collector.ingest_path"
            cong_span = "collector.collector.ingest_cong"
            if workers is not None:
                with span("collector.parallel.start"):
                    path_sink.start()
                path_span = "collector.parallel.scatter"
            if transport is not None:
                with span("service.server.start"):
                    path_server = CollectorServer(
                        path_sink, tcp_port=None
                    ).start()
                    path_tx = ReliableUDPSender(
                        "127.0.0.1", path_server.udp_port
                    )
                    path_ingest = path_tx.send_batch
                    if cong_sink is not None:
                        cong_server = CollectorServer(
                            cong_sink, tcp_port=None
                        ).start()
                        cong_tx = ReliableUDPSender(
                            "127.0.0.1", cong_server.udp_port
                        )
                        cong_ingest = cong_tx.send_batch
                path_span = cong_span = "service.client.send"
            delivery = None
            if models:
                with span("replay.impair.plan"):
                    delivery = plan_delivery(
                        models, len(trace), trace.flow_id
                    )
            total = len(trace) if delivery is None else int(delivery.shape[0])
            batches = path_records = cong_records = 0
            for lo in range(0, total, driver.batch_size):
                hi = min(lo + driver.batch_size, total)
                b = batches
                with span("replay.driver.gather", b):
                    if delivery is None:
                        rows = np.arange(lo, hi, dtype=np.int64)
                        now = float(trace.ts[hi - 1])
                    else:
                        rows = delivery[lo:hi]
                        now = float(trace.ts[rows].max())
                    batch_pids = trace.pid[rows]
                with span("core.plan.select", b):
                    entry = driver.plan.select_array(batch_pids)
                with span("replay.driver.gather", b):
                    path_rows = rows[entry == 0]
                if path_rows.size:
                    with span("replay.dataplane.encode", b):
                        digests = dataplane.encode_rows(path_rows)
                    with span("replay.driver.gather", b):
                        cols = (
                            trace.flow_id[path_rows], trace.pid[path_rows],
                            hop_counts[path_rows],
                        )
                    with span(path_span, b):
                        path_ingest(*cols, digests, now=now)
                    path_records += int(path_rows.size)
                if cong_sink is not None:
                    with span("replay.driver.gather", b):
                        cong_rows = rows[entry == 1]
                    if cong_rows.size:
                        with span("replay.driver.gather", b):
                            cols = (
                                trace.flow_id[cong_rows],
                                trace.pid[cong_rows], hop_counts[cong_rows],
                            )
                        with span("replay.dataplane.compress", b):
                            codes = compress_utilizations(
                                codec, utils[cong_rows], cols[1], cols[2],
                            )
                        with span(cong_span, b):
                            cong_ingest(*cols, codes, now=now)
                        cong_records += int(cong_rows.size)
                batches += 1
            if path_tx is not None:
                with span("service.client.flush"):
                    path_tx.flush()
                    if cong_tx is not None:
                        cong_tx.flush()
                with span("service.server.backlog_wait"):
                    path_server.wait_for_records(path_records)
                    path_server.drain()
                    if cong_tx is not None:
                        cong_server.wait_for_records(cong_records)
                        cong_server.drain()
            with span(
                "collector.parallel.drain" if workers is not None
                else "collector.collector.drain"
            ):
                path_sink.drain()
                if cong_sink is not None:
                    cong_sink.drain()
            with span("replay.driver.score"):
                scored = _score(
                    trace, driver, path_sink, cong_sink, codec, utils,
                    cong_records, delivery, span, workers is not None,
                )
            with span("collector.snapshot.snapshot"):
                path_snap = path_sink.snapshot().as_dict()
                cong_snap = (
                    cong_sink.snapshot().as_dict()
                    if cong_sink is not None else None
                )
            with span("bench.digest"):
                digest = answers_digest(
                    scored["path_answers"], scored["cong_answers"],
                    path_snap, cong_snap,
                )
            frames = retx = 0
            counters: Dict[str, int] = {}
            for tx, server in ((path_tx, path_server), (cong_tx, cong_server)):
                if tx is None:
                    continue
                frames += tx.frames_sent
                retx += tx.retransmits
                stats = server.service_stats()
                for key in ("dropped_queue_full", "duplicate_frames"):
                    counters[key] = counters.get(key, 0) + getattr(stats, key)
            closed = True
            if path_tx is not None:
                with span("service.server.close"):
                    _close_wire(path_tx, cong_tx, path_server, cong_server)
            with span(
                "collector.parallel.close" if workers is not None
                else "collector.collector.close"
            ):
                _close_sinks(path_sink, cong_sink)
    finally:
        if not closed:
            _close_wire(path_tx, cong_tx, path_server, cong_server)
            _close_sinks(path_sink, cong_sink)
    summary = scored["summary"]
    return LoopResult(
        offered=len(trace), delivered=total, batches=batches,
        path_records=path_records, cong_records=cong_records,
        path_flows=scored["path_flows"], decoded=scored["decoded"],
        correct=scored["correct"], resets=scored["resets"],
        coverage_mean=scored["coverage_mean"],
        cong_flows=scored["cong_flows"],
        cong_median_rel_err=scored["cong_median_rel_err"],
        dropped=summary.dropped if summary else 0,
        duplicated=summary.duplicated if summary else 0,
        reordered=summary.reordered if summary else 0,
        path_snapshot=path_snap, cong_snapshot=cong_snap, digest=digest,
        wire_frames=frames, retransmits=retx, service_counters=counters,
        path_sink=path_sink if workers is None else None,
    )


def _close_wire(path_tx, cong_tx, path_server, cong_server) -> None:
    """Release sockets then servers, as ``replay()`` does."""
    for tx in (path_tx, cong_tx):
        if tx is not None:
            tx.sock.close()
    for server in (path_server, cong_server):
        if server is not None:
            server.close()


def _close_sinks(path_sink, cong_sink) -> None:
    for sink in (path_sink, cong_sink):
        if sink is not None:
            sink.close()


def _score(trace, driver, path_sink, cong_sink, codec, utils,
           cong_records, delivery, span, parallel) -> Dict:
    """Answers against the trace's ground truth, as ``replay()`` scores.

    Path flows are scored against the offered stream; congestion truth
    is the max over delivered records.  Returns the counts plus the
    per-flow answers the digest is taken over.
    """
    with span("core.plan.select"):
        entry = driver.plan.select_array(trace.pid)
    with span("replay.trace.flow_paths"):
        truth = trace.flow_paths()
    path_flows = np.unique(trace.flow_id[entry == 0])
    summary = None
    delivered_rows = None
    if delivery is not None:
        with span("replay.impair.summarize"):
            summary = summarize_delivery(len(trace), delivery, trace.flow_id)
            delivered_rows = np.unique(delivery)
            path_rows = np.flatnonzero(entry == 0)
            # replay() derives the flows that lost a record here; the
            # bench does not report that count but pays for it alike.
            dropped = path_rows[~np.isin(path_rows, delivered_rows)]
            np.unique(trace.flow_id[dropped])
    fid_list = path_flows.tolist()
    with span("collector.collector.flows_fetch"):
        if parallel:
            with span("collector.parallel.flows_rpc"):
                consumers = path_sink.flows(fid_list)
        else:
            consumers = path_sink.flows(fid_list)
        results = [c.result() if c is not None else None for c in consumers]
    decoded = correct = resets = 0
    coverages: List[float] = []
    path_answers = []
    for fid, consumer, result in zip(fid_list, consumers, results):
        if consumer is None:
            continue
        resets += consumer.decode_errors
        coverages.append(consumer.coverage)
        path_answers.append((fid, result))
        if result is None:
            continue
        decoded += 1
        if tuple(result) in {trace.paths[pid] for pid in truth[fid]}:
            correct += 1
    median_err = float("nan")
    cong_answers = []
    if cong_sink is not None and cong_records:
        if delivered_rows is None:
            sel = np.flatnonzero(entry == 1)
        else:
            sel = delivered_rows[entry[delivered_rows] == 1]
        fids = trace.flow_id[sel]
        true_utils = utils[sel]
        order = np.argsort(fids, kind="stable")
        fids = fids[order]
        true_utils = true_utils[order]
        cuts = np.flatnonzero(fids[1:] != fids[:-1]) + 1
        starts = np.concatenate(([0], cuts))
        group_max = np.maximum.reduceat(true_utils, starts)
        codes, truths = [], []
        for fid, top in zip(fids[starts].tolist(), group_max.tolist()):
            consumer = cong_sink.flow(int(fid))
            if consumer is not None and consumer.max_code >= 0:
                codes.append(consumer.max_code)
                truths.append(top)
                cong_answers.append((fid, consumer.max_code))
        if codes:
            got = codec.decode_array(np.asarray(codes, dtype=np.int64))
            truth_arr = np.asarray(truths, dtype=np.float64)
            median_err = float(
                np.median(np.abs(got - truth_arr) / truth_arr)
            )
    return {
        "summary": summary,
        "path_flows": int(path_flows.size),
        "decoded": decoded, "correct": correct, "resets": resets,
        "coverage_mean": (
            float(np.mean(coverages)) if coverages else float("nan")
        ),
        "cong_flows": len(cong_answers),
        "cong_median_rel_err": median_err,
        "path_answers": path_answers, "cong_answers": cong_answers,
    }


def answers_digest(path_answers, cong_answers, path_snap, cong_snap) -> str:
    """sha256 over sorted per-flow answers plus both snapshot dicts.

    The repo's bit-identity contract in one value: two configurations
    fed the same delivered rows must produce the same digest.
    """
    payload = {
        "path": sorted(
            [int(fid), None if res is None else [int(x) for x in res]]
            for fid, res in path_answers
        ),
        "congestion": sorted(
            [int(fid), int(code)] for fid, code in cong_answers
        ),
        "path_snapshot": _finite(path_snap),
        "congestion_snapshot": _finite(cong_snap),
    }
    blob = json.dumps(payload, sort_keys=True, allow_nan=False)
    return hashlib.sha256(blob.encode()).hexdigest()


def _finite(obj):
    """Replace non-finite floats by None so the dump is strict JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj
