"""One workload in one fresh process: a timed round or the traced run.

``run.py`` starts this file as a subprocess and reads the single JSON
object it prints on its last stdout line.

* ``--mode timed``: set up (imports, ``build_trace``, driver, one
  untraced pass of the bench's stage loop as warm-up), then repeat
  ``ReplayDriver.replay(trace)`` with tracing off until the round's
  time budget is spent.  Reports set-up time, per-rep walls, CPU, peak
  RSS, the sink state the warm-up pass kept, and every failed check.
* ``--mode traced``: the stage loop once with a span around every layer
  call, the serial reference it must equal, the outside
  micro-measurements and (where the workload has one) the open-loop
  phase.  Reports the per-layer ledger and writes the spans.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from typing import Dict, List

import numpy as np

from repro.replay.impair import plan_delivery

import micro
from openloop import run_open_loop
from spans import Tracer
from stageloop import EPILOGUE_SPANS, LoopResult, run_loop
from workloads import BY_NAME, Workload

#: Congestion answers must sit within this relative error of the truth.
CONGESTION_ERR_LIMIT = 0.05
#: The open-loop generator may run this late (one batch interval)
#: before its latencies stop meaning what they say.
GEN_LATE_LIMIT_MS = 5.0
#: Wall the first-touch/observe micro-measurement may spend.
MICRO_BUDGET_S = 1.5


def environment() -> Dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_1m_start": os.getloadavg()[0],
    }


def load_reasons(env: Dict) -> List[str]:
    """Why timings from this process cannot be trusted (usually empty)."""
    if env["loadavg_1m_start"] > env["nproc"]:
        return [
            f"load average {env['loadavg_1m_start']:.2f} > nproc "
            f"{env['nproc']} at start"
        ]
    return []


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mib() -> float:
    """Peak RSS of this process plus the largest reaped child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class Ledger:
    """Failed checks and the failed/attempted operation counts."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def loop(self, what: str, res: LoopResult) -> None:
        """Ground-truth checks on one pass of the stage loop."""
        self.attempted += res.delivered + res.decoded
        self.failed += (res.delivered - res.sink_records) + (
            res.decoded - res.correct
        )
        self.check(
            res.correct == res.decoded,
            f"{what}: {res.decoded - res.correct} decoded path(s) the "
            "flow never traversed",
        )
        self.check(
            res.sink_records == res.delivered,
            f"{what}: snapshots hold {res.sink_records} records, "
            f"{res.delivered} were delivered",
        )
        self._congestion(what, res.cong_median_rel_err)

    def report(self, what: str, rep, warm: LoopResult) -> None:
        """Ground-truth checks on one ``replay()`` report, plus: the
        stage loop and the program must have computed the same thing."""
        self.attempted += rep.records + rep.path_decoded
        self.failed += rep.records_lost + (
            rep.path_decoded - rep.path_correct
        )
        self.check(
            rep.path_correct == rep.path_decoded,
            f"{what}: {rep.path_decoded - rep.path_correct} decoded "
            "path(s) the flow never traversed",
        )
        self.check(
            rep.records_lost == 0 and rep.degraded_shards == 0,
            f"{what}: {rep.records_lost} records lost, "
            f"{rep.degraded_shards} shard(s) degraded",
        )
        self._congestion(what, rep.congestion_median_rel_err)
        mirror = (
            ("records", "delivered"), ("batches", "batches"),
            ("path_records", "path_records"),
            ("congestion_records", "cong_records"),
            ("path_flows", "path_flows"), ("path_decoded", "decoded"),
            ("path_correct", "correct"), ("path_resets", "resets"),
            ("congestion_flows", "cong_flows"),
            ("dropped_records", "dropped"),
            ("duplicated_records", "duplicated"),
            ("reordered_records", "reordered"),
        )
        for theirs, ours in mirror:
            a, b = getattr(rep, theirs), getattr(warm, ours)
            self.check(
                a == b, f"{what}: replay() {theirs}={a}, stage loop {ours}={b}"
            )

    def _congestion(self, what: str, err: float) -> None:
        self.check(
            math.isnan(err) or err <= CONGESTION_ERR_LIMIT,
            f"{what}: congestion median relative error {err:.4f} > "
            f"{CONGESTION_ERR_LIMIT}",
        )

    def as_dict(self) -> Dict:
        return {
            "correct": not self.failures,
            "attempted": self.attempted, "failed": self.failed,
            "failures": self.failures[:20],
        }


def timed_round(w: Workload, args) -> Dict:
    env = environment()
    trace = w.build_trace(args.seed, args.scale)
    driver = w.driver(args.seed)
    ledger = Ledger()
    warm = run_loop(trace, driver, Tracer(enabled=False))
    ledger.loop("warm-up", warm)
    # Only its numbers are needed from here on; a sink full of live
    # decoders would tax every later garbage collection and the RSS.
    warm.path_sink = None
    gc.collect()
    setup_s = time.monotonic() - args.spawned_at

    walls: List[float] = []
    cpus: List[float] = []
    started = time.perf_counter()
    while True:
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        report = driver.replay(trace)
        wall = time.perf_counter() - t0
        walls.append(wall)
        cpus.append(cpu_seconds() - cpu0)
        ledger.report(f"rep {len(walls)}", report, warm)
        # Start another rep only while more than half of it still fits.
        if time.perf_counter() - started + 0.5 * wall >= args.seconds:
            break
        # Every rep starts from a collected heap, outside the clock.
        del report
        gc.collect()
    return {
        "mode": "timed", "workload": w.name, "env": env,
        "setup_s": setup_s,
        "offered": len(trace), "walls_s": walls, "cpus_s": cpus,
        "peak_rss_mb": peak_rss_mib(),
        "state_bytes": warm.path_snapshot["state_bytes"],
        "flows_live": warm.path_snapshot["flows"],
        "path_flows": warm.path_flows, "path_decoded": warm.decoded,
        "digest": warm.digest, "unresolved": load_reasons(env),
        **ledger.as_dict(),
    }


def traced_run(w: Workload, args) -> Dict:
    env = environment()
    t0 = time.perf_counter()
    trace = w.build_trace(args.seed, args.scale)
    build_s = time.perf_counter() - t0
    driver = w.driver(args.seed)
    ledger = Ledger()

    # Warm-up, then the untraced walls the traced wall is compared with.
    reference = None
    if w.serial:
        driver.replay(trace)
    else:
        reference = run_loop(
            trace, driver, Tracer(enabled=False), serial_reference=True
        )
        ledger.loop("serial reference", reference)
    untraced = []
    for _ in range(2):
        gc.collect()
        t0 = time.perf_counter()
        report = driver.replay(trace)
        untraced.append(time.perf_counter() - t0)

    gc.collect()
    tracer = Tracer()
    res = run_loop(trace, driver, tracer)
    ledger.loop("traced loop", res)
    ledger.report("untraced rep", report, res)
    if reference is None:
        reference = res
    ledger.check(
        res.digest == reference.digest,
        f"answers digest {res.digest[:12]} != serial reference "
        f"{reference.digest[:12]}",
    )

    root = tracer.find("replay")
    totals = tracer.totals()
    selfs = tracer.self_totals()
    counts = tracer.counts()
    traced_wall = tracer.duration(root) - sum(
        totals.get(name, 0.0) for name in EPILOGUE_SPANS
    )
    cover = tracer.child_cover(root)

    def total(*names: str) -> float:
        return sum(totals.get(n, 0.0) for n in names)

    delivery = None
    if driver.impairments:
        delivery = plan_delivery(
            driver.impairments, len(trace), trace.flow_id
        )
    # The path sink's input, encoded once for every outside measurement.
    batches = list(micro.path_batches(trace, driver, delivery))
    consumers = micro.consumer_costs(
        trace, driver, batches, budget_s=MICRO_BUDGET_S
    )
    ckpt = micro.checkpoint_costs(trace, driver, reference.path_sink)
    ledger.check(
        ckpt["identical"], "restored checkpoint differs from the sink"
    )
    wire = (
        micro.wire_costs(batches)
        if w.transport is not None
        else {"encode_s": 0.0, "decode_s": 0.0, "bytes_per_record": 0.0}
    )
    unresolved = load_reasons(env)
    open_loop: Dict = {}
    if w.open_loop_rps is not None:
        open_loop = run_open_loop(
            trace, driver, batches, w.open_loop_rps, args.open_loop_seconds
        )
        ledger.attempted += open_loop["attempted"]
        ledger.failed += open_loop["failed"]
        ledger.check(
            open_loop["failed"] == 0,
            f"open loop: {open_loop['failed']} failed operation(s) "
            f"{open_loop['errors']}",
        )
        if open_loop["gen_late_p99_ms"] > GEN_LATE_LIMIT_MS:
            unresolved.append(
                f"generator p99 lateness {open_loop['gen_late_p99_ms']:.2f}"
                f" ms > {GEN_LATE_LIMIT_MS} ms"
            )
    ol = open_loop.get
    encode_s = total("replay.dataplane.encode")
    snap = res.path_snapshot
    per_layer = {
        "replay.scenarios.build_s": build_s,
        "core.plan.select_s": total("core.plan.select"),
        "replay.dataplane.encode_s": encode_s,
        "replay.dataplane.encode_rps": (
            res.path_records / encode_s if encode_s > 0 else 0.0
        ),
        "replay.dataplane.compress_s": total("replay.dataplane.compress"),
        "replay.driver.gather_s": total("replay.driver.gather"),
        "replay.driver.score_s": selfs.get("replay.driver.score", 0.0)
        + total("replay.trace.flow_paths", "replay.impair.summarize"),
        "replay.impair.plan_s": total("replay.impair.plan"),
        "replay.impair.dropped_share": res.dropped / res.offered,
        "replay.impair.reordered_share": res.reordered / res.delivered,
        "replay.impair.duplicated_share": res.duplicated / res.delivered,
        "collector.shard.route_s": micro.route_cost(driver, batches),
        "collector.shard.skew": res.shard_skew,
        "collector.collector.ingest_path_s": total(
            "collector.collector.ingest_path"
        ),
        "collector.collector.ingest_cong_s": total(
            "collector.collector.ingest_cong"
        ),
        "collector.collector.ingest_batches": res.batches,
        "collector.collector.flows_fetch_s": total(
            "collector.collector.flows_fetch"
        ),
        "collector.consumers.first_touch_us": consumers["first_touch_us"],
        "collector.consumers.first_touch_count": res.flows_created,
        "collector.batchdecode.observe_us_per_rec": consumers[
            "observe_us_per_rec"
        ],
        "coding.decoder.resets": res.resets,
        "coding.decoder.coverage_mean": (
            res.coverage_mean if math.isfinite(res.coverage_mean) else 0.0
        ),
        "collector.flowtable.flows_live": snap["flows"],
        "collector.flowtable.evictions": snap["evictions"],
        "collector.flowtable.state_bytes": snap["state_bytes"],
        "collector.snapshot.snapshot_s": total("collector.snapshot.snapshot"),
        "collector.recovery.checkpoint_s": ckpt["checkpoint_s"],
        "collector.recovery.restore_s": ckpt["restore_s"],
        "collector.recovery.checkpoint_bytes": ckpt["checkpoint_bytes"],
        "collector.parallel.start_s": total("collector.parallel.start"),
        "collector.parallel.scatter_s": total("collector.parallel.scatter"),
        "collector.parallel.drain_s": total("collector.parallel.drain"),
        "collector.parallel.flows_rpc_s": total(
            "collector.parallel.flows_rpc"
        ),
        "collector.parallel.close_s": total("collector.parallel.close"),
        "service.wire.encode_s": wire["encode_s"],
        "service.wire.decode_s": wire["decode_s"],
        "service.wire.bytes_per_record": wire["bytes_per_record"],
        "service.client.send_s": total("service.client.send"),
        "service.client.flush_s": total("service.client.flush"),
        "service.client.frames": res.wire_frames + ol("frames", 0),
        "service.client.retransmits": res.retransmits + ol("retransmits", 0),
        "service.server.backlog_wait_s": total("service.server.backlog_wait"),
        "service.server.close_s": total("service.server.close"),
        "service.server.dropped_queue_full": res.service_counters.get(
            "dropped_queue_full", 0
        ) + ol("dropped_queue_full", 0),
        "service.server.duplicate_frames": res.service_counters.get(
            "duplicate_frames", 0
        ) + ol("duplicate_frames", 0),
        "service.server.fresh_p50_ms": ol("fresh_p50_ms", 0.0),
        "service.server.fresh_p98_ms": ol("fresh_p98_ms", 0.0),
        "service.server.gen_late_p99_ms": ol("gen_late_p99_ms", 0.0),
        "service.query.flow_p50_ms": ol("query_p50_ms", 0.0),
        "service.query.flow_p95_ms": ol("query_p95_ms", 0.0),
        "service.query.snapshot_ms": ol("snapshot_ms", 0.0),
        "trace.unattributed_share": 1.0 - cover,
        "trace.overhead_share": (
            traced_wall / statistics.median(untraced) - 1.0
        ),
    }
    os.makedirs(args.out_dir, exist_ok=True)
    spans_file = os.path.join(args.out_dir, f"trace-{w.name}.jsonl")
    tracer.dump_jsonl(spans_file)
    return {
        "mode": "traced", "workload": w.name, "env": env,
        "per_layer": per_layer,
        "traced_wall_s": traced_wall, "untraced_walls_s": untraced,
        "top_level_cover": cover,
        "span_seconds": totals, "span_counts": counts,
        "samples": {
            "service.server.fresh_p98_ms": ol("fresh_n", 0),
            "service.query.flow_p95_ms": ol("query_n", 0),
            "collector.consumers.first_touch_us": consumers[
                "first_touch_flows"
            ],
            "collector.batchdecode.observe_us_per_rec": consumers[
                "observe_records"
            ],
        },
        "open_loop": open_loop,
        "spans_file": spans_file, "spans": len(tracer.spans),
        "digest": res.digest, "reference_digest": reference.digest,
        "unresolved": unresolved,
        **ledger.as_dict(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("timed", "traced"), required=True)
    parser.add_argument("--workload", choices=sorted(BY_NAME), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--open-loop-seconds", type=float, default=5.0)
    parser.add_argument("--out-dir", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "out"))
    args = parser.parse_args()
    if args.spawned_at is None:
        args.spawned_at = time.monotonic()
    w = BY_NAME[args.workload]
    result = timed_round(w, args) if args.mode == "timed" else traced_run(w, args)
    sys.stdout.flush()
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
