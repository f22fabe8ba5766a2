"""Fault recovery: what losing a worker mid-replay costs.

One same-run ratio ``bench/`` does not measure (that the recovered
sink is bit-identical to a fault-free serial one -- and that a starved
journal degrades with honest accounting -- is the ``fault`` axis of
``tests/equivalence.py``): for every registered replay scenario, a
supervised :class:`repro.collector.ParallelCollector` is fed the same
batches twice, once undisturbed and once with worker 1 SIGKILLed
mid-stream (a seeded :class:`repro.faults.FaultPlan`), and the wall
clock of the faulted run -- replacement fork, checkpoint restore and
journal replay included -- is reported over the clean one's.  A
recovery path that suddenly dominates ingest is a regression even when
it stays correct.  The fault is asserted to have actually fired
(``plan.fired``), so a scheduling change can never silently turn this
into a no-fault run.

Writes machine-readable ``BENCH_faults.json``.

Run:  PYTHONPATH=src python benchmarks/bench_fault_recovery.py
      (--quick: 2 scenarios, fewer records)
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from benchlib import write_bench_json
from repro.collector import ParallelCollector, path_consumer_factory
from repro.faults import FaultPlan, kill_worker
from repro.replay import TraceDataplane, build_trace, scenario_names

WORKERS = 2
NUM_SHARDS = 8


def supervised_run(trace, digests, batch: int, seed: int, plan) -> tuple:
    """Seconds to ingest and drain the trace, and the recovery stats."""
    hops = trace.hop_counts
    start = time.perf_counter()
    with ParallelCollector(
        path_consumer_factory(
            trace.universe, digest_bits=8, num_hashes=1, seed=seed
        ),
        workers=WORKERS, num_shards=NUM_SHARDS, seed=seed,
        checkpoint_every=4, faults=plan,
    ) as par:
        for lo, hi in trace.batches(batch):
            par.ingest_batch(
                trace.flow_id[lo:hi], trace.pid[lo:hi], hops[lo:hi],
                digests[lo:hi], now=float(trace.ts[hi - 1]),
            )
        par.drain()
        seconds = time.perf_counter() - start
        snap = par.snapshot()
    assert snap.records == len(trace) and snap.records_lost == 0
    return seconds, snap.recovery


def recovery_cost(name: str, packets: int, batch: int, seed: int) -> dict:
    """Kill worker 1 mid-replay; time it against the undisturbed run."""
    trace = build_trace(name, packets=packets, seed=seed)
    dataplane = TraceDataplane(trace, digest_bits=8, num_hashes=1, seed=seed)
    digests = dataplane.encode_rows(np.arange(len(trace), dtype=np.int64))
    clean_s, _ = supervised_run(trace, digests, batch, seed, None)
    kill_at = max(2, (len(trace) // batch) // 2)  # mid-replay
    plan = FaultPlan([kill_worker(1, at_batch=kill_at)])
    faulted_s, rec = supervised_run(trace, digests, batch, seed, plan)
    assert plan.fired and rec.restarts == 1, (
        f"{name}: the kill never fired (kill_at={kill_at} beyond the "
        "replay?) -- this run measures nothing"
    )
    print(f"  {name:<15} {len(trace):>7} rec  kill@batch {kill_at:<3} "
          f"replayed {rec.replayed_records:>6} rec  clean {clean_s:.3f}s  "
          f"faulted {faulted_s:.3f}s  = {faulted_s / clean_s:.2f}x")
    return {
        "records": len(trace),
        "kill_at_batch": kill_at,
        "checkpoints_taken": rec.checkpoints_taken,
        "replayed_batches": rec.replayed_batches,
        "replayed_records": rec.replayed_records,
        "clean_seconds": round(clean_s, 4),
        "faulted_seconds": round(faulted_s, 4),
        "recovery_cost": round(faulted_s / clean_s, 3),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--packets", type=int, default=12_000,
                        help="records per scenario")
    parser.add_argument("--batch", type=int, default=512,
                        help="columnar batch size (small on purpose: "
                        "more batches = more supervision touchpoints)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", default="BENCH_faults.json",
                        help="output path for the machine-readable results")
    parser.add_argument("--quick", action="store_true",
                        help="2 scenarios, fewer records")
    args = parser.parse_args()
    names = scenario_names()
    if args.quick:
        args.packets = min(args.packets, 4_000)
        names = ["incast", "web-search"]

    print(f"recovery cost: kill worker 1 mid-replay on {len(names)} "
          f"scenario(s), {args.packets} records each, "
          f"{WORKERS} workers / {NUM_SHARDS} shards")
    scenarios = {
        name: recovery_cost(name, args.packets, args.batch, args.seed)
        for name in names
    }
    write_bench_json(args.json, {
        "benchmark": "fault_recovery",
        "packets": args.packets,
        "batch": args.batch,
        "seed": args.seed,
        "workers": WORKERS,
        "num_shards": NUM_SHARDS,
        "quick": args.quick,
        "scenarios": scenarios,
    })


if __name__ == "__main__":
    main()
