"""Parallel collector ingest: N worker processes vs one, plus equivalence.

Two claims ride in this benchmark:

* **Throughput.**  For the decode-heavy path query (real per-flow
  digests, §4.2 peeling at the sink), a
  :class:`repro.collector.ParallelCollector` with 4 workers sustains
  >= 2x the single-process :meth:`Collector.ingest_batch` rate on the
  same columnar workload.  Timing covers scatter + transport + worker
  decode + the final ``drain()`` barrier (worker startup is excluded:
  a collector is a long-lived service).  The assertion only arms when
  the machine actually has >= 4 usable cores -- parallel speedup on a
  1-core container is physics, not a regression -- and the JSON
  records both the core count and whether the bar was enforced.

* **Equivalence.**  For every registered replay scenario, a serial
  collector and a 4-worker parallel collector fed the identical
  encoded batches produce a bit-identical merged snapshot (every
  per-shard counter, byte estimate and clock stamp) and bit-identical
  per-flow query answers -- for the path query and for the congestion
  max-aggregation.  This always runs, on any machine.

Writes machine-readable ``BENCH_parallel.json`` (uploaded by CI next
to the other bench artifacts; merged into ``BENCH_pipeline.json`` by
``bench_pipeline.py``).

Run:  PYTHONPATH=src python benchmarks/bench_parallel_ingest.py
      (--quick for the CI smoke run)
"""

from __future__ import annotations

import argparse
import os
import time

import numpy as np

from benchlib import make_path_workload, write_bench_json
from repro.collector import (
    Collector,
    ParallelCollector,
    congestion_consumer_factory,
    path_consumer_factory,
)
from repro.replay import TraceDataplane, build_trace, scenario_names


def usable_cores() -> int:
    """Cores this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def time_serial(make_collector, cols, batch: int, repeats: int) -> float:
    """Best-of-``repeats`` seconds for single-process batched ingest."""
    fids, pids, hops, digs = cols
    n = len(fids)
    best = float("inf")
    for _ in range(repeats):
        col = make_collector()
        start = time.perf_counter()
        for lo in range(0, n, batch):
            hi = lo + batch
            col.ingest_batch(fids[lo:hi], pids[lo:hi], hops[lo:hi],
                             digs[lo:hi])
        best = min(best, time.perf_counter() - start)
        assert col.snapshot().records == n
    return best


def time_parallel(
    make_collector, cols, batch: int, repeats: int
) -> float:
    """Best-of-``repeats`` seconds for scatter + worker ingest + drain.

    Workers are started before the clock (a collector is a long-lived
    service; fork cost is not an ingest cost) and the clock stops only
    after ``drain()`` confirms every scattered record was applied --
    anything less would time the ring write, not the work.
    """
    fids, pids, hops, digs = cols
    n = len(fids)
    best = float("inf")
    for _ in range(repeats):
        with make_collector() as col:
            start = time.perf_counter()
            for lo in range(0, n, batch):
                hi = lo + batch
                col.ingest_batch(fids[lo:hi], pids[lo:hi], hops[lo:hi],
                                 digs[lo:hi])
            col.drain()
            best = min(best, time.perf_counter() - start)
            assert col.snapshot().records == n
    return best


def bench_throughput(args) -> dict:
    """Serial vs N-worker ingest on the decode-heavy path workload."""
    cols, universe, factory_kwargs = make_path_workload(
        args.records, args.flows, args.seed
    )
    factory = lambda: path_consumer_factory(universe, **factory_kwargs)
    print(f"\nworkload: {args.records} path-query records over "
          f"{args.flows} flows, batch={args.batch}, "
          f"{args.num_shards} shards")
    serial_s = time_serial(
        lambda: Collector(factory(), num_shards=args.num_shards,
                          seed=args.seed),
        cols, args.batch, args.repeats,
    )
    serial_rate = args.records / serial_s
    print(f"serial    1 process   {serial_rate:>12,.0f} rec/s")
    results = {}
    for workers in args.workers:
        par_s = time_parallel(
            # workers bound as a default: the lambda runs inside this
            # iteration, but late-binding closures are the B023 trap.
            lambda workers=workers: ParallelCollector(
                factory(), workers=workers, num_shards=args.num_shards,
                seed=args.seed,
            ),
            cols, args.batch, args.repeats,
        )
        rate = args.records / par_s
        speedup = rate / serial_rate
        results[str(workers)] = {
            "rps": round(rate),
            "speedup": round(speedup, 2),
        }
        print(f"parallel  {workers} workers   {rate:>12,.0f} rec/s   "
              f"{speedup:.2f}x")
    return {"serial_rps": round(serial_rate), "workers": results}


def check_scenario_equivalence(
    name: str, packets: int, batch: int, workers: int, num_shards: int,
    seed: int,
) -> dict:
    """Serial vs parallel on one scenario trace: must be bit-identical.

    Feeds both collectors the same encoded columns batch by batch
    (trace timestamps as the clock), then compares the merged snapshot
    dict -- every per-shard counter, the byte estimates, the clock
    stamp -- and every flow's query answer, for the path query and the
    congestion max-aggregation.
    """
    trace = build_trace(name, packets=packets, seed=seed)
    dataplane = TraceDataplane(trace, digest_bits=8, num_hashes=1, seed=seed)
    digests = dataplane.encode_rows(np.arange(len(trace), dtype=np.int64))
    hops = trace.hop_counts
    rng = np.random.default_rng(seed)
    cong_codes = rng.integers(0, 256, size=len(trace), dtype=np.int64)
    flows = np.unique(trace.flow_id).tolist()

    def path_factory():
        return path_consumer_factory(
            trace.universe, digest_bits=8, num_hashes=1, seed=seed
        )

    checked = {}
    for kind, factory, digs in (
        ("path", path_factory, digests),
        ("congestion",
         lambda: congestion_consumer_factory(seed=seed), cong_codes),
    ):
        serial = Collector(factory(), num_shards=num_shards, seed=seed)
        with ParallelCollector(
            factory(), workers=workers, num_shards=num_shards, seed=seed,
        ) as par:
            for lo, hi in trace.batches(batch):
                now = float(trace.ts[hi - 1])
                serial.ingest_batch(
                    trace.flow_id[lo:hi], trace.pid[lo:hi], hops[lo:hi],
                    digs[lo:hi], now=now,
                )
                par.ingest_batch(
                    trace.flow_id[lo:hi], trace.pid[lo:hi], hops[lo:hi],
                    digs[lo:hi], now=now,
                )
            par.drain()
            s_snap = serial.snapshot().as_dict()
            p_snap = par.snapshot().as_dict()
            assert s_snap == p_snap, (
                f"{name}/{kind}: merged snapshot diverges from serial: "
                + str({k: (s_snap[k], p_snap[k]) for k in s_snap
                       if s_snap[k] != p_snap[k]})
            )
            mismatches = [
                fid for fid in flows
                if serial.result(fid) != par.result(fid)
            ]
            assert not mismatches, (
                f"{name}/{kind}: per-flow results diverge for flows "
                f"{mismatches[:5]}..."
            )
        checked[kind] = {"flows": len(flows), "records": len(trace)}
    return checked


def bench_equivalence(args) -> dict:
    """Run the bit-identity check on every registered scenario."""
    workers = max(args.workers)
    print(f"\nequivalence: serial vs {workers}-worker collector, "
          f"{args.eq_packets} records/scenario, both query kinds")
    scenarios = {}
    for name in scenario_names():
        scenarios[name] = check_scenario_equivalence(
            name, args.eq_packets, args.batch, workers, args.num_shards,
            args.seed,
        )
        print(f"  {name:<15} snapshot + per-flow results bit-identical")
    return {"workers": workers, "packets": args.eq_packets,
            "scenarios": scenarios, "ok": True}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=200_000,
                        help="records in the throughput workload")
    parser.add_argument("--flows", type=int, default=256,
                        help="concurrent flow population (a larger "
                        "population spreads Zipf skew across shards, so "
                        "worker load stays balanced)")
    parser.add_argument("--num-shards", type=int, default=8,
                        help="collector shard count")
    parser.add_argument("--batch", type=int, default=8192,
                        help="columnar batch size")
    parser.add_argument("--workers", type=int, nargs="+", default=[2, 4],
                        help="worker counts to sweep")
    parser.add_argument("--eq-packets", type=int, default=12_000,
                        help="records per scenario in the equivalence check")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions (best-of-N)")
    parser.add_argument("--json", default="BENCH_parallel.json",
                        help="output path for the machine-readable results")
    parser.add_argument("--quick", action="store_true",
                        help="small CI smoke run")
    args = parser.parse_args()
    if args.quick:
        args.records = min(args.records, 80_000)
        args.eq_packets = min(args.eq_packets, 4_000)
        args.repeats = min(args.repeats, 2)

    cores = usable_cores()
    print(f"parallel ingest: {cores} usable cores, "
          f"workers sweep {args.workers}")

    throughput = bench_throughput(args)
    equivalence = bench_equivalence(args)

    target_workers = max(args.workers)
    speedup = throughput["workers"][str(target_workers)]["speedup"]
    enforce = cores >= target_workers
    payload = {
        "benchmark": "parallel_ingest_throughput",
        "records": args.records,
        "flows": args.flows,
        "num_shards": args.num_shards,
        "batch": args.batch,
        "seed": args.seed,
        "cores": cores,
        "serial_rps": throughput["serial_rps"],
        "workers": throughput["workers"],
        #: The worker count the >=2x assertion targets, whether it ran
        #: (self-gated on usable cores), and -- when it did not -- why:
        #: a CI reader must be able to tell "passed" from "never ran".
        "target_workers": target_workers,
        "speedup_asserted": enforce,
        "speedup_skip_reason": (
            None if enforce else
            f"only {cores} usable core(s) < {target_workers} workers"
        ),
        "equivalence": equivalence,
    }
    write_bench_json(args.json, payload)

    if enforce:
        print(f"\n{target_workers}-worker ingest vs single process: "
              f"{speedup:.2f}x")
        assert speedup >= 2.0, (
            f"parallel ingest speedup {speedup:.2f}x < 2x at "
            f"{target_workers} workers on {cores} cores (shard scatter "
            "must buy real parallelism)"
        )
        print("OK: parallel collector sustains >= 2x single-process "
              "ingest")
    else:
        print(f"\nonly {cores} usable core(s) < {target_workers} workers: "
              f"measured {speedup:.2f}x, >=2x assertion skipped "
              "(needs real cores to mean anything)")
    print("OK: merged snapshots and per-flow results bit-identical to "
          "serial on every scenario")


if __name__ == "__main__":
    main()
