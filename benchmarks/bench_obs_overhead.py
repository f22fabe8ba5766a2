"""Observability overhead: instrumented collectors must be free-ish.

One same-run ratio ``bench/`` does not measure (that a live registry
changes no bit of the output is the ``obs`` axis of
``tests/equivalence.py``): on the decode-heavy path workload the
instrumented ``ingest_batch`` path stays within ``--ceiling`` (default
5%) of the uninstrumented rate.  Timing is interleaved (bare,
instrumented, bare, ...) and best-of-N so the gate measures
instrumentation, not scheduler luck.  The registry is *enabled* during
the timed runs -- a null-registry run would gate the fast path we do
not ship.

Writes machine-readable ``BENCH_obs.json``.

Run:  PYTHONPATH=src python benchmarks/bench_obs_overhead.py
      (--quick for a small run)
"""

from __future__ import annotations

import argparse
import time

from benchlib import make_path_workload, write_bench_json
from repro.collector import Collector, path_consumer_factory
from repro.obs import MetricsRegistry


def time_ingest(make_collector, cols, batch: int) -> float:
    """Seconds for one full batched ingest of the workload."""
    fids, pids, hops, digs = cols
    n = len(fids)
    col = make_collector()
    start = time.perf_counter()
    for lo in range(0, n, batch):
        hi = lo + batch
        col.ingest_batch(fids[lo:hi], pids[lo:hi], hops[lo:hi], digs[lo:hi])
    seconds = time.perf_counter() - start
    assert col.snapshot().records == n
    return seconds


def bench_overhead(args) -> dict:
    """Interleaved best-of-N: bare vs instrumented ingest rate."""
    cols, universe, factory_kwargs = make_path_workload(
        args.records, args.flows, args.seed
    )
    factory = lambda: path_consumer_factory(universe, **factory_kwargs)
    print(f"\nworkload: {args.records} path-query records over "
          f"{args.flows} flows, batch={args.batch}, "
          f"{args.num_shards} shards, best of {args.repeats}")
    bare_s = float("inf")
    wired_s = float("inf")
    for _ in range(args.repeats):
        bare_s = min(bare_s, time_ingest(
            lambda: Collector(factory(), num_shards=args.num_shards,
                              seed=args.seed),
            cols, args.batch,
        ))
        wired_s = min(wired_s, time_ingest(
            lambda: Collector(factory(), num_shards=args.num_shards,
                              seed=args.seed, obs=MetricsRegistry()),
            cols, args.batch,
        ))
    bare_rate = args.records / bare_s
    wired_rate = args.records / wired_s
    overhead = wired_s / bare_s - 1.0
    print(f"bare          {bare_rate:>12,.0f} rec/s")
    print(f"instrumented  {wired_rate:>12,.0f} rec/s   "
          f"({overhead:+.2%} overhead)")
    return {
        "uninstrumented_rps": round(bare_rate),
        "instrumented_rps": round(wired_rate),
        "overhead_pct": round(overhead * 100.0, 3),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=200_000,
                        help="records in the overhead workload")
    parser.add_argument("--flows", type=int, default=256)
    parser.add_argument("--num-shards", type=int, default=8,
                        help="collector shard count")
    parser.add_argument("--batch", type=int, default=8192,
                        help="columnar batch size")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5,
                        help="interleaved timing repetitions (best-of-N)")
    parser.add_argument("--ceiling", type=float, default=5.0,
                        help="max tolerated ingest overhead, percent")
    parser.add_argument("--json", default="BENCH_obs.json",
                        help="output path for the machine-readable results")
    parser.add_argument("--quick", action="store_true",
                        help="small run")
    args = parser.parse_args()
    if args.quick:
        args.records = min(args.records, 60_000)
        args.repeats = min(args.repeats, 3)

    overhead = bench_overhead(args)

    payload = {
        "benchmark": "obs_overhead",
        "records": args.records,
        "flows": args.flows,
        "num_shards": args.num_shards,
        "batch": args.batch,
        "seed": args.seed,
        "repeats": args.repeats,
        "ceiling_pct": args.ceiling,
        **overhead,
    }
    write_bench_json(args.json, payload)

    assert overhead["overhead_pct"] <= args.ceiling, (
        f"instrumented ingest is {overhead['overhead_pct']:.2f}% slower "
        f"than bare (ceiling {args.ceiling:.1f}%): the observability "
        "layer must stay off the hot path"
    )
    print(f"\nOK: instrumentation costs {overhead['overhead_pct']:.2f}% "
          f"(ceiling {args.ceiling:.1f}%)")


if __name__ == "__main__":
    main()
