"""Bounded and TTL sinks: what capacity and idle expiry cost at ingest.

No ``bench/`` workload bounds its sink, so the flow-table policies of
:mod:`repro.collector.shard` -- LRU capacity (``max_flows_per_shard``)
and idle expiry (``ttl``) -- get their numbers here.  ``elephant-mice``
path records (most flows a packet or two long, so the sink mostly
admits and evicts) go in 512-record batches into a 4-shard sink three
ways: 64 flows per shard, that and a TTL, and the TTL alone.  The
clock is the batch index, so the TTL of 3.0 is three batches.
Each run is checked to have evicted (a bound that never fires times
nothing).  Last, the idle sweep: every flow of the trace held in an
unbounded sink, then ``Collector.expire`` at a time no flow is due --
a sweep that should read nothing.

Medians of 5 interleaved runs, same process.  Writes
machine-readable ``BENCH_bounded.json``.

Run:  PYTHONPATH=src python benchmarks/bench_bounded_sink.py
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from benchlib import write_bench_json
from repro.collector import Collector, path_consumer_factory
from repro.replay import TraceDataplane, build_trace

RECORDS = 40_000
BATCH = 512
NUM_SHARDS = 4
MAX_FLOWS = 64
TTL = 3.0
SEED = 3
SWEEPS = 200
REPEATS = 5


def feed(collector, cols) -> float:
    """Seconds to ingest every record, one ``now`` per batch."""
    n = len(cols[0])
    start = time.perf_counter()
    for lo in range(0, n, BATCH):
        collector.ingest_batch(
            *(c[lo:lo + BATCH] for c in cols), now=float(lo // BATCH + 1)
        )
    return time.perf_counter() - start


def bench_bounded() -> dict:
    trace = build_trace("elephant-mice", packets=RECORDS, seed=SEED)
    dataplane = TraceDataplane(trace, digest_bits=8, num_hashes=1, seed=SEED)
    cols = (
        trace.flow_id, trace.pid, trace.hop_counts,
        dataplane.encode_rows(np.arange(len(trace), dtype=np.int64)),
    )

    def sink(**bounds):
        return Collector(
            path_consumer_factory(
                trace.universe, digest_bits=8, num_hashes=1, seed=SEED,
                value_bits=dataplane.value_bits,
            ),
            num_shards=NUM_SHARDS, seed=SEED, **bounds,
        )

    configs = {
        "lru": dict(max_flows_per_shard=MAX_FLOWS),
        "lru_ttl": dict(max_flows_per_shard=MAX_FLOWS, ttl=TTL),
        "ttl": dict(ttl=TTL),
    }
    flows = len(np.unique(trace.flow_id))
    print(f"\nworkload: {len(trace)} elephant-mice records over {flows} "
          f"flows, batch={BATCH}, {NUM_SHARDS} shards, "
          f"max_flows_per_shard={MAX_FLOWS}, ttl={TTL} batches, "
          f"median of {REPEATS}")
    seconds = {name: [] for name in configs}
    for _ in range(REPEATS):
        for name, bounds in configs.items():
            collector = sink(**bounds)
            seconds[name].append(feed(collector, cols))
            snap = collector.snapshot()
            assert snap.records == len(trace)
            assert snap.evictions > 0, f"{name}: nothing was evicted"
    out = {}
    for name, runs in seconds.items():
        median = statistics.median(runs)
        out[f"{name}_s"] = round(median, 5)
        out[f"{name}_rps"] = round(len(trace) / median)
        print(f"{name:<8} {median:8.4f} s  "
              f"{len(trace) / median:>12,.0f} rec/s")

    # The idle sweep: every flow held, none due.
    collector = sink(ttl=float(len(trace)))
    feed(collector, cols)
    held = len(collector)
    now = collector.now
    times = []
    for _ in range(SWEEPS):
        start = time.perf_counter()
        expired = collector.expire(now)
        times.append(time.perf_counter() - start)
        assert expired == 0
    idle_us = statistics.median(times) * 1e6
    print(f"idle sweep of {NUM_SHARDS} shards holding {held} flows: "
          f"{idle_us:.2f} us (median of {SWEEPS})")
    out.update(idle_sweep_flows=held, idle_sweep_us=round(idle_us, 3))
    return out


def main() -> None:
    write_bench_json("BENCH_bounded.json", {
        "benchmark": "bounded_sink",
        "records": RECORDS,
        "batch": BATCH,
        "num_shards": NUM_SHARDS,
        "max_flows_per_shard": MAX_FLOWS,
        "ttl_batches": TTL,
        "seed": SEED,
        "repeats": REPEATS,
        "sweeps": SWEEPS,
        **bench_bounded(),
    })


if __name__ == "__main__":
    main()
