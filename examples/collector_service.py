"""The sink as a service: streaming collector over live and batched feeds.

Demonstrates ``repro.collector`` at its two ingestion surfaces:

1. **DES-fed** -- an HPCC run on a fat-tree where every receiving host
   streams its PINT congestion digests into the collector *while the
   simulation runs* (telemetry ``on_sink`` hook), then a metrics
   snapshot: live flows, per-shard balance, decode completion, bytes.
2. **Batch-fed** -- a path-tracing fleet of flows whose digests arrive
   in columnar batches (the capture-pipeline shape); the collector
   incrementally peels each flow's path and we watch completion climb.

Run:  PYTHONPATH=src python examples/collector_service.py
"""

import numpy as np

from repro.coding import DistributedMessage, PathEncoder, multilayer_scheme
from repro.collector import (
    Collector,
    congestion_consumer_factory,
    path_consumer_factory,
)
from repro.net import fat_tree
from repro.sim.experiment import run_hpcc_experiment
from repro.sim.workload import hadoop_cdf


def des_fed_congestion() -> None:
    print("=== 1. DES-fed: HPCC digests streamed at the sinks ===")
    collector = Collector(
        congestion_consumer_factory(seed=0),
        num_shards=4,
        ttl=0.5,          # sim-seconds: idle flows age out
        seed=0,
    )
    result = run_hpcc_experiment(
        "pint",
        load=0.4,
        cdf=hadoop_cdf(0.05),
        link_rate_bps=50e6,
        duration=0.08,
        max_flows=40,
        seed=1,
        collector=collector,
    )
    snap = collector.snapshot()
    print(f"completed flows in the run : {len(result.flows)}")
    print(f"records streamed to sink   : {snap.records}")
    print(f"live flows at end          : {snap.flows} "
          f"(per shard: {[s.flows for s in snap.shards]})")
    print(f"decode completion          : {snap.completion_rate:.0%}")
    print(f"resident state             : {snap.state_bytes} bytes")
    bottlenecks = sorted(collector.answers().columns["bottleneck"].tolist())
    if bottlenecks:
        print(f"bottleneck utilisation     : min {bottlenecks[0]:.3f}, "
              f"max {bottlenecks[-1]:.3f}")
    print()


def batch_fed_path_tracing() -> None:
    print("=== 2. Batch-fed: columnar path-tracing ingestion ===")
    topo = fat_tree(4)
    universe = topo.switch_universe()
    rng = np.random.default_rng(7)
    seed, bits = 3, 8

    flows, encoders = {}, {}
    for fid in range(1, 17):
        src, dst = (int(h) for h in rng.choice(topo.hosts, 2, replace=False))
        path = topo.switch_path(src, dst)
        flows[fid] = path
        encoders[fid] = PathEncoder(
            DistributedMessage.from_path(path, universe),
            multilayer_scheme(len(path)), bits, "hash", 1, seed,
        )

    collector = Collector(
        path_consumer_factory(universe, digest_bits=bits, seed=seed),
        num_shards=4,
        seed=seed,
    )
    pid = 0
    batch_round = 0
    while True:
        batch_round += 1
        fids, pids, hops, digs = [], [], [], []
        for fid, enc in encoders.items():
            for _ in range(8):     # 8 packets per flow per batch
                pid += 1
                fids.append(fid)
                pids.append(pid)
                hops.append(len(flows[fid]))
                digs.append(enc.encode(pid)[0])
        collector.ingest_batch(fids, pids, hops, digs)
        snap = collector.snapshot()
        print(f"batch {batch_round:2d}: {snap.records:5d} records, "
              f"decoded {snap.completed_flows}/{snap.flows} flows "
              f"({snap.completion_rate:.0%})")
        if snap.completion_rate == 1.0 or batch_round >= 60:
            break

    decoded = sum(collector.result(fid) == path for fid, path in flows.items())
    print(f"\npaths decoded exactly      : {decoded}/{len(flows)}")
    sample = min(flows, key=lambda f: len(flows[f]))
    print(f"e.g. flow {sample}: {collector.result(sample)}")


def main() -> None:
    des_fed_congestion()
    batch_fed_path_tracing()


if __name__ == "__main__":
    main()
