"""Wire-path ingest: what the network front door costs and guarantees.

Two same-run measurements ``bench/`` does not take (that the wire-fed
sink is bit-identical to the in-process one is the ``transport`` axis
of ``tests/equivalence.py``):

* **Wire vs in-process.**  The full wire path -- encode frames,
  loopback socket, decode, admission queue, ingest thread -- against
  ``ingest_batch`` on the same columns, over reliable UDP, as a ratio
  of the in-process rate measured in the same run.

* **Reliability.**  Under a 10% per-transmission simulated-loss hook
  the reliable sender still delivers 100% of the records, exactly
  once (retransmits observed, duplicates deduped server-side).

Writes machine-readable ``BENCH_service.json``.

Run:  PYTHONPATH=src python benchmarks/bench_service_ingest.py
      (--quick for a small run)
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from benchlib import make_path_workload, write_bench_json
from repro.collector import Collector, path_consumer_factory
from repro.service import CollectorServer, ReliableUDPSender


def time_in_process(factory, cols, batch: int, repeats: int,
                    num_shards: int, seed: int) -> float:
    fids, pids, hops, digs = cols
    n = len(fids)
    best = float("inf")
    for _ in range(repeats):
        col = Collector(factory(), num_shards=num_shards, seed=seed)
        start = time.perf_counter()
        for lo in range(0, n, batch):
            hi = lo + batch
            col.ingest_batch(fids[lo:hi], pids[lo:hi], hops[lo:hi],
                             digs[lo:hi])
        best = min(best, time.perf_counter() - start)
        assert col.snapshot().records == n
    return best


def time_wire(factory, cols, batch: int, repeats: int,
              num_shards: int, seed: int) -> float:
    """Best-of-``repeats`` seconds for the full wire path.

    The server is started before the clock (a sink is a long-lived
    service); the clock stops when ``flush()`` returns, which is only
    once the server has folded every batch (it ACKs a batch's last
    frame after the fold) -- anything less would time the sendto, not
    the work.
    """
    fids, pids, hops, digs = cols
    n = len(fids)
    best = float("inf")
    for _ in range(repeats):
        col = Collector(factory(), num_shards=num_shards, seed=seed)
        with CollectorServer(col) as srv:
            with ReliableUDPSender("127.0.0.1", srv.udp_port) as tx:
                start = time.perf_counter()
                for lo in range(0, n, batch):
                    hi = lo + batch
                    tx.send_batch(fids[lo:hi], pids[lo:hi], hops[lo:hi],
                                  digs[lo:hi])
                tx.flush()
                best = min(best, time.perf_counter() - start)
            assert srv.snapshot().records == n
    return best


def bench_throughput(args) -> dict:
    cols, universe, factory_kwargs = make_path_workload(
        args.records, args.flows, args.seed
    )
    factory = lambda: path_consumer_factory(universe, **factory_kwargs)
    print(f"\nworkload: {args.records} path-query records over "
          f"{args.flows} flows, batch={args.batch}, "
          f"{args.num_shards} shards")
    base_s = time_in_process(factory, cols, args.batch, args.repeats,
                             args.num_shards, args.seed)
    base_rate = args.records / base_s
    print(f"in-process            {base_rate:>12,.0f} rec/s")
    out = {"in_process_rps": round(base_rate)}
    wire_s = time_wire(factory, cols, args.batch, args.repeats,
                       args.num_shards, args.seed)
    rate = args.records / wire_s
    out["udp_rps"] = round(rate)
    out["udp_vs_in_process"] = round(rate / base_rate, 3)
    print(f"wire (udp)            {rate:>12,.0f} rec/s   "
          f"{rate / base_rate:.2f}x of in-process")
    return out


def bench_reliability(args) -> dict:
    """100% delivery, exactly once, under 10% simulated loss."""
    records = min(args.records, 20_000)
    cols, universe, factory_kwargs = make_path_workload(
        records, args.flows, args.seed
    )
    rng = np.random.default_rng(args.seed)
    col = Collector(path_consumer_factory(universe, **factory_kwargs),
                    num_shards=args.num_shards, seed=args.seed)
    with CollectorServer(col) as srv:
        tx = ReliableUDPSender(
            "127.0.0.1", srv.udp_port, max_records=512,
            drop_fn=lambda seq, attempt: bool(rng.random() < 0.10),
            min_rto=0.01, initial_rto=0.05,
        )
        fids, pids, hops, digs = cols
        with tx:
            for lo in range(0, records, args.batch):
                hi = lo + args.batch
                tx.send_batch(fids[lo:hi], pids[lo:hi], hops[lo:hi],
                              digs[lo:hi])
            tx.flush()
        stats = srv.service_stats()
        assert stats.records_ingested == records, (
            f"reliable sender lost records: {stats.records_ingested} "
            f"of {records} under 10% loss"
        )
        assert tx.retransmits > 0, "10% loss produced no retransmits?"
        delivered = {
            "records": records,
            "frames_sent": tx.frames_sent,
            "retransmits": tx.retransmits,
            "duplicates_deduped": stats.duplicate_frames,
        }
    print(f"\nreliability: {records} records through 10% loss -- "
          f"{delivered['retransmits']} retransmits, "
          f"{delivered['duplicates_deduped']} dups deduped, 0 lost")
    return delivered


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=120_000,
                        help="records in the throughput workload")
    parser.add_argument("--flows", type=int, default=256)
    parser.add_argument("--num-shards", type=int, default=4)
    parser.add_argument("--batch", type=int, default=4096,
                        help="columnar batch size (one logical wire batch)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--json", default="BENCH_service.json",
                        help="output path for the machine-readable results")
    parser.add_argument("--quick", action="store_true",
                        help="small run")
    args = parser.parse_args()
    if args.quick:
        args.records = min(args.records, 40_000)
        args.repeats = min(args.repeats, 2)

    throughput = bench_throughput(args)
    reliability = bench_reliability(args)

    write_bench_json(args.json, {
        "benchmark": "service_wire_ingest",
        "records": args.records,
        "flows": args.flows,
        "num_shards": args.num_shards,
        "batch": args.batch,
        "seed": args.seed,
        **throughput,
        "reliability": reliability,
    })
    print("OK: reliable delivery 100% under loss")


if __name__ == "__main__":
    main()
