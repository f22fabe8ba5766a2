"""Sink decode throughput: scalar consumer ingest vs columnar batch decode.

The last scalar stage of the replay→collector pipeline was the sink's
per-packet ``observe()`` loop.  This benchmark measures records/sec
through :class:`repro.collector.Collector` for the §4.2 path query --
the peeling decode (hash mode, real digests from a per-flow
:class:`PathEncoder`) on a synthetic heavy-traffic workload (a fixed
population of concurrent flows with Zipf-skewed packet counts) --
comparing one-record :meth:`~repro.collector.Collector.ingest` against
columnar :meth:`~repro.collector.Collector.ingest_batch`, which folds
the batch into the sink's column store.  The latency query has no
batched form: its batch takes the scalar loop, so there is nothing to
compare.

A second case times the *steady state* long flows spend almost all
their packets in -- every flow of the batch already decoded, each
record only a consistency check -- as a same-run ratio: the
collector's one cross-flow verification pass per batch
(``consume_groups``) against feeding the same flow groups one
``consume_batch`` at a time (>= 2x asserted; machine-independent).

A third case times *converging* flows -- the first 60k ``web-search``
records' path share, thousands of flows a few packets each, fed as
8,192-row batches -- where every batch is one cross-flow fixpoint peel
(``repro.coding.peel``): a same-run ratio against the scalar
``Collector.ingest`` loop on the same rows (>= 12x asserted), and
again with the switch universe padded to 2,000 ids, where each digest
is matched against a 40x wider candidate table (>= 1.3x asserted: a
large universe must not fall off a cliff).

A fourth case times what a parallel sink's worker folds: the
converging ``web-search`` path batches of a whole replay, split by
``shard % 2`` as two workers see them, folded one ``ingest_batch`` per
batch against runs of four batches (``Collector.ingest_run``, what a
worker does with a ring backlog).  The snapshots must be identical and
runs >= 1.15x faster.

A fifth case, ``serial_runs``, times what a serial replay's path sink
folds: the ``elephant-mice`` path batches of a ``mice-inproc``-sized
replay (150k packets), one ``ingest_batch`` per batch against one
``ingest_run`` per row block (four 8,192-record batches, as
``ReplayDriver.replay`` hands them over).  The snapshots must be
identical and block runs >= 1.1x faster.

A sixth case times 64-record batches into a small and a large sink
(``elephant-mice`` at 20k and 1.5M packets, about 3k and 225k live
flows, 8 shards, hash digests): a batch's cost must not grow with the
sink (<= 1.2x asserted), because every pass of a batch works in its
records, not in the store.

Every number here is a same-run ratio; the whole-pipeline rate is
``bench/``'s to measure.  Writes
machine-readable ``BENCH_decode.json`` and asserts the headline claim:
batched path decode at batch >= 1024 sustains >= 5x the scalar
consumer rate.

Run:  PYTHONPATH=src python benchmarks/bench_decode_throughput.py
      (--quick for a small run)
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from benchlib import make_path_workload, write_bench_json
from repro.collector import Collector, path_consumer_factory
from repro.collector.consumers import consume_groups
from repro.replay import ReplayDriver, build_trace
from repro.replay.dataplane import TraceDataplane


def time_scalar(make_collector, cols, repeats: int) -> float:
    """Best-of-``repeats`` seconds for one-record-at-a-time ingest."""
    fids, pids, hops, digs = (c.tolist() for c in cols)
    best = float("inf")
    for _ in range(repeats):
        col = make_collector()
        ingest = col.ingest
        start = time.perf_counter()
        for i in range(len(fids)):
            ingest(fids[i], pids[i], hops[i], digs[i])
        best = min(best, time.perf_counter() - start)
        assert col.snapshot().records == len(fids)
    return best


def time_batched(make_collector, cols, batch: int, repeats: int) -> float:
    """Best-of-``repeats`` seconds for columnar batched ingest."""
    fids, pids, hops, digs = cols
    n = len(fids)
    best = float("inf")
    for _ in range(repeats):
        col = make_collector()
        start = time.perf_counter()
        for lo in range(0, n, batch):
            hi = lo + batch
            col.ingest_batch(fids[lo:hi], pids[lo:hi], hops[lo:hi], digs[lo:hi])
        best = min(best, time.perf_counter() - start)
        assert col.snapshot().records == n
    return best


def bench_query(name, make_collector, cols, batches, repeats):
    """Measure one query kind; returns its JSON-ready result row."""
    records = len(cols[0])
    scalar_s = time_scalar(make_collector, cols, repeats)
    scalar_rate = records / scalar_s
    result = {
        "records": records,
        "scalar_rps": round(scalar_rate),
        "batched_rps": {},
        "big_batch_speedup": 0.0,
    }
    for batch in batches:
        batched_s = time_batched(make_collector, cols, batch, repeats)
        rate = records / batched_s
        result["batched_rps"][str(batch)] = round(rate)
        if batch >= 1024:
            result["big_batch_speedup"] = max(
                result["big_batch_speedup"], rate / scalar_rate
            )
    result["big_batch_speedup"] = round(result["big_batch_speedup"], 1)
    print(f"{name:<8} scalar {scalar_rate:>10,.0f} rec/s   " + "  ".join(
        f"batch={b} {result['batched_rps'][str(b)]:,} rec/s" for b in batches
    ) + f"   best(>=1024) {result['big_batch_speedup']}x")
    return result


def bench_steady_state(flows: int, batch: int, batches: int, seed: int,
                       repeats: int):
    """Decoded flows only: one pass per batch vs one scan per flow."""
    warm = 400 * flows
    cols, universe, kwargs = make_path_workload(
        warm + batch * batches, flows, seed
    )
    factory = path_consumer_factory(universe, **kwargs)

    def flow_groups(consumers, lo, hi):
        """Flow-grouped columns of rows [lo, hi), as ingest_batch cuts them."""
        fids, pids, hops, digs = (c[lo:hi] for c in cols)
        order = np.argsort(fids, kind="stable")
        sf = fids[order]
        cuts = np.flatnonzero(sf[1:] != sf[:-1]) + 1
        bounds = np.concatenate(([0], cuts, [hi - lo])).tolist()
        groups = [
            (consumers[fid], a, b)
            for fid, a, b in zip(sf[bounds[:-1]].tolist(), bounds, bounds[1:])
        ]
        return groups, pids[order], hops[order], digs[order]

    def per_flow(groups, pids, hops, digs):
        for consumer, a, b in groups:
            consumer.consume_batch(pids[a:b], hops[a:b], digs[a:b])

    def run(fold) -> tuple:
        best = float("inf")
        for _ in range(repeats):
            consumers = {fid: factory(fid) for fid in range(1, flows + 1)}
            consume_groups(*flow_groups(consumers, 0, warm))
            assert all(c.is_complete for c in consumers.values()), (
                "warm-up too short to decode every flow"
            )
            steady = [
                flow_groups(consumers, lo, lo + batch)
                for lo in range(warm, warm + batch * batches, batch)
            ]
            start = time.perf_counter()
            for args in steady:
                fold(*args)
            best = min(best, time.perf_counter() - start)
        counters = [
            (c._decoder.packets_seen, c._decoder.inconsistencies)
            for c in consumers.values()
        ]
        return best, counters

    grouped_s, grouped_state = run(consume_groups)
    per_flow_s, per_flow_state = run(per_flow)
    assert grouped_state == per_flow_state, "the two paths must agree"
    records = batch * batches
    result = {
        "flows": flows,
        "batch": batch,
        "records": records,
        "cross_flow_rps": round(records / grouped_s),
        "per_flow_rps": round(records / per_flow_s),
        "cross_flow_speedup": round(per_flow_s / grouped_s, 2),
    }
    print(
        f"steady   {flows} decoded flows, batch={batch}: one pass "
        f"{result['cross_flow_rps']:,} rec/s vs per-flow scans "
        f"{result['per_flow_rps']:,} rec/s = "
        f"{result['cross_flow_speedup']}x"
    )
    return result


def bench_converging(packets: int, batch: int, padded: int, seed: int,
                     repeats: int):
    """Converging flows: the fixpoint peel vs the scalar ingest loop."""
    trace = build_trace("web-search", packets=packets, seed=seed)
    driver = ReplayDriver(batch_size=batch, seed=seed)
    rows = np.flatnonzero(driver.plan.select_array(trace.pid) == 0)
    dataplane = TraceDataplane(
        trace, digest_bits=driver.digest_bits, num_hashes=driver.num_hashes,
        mode=driver.mode, seed=driver.seed,
    )
    cols = (
        trace.flow_id[rows], trace.pid[rows], trace.hop_counts[rows],
        dataplane.encode_rows(rows),
    )
    top = max(trace.universe)
    wide = list(trace.universe) + list(
        range(top + 1, top + 1 + padded - len(trace.universe))
    )
    result = {"records": len(rows), "flows": int(np.unique(cols[0]).size),
              "batch": batch}
    for label, universe in (("", trace.universe), ("padded_", wide)):
        def make_collector():
            return Collector(
                path_consumer_factory(
                    universe, digest_bits=driver.digest_bits,
                    num_hashes=driver.num_hashes, seed=driver.seed,
                ),
                num_shards=driver.num_shards, seed=driver.seed,
            )

        scalar_s = time_scalar(make_collector, cols, repeats)
        batched_s = time_batched(make_collector, cols, batch, repeats)
        result[f"{label}universe"] = len(universe)
        result[f"{label}scalar_rps"] = round(len(rows) / scalar_s)
        result[f"{label}batched_rps"] = round(len(rows) / batched_s)
        result[f"{label}speedup"] = round(scalar_s / batched_s, 2)
        print(
            f"converge {result['records']:,} rec / {result['flows']:,} "
            f"flows, |V|={len(universe)}: peel "
            f"{result[f'{label}batched_rps']:,} rec/s vs scalar "
            f"{result[f'{label}scalar_rps']:,} rec/s = "
            f"{result[f'{label}speedup']}x"
        )
    return result


def path_batches(name: str, packets: int, seed: int, batch: int = 8192):
    """A replay's path-sink batches of ``name`` (what ``replay()`` feeds
    its path sink, clock readings included) and the sink's factory."""
    trace = build_trace(name, packets=packets, seed=seed)
    driver = ReplayDriver(batch_size=batch, seed=0)
    rows = np.flatnonzero(driver.plan.select_array(trace.pid) == 0)
    dataplane = TraceDataplane(
        trace, digest_bits=driver.digest_bits, num_hashes=driver.num_hashes,
        mode=driver.mode, seed=driver.seed,
    )
    cols = (
        trace.flow_id[rows], trace.pid[rows],
        trace.hop_counts[rows].astype(np.int64), dataplane.encode_rows(rows),
    )
    edges = np.searchsorted(rows, np.arange(0, len(trace) + batch, batch))
    edges = np.unique(np.minimum(edges, len(rows)))
    batches = [
        (tuple(c[lo:hi] for c in cols), float(hi))
        for lo, hi in zip(edges, edges[1:])
    ]

    def factory():
        return path_consumer_factory(
            trace.universe, digest_bits=driver.digest_bits,
            num_hashes=driver.num_hashes, seed=driver.seed, mode=driver.mode,
            value_bits=dataplane.value_bits,
        )

    return batches, factory, driver.num_shards


def runs_vs_batches(parts, factory, shards: int, run: int, repeats: int):
    """Fold each of ``parts`` (one list of ``(columns, now)`` batches
    per sink) into a fresh sink one ``ingest_batch`` per batch and as
    runs of ``run`` batches: best-of-``repeats`` seconds of each, the
    sinks' snapshots asserted equal."""
    seconds, snaps = [], []
    for length in (1, run):
        best = float("inf")
        for _ in range(repeats):
            sinks = [Collector(factory(), num_shards=shards) for _ in parts]
            start = time.perf_counter()
            for sink, batches in zip(sinks, parts):
                for lo in range(0, len(batches), length):
                    if length == 1:
                        columns, now = batches[lo]
                        sink.ingest_batch(*columns, now=now)
                    else:
                        sink.ingest_run(batches[lo:lo + length])
            best = min(best, time.perf_counter() - start)
        seconds.append(best)
        snaps.append([sink.snapshot().as_dict() for sink in sinks])
    assert snaps[0] == snaps[1], "a run must fold to its batches' state"
    return {
        "records": sum(c[0].shape[0] for part in parts for c, _ in part),
        "batches": len(parts[0]),
        "run": run,
        "per_batch_s": round(seconds[0], 4),
        "runs_s": round(seconds[1], 4),
        "speedup": round(seconds[0] / seconds[1], 2),
    }


def bench_runs(packets: int, run: int, seed: int, repeats: int):
    """A worker's backlog as runs of ``run`` batches vs one call each."""
    batches, factory, shards = path_batches("web-search", packets, seed)
    router = Collector(factory(), num_shards=shards).router
    halves = [[], []]
    for columns, now in batches:
        worker = router.shard_of_array(columns[0]) % 2
        for w, half in enumerate(halves):
            mask = worker == w
            half.append((tuple(c[mask] for c in columns), now))
    result = runs_vs_batches(halves, factory, shards, run, repeats)
    print(
        f"runs     {result['records']:,} web-search path rec in "
        f"{result['batches']} batches, split over 2 workers: runs of {run} "
        f"{result['runs_s'] * 1e3:.1f} ms vs one call per batch "
        f"{result['per_batch_s'] * 1e3:.1f} ms = {result['speedup']}x"
    )
    return result


def bench_serial_runs(packets: int, seed: int, repeats: int):
    """A serial replay's path batches as one run per row block vs one
    call each."""
    batches, factory, shards = path_batches("elephant-mice", packets, seed)
    driver = ReplayDriver(batch_size=8192, seed=0)
    run = driver._block_rows() // driver.batch_size
    result = runs_vs_batches([batches], factory, shards, run, repeats)
    print(
        f"serial   {result['records']:,} elephant-mice path rec in "
        f"{result['batches']} batches: one run per {run}-batch block "
        f"{result['runs_s'] * 1e3:.1f} ms vs one call per batch "
        f"{result['per_batch_s'] * 1e3:.1f} ms = {result['speedup']}x"
    )
    return result


def bench_sink_size(small: int, large: int, batch: int, probes: int,
                    seed: int):
    """Per-batch cost of ``batch``-record batches into a small and a
    large sink: each sink takes its trace but the last ``probes``
    batches in 8,192-record batches, then those one by one (median)."""
    result = {"batch": batch, "probes": probes}
    for label, packets in (("small", small), ("large", large)):
        batches, factory, shards = path_batches("elephant-mice", packets, seed)
        cols = tuple(
            np.concatenate([c[i] for c, _ in batches]) for i in range(4)
        )
        cut = cols[0].shape[0] - batch * probes
        sink = Collector(factory(), num_shards=shards)
        for lo in range(0, cut, 8192):
            hi = min(lo + 8192, cut)
            sink.ingest_batch(*(c[lo:hi] for c in cols), now=float(hi))
        flows = len(sink)
        costs = []
        for lo in range(cut, cut + batch * probes, batch):
            hi = lo + batch
            start = time.perf_counter()
            sink.ingest_batch(*(c[lo:hi] for c in cols), now=float(hi))
            costs.append(time.perf_counter() - start)
        result[f"{label}_flows"] = flows
        result[f"{label}_batch_us"] = round(float(np.median(costs)) * 1e6, 1)
    result["growth"] = round(result["large_batch_us"] / result["small_batch_us"], 2)
    print(
        f"size     {batch}-record batches: {result['small_batch_us']} us into "
        f"{result['small_flows']:,} flows, {result['large_batch_us']} us "
        f"into {result['large_flows']:,} = {result['growth']}x"
    )
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=120_000,
                        help="records per query workload")
    parser.add_argument("--flows", type=int, default=48,
                        help="concurrent flow population")
    parser.add_argument("--shards", type=int, default=4,
                        help="collector shard count")
    parser.add_argument("--batches", type=int, nargs="+",
                        default=[256, 1024, 4096],
                        help="batch sizes to sweep")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions (best-of-N)")
    parser.add_argument("--json", default="BENCH_decode.json",
                        help="output path for the machine-readable results")
    parser.add_argument("--quick", action="store_true",
                        help="small run")
    args = parser.parse_args()
    if args.quick:
        args.records = min(args.records, 40_000)
        args.repeats = min(args.repeats, 2)

    print(f"decode throughput: {args.records} records over {args.flows} "
          f"flows (Zipf-skewed), {args.shards} shards\n")
    path_cols, universe, path_kwargs = make_path_workload(
        args.records, args.flows, args.seed
    )
    results = {
        "path": bench_query(
            "path",
            lambda: Collector(
                path_consumer_factory(universe, **path_kwargs),
                num_shards=args.shards, seed=args.seed,
            ),
            path_cols, args.batches, args.repeats,
        ),
        "steady_state": bench_steady_state(
            48, 8192, 4 if args.quick else 12, args.seed, args.repeats
        ),
        "converging": bench_converging(
            60_000, 8192, 2000, args.seed, args.repeats
        ),
        "runs": bench_runs(300_000, 4, args.seed, args.repeats),
        "serial_runs": bench_serial_runs(150_000, args.seed, args.repeats),
        "sink_size": bench_sink_size(
            20_000, 1_500_000, 64, 50, args.seed
        ),
    }

    payload = {
        "benchmark": "decode_throughput",
        "records": args.records,
        "flows": args.flows,
        "shards": args.shards,
        "batches": args.batches,
        "seed": args.seed,
        "queries": results,
    }
    write_bench_json(args.json, payload)

    floor = results["path"]["big_batch_speedup"]
    print(f"batched path decode (batch >= 1024) vs scalar consumer "
          f"ingest: {floor}x")
    assert floor >= 5.0, (
        f"batched decode speedup {floor}x < 5x "
        "(batch >= 1024 must amortise the per-record observe() loop)"
    )
    print("OK: columnar batch decode sustains >= 5x scalar consumer ingest")
    steady = results["steady_state"]["cross_flow_speedup"]
    assert steady >= 2.0, (
        f"cross-flow verification pass only {steady}x the per-flow scans "
        "(one pass per batch must amortise the per-group hash replays)"
    )
    print(f"OK: one verification pass per batch is {steady}x per-flow scans")
    converging = results["converging"]
    assert converging["speedup"] >= 12.0, (
        f"fixpoint peel only {converging['speedup']}x the scalar ingest "
        "loop on converging web-search flows (>= 12x expected)"
    )
    assert converging["padded_speedup"] >= 1.3, (
        f"fixpoint peel only {converging['padded_speedup']}x the scalar "
        f"loop against {converging['padded_universe']} switch ids "
        "(a large universe must stay ahead of the scalar walk)"
    )
    print(
        f"OK: one fixpoint peel per batch is {converging['speedup']}x the "
        f"scalar loop on converging flows "
        f"({converging['padded_speedup']}x at "
        f"|V|={converging['padded_universe']})"
    )
    runs = results["runs"]["speedup"]
    assert runs >= 1.15, (
        f"runs of {results['runs']['run']} batches only {runs}x one "
        "ingest_batch per batch (a backlog must fold as one peel)"
    )
    print(f"OK: a worker's backlog folds as runs {runs}x faster")
    serial = results["serial_runs"]["speedup"]
    assert serial >= 1.1, (
        f"one run per row block only {serial}x one ingest_batch per "
        "batch (a replay block must fold as one peel)"
    )
    print(f"OK: a serial replay's blocks fold as runs {serial}x faster")
    growth = results["sink_size"]["growth"]
    assert growth <= 1.2, (
        f"a {results['sink_size']['batch']}-record batch costs {growth}x "
        "more in the large sink (a batch's passes must not scan the store)"
    )
    print(f"OK: a batch's cost grows {growth}x from the small to the large sink")


if __name__ == "__main__":
    main()
