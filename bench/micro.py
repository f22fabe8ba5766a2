"""Outside micro-measurements of single layers on a workload's own columns.

Some layer costs cannot be read off a span around a public call:
``Collector.ingest_batch`` hides flow creation, and the wire codec runs
inside sender and server threads.  These helpers call the layer's
public functions directly, on the columns the workload's own replay
would hand them, and time only those calls.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.collector import (
    Collector,
    ShardRouter,
    capture_checkpoint,
    restore_collector,
)
from repro.service import wire

from stageloop import make_dataplane, path_factory

Columns = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]


def path_batches(trace, driver, delivery: Optional[np.ndarray]) -> Iterator[Columns]:
    """The path sink's input, batch by batch, as the replay produces it:
    ``(flow_ids, pids, hop_counts, digests, now)``."""
    dataplane = make_dataplane(trace, driver)
    hop_counts = trace.hop_counts
    total = len(trace) if delivery is None else int(delivery.shape[0])
    for lo in range(0, total, driver.batch_size):
        hi = min(lo + driver.batch_size, total)
        if delivery is None:
            rows = np.arange(lo, hi, dtype=np.int64)
        else:
            rows = delivery[lo:hi]
        now = float(trace.ts[rows].max())
        path_rows = rows[driver.plan.select_array(trace.pid[rows]) == 0]
        if path_rows.size:
            yield (
                trace.flow_id[path_rows], trace.pid[path_rows],
                hop_counts[path_rows], dataplane.encode_rows(path_rows), now,
            )


def consumer_costs(trace, driver, batches, budget_s: float) -> Dict[str, float]:
    """First touch (construct + first record) vs steady observe.

    Groups each batch by flow exactly as ``Collector.ingest_batch``
    does (stable sort, contiguous slices) over ``batches`` (the output
    of :func:`path_batches`) and times, per flow group,
    the consumer factory plus the flow's first record, then records
    2..n of the group through ``consume_batch``.  Stops starting new
    batches once ``budget_s`` of wall is spent.
    """
    dataplane = make_dataplane(trace, driver)
    factory = path_factory(trace, driver, dataplane)
    clock = time.perf_counter
    consumers: Dict[int, object] = {}
    first_s = observe_s = 0.0
    first_n = observe_n = 0
    deadline = clock() + budget_s
    for fids, pids, hops, digs, _now in batches:
        order = np.argsort(fids, kind="stable")
        sfids, sp, sh, sd = fids[order], pids[order], hops[order], digs[order]
        cuts = np.flatnonzero(sfids[1:] != sfids[:-1]) + 1
        bounds = np.concatenate(([0], cuts, [sfids.shape[0]])).tolist()
        for fid, lo, hi in zip(sfids[bounds[:-1]].tolist(), bounds, bounds[1:]):
            consumer = consumers.get(fid)
            if consumer is None:
                t0 = clock()
                consumer = factory(fid)
                consumer.consume_slice(sp, sh, sd, lo, lo + 1)
                first_s += clock() - t0
                first_n += 1
                consumers[fid] = consumer
                lo += 1
            if hi > lo:
                t0 = clock()
                consumer.consume_batch(sp[lo:hi], sh[lo:hi], sd[lo:hi])
                observe_s += clock() - t0
                observe_n += hi - lo
        if clock() >= deadline:
            break
    return {
        "first_touch_us": first_s / first_n * 1e6 if first_n else 0.0,
        "first_touch_flows": first_n,
        "observe_us_per_rec": observe_s / observe_n * 1e6 if observe_n else 0.0,
        "observe_records": observe_n,
    }


def route_cost(driver, batches) -> float:
    """Seconds in ``ShardRouter.shard_of_array`` over the whole trace."""
    router = ShardRouter(driver.num_shards, driver.seed)
    clock = time.perf_counter
    total = 0.0
    for fids, _pids, _hops, _digs, _now in batches:
        t0 = clock()
        router.shard_of_array(fids)
        total += clock() - t0
    return total


def wire_costs(batches) -> Dict[str, float]:
    """Seconds in ``wire.encode_frames`` / ``decode_frames`` over the
    whole trace's path batches, at the UDP sender's frame size."""
    clock = time.perf_counter
    enc_s = dec_s = 0.0
    nbytes = records = seq = 0
    for fids, pids, hops, digs, now in batches:
        t0 = clock()
        frames = wire.encode_frames(
            fids, pids, hops, digs, now,
            start_seq=seq, max_records=1024, reliable=True,
        )
        enc_s += clock() - t0
        seq += len(frames)
        t0 = clock()
        for payload in frames:
            wire.decode_frames(payload)
        dec_s += clock() - t0
        nbytes += sum(len(p) for p in frames)
        records += int(fids.shape[0])
    return {
        "encode_s": enc_s, "decode_s": dec_s,
        "bytes_per_record": nbytes / records if records else 0.0,
    }


def checkpoint_costs(trace, driver, path_sink: Collector) -> Dict[str, float]:
    """``capture_checkpoint`` / ``restore_collector`` on the final
    serial path sink; ``identical`` says the restored collector
    snapshots equal to the original."""
    dataplane = make_dataplane(trace, driver)
    clock = time.perf_counter
    t0 = clock()
    blob = capture_checkpoint(path_sink)
    checkpoint_s = clock() - t0
    fresh = Collector(
        path_factory(trace, driver, dataplane),
        num_shards=driver.num_shards, seed=driver.seed,
    )
    t0 = clock()
    restore_collector(fresh, blob)
    restore_s = clock() - t0
    return {
        "checkpoint_s": checkpoint_s, "restore_s": restore_s,
        "checkpoint_bytes": len(blob),
        "identical": fresh.snapshot().as_dict() == path_sink.snapshot().as_dict(),
    }
