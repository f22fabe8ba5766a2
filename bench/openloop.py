"""Open-loop phase: reads beside writes through the service front door.

A fixed schedule offers pre-encoded path records to a serial path
collector behind ``CollectorServer`` over one ``ReliableUDPSender``:
batch ``i`` is *due* at ``t0 + i * interval`` whether or not the
service keeps up, so a stall delays every later batch and shows up as
latency, not as a lower offered rate.  A single probe thread watches
``service_stats().records_ingested`` and stamps each batch when the
count covers it (due -> queryable), and reads one flow through one
``QueryClient`` connection at a fixed rate while ingest runs.

Two generator threads (sender = the caller, probe), one UDP socket,
one query connection: no more than the box has cores.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List

import numpy as np

from repro.collector import Collector
from repro.service import CollectorServer, QueryClient, ReliableUDPSender
from repro.service.query import QueryError

from stageloop import make_dataplane, path_factory

FRAME_RECORDS = 1024
QUERY_HZ = 25.0
SNAPSHOT_EVERY_S = 1.0
PROBE_SLEEP_S = 0.0003


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else 0.0


def run_open_loop(trace, driver, batches, rate_rps: int,
                  seconds: float) -> Dict:
    """Offer ``rate_rps`` records/s for ``seconds`` out of ``batches``
    (the path sink's input columns); return latencies (ms), generator
    lateness, service counters and failed/attempted ops."""
    want = int(rate_rps * seconds) // FRAME_RECORDS * FRAME_RECORDS
    cols = [[], [], [], []]
    have = 0
    for fids, pids, hops, digs, _now in batches:
        for col, part in zip(cols, (fids, pids, hops, digs)):
            col.append(part)
        have += int(fids.shape[0])
        if have >= want:
            break
    fids, pids, hops, digs = (np.concatenate(c) for c in cols)
    batches = min(want, have) // FRAME_RECORDS
    if batches < 1:
        raise ValueError("trace too small for one open-loop batch")
    total = batches * FRAME_RECORDS
    interval = FRAME_RECORDS / rate_rps
    probe_fid = int(fids[0])

    sink = Collector(
        path_factory(trace, driver, make_dataplane(trace, driver)),
        num_shards=driver.num_shards, seed=driver.seed,
    )
    server = CollectorServer(sink, tcp_port=None, query_port=0).start()
    sender = ReliableUDPSender(
        "127.0.0.1", server.udp_port, max_records=FRAME_RECORDS
    )
    due = np.empty(batches)
    covered = np.full(batches, np.nan)
    query_ms: List[float] = []
    snapshot_ms: List[float] = []
    query_errors: List[str] = []
    stop = threading.Event()
    clock = time.perf_counter

    def probe() -> None:
        nxt = 0
        next_query = due[0]
        next_snapshot = due[0] + SNAPSHOT_EVERY_S / 2
        with QueryClient("127.0.0.1", server.query_port) as client:
            while nxt < batches:
                # Read the flag first: it is set only after the server
                # holds every record, so the sweep after it is complete.
                last_sweep = stop.is_set()
                now = clock()
                got = server.service_stats().records_ingested
                while nxt < batches and got >= (nxt + 1) * FRAME_RECORDS:
                    covered[nxt] = now
                    nxt += 1
                if last_sweep:
                    break
                if now < next_query:
                    time.sleep(PROBE_SLEEP_S)
                    continue
                next_query += 1.0 / QUERY_HZ
                t0 = clock()
                try:
                    if now >= next_snapshot:
                        next_snapshot += SNAPSHOT_EVERY_S
                        client.snapshot()
                        snapshot_ms.append((clock() - t0) * 1e3)
                    else:
                        client.flow(probe_fid)
                        query_ms.append((clock() - t0) * 1e3)
                except (QueryError, OSError) as exc:
                    query_errors.append(f"{type(exc).__name__}: {exc}")

    late_ms: List[float] = []
    thread = threading.Thread(target=probe, name="bench-probe", daemon=True)
    try:
        t0 = clock() + 0.05
        due[:] = t0 + np.arange(batches) * interval
        thread.start()
        for i in range(batches):
            wait = due[i] - clock()
            if wait > 0:
                time.sleep(wait)
            late_ms.append((clock() - due[i]) * 1e3)
            lo = i * FRAME_RECORDS
            hi = lo + FRAME_RECORDS
            sender.send_batch(
                fids[lo:hi], pids[lo:hi], hops[lo:hi], digs[lo:hi],
                now=float(i),
            )
        sender.flush()
        server.wait_for_records(total)
        server.drain()
        stop.set()
        thread.join(timeout=30.0)
        stats = server.service_stats()
        held = sink.snapshot().records
    finally:
        stop.set()
        if thread.is_alive():
            thread.join(timeout=30.0)
        sender.sock.close()
        server.close()
        sink.close()
    fresh_ms = ((covered - due) * 1e3)[~np.isnan(covered)].tolist()
    queries = len(query_ms) + len(snapshot_ms) + len(query_errors)
    return {
        "batches": batches,
        "records": total,
        "rate_rps": rate_rps,
        "interval_ms": interval * 1e3,
        "fresh_p50_ms": percentile(fresh_ms, 50),
        "fresh_p98_ms": percentile(fresh_ms, 98),
        "fresh_n": len(fresh_ms),
        "query_p50_ms": percentile(query_ms, 50),
        "query_p95_ms": percentile(query_ms, 95),
        "query_n": len(query_ms),
        "snapshot_ms": percentile(snapshot_ms, 50),
        "snapshot_n": len(snapshot_ms),
        "gen_late_p50_ms": percentile(late_ms, 50),
        "gen_late_p99_ms": percentile(late_ms, 99),
        "frames": sender.frames_sent,
        "retransmits": sender.retransmits,
        "dropped_queue_full": stats.dropped_queue_full,
        "duplicate_frames": stats.duplicate_frames,
        "attempted": total + queries,
        "failed": (total - held) + len(query_errors)
        + (batches - len(fresh_ms)),
        "errors": query_errors[:5],
    }
