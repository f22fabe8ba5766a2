"""A live collector service fed over a lossy network, queried as JSON.

Everything earlier in the repo runs in one process; this demo runs the
collector as an actual *service* on loopback sockets:

1. start a :class:`~repro.service.CollectorServer` (UDP data port +
   JSON query port) over a path-tracing collector,
2. replay a scenario trace at it with the reliable seq/ACK/RTO sender
   -- through a simulated 20% per-transmission loss hook, the in-line
   stand-in for the impairment engine's network,
3. watch the sender's retransmit machinery deliver every record
   exactly once (one timer resends the frame the cumulative ACK is
   stuck on; the server holds the frames behind it, so none arrives
   twice),
4. query the running service over its JSON port the way an operator
   (or ``jq``) would, and
5. shut down gracefully and compare against ground truth.

Run:  PYTHONPATH=src python examples/live_service.py
"""

import numpy as np

from repro.collector import Collector, path_consumer_factory
from repro.replay import TraceDataplane, build_trace
from repro.service import CollectorServer, QueryClient, ReliableUDPSender

PACKETS = 4_000
SEED = 11
LOSS = 0.20


def main() -> None:
    trace = build_trace("hadoop", packets=PACKETS, seed=SEED)
    dataplane = TraceDataplane(trace, digest_bits=8, num_hashes=1,
                               mode="hash", seed=SEED)
    collector = Collector(
        path_consumer_factory(
            trace.universe, digest_bits=8, num_hashes=1, seed=SEED,
            mode="hash", value_bits=dataplane.value_bits,
        ),
        num_shards=4, seed=SEED,
    )

    print("== serving ==")
    with CollectorServer(collector, query_port=0) as server:
        print(f"   udp data port {server.udp_port}, "
              f"json query port {server.query_port}")

        print(f"\n== sending through {LOSS * 100:.0f}% simulated loss ==")
        rng = np.random.default_rng(SEED)
        sender = ReliableUDPSender(
            "127.0.0.1", server.udp_port, max_records=256,
            drop_fn=lambda seq, attempt: bool(rng.random() < LOSS),
            min_rto=0.01, initial_rto=0.05,
        )
        hop_counts = trace.hop_counts
        with sender:
            for lo in range(0, len(trace), 1024):
                hi = min(lo + 1024, len(trace))
                rows = np.arange(lo, hi, dtype=np.int64)
                sender.send_batch(
                    trace.flow_id[rows], trace.pid[rows], hop_counts[rows],
                    dataplane.encode_rows(rows), now=float(trace.ts[hi - 1]),
                )
            sender.flush()  # the fold barrier: every batch is folded
        stats = server.service_stats()
        print(f"   {sender.frames_sent} frames sent "
              f"({sender.retransmits} retransmits), "
              f"{stats.duplicate_frames} duplicates deduped server-side")
        # Every ACK echoes the send stamp of the latest transmission it
        # retires, resends included, so each one is an RTT sample even
        # when every batch lost a frame.
        srtt = f"{sender.srtt * 1e3:.2f} ms"
        print(f"   delivered {stats.records_ingested}/{len(trace)} records "
              f"exactly once (srtt {srtt})")

        print("\n== querying the live service ==")
        with QueryClient("127.0.0.1", server.query_port) as client:
            snap = client.snapshot()
            print(f"   snapshot: {snap['records']} records, "
                  f"{snap['flows']} flows, "
                  f"{snap['completed_flows']} decoded")
            # The sink's answers as columns: one row per live flow,
            # the decoded path (if any) as the row's CSR slice.
            answers = collector.answers()
            decoded = np.flatnonzero(answers.row_lengths() > 0)
            for flow in client.flows(answers.flow_id[decoded[:3]]):
                print(f"   flow {flow['flow_id']}: "
                      f"complete={flow['complete']} path={flow['result']}")

        print("\n== ground truth check ==")
        truth = trace.flow_paths()
        correct = 0
        for row in decoded.tolist():
            path = tuple(answers.answer(row)["result"])
            traversed = truth[int(answers.flow_id[row])]
            correct += path in {trace.paths[pid] for pid in traversed}
        print(f"   {correct}/{decoded.size} decoded paths correct "
              "despite the lossy wire")


if __name__ == "__main__":
    main()
