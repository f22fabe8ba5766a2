"""Operator CLI for the live collector service.

Three subcommands, one running system::

    # terminal 1: a sink for the "hadoop" scenario, all ports ephemeral
    python -m repro.service serve --scenario hadoop --query-port 0

    # terminal 2: replay the scenario's trace at it over reliable UDP
    python -m repro.service send --scenario hadoop --port <udp port>

    # terminal 3: ask it questions
    python -m repro.service query --port <query port> --op snapshot
    python -m repro.service query --port <query port> --flow-id 7

``serve`` prints one machine-parseable ready line
(``SERVICE READY udp=.. query=.. metrics=..``) once the sockets are bound
-- scripts (and the CI smoke job) wait on that -- then runs until
SIGINT/SIGTERM or ``--duration``, closes gracefully, and emits the
final snapshot as JSON on stdout.  ``send`` and ``query`` print a
single JSON object each; everything is strict JSON (non-finite floats
serialised as null), so the output pipes straight into ``jq``.

The server and the sender both derive their path-decoder
configuration from the *scenario* (same ``--scenario/--packets/--seed
/--digest-bits/--num-hashes`` on both sides reproduce the same
universe and digest layout); mismatched values are the CLI equivalent
of a mis-deployed sink and decode accordingly.
"""

from __future__ import annotations

import argparse
import json
import random
import signal
import sys
import threading
import time

import numpy as np

from repro.collector import Collector, path_consumer_factory
from repro.exceptions import RecoveryError
from repro.obs.metrics import MetricsRegistry
from repro.replay.dataplane import TraceDataplane
from repro.replay.scenarios import build_trace, scenario_names
from repro.service.client import ReliableUDPSender
from repro.service.query import QueryClient, jsonable
from repro.service.server import CollectorServer


def _add_scenario_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--scenario", default="hadoop", choices=scenario_names(),
        help="base scenario (a perfect network) both sides derive "
             "their config from",
    )
    p.add_argument("--packets", type=int, default=5000,
                   help="trace length (default 5000)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--digest-bits", type=int, default=8)
    p.add_argument("--num-hashes", type=int, default=1)


def _dataplane(args) -> TraceDataplane:
    trace = build_trace(args.scenario, packets=args.packets, seed=args.seed)
    return TraceDataplane(
        trace, digest_bits=args.digest_bits, num_hashes=args.num_hashes,
        mode="hash", seed=args.seed,
    )


def _emit(obj) -> None:
    json.dump(jsonable(obj), sys.stdout, allow_nan=False)
    sys.stdout.write("\n")
    sys.stdout.flush()


# -- serve -----------------------------------------------------------------

def cmd_serve(args) -> int:
    dataplane = _dataplane(args)
    # One registry shared by sink and front door: the query port's
    # `metrics` verb and the scrape endpoint see the whole pipeline.
    obs = MetricsRegistry() if args.metrics_port is not None else None
    collector = Collector(
        path_consumer_factory(
            dataplane.trace.universe, digest_bits=args.digest_bits,
            num_hashes=args.num_hashes, seed=args.seed, mode="hash",
            value_bits=dataplane.value_bits,
        ),
        num_shards=args.shards, seed=args.seed, obs=obs,
    )
    server = CollectorServer(
        collector, host=args.host, udp_port=args.udp_port,
        query_port=args.query_port, queue_frames=args.queue_frames,
        obs=obs, metrics_port=args.metrics_port,
    )
    if args.restore:
        if args.checkpoint is None:
            raise SystemExit("--restore requires --checkpoint PATH")
        try:
            server.restore_checkpoint(args.checkpoint)
            print(f"RESTORED checkpoint={args.checkpoint}", flush=True)
        except FileNotFoundError:
            # First boot of a service configured for recovery: nothing
            # to restore yet is normal, not an error.
            print(f"RESTORE SKIPPED (no {args.checkpoint})", flush=True)
        except RecoveryError as exc:
            # A blob of another version or another query: refuse to
            # serve rather than answer from state it cannot mean.
            raise SystemExit(f"RESTORE REFUSED: {exc}") from exc
    server.start()
    metrics = (
        "off" if args.metrics_port is None else str(server.metrics_port)
    )
    print(
        f"SERVICE READY udp={server.udp_port} "
        f"query={server.query_port} metrics={metrics}", flush=True,
    )
    stop = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: stop.set())
    stop.wait(timeout=args.duration)
    if args.checkpoint is not None:
        # Checkpoint-on-shutdown (SIGTERM included): drain what was
        # admitted, persist the collector, *then* tear down -- the
        # next `serve --restore` resumes from exactly this state.
        server.save_checkpoint(args.checkpoint)
        print(f"CHECKPOINT SAVED {args.checkpoint}", flush=True)
    server.close(close_collector=True)
    _emit(server.snapshot().as_dict())
    return 0


# -- send ------------------------------------------------------------------

def cmd_send(args) -> int:
    dataplane = _dataplane(args)
    trace = dataplane.trace
    kwargs = {}
    if args.max_records is not None:
        kwargs["max_records"] = args.max_records
    if args.loss > 0.0:
        rng = random.Random(args.seed)
        kwargs["drop_fn"] = lambda seq, attempt: rng.random() < args.loss
    sender = ReliableUDPSender(args.host, args.port, **kwargs)
    hop_counts = trace.hop_counts
    start = time.perf_counter()
    with sender:
        for lo in range(0, len(trace), args.batch_size):
            hi = min(lo + args.batch_size, len(trace))
            rows = np.arange(lo, hi, dtype=np.int64)
            sender.send_batch(
                trace.flow_id[rows], trace.pid[rows], hop_counts[rows],
                dataplane.encode_rows(rows), now=float(trace.ts[hi - 1]),
            )
        sender.flush()
        seconds = time.perf_counter() - start
        _emit({
            "scenario": args.scenario,
            "records": sender.records_sent,
            "batches": sender.batches_sent,
            "frames": sender.frames_sent,
            "retransmits": sender.retransmits,
            "acked_frames": sender.acked_frames,
            "seconds": seconds,
            "records_per_sec": (
                sender.records_sent / seconds if seconds > 0 else 0.0
            ),
        })
    return 0


# -- query -----------------------------------------------------------------

def cmd_query(args) -> int:
    with QueryClient(args.host, args.port, timeout=args.timeout) as client:
        if args.flow_id is not None:
            response = client.request(
                {"op": "flow", "flow_id": args.flow_id}
            )
        else:
            response = client.request({"op": args.op})
    _emit(response)
    return 0


# -- parser ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve, feed and query a live PINT collector.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run a collector behind the wire ports")
    _add_scenario_args(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--udp-port", type=int, default=0,
                   help="0 = ephemeral (see the ready line)")
    p.add_argument("--query-port", type=int, default=0)
    p.add_argument("--shards", type=int, default=4)
    p.add_argument("--queue-frames", type=int, default=256)
    p.add_argument("--duration", type=float, default=None,
                   help="seconds to serve (default: until SIGINT/SIGTERM)")
    p.add_argument("--metrics-port", type=int, default=None,
                   help="bind a Prometheus /metrics HTTP port (0 = "
                        "ephemeral) and enable pipeline metrics; "
                        "omitted, instrumentation stays off")
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="write the collector's state here on shutdown "
                        "(SIGINT/SIGTERM/--duration included)")
    p.add_argument("--restore", action="store_true",
                   help="restore from --checkpoint before serving "
                        "(missing file = fresh start, not an error)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("send", help="replay a scenario trace at a server")
    _add_scenario_args(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True,
                   help="the server's udp data port")
    p.add_argument("--batch-size", type=int, default=2048)
    p.add_argument("--max-records", type=int, default=None,
                   help="records per wire frame before fragmenting "
                        "(default: a full datagram)")
    p.add_argument("--loss", type=float, default=0.0,
                   help="simulated per-transmission drop rate")
    p.set_defaults(fn=cmd_send)

    p = sub.add_parser("query", help="ask a running server for JSON answers")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True,
                   help="the server's query port")
    p.add_argument("--op", default="snapshot",
                   choices=["ping", "snapshot", "stats", "metrics"])
    p.add_argument("--flow-id", type=int, default=None,
                   help="query one flow instead of --op")
    p.add_argument("--timeout", type=float, default=10.0)
    p.set_defaults(fn=cmd_query)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
