"""Merge per-stage bench results into one pipeline trajectory file.

The replay→collector pipeline is measured in four places:

* ``bench_replay_throughput.py``   -> ``BENCH_replay.json``   (encode)
* ``bench_collector_throughput.py``-> ``BENCH_ingest.json``   (ingest)
* ``bench_decode_throughput.py``   -> ``BENCH_decode.json``   (decode)
* ``bench_parallel_ingest.py``     -> ``BENCH_parallel.json`` (scale-out)

Each file speaks its own schema; this tool flattens them into one
``BENCH_pipeline.json`` with uniform rows::

    {"stage": "encode|ingest|decode|end_to_end|parallel",
     "config": "...",
     "scalar_rps": ..., "vector_rps": ..., "speedup": ...}

so the bench trajectory accumulates comparable numbers per PR (the CI
uploads all of them as one artifact).  Missing inputs are skipped
with a note -- run the stage benches first.

Run:  PYTHONPATH=src python benchmarks/bench_pipeline.py
"""

from __future__ import annotations

import argparse
import json
import os

from benchlib import write_bench_json


def _load(path: str):
    if not os.path.exists(path):
        print(f"note: {path} not found, skipping its rows")
        return None
    with open(path) as fh:
        return json.load(fh)


def _row(stage, config, scalar_rps, vector_rps, **extra):
    speedup = (
        round(vector_rps / scalar_rps, 1) if scalar_rps else None
    )
    return {
        "stage": stage,
        "config": config,
        "scalar_rps": scalar_rps,
        "vector_rps": vector_rps,
        "speedup": speedup,
        **extra,
    }


def encode_rows(replay: dict):
    """Per-scenario encode rows from the replay bench."""
    for name, r in sorted(replay.get("scenarios", {}).items()):
        yield _row(
            "encode", f"scenario={name}", r["scalar_rps"], r["vector_rps"],
        )


def ingest_rows(ingest: dict):
    """Per-shard-count ingest rows from the collector bench."""
    for shards, r in sorted(ingest.get("shards", {}).items(), key=lambda kv: int(kv[0])):
        best = max(r["batched_rps"].values()) if r["batched_rps"] else 0
        yield _row(
            "ingest", f"shards={shards}", r["scalar_rps"], best,
        )


def decode_rows(decode: dict):
    """Per-query decode rows plus the end-to-end number."""
    queries = decode.get("queries", {})
    for kind in ("path", "latency"):
        r = queries.get(kind)
        if r is None:
            continue
        best = max(r["batched_rps"].values()) if r["batched_rps"] else 0
        yield _row(
            "decode", f"query={kind}", r["scalar_rps"], best,
        )
    e2e = queries.get("end_to_end")
    if e2e is not None:
        yield _row(
            "end_to_end", f"scenario={e2e['scenario']}", None,
            e2e["e2e_rps"],
            path_decoded=e2e["path_decoded"], path_flows=e2e["path_flows"],
        )


def parallel_rows(par: dict):
    """Per-worker-count scale-out rows from the parallel bench.

    ``scalar`` here is the single-*process* batched rate (itself the
    vectorised winner of the ingest rows) -- the speedup column reads
    as cores bought, not vectorisation bought.
    """
    serial = par.get("serial_rps")
    for workers, r in sorted(
        par.get("workers", {}).items(), key=lambda kv: int(kv[0])
    ):
        yield _row(
            "parallel", f"workers={workers}", serial, r["rps"],
            cores=par.get("cores"),
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replay", default="BENCH_replay.json")
    parser.add_argument("--ingest", default="BENCH_ingest.json")
    parser.add_argument("--decode", default="BENCH_decode.json")
    parser.add_argument("--parallel", default="BENCH_parallel.json")
    parser.add_argument("--json", default="BENCH_pipeline.json",
                        help="output path for the merged rows")
    args = parser.parse_args()

    rows = []
    replay = _load(args.replay)
    if replay is not None:
        rows.extend(encode_rows(replay))
    ingest = _load(args.ingest)
    if ingest is not None:
        rows.extend(ingest_rows(ingest))
    decode = _load(args.decode)
    if decode is not None:
        rows.extend(decode_rows(decode))
    parallel = _load(args.parallel)
    if parallel is not None:
        rows.extend(parallel_rows(parallel))

    payload = {"benchmark": "pipeline", "rows": rows}
    width = max((len(r["config"]) for r in rows), default=10)
    for r in rows:
        scalar = f"{r['scalar_rps']:,}" if r["scalar_rps"] else "-"
        speedup = f"{r['speedup']}x" if r["speedup"] else "-"
        print(f"{r['stage']:<11} {r['config']:<{width}}  "
              f"scalar {scalar:>12} rec/s  vector {r['vector_rps']:>12,} rec/s  "
              f"{speedup}")
    write_bench_json(args.json, payload)
    print(f"({len(rows)} rows)")


if __name__ == "__main__":
    main()
