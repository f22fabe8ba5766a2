"""Shared helpers for the benchmark scripts.

Two concerns every ``BENCH_*.json`` writer has in common:

* **Finite JSON.**  Timing code divides by measured seconds, decode
  scoring medians over possibly-empty sets -- ``inf`` and ``nan`` are
  one degenerate measurement away, and ``json.dump`` happily emits
  them as the non-standard ``Infinity`` / ``NaN`` tokens that break
  strict parsers downstream (CI artifact consumers, ``jq``).
  :func:`write_bench_json` sanitises non-finite floats to ``None``
  recursively (:func:`repro.jsonutil.jsonable`) and then dumps with
  ``allow_nan=False``, so a regression fails loudly at write time
  instead of corrupting the artifact.
* **Workloads.**  The ingest-side benches share the synthetic
  heavy-traffic shape (a fixed population of concurrent flows with
  Zipf-skewed packet counts) and the path-query stream with *real*
  per-flow digests; they live here so every bench measures the same
  bytes.

Import style: benchmark scripts run as ``python benchmarks/bench_*.py``,
so ``benchmarks/`` is ``sys.path[0]`` and ``import benchlib`` resolves
as a sibling.
"""

from __future__ import annotations

import json

import numpy as np

from repro.coding import (
    DistributedMessage,
    PathEncoder,
    multilayer_scheme,
    pack_reps_array,
)
from repro.jsonutil import jsonable
from repro.net import fat_tree


# -- finite JSON -----------------------------------------------------------

def write_bench_json(path: str, payload: dict) -> None:
    """Write a bench artifact as strictly-standard JSON.

    :func:`repro.jsonutil.jsonable` turns non-finite floats into null;
    ``allow_nan=False`` backstops it: if a non-finite value ever slips
    through a container type the walk does not know, the bench fails
    at write time rather than shipping an artifact no strict parser
    can read.
    """
    with open(path, "w") as fh:
        json.dump(jsonable(payload), fh, indent=2, allow_nan=False)
        fh.write("\n")
    print(f"\nwrote {path}")


# -- shared workloads ------------------------------------------------------

def zipf_flow_ids(records: int, flows: int, rng) -> np.ndarray:
    """Zipf-skewed flow activity: few heavy flows, a long tail."""
    weights = 1.0 / np.arange(1, flows + 1) ** 0.9
    weights /= weights.sum()
    return rng.choice(np.arange(1, flows + 1), size=records, p=weights).astype(
        np.int64
    )


def make_path_workload(records: int, flows: int, seed: int):
    """Columnar path-query stream with *real* per-flow digests.

    Each flow gets a k-hop path sampled from the fat-tree switch
    universe; digests come from the flow's own encoder (vectorised
    ``encode_many`` -- encoding speed is the replay bench's concern,
    not the ingest benches'), so the sink does genuine peeling work
    before it settles into the steady-state consistency scans.
    Returns ``(columns, universe, consumer_factory_kwargs)``.
    """
    rng = np.random.default_rng(seed)
    topo = fat_tree(4)
    universe = topo.switch_universe()
    k, bits, seed_enc = 6, 8, seed + 1
    scheme = multilayer_scheme(k)
    fids = zipf_flow_ids(records, flows, rng)
    pids = np.arange(1, records + 1, dtype=np.int64)
    hops = np.full(records, k, dtype=np.int64)
    digests = np.empty(records, dtype=np.int64)
    for fid in range(1, flows + 1):
        lane = fids == fid
        if not lane.any():
            continue
        path = rng.choice(universe, size=k, replace=False).tolist()
        enc = PathEncoder(
            DistributedMessage.from_path(path, universe),
            scheme, bits, "hash", 1, seed_enc,
        )
        digests[lane] = pack_reps_array(enc.encode_many(pids[lane]), bits)
    factory_kwargs = dict(digest_bits=bits, num_hashes=1, seed=seed_enc)
    return (fids, pids, hops, digests), universe, factory_kwargs
