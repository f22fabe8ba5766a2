"""Cross-commit equivalence: what the sinks answer, pinned as digests.

Every faster execution in this repo is held bit-identical to a
reference *inside one commit* (batched vs scalar, workers vs serial).
This file pins the other axis: ``tests/golden/equivalence.json`` holds,
for a pairwise-covering sample of replay configurations, the sha256 of
what the path sink and the congestion sink end up holding --

(a) ``answers``  -- every array of the sink's ``AnswerTable``;
(b) ``snapshot`` -- ``snapshot().as_dict()``;
(c) ``report``   -- the ``ScenarioReport`` minus its clocks;
(d) ``state``    -- every live flow's full decoder state, read through
    ``flows()`` (the ``decoder_state`` tuple of ``test_first_touch``).

A refactor of the sink that means to change nothing commits the file
unchanged; a PR that means to change answers regenerates it with
``pytest tests/test_golden_equivalence.py --update-golden`` and shows
the diff.  A mismatch names the configuration and which of (a)-(d)
moved.
"""

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro.collector import (
    Collector,
    congestion_consumer_factory,
    path_consumer_factory,
)
from repro.replay.dataplane import TraceDataplane
from repro.replay.driver import ReplayDriver
from repro.replay.impair import Duplicate, GilbertElliott, Reorder
from repro.replay.scenarios import build_trace

GOLDEN = Path(__file__).resolve().parent / "golden" / "equivalence.json"
PACKETS = 20_000

#: (scenario, coding, workers, lossy, batch): every pair of values of
#: any two columns but (scenario, coding) occurs in some row.
REPLAYS = [
    ("web-search", "hash", None, True, 8192),
    ("web-search", "hash2", 2, False, 64),
    ("web-search", "fragment", None, False, 8192),
    ("hadoop", "hash", None, True, 8192),
    ("hadoop", "hash2", 2, False, 8192),
    ("hadoop", "raw", None, False, 8192),
    ("hadoop", "fragment", None, True, 64),
    ("incast", "hash", None, False, 64),
    ("incast", "raw", 2, False, 8192),
    ("incast", "fragment", None, True, 8192),
    ("microburst", "hash", None, False, 8192),
    ("microburst", "raw", None, True, 64),
    ("microburst", "fragment", 2, True, 8192),
    ("path-churn", "hash", 2, False, 8192),
    ("path-churn", "hash2", None, True, 8192),
    ("path-churn", "raw", None, False, 64),
    ("elephant-mice", "hash", None, True, 8192),
    ("elephant-mice", "hash2", 2, False, 64),
    ("elephant-mice", "fragment", None, True, 8192),
    ("isp-long-paths", "hash", 2, False, 8192),
    ("isp-long-paths", "hash2", None, True, 64),
    ("isp-long-paths", "raw", None, False, 8192),
]

#: (name, scenario, collector bounds): table eviction under the batched
#: front door -- the LRU walk and the batch-granular TTL sweep.
BOUNDED = [
    ("lru", "elephant-mice", dict(max_flows_per_shard=48)),
    ("ttl", "web-search", dict(ttl=3.0)),
]

#: ``ScenarioReport`` fields that are clocks, not answers.
CLOCKS = ("seconds", "stage_seconds")


def replay_name(scenario, coding, workers, lossy, batch):
    return "-".join((
        scenario, coding, f"w{workers}" if workers else "serial",
        "lossy" if lossy else "clean", f"b{batch}",
    ))


def coding_kwargs(coding):
    if coding == "hash2":
        return dict(mode="hash", num_hashes=2)
    return dict(mode=coding, num_hashes=1)


# -- canonical digests --------------------------------------------------------

def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def answers_digest(table) -> str:
    h = hashlib.sha256(table.kind.encode())
    arrays = [("flow_id", table.flow_id), ("offsets", table.offsets),
              ("values", table.values)]
    arrays += sorted(table.columns.items())
    for name, arr in arrays:
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def decoder_state(decoder):
    """``test_first_touch.decoder_state`` with its dicts put in order."""
    if decoder is None:
        return None
    if hasattr(decoder, "_subdecoders"):
        return (
            decoder.packets_seen,
            [decoder_state(sub) for sub in decoder._subdecoders],
        )
    candidates = sorted(
        (hop, arr.tolist())
        for hop, arr in getattr(decoder, "_candidates", {}).items()
    )
    pending = sorted(
        (e.packet_id, tuple(e.residual), tuple(sorted(e.unknown)))
        for e in decoder._pending if e.unknown
    )
    return (
        decoder.k, sorted(decoder.decoded.items()), decoder.packets_seen,
        decoder.inconsistencies, candidates, pending,
    )


def consumer_state(consumer):
    if consumer.kind == "path":
        return (
            consumer.decode_errors, consumer.state_bytes(),
            decoder_state(consumer._decoder),
        )
    return (consumer.max_code, consumer.last_code, consumer.records)


def sink_digests(collector) -> dict:
    table = collector.answers()
    ids = table.flow_id.tolist()
    states = [consumer_state(c) for c in collector.flows(ids)]
    return {
        "answers": answers_digest(table),
        "snapshot": sha(json.dumps(
            collector.snapshot().as_dict(), sort_keys=True
        )),
        "state": sha(repr(list(zip(ids, states)))),
    }


# -- running one configuration ------------------------------------------------

class _Recording(ReplayDriver):
    """A driver that digests both sinks while they are still up."""

    def _score(self, trace, path, cong, *rest):
        self.digests = {"path": sink_digests(path.collector)}
        if cong is not None:
            self.digests["congestion"] = sink_digests(cong.collector)
        return super()._score(trace, path, cong, *rest)


def run_replay(scenario, coding, workers, lossy, batch) -> dict:
    impairments = [
        GilbertElliott(p_bad=0.02, p_good=0.2, seed=0),
        Reorder(depth=64, prob=0.5, seed=0),
        Duplicate(prob=0.02, seed=0),
    ] if lossy else []
    driver = _Recording(
        batch_size=batch, seed=0, workers=workers, impairments=impairments,
        **coding_kwargs(coding),
    )
    report = asdict(
        driver.replay(build_trace(scenario, packets=PACKETS, seed=0))
    )
    for clock in CLOCKS:
        del report[clock]
    out = driver.digests
    out["report"] = sha(json.dumps(report, sort_keys=True))
    return out


def run_bounded(scenario, bounds) -> dict:
    """Both sinks fed every record of the trace, 512 at a time, on a
    clock of one tick per batch."""
    trace = build_trace(scenario, packets=PACKETS, seed=0)
    dataplane = TraceDataplane(trace, digest_bits=8, seed=0)
    digests = dataplane.encode_rows(np.arange(len(trace), dtype=np.int64))
    sinks = {
        "path": (Collector(
            path_consumer_factory(trace.universe, digest_bits=8, seed=0),
            num_shards=4, seed=0, **bounds,
        ), digests),
        "congestion": (Collector(
            congestion_consumer_factory(bits=8, seed=0),
            num_shards=4, seed=0, **bounds,
        ), (trace.pid * 7) % 256),
    }
    out = {}
    for kind, (sink, column) in sinks.items():
        for lo in range(0, len(trace), 512):
            hi = lo + 512
            sink.ingest_batch(
                trace.flow_id[lo:hi], trace.pid[lo:hi],
                trace.hop_counts[lo:hi], column[lo:hi],
                now=float(lo // 512 + 1),
            )
        assert sink.snapshot().evictions > 0
        out[kind] = sink_digests(sink)
    return out


CONFIGS = {replay_name(*row): (run_replay, row) for row in REPLAYS}
CONFIGS.update(
    (f"bounded-{name}", (run_bounded, (scenario, bounds)))
    for name, scenario, bounds in BOUNDED
)


def flatten(digests: dict) -> dict:
    """``{"path.answers": ..., "report": ...}``."""
    flat = {}
    for key, value in digests.items():
        if isinstance(value, dict):
            flat.update((f"{key}.{sub}", d) for sub, d in value.items())
        else:
            flat[key] = value
    return flat


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_matches_golden(name, request):
    run, args = CONFIGS[name]
    got = flatten(run(*args))
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if request.config.getoption("--update-golden"):
        golden[name] = got
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        return
    assert name in golden, f"{name}: no golden entry (run --update-golden)"
    moved = sorted(k for k in got if golden[name].get(k) != got[k])
    assert not moved and got.keys() == golden[name].keys(), (
        f"{name}: moved against tests/golden/equivalence.json: {moved}"
    )
