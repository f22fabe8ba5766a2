"""A checkpoint written by an earlier commit restores to identical state.

``tests/golden/checkpoint_v5.npz`` holds three v5 checkpoint blobs,
taken at commit ``8acb424`` from three small seeded sinks: a hash-mode
path sink (LRU-bounded, so its counters carry evictions), a congestion
sink (TTL-bounded) and a fragment-mode path sink, whose flows are
consumer objects.  The file also holds the records the sinks were fed
and the path universe, so this test depends on no trace or encoder
code.  It was generated at that commit with::

    import numpy as np
    from repro.collector import (Collector, capture_checkpoint,
        congestion_consumer_factory, path_consumer_factory)
    from repro.replay import TraceDataplane, build_trace

    trace = build_trace("web-search", packets=1200, seed=0)
    head = 900  # records before the checkpoint; the rest is the tail
    cols = dict(flow_id=trace.flow_id.astype(np.int32),
                pid=trace.pid.astype(np.int32),
                hop_count=trace.hop_counts.astype(np.int8),
                congestion=((trace.pid * 7) % 256).astype(np.uint8))
    for mode in ("hash", "fragment"):
        rows = np.arange(len(trace))
        dataplane = TraceDataplane(trace, digest_bits=8, mode=mode, seed=0)
        cols[mode] = dataplane.encode_rows(rows).astype(np.uint8)
    sinks = {
        "hash": Collector(path_consumer_factory(
            trace.universe, digest_bits=8, mode="hash", seed=0),
            num_shards=4, seed=0, max_flows_per_shard=8),
        "congestion": Collector(congestion_consumer_factory(bits=8, seed=0),
                                num_shards=4, seed=0, ttl=3.0),
        "fragment": Collector(path_consumer_factory(
            trace.universe, digest_bits=8, mode="fragment", seed=0),
            num_shards=4, seed=0),
    }
    blobs = {}
    for kind, sink in sinks.items():
        for lo in range(0, head, 100):
            hi = min(lo + 100, head)
            sink.ingest_batch(cols["flow_id"][lo:hi], cols["pid"][lo:hi],
                              cols["hop_count"][lo:hi], cols[kind][lo:hi],
                              now=float(lo // 100 + 1))
        blobs["blob_" + kind] = np.frombuffer(capture_checkpoint(sink),
                                              np.uint8)
    np.savez_compressed("checkpoint_v5.npz", head=head,
                        universe=trace.universe, **cols, **blobs)

Each blob is restored into a fresh sink and compared with a sink of
this build fed the same records: snapshot, every answers() array,
each flow's decoder state from flows(), and each shard's LRU order,
bookkeeping and counters.  Both then take the tail of
the records and are compared again, so the restored clock, LRU order
and generation numbering carry on like the never-restarted sink's.
"""

from pathlib import Path

import numpy as np
import pytest

from equivalence import consumer_state
from repro.collector import (
    CHECKPOINT_VERSION,
    Collector,
    congestion_consumer_factory,
    path_consumer_factory,
    restore_collector,
)

GOLDEN = Path(__file__).parent / "golden" / "checkpoint_v5.npz"
BATCH = 100


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return {name: data[name] for name in data.files}


def sink_for(kind: str, universe) -> Collector:
    if kind == "congestion":
        return Collector(
            congestion_consumer_factory(bits=8, seed=0),
            num_shards=4, seed=0, ttl=3.0,
        )
    bounds = {"max_flows_per_shard": 8} if kind == "hash" else {}
    return Collector(
        path_consumer_factory(
            universe.tolist(), digest_bits=8, mode=kind, seed=0
        ),
        num_shards=4, seed=0, **bounds,
    )


def feed(sink: Collector, golden: dict, kind: str, lo: int, hi: int) -> None:
    """Records ``[lo, hi)`` in batches of 100, one clock tick each."""
    for start in range(lo, hi, BATCH):
        cut = slice(start, min(start + BATCH, hi))
        sink.ingest_batch(
            golden["flow_id"][cut], golden["pid"][cut],
            golden["hop_count"][cut], golden[kind][cut],
            now=float(start // BATCH + 1),
        )


def assert_same_state(got: Collector, want: Collector) -> None:
    assert got.snapshot().as_dict() == want.snapshot().as_dict()
    a, b = got.answers(), want.answers()
    assert a.kind == b.kind and len(a) == len(b) > 0
    for name in ("flow_id", "offsets", "values"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert sorted(a.columns) == sorted(b.columns)
    for name, column in a.columns.items():
        assert column.dtype == b.columns[name].dtype, name
        assert np.array_equal(column, b.columns[name], equal_nan=True), name
    fids = a.flow_id.tolist()
    assert [consumer_state(c) for c in got.flows(fids)] == [
        consumer_state(c) for c in want.flows(fids)
    ]
    # LRU order, bookkeeping columns and counters, shard by shard (the
    # consumer objects themselves were compared through flows()).
    for mine, theirs in zip(got.shards, want.shards):
        a, b = mine.state_dict(), theirs.state_dict()
        a.pop("consumers"), b.pop("consumers")
        assert a.keys() == b.keys()
        for key in a:
            assert np.array_equal(a[key], b[key]), key


@pytest.mark.parametrize("kind", ["hash", "congestion", "fragment"])
def test_parent_commit_checkpoint_restores_identically(golden, kind):
    # The blobs are v5, and a restore refuses any other version.
    assert CHECKPOINT_VERSION == 5
    head, total = int(golden["head"]), golden["flow_id"].shape[0]
    restored = sink_for(kind, golden["universe"])
    restore_collector(restored, golden["blob_" + kind].tobytes())
    fed = sink_for(kind, golden["universe"])
    feed(fed, golden, kind, 0, head)
    assert_same_state(restored, fed)
    for sink in (restored, fed):
        feed(sink, golden, kind, head, total)
    assert_same_state(restored, fed)
