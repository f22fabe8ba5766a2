"""Knob ratchet: the constructor surfaces of the five sink classes.

Every constructor parameter is a configuration axis the tests and the
benchmark must cover, so adding one is a deliberate act: it changes
this file, and the diff says so to a reviewer.  Removing one shrinks
the set below -- that direction is always welcome.
"""

import inspect

from repro.collector import Collector, ParallelCollector
from repro.replay import ReplayDriver, ScenarioReport


def params(cls) -> set:
    names = set(inspect.signature(cls.__init__).parameters)
    return names - {"self"}


def test_replay_driver_constructor_knobs():
    # The execution plan is module constants, not keywords: every
    # caller outside the tests ran the same one.
    assert params(ReplayDriver) == {
        "digest_bits", "num_hashes", "seed", "num_shards", "batch_size",
        "workers", "mode", "impairments", "transport", "obs",
        "checkpoint_every", "journal_batches", "faults",
    }
    assert list(inspect.signature(ReplayDriver.replay).parameters) == [
        "self", "trace",
    ]
    assert "overlapped" not in ScenarioReport.__dataclass_fields__


def test_replay_path_options_nothing_sets_are_gone():
    from repro.replay import TraceDataplane
    from repro.service import ReliableUDPSender

    assert "scheme_factory" not in params(TraceDataplane)
    assert not {"alpha", "beta"} & params(ReliableUDPSender)
    assert not {"jitter", "rto_seed"} & params(ReliableUDPSender)


def test_udp_is_the_one_wire_transport():
    # Reliable UDP is the one wire into the sink (DESIGN.md section
    # 7): no stream sender or decoder, no fire-and-forget sender, no
    # sender factory to pick between them.
    import repro.service as service
    from repro.service import client, wire

    gone = {"TCPSender", "StreamDecoder", "UDPSender", "make_sender"}
    assert not gone & set(dir(service))
    assert not gone & set(dir(client))
    assert not hasattr(client, "_SenderBase")
    assert not hasattr(client, "RECONNECT_MAX")
    assert not hasattr(wire, "frames_payload_records")


def test_impairment_lives_only_in_the_driver():
    # A trace rewritten by impairment models before replay hides its
    # losses from the report; the driver's impairments= counts them.
    import repro.replay as replay
    from repro.replay import impair, scenarios

    assert not hasattr(replay, "impair_trace")
    assert not hasattr(impair, "impair_trace")
    assert not hasattr(scenarios, "VARIANT_IMPAIRMENTS")
    assert "variant" not in replay.Scenario.__dataclass_fields__
    assert "variant" not in inspect.signature(replay.scenario).parameters
    assert not inspect.signature(replay.scenario_names).parameters
    assert "variants" not in inspect.signature(ReplayDriver.run_all).parameters


def test_sink_side_generality_without_a_caller_is_gone():
    # Topology-aware decoding stays a decoder feature (HashDecoder,
    # PathQueryContext); the sink builds no adjacency context.  Worker
    # snapshots carry neither wire nor recovery counters, so only
    # shards and metrics merge.
    from repro.coding import store
    from repro.collector import RecoveryStats, Snapshot
    from repro.collector.consumers import (
        PathDigestConsumer,
        path_query_context,
    )
    from repro.collector.snapshot import ServiceStats
    from repro.replay import TraceDataplane

    assert "adjacency" not in params(PathDigestConsumer)
    assert "adjacency" not in inspect.signature(path_query_context).parameters
    assert "adjacency" not in store.FALLBACK_REASONS
    assert not hasattr(store, "ADJACENCY")
    assert not hasattr(ServiceStats, "merged")
    assert not hasattr(ServiceStats, "dropped_total")
    assert not hasattr(RecoveryStats, "merged")
    assert hasattr(Snapshot, "merged")
    assert not hasattr(TraceDataplane, "encode_batch")


def test_parallel_collector_constructor_knobs():
    # The router is always ShardRouter(num_shards, seed), the restart
    # budget is MAX_RESTARTS, and a journal overflow always degrades.
    import repro.collector.parallel as parallel
    import repro.exceptions as exceptions

    assert params(ParallelCollector) == {
        "consumer_factory", "workers", "num_shards",
        "max_flows_per_shard", "ttl", "seed",
        # One legal value ("shm"); kept for the frozen bench caller.
        "transport",
        "obs", "obs_labels",
        "checkpoint_every", "journal_batches", "faults", "wedge_timeout",
    }
    assert not hasattr(exceptions, "JournalOverflowError")
    # Ring geometry is the module's RING_SLOTS x RING_RECORDS.
    assert (parallel.RING_SLOTS, parallel.RING_RECORDS) == (8, 16384)


def test_collector_constructor_knobs():
    assert params(Collector) == {
        "consumer_factory", "num_shards", "max_flows_per_shard", "ttl",
        "seed", "obs", "obs_labels",
    }


def test_service_constructor_knobs():
    # The send window, retry budget and back-off are sender constants,
    # the reorder window a server constant.
    from repro.service import CollectorServer, ReliableUDPSender

    assert params(CollectorServer) == {
        "collector", "host", "udp_port",
        # Only None is legal; kept for the frozen bench caller.
        "tcp_port",
        "query_port", "queue_frames", "obs", "metrics_port", "faults",
    }
    assert params(ReliableUDPSender) == {
        "host", "port", "max_records", "min_rto", "max_rto",
        "initial_rto", "send_timeout", "drop_fn", "obs", "obs_labels",
    }


def test_sink_surface_is_52_names():
    from repro.service import CollectorServer, ReliableUDPSender

    classes = (Collector, ParallelCollector, ReplayDriver,
               CollectorServer, ReliableUDPSender)
    assert sum(len(params(cls)) for cls in classes) == 52


def test_answers_is_one_signature_on_both_collectors():
    # The read path of a sink: callers (scorer, query port, examples)
    # never ask which collector they hold.
    serial = inspect.signature(Collector.answers)
    assert serial == inspect.signature(ParallelCollector.answers)
    assert str(serial).startswith("(self, flow_ids=None)")


def test_stage_loop_calls_keep_their_signatures():
    # bench/stageloop.py is frozen and reaches the switch side through
    # exactly these three public calls (bench/README.md, "Run
    # protocol"); a rewrite behind them must not move their parameters.
    from repro.core import ExecutionPlan
    from repro.replay import TraceDataplane, compress_utilizations

    def names(fn) -> list:
        return list(inspect.signature(fn).parameters)

    assert names(TraceDataplane.encode_rows) == ["self", "rows"]
    assert names(ExecutionPlan.select_array) == ["self", "packet_ids"]
    assert names(compress_utilizations) == [
        "codec", "utilizations", "pids", "hop_counts",
    ]


def test_bench_calls_into_the_sink_keep_working():
    # The calls bench/ (frozen) makes into the sink layer, as listed
    # under "The repro.* calls this benchmark pins" in bench/README.md:
    # a sink whose flows are store rows must keep answering them with
    # these names and argument forms.
    import numpy as np

    from repro.collector import (
        capture_checkpoint,
        congestion_consumer_factory,
        path_consumer_factory,
        restore_collector,
    )

    def path_factory():
        return path_consumer_factory(
            range(32), digest_bits=8, num_hashes=1, seed=0, mode="hash",
            value_bits=5,
        )

    cols = (np.arange(40) % 7, np.arange(40) + 1, np.full(40, 4), np.arange(40))
    sink = Collector(path_factory(), num_shards=4, seed=0)
    sink.ingest_batch(*cols, now=1.0)
    flows = sink.flows(list(range(8)))
    assert flows[7] is None and flows[0].progress == sink.flow(0).progress
    for consumer in flows[:7]:
        assert consumer.result() is None or isinstance(consumer.result(), list)
        assert 0.0 <= consumer.coverage <= 1.0
        assert isinstance(consumer.decode_errors, int)
    assert isinstance(sink.snapshot().as_dict()["state_bytes"], int)
    # bench/micro.py drives a factory-built consumer directly.
    consumer = path_factory()(3)
    consumer.consume_slice(*cols[1:], 0, 1)
    consumer.consume_batch(cols[1][1:9], cols[2][1:9], cols[3][1:9])
    assert isinstance(consumer.decode_errors, int)
    fresh = Collector(path_factory(), num_shards=4, seed=0)
    restore_collector(fresh, capture_checkpoint(sink))
    assert fresh.snapshot().as_dict() == sink.snapshot().as_dict()
    cong = Collector(congestion_consumer_factory(bits=8, seed=0), num_shards=4)
    cong.ingest_batch(*cols, now=1.0)
    assert cong.flow(3).max_code == 38 and cong.flow(3).result() is not None


def test_shard_is_bounds_and_counters_over_the_sinks_one_index():
    # A shard is built from its sink's store and two bounds, nothing
    # else: how flows are stored is not a mode.  `touch_row` (one flow)
    # and `touch_flows` (a batch, across a sink's shards) are its entry
    # points and hand rows back.  The flow index is the store's, one
    # per sink: the shard keeps no map, no table object and no second
    # flow view, and LRU order is its rows by touch stamp.
    import repro.collector as collector
    import repro.coding.store as store_module
    from repro.coding.flowindex import FlowIndex
    from repro.collector import Shard
    from repro.collector.consumers import ConsumerRows
    from repro.collector.shard import touch_flows

    def names(fn) -> list:
        return list(inspect.signature(fn).parameters)

    assert params(Shard) == {"shard_id", "store", "max_flows", "ttl"}
    assert names(Shard.touch_row) == ["self", "flow_id", "now"]
    assert names(touch_flows) == [
        "shards", "flow_ids", "shard_ids", "rows", "counts", "now",
    ]
    assert not hasattr(Shard, "touch_many")
    assert not {"FlowTable", "FlowEntry"} & set(dir(collector))
    # The lossy direct-mapped index that found steady flows is gone.
    assert not {"_BUCKETS", "_SPARSE", "_SPREAD"} & set(dir(store_module))
    assert not hasattr(store_module.RowStore, "steady_rows")
    shard = Shard(0, ConsumerRows(lambda fid: object()), max_flows=2)
    row = shard.touch_row(5, 1.5)
    assert not hasattr(shard, "table") and not hasattr(Shard, "touch_group")
    assert not hasattr(shard, "index")
    assert isinstance(shard.store.index, FlowIndex)
    assert shard.store.index.find_one(5) == row and len(shard) == 1
    assert shard.rows().tolist() == [row]
    assert shard.store.last_seen[row] == 1.5


def test_array_twins_without_a_pipeline_caller_are_gone():
    # Array code lives only where the pipeline runs it: a latency batch
    # takes the scalar loop, and DecisionReplay is the one array form of
    # the per-packet decisions.  RowHandle.consume_slice stays (bench/).
    import repro.collector as collector
    import repro.hashing as hashing
    from repro.apps.latency import HopLatencyStore, LatencyCompressor
    from repro.coding import CodecContext, PathEncoder
    from repro.collector.consumers import (
        DigestConsumer,
        LatencyDigestConsumer,
        RowHandle,
    )
    from repro.hashing import GlobalHash, mix
    from repro.sketch import KLLSketch

    for name in ("CarrierCache", "decode_latency_slice",
                 "decode_latency_columns"):
        assert not hasattr(collector, name)
    for name in ("reservoir_carrier_zip", "reservoir_carrier_array",
                 "xor_acting_zip"):
        assert not hasattr(hashing, name)
    assert not hasattr(GlobalHash, "bits_lanes")
    assert not hasattr(GlobalHash, "uniform_lanes")
    assert not hasattr(mix, "fold_lanes") and not hasattr(mix, "combine_array")
    assert not hasattr(CodecContext, "layer_of_array")
    assert not hasattr(PathEncoder, "encode_lanes")
    assert not hasattr(KLLSketch, "extend_array")
    assert not hasattr(HopLatencyStore, "add_array")
    assert not hasattr(LatencyCompressor, "decode_array")
    assert not hasattr(DigestConsumer, "consume_slice")
    assert "consume_batch" not in vars(LatencyDigestConsumer)
    assert "carrier_cache" not in params(LatencyDigestConsumer)
    assert "consume_slice" in vars(RowHandle)


def test_sink_library_import_leaves_networkx_unloaded():
    # The collector and the service never build a topology; only
    # repro.net (the simulator's graphs) needs networkx.
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import sys, repro.collector, repro.service; "
        "print('networkx' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "False"
