"""Knob ratchet: the constructor surfaces of the two widest classes.

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
    assert params(ReplayDriver) == {
        "digest_bits", "num_hashes", "seed", "num_shards", "batch_size",
        "path_share", "congestion_share", "congestion_bits", "workers",
        "mode", "impairments", "transport", "obs", "checkpoint_every",
        "journal_batches", "faults",
    }
    assert "overlapped" not in ScenarioReport.__dataclass_fields__


def test_parallel_collector_constructor_knobs():
    assert params(ParallelCollector) == {
        "consumer_factory", "workers", "num_shards",
        "max_flows_per_shard", "ttl", "seed", "router", "start_method",
        # One legal value ("shm"); kept for the frozen bench caller.
        "transport",
        "ring_slots", "ring_records", "obs", "obs_labels",
        "checkpoint_every", "journal_batches", "faults", "wedge_timeout",
        "max_restarts", "on_data_loss",
    }


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
