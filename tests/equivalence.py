"""The one statement of bit-identity, and the harness that checks it.

**Property.**  For every replay configuration ``c``,

    ``differences(run(c), run(reference(c))) == []``

``run`` drives one :class:`~repro.replay.driver.ReplayDriver` replay
and reads, while both sinks are still up, what each ends up holding --

(a) ``answers``  -- every array of the sink's ``AnswerTable``;
(b) ``snapshot`` -- ``snapshot().as_dict()``;
(c) ``state``    -- every live flow's full decoder state, read through
    ``flows()`` (:func:`decoder_state`);

plus (d) the ``ScenarioReport`` minus its clocks.  ``reference(c)``
keeps what decides *which records reach the sinks and when* (scenario,
digest coding, the delivery schedule of the impairment models, the
batch size that stamps the clock) and resets everything that may only
change *how* they get there: a serial in-process driver, no registry,
no faults, each delivered row fed through scalar ``Collector.ingest``
into flows that are plain consumer objects
(``PathDigestConsumer.from_context`` / ``CongestionDigestConsumer`` on
the sink's context or codec, :func:`object_factory`).  The reference
therefore shares no code with the column stores: its answers, state
bytes and decoder state come from the objects' ``consume``, not from
``PathStateStore.answers`` / ``account`` / ``absorb``.
``differences`` ignores only the counters that describe the execution
rather than the answer (:data:`EXECUTION`, the per-shard ``batches``).
A sink that *says* it lost records (the journal-starved ``degrade``
fault) is held to what it still promises: every shard it does not mark
degraded is bit-identical, and a degraded shard's ``records +
records_lost`` is exactly what the reference ingested there.

**Axes.**  :data:`AXES` spans workers x ring geometry x transport x
instrumentation x impairment x injected fault x batch size x coding x
scenario; :data:`INCOMPATIBLE` is the one table of value pairs that
cannot occur together.  Tier-1 (``tests/test_golden_equivalence.py``)
checks :func:`sample`, a seeded set of rows in which every other pair
of values occurs; ``python tests/equivalence.py --full`` walks the
whole product.

**Golden file.**  ``tests/golden/equivalence.json`` additionally pins
the sha256 of (a)-(d) per configuration across commits
(:func:`digests`).  A refactor that means to change nothing commits the
file unchanged; a PR that means to change answers regenerates it with
``pytest tests/test_golden_equivalence.py --update-golden`` (a full run
rewrites the file from scratch) and shows the diff.
"""

import copy
import hashlib
import itertools
import json
import random
import sys
from dataclasses import asdict, dataclass, replace
from functools import lru_cache, partial
from pathlib import Path
from typing import Optional
from unittest import mock

import numpy as np

from repro.collector import (
    Collector,
    CongestionDigestConsumer,
    ParallelCollector,
    PathDigestConsumer,
    congestion_consumer_factory,
    path_consumer_factory,
)
from repro.collector import parallel as parallel_module
from repro.collector.answers import PATH
from repro.collector.shm import ShmRing
from repro.faults import FaultPlan, drop_checkpoint, kill_worker, wedge_worker
from repro.obs import MetricsRegistry
from repro.replay import driver as driver_module
from repro.replay.dataplane import TraceDataplane
from repro.replay.driver import ReplayDriver
from repro.replay.impair import (
    Duplicate,
    GilbertElliott,
    IIDLoss,
    Reorder,
    plan_delivery,
)
from repro.replay.scenarios import build_trace, scenario_names
from repro.service import ReliableUDPSender

GOLDEN = Path(__file__).resolve().parent / "golden" / "equivalence.json"

#: Axis -> its values.
AXES = {
    "scenario": tuple(scenario_names()),
    "coding": ("hash", "hash2", "raw", "fragment"),
    "models": ("none", "zero", "lossy"),
    "batch": (8192, 64),
    "workers": (None, 2, 4),
    "ring": ("default", "tiny"),
    "transport": ("inproc", "udp"),
    "obs": (False, True),
    "fault": ("none", "kill", "wedge", "drop_checkpoint", "degrade"),
}

#: Value pairs no configuration can hold: the ring and every fault live
#: in the worker processes of a parallel path sink.  (``num_hashes=2``
#: exists in hash mode only, which is why it is the coding value
#: ``hash2`` rather than an axis of its own.)
INCOMPATIBLE = {
    frozenset({("workers", None), ("ring", "tiny")}),
    *(
        frozenset({("workers", None), ("fault", fault)})
        for fault in AXES["fault"] if fault != "none"
    ),
}

#: ``ScenarioReport`` fields that are clocks, not answers.
CLOCKS = ("seconds", "stage_seconds")

#: ``ScenarioReport`` counters that follow the scheduler (an RTO that
#: fired, the journal length when a death was noticed).
SCHEDULED = ("wire_frames", "wire_retransmits", "restarts", "replayed_batches")

#: ``ScenarioReport`` fields that say how the records travelled.
EXECUTION = ("impairments", "transport") + SCHEDULED

#: Trace length per batch size: two batches of the large one even under
#: loss (a fault needs a message before it and one after), forty of the
#: small.
PACKETS = {8192: 9_600, 64: 2_560}

#: ``ring="tiny"``: two slots put back-pressure on every push, and a
#: 48-record slot splits any larger sub-batch into a run of continued
#: slots that the worker reassembles.  Values of
#: :mod:`repro.collector.parallel`'s geometry constants, patched in
#: before the sinks fork.
TINY_RING = dict(RING_SLOTS=2, RING_RECORDS=48)

#: Records per UDP frame: every batch fragments into ``FLAG_MORE`` runs.
UDP_FRAME_RECORDS = 32


@dataclass(frozen=True)
class Config:
    """One point of the configuration space (fields as in :data:`AXES`)."""

    scenario: str
    coding: str = "hash"
    models: str = "none"
    batch: int = 8192
    workers: Optional[int] = None
    ring: str = "default"
    transport: str = "inproc"
    obs: bool = False
    fault: str = "none"
    #: Feed the sinks one scalar ``ingest`` per record.
    scalar: bool = False
    #: Overrides of the sampled rows' sizes, for the rows pinned before
    #: the sample existed.
    packets: Optional[int] = None
    fragment_bits: int = 4

    @property
    def name(self) -> str:
        return "-".join((
            self.scenario, self.coding, self.models, f"b{self.batch}",
            f"w{self.workers}" if self.workers else "serial",
            f"{self.ring}ring", self.transport,
            "obs" if self.obs else "bare", self.fault,
        ))


def reference(config: Config) -> Config:
    """The serial scalar execution ``config`` must be bit-identical to."""
    return replace(
        config, workers=None, ring="default", transport="inproc", obs=False,
        fault="none", scalar=True,
        # Zero-rate models deliver every row once, in order.
        models="none" if config.models == "zero" else config.models,
    )


# -- the configurations -------------------------------------------------------

def pairs(row: dict) -> set:
    return {frozenset(pair) for pair in itertools.combinations(row.items(), 2)}


def compatible_pairs() -> set:
    """Every pair of values of two axes, minus :data:`INCOMPATIBLE`."""
    return {
        frozenset(pair)
        for a, b in itertools.combinations(AXES, 2)
        for pair in itertools.product(
            ((a, v) for v in AXES[a]), ((b, v) for v in AXES[b])
        )
    } - INCOMPATIBLE


def sample(seed: int = 0) -> list:
    """Rows of :data:`AXES` in which every compatible pair occurs.

    Greedy: each row starts from a pair still uncovered and gives every
    other axis, in a shuffled order, the compatible value that covers
    the most; the best of a few such candidates is kept.
    """
    rng = random.Random(seed)
    uncovered = compatible_pairs()

    def candidate(starts: list) -> dict:
        row = dict(rng.choice(starts))
        for axis in rng.sample(list(AXES), len(AXES)):
            if axis in row:
                continue
            values = [
                v for v in AXES[axis]
                if not pairs({**row, axis: v}) & INCOMPATIBLE
            ]
            rng.shuffle(values)
            row[axis] = max(
                values, key=lambda v: len(pairs({**row, axis: v}) & uncovered)
            )
        return row

    rows = []
    while uncovered:
        # Sorted: set order follows the per-process string hash seed.
        starts = sorted(uncovered, key=lambda pair: sorted(map(repr, pair)))
        row = max(
            (candidate(starts) for _ in range(30)),
            key=lambda r: len(pairs(r) & uncovered),
        )
        uncovered -= pairs(row)
        rows.append(Config(**row))
    return rows


def full():
    """Every compatible point of the product, reference axes outermost."""
    for values in itertools.product(*AXES.values()):
        row = dict(zip(AXES, values))
        if not pairs(row) & INCOMPATIBLE:
            yield Config(**row)


#: (scenario, coding, workers, lossy, batch) at 20,000 packets and
#: 8-bit fragments: the rows pinned before the sample existed, kept
#: under their names.  Every pair of values of any two columns but
#: (scenario, coding) occurs in some row.
PINNED_REPLAYS = [
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
PINNED_BOUNDED = [
    ("lru", "elephant-mice", dict(max_flows_per_shard=48)),
    ("ttl", "web-search", dict(ttl=3.0)),
]


def pinned() -> dict:
    """Golden name -> zero-argument runner, for the pre-sample rows."""
    runners = {}
    for scenario, coding, workers, lossy, batch in PINNED_REPLAYS:
        name = "-".join((
            scenario, coding, f"w{workers}" if workers else "serial",
            "lossy" if lossy else "clean", f"b{batch}",
        ))
        runners[name] = partial(run, Config(
            scenario, coding, "lossy" if lossy else "none", batch, workers,
            packets=20_000, fragment_bits=8,
        ))
    for name, scenario, bounds in PINNED_BOUNDED:
        runners[f"bounded-{name}"] = partial(run_bounded, scenario, bounds)
    return runners


# -- reading a sink -----------------------------------------------------------

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
    """Everything a decoder holds, in a ==-comparable, ordered form.

    Pending XOR digests are compared on the *live* entries (two or
    more hops still unknown): a digest that has resolved is not state
    -- nothing reads it again, and what its residual ended up as
    depended on which acting hop happened to settle last.
    """
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


def read_sink(collector) -> dict:
    """(a)-(c) of one sink, plus the same per shard.

    ``answers`` / ``state`` digest the whole sink (the golden form);
    ``flows`` maps each shard to a digest of its flows' answers and
    states, so that two sinks can be compared on a subset of shards.
    """
    table = collector.answers()
    ids = table.flow_id.tolist()
    states = [consumer_state(c) for c in collector.flows(ids)]
    shard_of = collector.router.shard_of_array(table.flow_id).tolist()
    offsets, values = table.offsets.tolist(), table.values.tolist()
    columns = [col.tolist() for _, col in sorted(table.columns.items())]
    by_shard: dict = {}
    for row, fid in enumerate(ids):
        by_shard.setdefault(shard_of[row], []).append((
            fid, values[offsets[row]:offsets[row + 1]],
            [col[row] for col in columns], states[row],
        ))
    return {
        "answers": answers_digest(table),
        "snapshot": collector.snapshot().as_dict(),
        "state": sha(repr(list(zip(ids, states)))),
        "flows": {shard: sha(repr(rows)) for shard, rows in by_shard.items()},
    }


def digests(outcome: dict) -> dict:
    """``{"path.answers": sha, ..., "report": sha}``: the golden form."""
    flat = {}
    for kind, sink in outcome.items():
        if kind == "report":
            flat[kind] = sha(json.dumps(
                {**sink, **dict.fromkeys(SCHEDULED, 0)}, sort_keys=True
            ))
            continue
        flat[f"{kind}.answers"] = sink["answers"]
        flat[f"{kind}.snapshot"] = sha(
            json.dumps(sink["snapshot"], sort_keys=True)
        )
        flat[f"{kind}.state"] = sink["state"]
    return flat


def comparable(outcome: dict, degraded: frozenset) -> dict:
    """``outcome`` as flat ``key -> value``, minus the execution's own
    counters and whatever the ``degraded`` path shards no longer promise.

    ``batches`` counts ``ingest_batch`` calls, which the scalar
    reference by definition never makes, and the coverage aggregates
    are float sums whose order follows the batching (rounded instead).
    """
    flat = {}
    for kind, sink in outcome.items():
        if kind == "report":
            flat.update(
                (f"report.{field}", value) for field, value in sink.items()
                if field not in EXECUTION and not (degraded and (
                    field.startswith("path_")
                    or field in ("degraded_shards", "records_lost")
                ))
            )
            continue
        lost = degraded if kind == "path" else frozenset()
        snap = copy.deepcopy(sink["snapshot"])
        for shard in snap.pop("shards"):
            key = f"{kind}.shard{shard['shard_id']}"
            if shard["shard_id"] in lost:
                flat[f"{key}.offered"] = (
                    shard["records"] + shard["records_lost"]
                )
                continue
            del shard["batches"]
            shard["coverage_sum"] = round(shard["coverage_sum"], 6)
            flat[key] = (shard, sink["flows"].get(shard["shard_id"]))
        if lost:
            continue
        for aggregate in ("coverage_sum", "mean_coverage"):
            if snap[aggregate] is not None:
                snap[aggregate] = round(snap[aggregate], 6)
        flat.update((f"{kind}.snapshot.{k}", v) for k, v in snap.items())
        flat[f"{kind}.answers"] = sink["answers"]
        flat[f"{kind}.state"] = sink["state"]
    return flat


def differences(got: dict, want: dict) -> list:
    """Keys on which ``got`` departs from ``want``; empty when the
    property holds."""
    degraded = frozenset(got["path"]["snapshot"]["degraded_shards"])
    a, b = comparable(got, degraded), comparable(want, degraded)
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


# -- running one configuration ------------------------------------------------

def coding_kwargs(config: Config) -> dict:
    return {
        "hash": dict(mode="hash"),
        "hash2": dict(mode="hash", num_hashes=2),
        "raw": dict(mode="raw"),
        "fragment": dict(mode="fragment", digest_bits=config.fragment_bits),
    }[config.coding]


def impairment_models(models: str) -> list:
    if models == "zero":
        return [
            IIDLoss(0.0, seed=0),
            GilbertElliott(p_bad=0.0, p_good=1.0, seed=1),
            Reorder(depth=0, seed=2), Duplicate(0.0, seed=3),
        ]
    if models == "lossy":
        return [
            GilbertElliott(p_bad=0.02, p_good=0.2, seed=0),
            Reorder(depth=64, prob=0.5, seed=0),
            Duplicate(prob=0.02, seed=0),
        ]
    return []


def supervision(fault: str, messages: int) -> dict:
    """The driver's fault knobs: worker 0 is lost after half of its
    ``messages`` (never before its second), checkpointed before that."""
    at = max(2, messages // 2)
    lost = wedge_worker(0, at) if fault == "wedge" else kill_worker(0, at)
    if fault == "degrade":
        # No checkpoint ever lands and the journal holds one message:
        # the kill loses everything sent before that one.
        return dict(
            checkpoint_every=1, journal_batches=1,
            faults=FaultPlan([drop_checkpoint(0), lost]),
        )
    # drop_checkpoint: the first write never lands, so the kill is
    # recovered from a later checkpoint or none, by a longer replay.
    first = [drop_checkpoint(0, at=1)] if fault == "drop_checkpoint" else []
    return dict(
        checkpoint_every=max(1, min(4, at // 2)), journal_batches=messages + 1,
        faults=FaultPlan(first + [lost]),
    )


def scalar_ingest(collector, run):
    """A replay block's batches, one scalar ``ingest`` per record."""
    for (fids, pids, hops, digests), now in run:
        for record in zip(
            fids.tolist(), pids.tolist(), hops.tolist(), digests.tolist()
        ):
            collector.ingest(*record, now=now)


def object_factory(factory):
    """``factory``'s flows as plain consumer objects on its query's
    context or codec, sharing no code with the column stores (fragment
    coding builds objects already)."""
    store = getattr(factory, "store", None)
    if store is None:
        return factory
    if store.kind == PATH:
        return lambda flow_id: PathDigestConsumer.from_context(store.context)
    return lambda flow_id: CongestionDigestConsumer(codec=store.codec)


class _Recording(ReplayDriver):
    """A driver that reads both sinks while they are still up."""

    scalar = False

    def _make_sink(self, stack, consumer_factory, sink_label, workers):
        if not self.scalar:
            return super()._make_sink(
                stack, consumer_factory, sink_label, workers
            )
        sink = super()._make_sink(
            stack, object_factory(consumer_factory), sink_label, workers
        )
        sink.ingest = partial(scalar_ingest, sink.collector)
        return sink

    def _score(self, trace, path, cong, *rest):
        self.outcome = {
            "path": read_sink(path.collector),
            "congestion": read_sink(cong.collector),
        }
        #: Batches the senders put on the wire (0 in-process).
        self.shipped = sum(
            sink.tx.batches_sent for sink in (path, cong)
            if sink.tx is not None
        )
        return super()._score(trace, path, cong, *rest)


trace_of = lru_cache(maxsize=4)(partial(build_trace, seed=0))


def run(config: Config) -> dict:
    """Replay ``config``: ``{"path": ..., "congestion": ..., "report": ...}``."""
    trace = trace_of(
        config.scenario, packets=config.packets or PACKETS[config.batch]
    )
    models = impairment_models(config.models)
    knobs = {}
    if config.fault != "none":
        delivered = len(
            plan_delivery(models, len(trace), trace.flow_id) if models
            else trace
        )
        knobs = supervision(config.fault, -(-delivered // config.batch))
    driver = _Recording(
        batch_size=config.batch, seed=0, workers=config.workers,
        impairments=models, obs=MetricsRegistry() if config.obs else None,
        transport=None if config.transport == "inproc" else config.transport,
        **knobs, **coding_kwargs(config),
    )
    driver.scalar = config.scalar
    # What the driver has no knob for goes in through the constructors
    # it calls.  A wedge is noticed by timeout only.
    sink_kwargs = {}
    if config.fault == "wedge":
        sink_kwargs["wedge_timeout"] = 0.25
    geometry = TINY_RING if config.ring == "tiny" else dict(
        RING_SLOTS=parallel_module.RING_SLOTS,
        RING_RECORDS=parallel_module.RING_RECORDS,
    )
    #: ``(slots, slot_records, records)`` of every message pushed.
    pushes = []

    def push(ring, fids, *rest):
        pushes.append((ring.slots, ring.slot_records, int(fids.shape[0])))
        return ring_push(ring, fids, *rest)

    ring_push = ShmRing.push
    with mock.patch.object(
        driver_module, "ParallelCollector",
        partial(ParallelCollector, **sink_kwargs),
    ), mock.patch.object(
        driver_module, "ReliableUDPSender",
        partial(ReliableUDPSender, max_records=UDP_FRAME_RECORDS),
    ), mock.patch.multiple(parallel_module, **geometry), mock.patch.object(
        ShmRing, "push", push,
    ):
        report = asdict(driver.replay(trace))
    for clock in CLOCKS:
        del report[clock]
    # The execution took place as configured (a fault that never fired,
    # a wire nobody used, prove nothing), and the report says so.
    wire = config.transport != "inproc"
    assert report["transport"] == (config.transport if wire else "in-process")
    assert (report["wire_frames"] > 0) == wire, config.name
    if config.transport == "udp":
        # Its batches fragment into UDP_FRAME_RECORDS-record frames: a
        # driver passing its own ``max_records`` would override the
        # patch above without a word.
        sent = report["wire_frames"] - report["wire_retransmits"]
        assert sent > driver.shipped, config.name
    assert bool(report["impairments"]) == bool(models), config.name
    # Every message crossed a ring of the configured geometry (a sink
    # built with its own would override the patch above without a
    # word), and where a worker's share of a batch outgrows the whole
    # ring, some message did: it spanned every slot and flowed only as
    # the worker freed them.
    slots, records = geometry["RING_SLOTS"], geometry["RING_RECORDS"]
    assert {push[:2] for push in pushes} == (
        {(slots, records)} if config.workers else set()
    ), config.name
    if config.workers and config.batch // config.workers > slots * records:
        assert max(n for *_, n in pushes) > slots * records, config.name
    if config.obs:
        assert "pint_replay_stage_seconds" in driver.obs.as_dict()["families"]
    if knobs:
        fired = {kind for kind, _, _ in knobs["faults"].fired}
        expected = {spec.kind for spec in knobs["faults"].specs}
        assert fired == expected, f"{config.name}: fired only {fired}"
        assert report["restarts"] >= 1, f"{config.name}: nothing to recover"
        assert (report["records_lost"] > 0) == (config.fault == "degrade")
    return {**driver.outcome, "report": report}


def run_bounded(scenario: str, bounds: dict) -> dict:
    """Both sinks fed every record of the trace, 512 at a time, on a
    clock of one tick per batch."""
    trace = trace_of(scenario, packets=20_000)
    dataplane = TraceDataplane(trace, digest_bits=8, seed=0)
    encoded = dataplane.encode_rows(np.arange(len(trace), dtype=np.int64))
    sinks = {
        "path": (Collector(
            path_consumer_factory(trace.universe, digest_bits=8, seed=0),
            num_shards=4, seed=0, **bounds,
        ), encoded),
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
        out[kind] = read_sink(sink)
    return out


if __name__ == "__main__":
    if sys.argv[1:] != ["--full"]:
        sys.exit("usage: python tests/equivalence.py --full")
    reference_run = lru_cache(maxsize=None)(run)
    failed = 0
    for count, config in enumerate(full(), 1):
        moved = differences(run(config), reference_run(reference(config)))
        failed += bool(moved)
        if moved or count % 100 == 0:
            print(f"{count:>6} {config.name}: {moved or 'ok'}", flush=True)
    print(f"{count} configurations, {failed} not bit-identical")
    sys.exit(1 if failed else 0)
