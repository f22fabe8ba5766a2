"""A shard's flows against a naive model (ROADMAP item 4 tail).

A hypothesis state machine drives ``touch_row`` / ``touch_flows`` /
``evict`` / ``expire`` / ``maybe_expire`` on a :class:`Shard` -- one
over a store of consumer objects or one over a column store -- and on
a plain insertion-ordered dict that re-derives every decision the slow
way (full scans, no early stop, no ``move_to_end``, a batch one flow
at a time); after every step the two must agree on LRU order (the
shard's rows by touch stamp), ``last_seen``, ``records``, generations
and all three counters, the store must hold exactly the shard's rows,
and the store's flow index must find exactly the model's flows, each
at a row holding it.  Clock steps and ``ttl``
are whole numbers, so the ``last_seen == now - ttl`` boundary
(evicted: only entries *strictly* newer than the deadline survive) is
hit constantly, not by luck.  A forced ``expire`` may name any time,
one before the last sweep included, so the shard's lower bound on its
flows' ``last_seen`` (which lets an idle sweep read nothing) meets
every interleaving of touches, batches, evictions and emptied shards.

Below the machine: what a shard without per-flow objects promises --
admitting flows allocates nothing per flow.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.collector import (
    Collector,
    CongestionDigestConsumer,
    Shard,
    congestion_consumer_factory,
    path_consumer_factory,
)
from repro.collector.consumers import ConsumerRows, sink_store
from repro.collector.shard import touch_flows

FLOW_IDS = st.integers(min_value=0, max_value=7)
#: Every flow id a step can name.
UNIVERSE = np.arange(12, dtype=np.int64)
#: An ascending set of flow ids with a record count each -- long enough
#: to overflow every ``max_flows`` the machine draws.
BATCHES = st.dictionaries(
    st.integers(min_value=0, max_value=11),
    st.integers(min_value=1, max_value=5), max_size=12,
)
STORES = {
    "objects": lambda: ConsumerRows(lambda fid: CongestionDigestConsumer()),
    "rows": lambda: sink_store(congestion_consumer_factory())[0],
}


def as_batch(batch):
    ids = sorted(batch)
    return (
        np.asarray(ids, dtype=np.int64),
        np.asarray([batch[fid] for fid in ids], dtype=np.int64),
    )


def touch_batch(shard, ids, counts, now):
    """:func:`touch_flows` on a lone shard: rows from its store's index."""
    found = shard.store.index.find(ids)
    return touch_flows(
        [shard], ids, np.zeros(ids.shape[0], dtype=np.int64), found, counts, now
    )


def entries(shard):
    """``(flow_id, (last_seen, generation, records))``, LRU-oldest first."""
    store, rows = shard.store, shard.rows()
    return list(zip(store.flow_id[rows].tolist(), zip(
        store.last_seen[rows].tolist(), store.generation[rows].tolist(),
        store.flow_records[rows].tolist(),
    )))


class ShardMachine(RuleBasedStateMachine):
    @initialize(
        kind=st.sampled_from(sorted(STORES)),
        max_flows=st.none() | st.integers(min_value=1, max_value=4),
        ttl=st.none() | st.sampled_from([1.0, 4.0, 8.0]),
    )
    def build(self, kind, max_flows, ttl):
        self.shard = Shard(0, STORES[kind](), max_flows=max_flows, ttl=ttl)
        self.max_flows = max_flows
        self.ttl = ttl
        self.now = 0.0
        #: flow_id -> (last_seen, generation, records), oldest touch first.
        self.model = {}
        self.created = self.lru_evictions = self.ttl_evictions = 0
        self.last_sweep = float("-inf")

    @rule(step=st.integers(min_value=0, max_value=3))
    def advance(self, step):
        self.now += float(step)

    def _model_touch(self, fid, records=0):
        if fid in self.model:
            _, generation, seen = self.model.pop(fid)
        else:
            self.created += 1
            generation, seen = self.created, 0
        self.model[fid] = (self.now, generation, seen + records)
        while self.max_flows is not None and len(self.model) > self.max_flows:
            del self.model[next(iter(self.model))]
            self.lru_evictions += 1
        return generation

    @rule(fid=FLOW_IDS)
    def touch(self, fid):
        row = self.shard.touch_row(fid, self.now)
        assert self.shard.store.generation[row] == self._model_touch(fid)
        assert self.shard.store.last_seen[row] == self.now

    @precondition(lambda self: self.max_flows is None)
    @rule(batch=BATCHES)
    def touch_batch(self, batch):
        # Capacity eviction is order-sensitive within a batch: only an
        # unbounded shard takes a batch at once.
        ids, counts = as_batch(batch)
        rows = touch_batch(self.shard, ids, counts, self.now)
        for fid, count in zip(ids.tolist(), counts.tolist()):
            self._model_touch(fid, count)
        assert rows.tolist() == self.shard.store.index.find(ids).tolist()

    @rule(fid=FLOW_IDS)
    def evict(self, fid):
        present = fid in self.model
        assert self.shard.evict(fid) is present
        self.model.pop(fid, None)

    def _model_expire(self, now):
        dead = [
            fid for fid, (seen, _, _) in self.model.items()
            if seen <= now - self.ttl
        ]
        for fid in dead:
            del self.model[fid]
        self.ttl_evictions += len(dead)
        return len(dead)

    @rule(shift=st.integers(min_value=-9, max_value=3))
    def expire(self, shift):
        # A forced sweep at any time, before the last sweep included:
        # the shard's lower bound on its flows' last_seen must hold
        # whatever order sweeps, touches and evictions come in.
        at = self.now + shift
        expected = self._model_expire(at) if self.ttl is not None else 0
        assert self.shard.expire(at) == expected

    @precondition(lambda self: self.ttl is not None)
    @rule()
    def maybe_expire(self):
        expected = 0
        if self.now - self.last_sweep >= self.ttl / 4.0:
            self.last_sweep = self.now
            expected = self._model_expire(self.now)
        assert self.shard.maybe_expire(self.now) == expected

    @invariant()
    def agrees_with_model(self):
        assert entries(self.shard) == list(self.model.items())
        assert len(self.shard) == len(self.model)
        store = self.shard.store
        # Every way out of the shard gave the row back.
        assert store.live_rows().size == len(self.model)
        # The index finds exactly the live flows, each at its own row.
        found = store.index.find(UNIVERSE)
        assert [fid for fid, row in zip(UNIVERSE.tolist(), found.tolist())
                if row >= 0] == sorted(self.model)
        assert len(store.index) == len(self.model)
        held = found[found >= 0]
        assert store.flow_id[held].tolist() == sorted(self.model)
        assert sorted(held.tolist()) == sorted(self.shard.rows().tolist())
        assert [store.index.find_one(fid) for fid in UNIVERSE.tolist()] == (
            found.tolist()
        )
        assert self.shard.created == self.created
        assert self.shard.lru_evictions == self.lru_evictions
        assert self.shard.ttl_evictions == self.ttl_evictions


ShardMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None,
    derandomize=True,
)
TestShardModel = ShardMachine.TestCase


# -- touch_flows == touch, one by one -----------------------------------------

@pytest.mark.parametrize("kind", sorted(STORES))
@given(batches=st.lists(BATCHES, min_size=1, max_size=6))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_touch_flows_is_touch_one_by_one(kind, batches):
    many = Shard(0, STORES[kind]())
    single = Shard(0, STORES[kind]())
    for now, batch in enumerate(batches):
        ids, counts = as_batch(batch)
        touch_batch(many, ids, counts, float(now))
        for fid, count in zip(ids.tolist(), counts.tolist()):
            row = single.touch_row(fid, float(now))
            single.store.flow_records[row] += count

        def state(shard):
            return entries(shard), shard.created, shard.lru_evictions

        assert state(many) == state(single)
    # Same flows, same bookkeeping: the same checkpoint columns.
    a, b = many.state_dict(), single.state_dict()
    for key in ("flow_id", "last_seen", "records", "generation"):
        assert a[key].dtype == b[key].dtype and a[key].tolist() == b[key].tolist()


# -- no object per flow ---------------------------------------------------------

@pytest.mark.parametrize("factory", [
    lambda: congestion_consumer_factory(seed=0),
    # One raw one-hop packet per flow: every path flow decodes at once.
    lambda: path_consumer_factory(range(64), mode="raw", seed=0),
])
def test_admitting_flows_allocates_no_object_per_flow(factory):
    """20,000 new flows through ``ingest_batch``: the live-object count
    barely moves and the cyclic collector has nothing to chase."""
    flows = 20_000
    fids = np.arange(flows, dtype=np.int64)
    hops = np.ones(flows, dtype=np.int64)
    sink = Collector(factory(), num_shards=4, seed=0)
    sink.ingest_batch(fids[:8] + flows, fids[:8], hops[:8], fids[:8] % 64)
    gc.collect()

    def gen0() -> int:
        return gc.get_stats()[0]["collections"]

    at = gen0()
    for _ in range(0, flows, 2000):
        pass
    idle = gen0() - at
    before, at = len(gc.get_objects()), gen0()
    for lo in range(0, flows, 2000):
        cut = slice(lo, lo + 2000)
        sink.ingest_batch(fids[cut], fids[cut], hops[cut], fids[cut] % 64)
    collections = gen0() - at
    grown = len(gc.get_objects()) - before
    assert len(sink) == flows + 8
    assert sink.snapshot().completed_flows == flows + 8
    assert grown < 1000
    assert collections <= idle
