"""The sink's flow index against a ``dict`` model.

A hypothesis state machine drives one :class:`FlowIndex` through batch
and scalar inserts and lookups and scalar removals -- enough that the
table grows several times from its smallest size -- and re-inserts
removed flows at recycled rows, the way a store hands an evicted
flow's row to the next one.  Flow ids are drawn from a few clusters
(consecutive ids, ids that differ in their top bits only, negatives)
so probes collide and runs form.  After every step the index must
agree with the model on every id, scalar and batch alike, keep its
load bound, and keep the linear-probing invariant: no entry's probe
path from its home slot crosses an empty slot.

Below the machine, the same index as a shard's store sees it: flows
admitted, evicted, expired and released through a :class:`Shard` are
exactly what the index finds.
"""

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    invariant,
    rule,
)

from repro.coding.flowindex import SPARSE, FlowIndex
from repro.collector import Collector, congestion_consumer_factory

#: Ids that collide in interesting ways: a dense run, ids that differ
#: only in their high bits (same low bits, spread by the multiply),
#: negatives and the int64 extremes.
IDS = st.one_of(
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=15).map(lambda i: i << 58),
    st.integers(min_value=-40, max_value=-1),
    st.sampled_from([2**63 - 1, -(2**63)]),
)
PROBES = np.asarray(
    list(range(-45, 70)) + [i << 58 for i in range(16)] + [2**63 - 1, -(2**63)],
    dtype=np.int64,
)


def probe_paths_hold(index: FlowIndex) -> bool:
    """Every entry is reachable: no empty slot between home and slot."""
    rows, keys = index.rows, index.keys
    mask = rows.shape[0] - 1
    for slot in np.flatnonzero(rows >= 0).tolist():
        home = index._home_one(keys.item(slot))
        while home != slot:
            if rows.item(home) < 0:
                return False
            home = (home + 1) & mask
    return True


class FlowIndexMachine(RuleBasedStateMachine):
    held = Bundle("held")

    def __init__(self):
        super().__init__()
        self.index = FlowIndex()
        self.model = {}
        self.next_row = 0
        self.free = []

    def _row(self):
        """A row the way a store hands them out: recycled first."""
        if self.free:
            return self.free.pop()
        self.next_row += 1
        return self.next_row - 1

    @rule(target=held, fid=IDS)
    def insert_one(self, fid):
        if fid in self.model:
            return fid
        row = self._row()
        self.index.insert_one(fid, row)
        self.model[fid] = row
        return fid

    @rule(fids=st.sets(IDS, max_size=40))
    def insert(self, fids):
        new = sorted(fid for fid in fids if fid not in self.model)
        rows = [self._row() for _ in new]
        self.index.insert(
            np.asarray(new, dtype=np.int64), np.asarray(rows, dtype=np.int64)
        )
        self.model.update(zip(new, rows))

    @rule(fid=consumes(held))
    def remove_one(self, fid):
        if fid in self.model:
            self.index.remove_one(fid)
            self.free.append(self.model.pop(fid))

    @rule(data=st.data())
    def remove_many(self, data):
        # Any held flows, batch-inserted ones included, one at a time
        # in a drawn order: runs lose several entries between checks.
        if not self.model:
            return
        gone = data.draw(
            st.lists(st.sampled_from(sorted(self.model)), unique=True)
        )
        for fid in gone:
            self.index.remove_one(fid)
            self.free.append(self.model.pop(fid))

    @rule()
    def clear(self):
        self.index.clear()
        self.model.clear()
        self.free, self.next_row = [], 0

    @invariant()
    def agrees_with_model(self):
        index = self.index
        expected = [self.model.get(fid, -1) for fid in PROBES.tolist()]
        assert index.find(PROBES).tolist() == expected
        assert [index.find_one(fid) for fid in PROBES.tolist()] == expected
        assert len(index) == len(self.model)

    @invariant()
    def table_stays_sound(self):
        slots = self.index.rows.shape[0]
        assert slots & (slots - 1) == 0
        assert SPARSE * len(self.index) <= slots
        assert int((self.index.rows >= 0).sum()) == len(self.model)
        assert probe_paths_hold(self.index)


FlowIndexMachine.TestCase.settings = settings(
    max_examples=80, stateful_step_count=50, deadline=None,
    derandomize=True,
)
TestFlowIndex = FlowIndexMachine.TestCase


def test_growth_keeps_every_flow():
    index = FlowIndex()
    fids = np.arange(0, 50_000, 7, dtype=np.int64) * 1_000_003
    for lo in range(0, fids.size, 700):
        part = fids[lo:lo + 700]
        index.insert(part, np.arange(lo, lo + part.size))
    assert index.find(fids).tolist() == list(range(fids.size))
    assert index.find(fids + 1).max() == -1
    assert probe_paths_hold(index)


def test_sink_index_is_its_live_flows():
    """Admission, eviction, expiry and release through a sink's shards
    leave the index holding exactly the live flows, each at its row."""
    sink = Collector(
        congestion_consumer_factory(), num_shards=3, seed=1, ttl=40.0,
    )
    rng = np.random.default_rng(7)
    now = 0.0
    for _ in range(30):
        now += 5.0
        fids = rng.integers(0, 400, 300)
        sink.ingest_batch(fids, fids, np.full(300, 3), fids % 200, now=now)
        for fid in rng.integers(0, 400, 5).tolist():
            sink.evict(fid)
        store = sink._store
        live = np.concatenate([shard.rows() for shard in sink.shards])
        found = store.index.find(np.arange(400, dtype=np.int64))
        assert sorted(found[found >= 0].tolist()) == sorted(live.tolist())
        assert (store.flow_id[found[found >= 0]] == np.flatnonzero(found >= 0)).all()
        assert len(store.index) == len(sink) == live.size
    assert sum(s.ttl_evictions for s in sink.snapshot().shards) > 0
