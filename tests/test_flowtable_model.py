"""FlowTable against a naive model (ROADMAP item 4 tail).

A hypothesis state machine drives ``touch`` / ``evict`` / ``expire`` /
``maybe_expire`` on a :class:`FlowTable` and on a plain
insertion-ordered dict that re-derives every decision the slow way
(full scans, no early stop, no ``move_to_end``); after every step the
two must agree on LRU order, ``last_seen``, generations and all three
counters.  Clock steps and ``ttl`` are whole numbers, so the
``last_seen == now - ttl`` boundary (evicted: only entries *strictly*
newer than the deadline survive) is hit constantly, not by luck.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.collector import CongestionDigestConsumer
from repro.collector.flowtable import FlowTable

FLOW_IDS = st.integers(min_value=0, max_value=7)


class FlowTableMachine(RuleBasedStateMachine):
    @initialize(
        max_flows=st.none() | st.integers(min_value=1, max_value=4),
        ttl=st.none() | st.sampled_from([1.0, 4.0, 8.0]),
    )
    def build(self, max_flows, ttl):
        self.table = FlowTable(
            lambda fid: CongestionDigestConsumer(), max_flows=max_flows,
            ttl=ttl,
        )
        self.max_flows = max_flows
        self.ttl = ttl
        self.now = 0.0
        #: flow_id -> (last_seen, generation), oldest touch first.
        self.model = {}
        self.created = self.lru_evictions = self.ttl_evictions = 0
        self.last_sweep = float("-inf")

    @rule(step=st.integers(min_value=0, max_value=3))
    def advance(self, step):
        self.now += float(step)

    @rule(fid=FLOW_IDS)
    def touch(self, fid):
        entry = self.table.touch(fid, self.now)
        if fid in self.model:
            _, generation = self.model.pop(fid)
        else:
            self.created += 1
            generation = self.created
        self.model[fid] = (self.now, generation)
        while self.max_flows is not None and len(self.model) > self.max_flows:
            del self.model[next(iter(self.model))]
            self.lru_evictions += 1
        assert entry.generation == generation
        assert entry.last_seen == self.now

    @rule(fid=FLOW_IDS)
    def evict(self, fid):
        present = fid in self.model
        assert self.table.evict(fid) is present
        self.model.pop(fid, None)

    def _model_expire(self):
        dead = [
            fid for fid, (seen, _) in self.model.items()
            if seen <= self.now - self.ttl
        ]
        for fid in dead:
            del self.model[fid]
        self.ttl_evictions += len(dead)
        return len(dead)

    @rule()
    def expire(self):
        expected = self._model_expire() if self.ttl is not None else 0
        assert self.table.expire(self.now) == expected

    @precondition(lambda self: self.ttl is not None)
    @rule()
    def maybe_expire(self):
        expected = 0
        if self.now - self.last_sweep >= self.ttl / 4.0:
            self.last_sweep = self.now
            expected = self._model_expire()
        assert self.table.maybe_expire(self.now) == expected

    @invariant()
    def agrees_with_model(self):
        got = [
            (fid, (e.last_seen, e.generation))
            for fid, e in self.table.items()
        ]
        assert got == list(self.model.items())
        assert len(self.table) == len(self.model)
        assert self.table.created == self.created
        assert self.table.lru_evictions == self.lru_evictions
        assert self.table.ttl_evictions == self.ttl_evictions


FlowTableMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None,
    derandomize=True,
)
TestFlowTableModel = FlowTableMachine.TestCase
