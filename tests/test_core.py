"""Tests for the query language, engine, plans, and framework."""

import numpy as np
import pytest

from repro.core import (
    AggregationType,
    ExecutionPlan,
    HopView,
    MetadataType,
    PacketContext,
    PINTFramework,
    PlanEntry,
    Query,
    QueryEngine,
    QueryRuntime,
)
from repro.exceptions import BudgetError, ConfigurationError
from repro.hashing import global_hash


def q(name, bits=8, freq=1.0, agg=AggregationType.STATIC_PER_FLOW):
    return Query(name, MetadataType.SWITCH_ID, agg, bits, frequency=freq)


class TestQuery:
    def test_valid(self):
        query = q("path")
        assert query.bit_budget == 8

    def test_bad_budget(self):
        with pytest.raises(ConfigurationError):
            q("x", bits=0)

    def test_bad_frequency(self):
        with pytest.raises(ConfigurationError):
            q("x", freq=0.0)
        with pytest.raises(ConfigurationError):
            q("x", freq=1.5)

    def test_per_packet_no_space(self):
        with pytest.raises(ConfigurationError):
            Query(
                "cc", MetadataType.EGRESS_TX_UTILIZATION,
                AggregationType.PER_PACKET, 8, space_budget=10,
            )

    def test_metadata_bits(self):
        assert MetadataType.HOP_LATENCY.bits == 32


class TestHopView:
    def test_get_dispatch(self):
        hop = HopView(switch_id=7, hop_number=2, hop_latency=1e-5,
                      queue_occupancy=1234)
        assert hop.get(MetadataType.SWITCH_ID) == 7.0
        assert hop.get(MetadataType.HOP_LATENCY) == 1e-5
        assert hop.get(MetadataType.QUEUE_OCCUPANCY) == 1234.0


class TestExecutionPlan:
    def test_budget_enforced(self):
        with pytest.raises(BudgetError):
            ExecutionPlan([PlanEntry((q("a", 10), q("b", 10)), 1.0)], 16)

    def test_probabilities_enforced(self):
        with pytest.raises(BudgetError):
            ExecutionPlan(
                [PlanEntry((q("a"),), 0.7), PlanEntry((q("b"),), 0.7)], 16
            )

    def test_select_deterministic(self):
        plan = ExecutionPlan(
            [PlanEntry((q("a"),), 0.5), PlanEntry((q("b"),), 0.5)], 8
        )
        assert plan.select(42) == plan.select(42)

    def test_select_distribution(self):
        plan = ExecutionPlan(
            [PlanEntry((q("a"),), 0.25), PlanEntry((q("b"),), 0.75)], 8
        )
        picks = [plan.select(pid)[0].name for pid in range(8000)]
        share_a = picks.count("a") / len(picks)
        assert 0.22 < share_a < 0.28

    def test_partial_probability_gives_empty(self):
        plan = ExecutionPlan([PlanEntry((q("a"),), 0.5)], 8)
        empties = sum(1 for pid in range(4000) if plan.select(pid) == ())
        assert 1700 < empties < 2300

    def test_digest_offsets(self):
        qa, qb = q("a", 8), q("b", 4)
        plan = ExecutionPlan([PlanEntry((qa, qb), 1.0)], 16)
        assert plan.digest_offset((qa, qb), qa) == 0
        assert plan.digest_offset((qa, qb), qb) == 8

    def test_query_frequency(self):
        qa = q("a", 8, freq=0.6)
        plan = ExecutionPlan(
            [PlanEntry((qa,), 0.4), PlanEntry((qa, q("b", 8)), 0.3)], 16
        )
        assert plan.query_frequency(qa) == pytest.approx(0.7)

    def test_select_array_matches_scalar(self):
        plan = ExecutionPlan(
            [PlanEntry((q("a"),), 0.3), PlanEntry((q("b"),), 0.45)], 8
        )
        pids = np.arange(4000, dtype=np.int64)
        idx = plan.select_array(pids)
        assert set(idx.tolist()) == {-1, 0, 1}
        for pid in range(0, 4000, 7):
            scalar = plan.select(pid)
            if idx[pid] < 0:
                assert scalar == ()
            else:
                assert scalar == plan.entries[int(idx[pid])].queries


class TestQueryEngine:
    def test_paper_combined_plan(self):
        # §6.4: path on all packets, latency on 15/16, HPCC on 1/16,
        # global budget 16 bits.
        path_q = q("path", 8, 1.0)
        lat_q = q("lat", 8, 15 / 16, AggregationType.DYNAMIC_PER_FLOW)
        cc_q = Query(
            "cc", MetadataType.EGRESS_TX_UTILIZATION,
            AggregationType.PER_PACKET, 8, frequency=1 / 16,
        )
        plan = QueryEngine(16).compile([path_q, lat_q, cc_q])
        plan.validate_frequencies()
        assert plan.query_frequency(path_q) == pytest.approx(1.0)
        assert plan.query_frequency(lat_q) == pytest.approx(15 / 16)
        assert plan.query_frequency(cc_q) == pytest.approx(1 / 16)
        for entry in plan.entries:
            assert entry.bits() <= 16

    def test_single_query(self):
        plan = QueryEngine(8).compile([q("only", 8, 1.0)])
        assert len(plan.entries) == 1

    def test_too_wide_query(self):
        with pytest.raises(BudgetError):
            QueryEngine(8).compile([q("wide", 16)])

    def test_infeasible_demand(self):
        # Three full-frequency 8-bit queries cannot share 16 bits.
        with pytest.raises(BudgetError):
            QueryEngine(16).compile(
                [q("a", 8, 1.0), q("b", 8, 1.0), q("c", 8, 1.0)]
            )

    def test_feasible_three_way_split(self):
        plan = QueryEngine(16).compile(
            [q("a", 8, 0.5), q("b", 8, 0.5), q("c", 8, 1.0)]
        )
        plan.validate_frequencies()

    def test_duplicate_names(self):
        with pytest.raises(BudgetError):
            QueryEngine(16).compile([q("a"), q("a")])

    def test_empty(self):
        with pytest.raises(BudgetError):
            QueryEngine(16).compile([])

    def test_manual_plan(self):
        qa, qb = q("a", 8), q("b", 8)
        plan = QueryEngine(16).manual_plan([((qa, qb), 0.5), ((qa,), 0.5)])
        assert plan.query_frequency(qa) == pytest.approx(1.0)


class _EchoRuntime(QueryRuntime):
    """Writes the hop number, remembers what the sink saw."""

    def __init__(self, query):
        super().__init__(query)
        self.sunk = []

    def on_hop(self, ctx, hop, digest):
        return hop.hop_number

    def on_sink(self, ctx, digest):
        self.sunk.append((ctx.packet_id, digest))


class TestFramework:
    def _setup(self):
        qa, qb = q("a", 8), q("b", 4)
        plan = ExecutionPlan([PlanEntry((qa, qb), 1.0)], 16)
        fw = PINTFramework(plan)
        ra, rb = _EchoRuntime(qa), _EchoRuntime(qb)
        fw.register(ra)
        fw.register(rb)
        return fw, ra, rb

    def test_slices_are_independent(self):
        fw, ra, rb = self._setup()
        hops = [HopView(switch_id=s, hop_number=i + 1) for i, s in enumerate([5, 6, 7])]
        ctx = PacketContext(packet_id=1, flow_id=1, path_len=3)
        digest = fw.process_packet(ctx, hops)
        # Both runtimes last wrote hop_number=3 into their own slice.
        assert ra.sunk == [(1, 3)]
        assert rb.sunk == [(1, 3)]
        assert digest == (3 << 8) | 3

    def test_width_masked(self):
        qa = q("a", 2)
        plan = ExecutionPlan([PlanEntry((qa,), 1.0)], 2)
        fw = PINTFramework(plan)
        r = _EchoRuntime(qa)
        fw.register(r)
        hops = [HopView(switch_id=1, hop_number=7)]
        fw.process_packet(PacketContext(1, 1, 1), hops)
        assert r.sunk == [(1, 7 & 0b11)]

    def test_missing_runtime(self):
        qa = q("a", 8)
        plan = ExecutionPlan([PlanEntry((qa,), 1.0)], 8)
        fw = PINTFramework(plan)
        with pytest.raises(ConfigurationError):
            fw.process_packet(PacketContext(1, 1, 1), [HopView(1, 1)])

    def test_duplicate_runtime(self):
        fw, ra, _ = self._setup()
        with pytest.raises(ConfigurationError):
            fw.register(ra)

    def test_overhead_constant(self):
        fw, _, _ = self._setup()
        assert fw.overhead_bytes_per_packet() == 2.0


class TestSelectArrayIntegerThresholds:
    """``select_array`` walks integer thresholds; the scalar ``select``
    walks float partial sums.  Same entry for every packet id."""

    @pytest.mark.parametrize("probabilities", [
        (0.3, 0.45),            # mass < 1: some packets serve no query
        (0.8, 0.2),             # mass = 1 (the replay driver's plan)
        (0.1, 0.2, 0.7),        # three entries, partial sums inexact
        (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
    ])
    def test_equals_scalar_select_on_every_id(self, probabilities):
        entries = [
            PlanEntry((q(f"q{i}"),), p) for i, p in enumerate(probabilities)
        ]
        plan = ExecutionPlan(entries, 8, seed=5)
        rng = np.random.default_rng(0)
        pids = np.concatenate((
            np.arange(5000, dtype=np.int64),
            rng.integers(-(1 << 62), 1 << 62, size=5000),
        ))
        idx = plan.select_array(pids)
        assert idx.dtype == np.int64 and idx.shape == pids.shape
        want = []
        for pid in pids.tolist():
            queries = plan.select(pid)
            want.append(
                next(i for i, e in enumerate(entries) if e.queries == queries)
                if queries else -1
            )
        assert idx.tolist() == want
        if sum(probabilities) < 0.99:
            assert -1 in want

    def test_blocked_draw_is_one_column(self, monkeypatch):
        """The lanes are drawn block by block; the answer does not
        depend on the block size, and stays int64 at every size."""
        plan = ExecutionPlan([PlanEntry((q("a"),), 0.8), PlanEntry((q("b"),), 0.2)], 8)
        pids = np.arange(3000, dtype=np.int64) * 7919
        whole = plan.select_array(pids)
        for block in (1, 13, 2999):
            monkeypatch.setattr(global_hash, "GRID_BLOCK", block)
            idx = plan.select_array(pids)
            assert idx.dtype == np.int64
            assert idx.tolist() == whole.tolist()
        assert plan.select_array(pids[:0]).dtype == np.int64
