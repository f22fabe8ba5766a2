"""The one array form of PINT's implicit coordination, against the scalars.

``repro.coding.decisions.DecisionReplay`` is what both the vectorised
switch chain and the sink's batch decoders replay; the scalar
``CodingScheme.layer_index`` / ``reservoir_carrier`` /
``xor_acting_hops`` are the specification it must equal lane for lane,
and ``unit_threshold`` is the exactness argument every coin rests on.
"""

import pickle
from itertools import accumulate

import numpy as np
import pytest

from repro.coding import (
    CodecContext,
    baseline_scheme,
    hybrid_scheme,
    multilayer_scheme,
    xor_scheme,
)
from repro.coding.context import PathQueryContext
from repro.coding.decisions import DecisionReplay
from repro.coding.schemes import BASELINE, XOR, CodingScheme, Layer
from repro.hashing import (
    GlobalHash,
    lane_blocks,
    mix,
    reservoir_carrier,
    unit_threshold,
    xor_acting_hops,
)
from repro.hashing.global_hash import GRID_BLOCK

SEED = 11


def boundary_probabilities():
    probs = [0.0, 5e-324, 1.0 / 3.0, 1.0, float(np.nextafter(1.0, 2.0))]
    probs += [1.0 / h for h in range(1, 256)]
    for k in range(1, 65):
        probs += list(accumulate(multilayer_scheme(k).shares))
    return probs


class TestUnitThreshold:
    def test_boundary_draws_match_the_float_compare(self):
        # x >> 11 == draw, so to_unit(x) is the draw as a unit float.
        for p in boundary_probabilities():
            t = int(unit_threshold(p))
            for draw in (t - 1, t, t + 1):
                if not 0 <= draw < 1 << 53:
                    continue  # not a draw any hash can produce
                assert (mix.to_unit(draw << 11) < p) == (draw < t), (p, draw)

    def test_extremes(self):
        assert int(unit_threshold(0.0)) == 0
        assert int(unit_threshold(-0.25)) == 0
        assert int(unit_threshold(5e-324)) == 1
        assert int(unit_threshold(1.0)) == 1 << 53
        assert int(unit_threshold(7.5)) == 1 << 53

    def test_elementwise_over_arrays(self):
        probs = np.asarray(boundary_probabilities())
        got = unit_threshold(probs)
        assert got.dtype == np.uint64
        assert got.tolist() == [int(unit_threshold(float(p))) for p in probs]

    def test_random_draws_against_bernoulli(self):
        g = GlobalHash(3, "coin")
        pids = np.arange(1, 4000, dtype=np.uint64)
        for p in (1.0 / 3.0, 0.0625, 1.0 / 59.0, 0.999):
            acts = g.draws_array(pids, 7) < unit_threshold(p)
            assert acts.tolist() == [
                g.bernoulli(p, 7, int(pid)) for pid in pids
            ]


# -- DecisionReplay against the scalar specification ------------------------


def odd_pids(n, seed=0):
    """Packet ids as a sink may see them: small, negative (int64 columns
    wrap like ``mix._as_int``) and above 2**63."""
    rng = np.random.default_rng(seed)
    pids = rng.integers(-(1 << 62), 1 << 62, size=n, dtype=np.int64)
    pids[::7] = np.arange(pids[::7].size)
    pids[1::7] = -1 - np.arange(pids[1::7].size)
    return pids


def decide(replay, pids, ks):
    """(slot, carrier, acting set) of every row through the replay."""
    base, carried, rows, hops = replay.decide(pids, ks)
    carriers = np.zeros(len(pids), dtype=np.int64)
    carriers[base] = carried
    acting = [[] for _ in range(len(pids))]
    assert np.all(np.diff(rows) >= 0)  # row-major, as reduceat needs
    for row, hop in zip(rows.tolist(), hops.tolist()):
        acting[row].append(hop)
    return replay.slots(pids, ks), carriers, acting


def scalar_decisions(scheme_for, pid, k):
    ctx = CodecContext(scheme_for(k), 8, 1, SEED)
    idx = ctx.layer_of(pid)
    layer = ctx.scheme.layers[idx]
    if layer.kind == BASELINE:
        return idx, reservoir_carrier(ctx.g[idx], pid, k), []
    return idx, 0, xor_acting_hops(ctx.g[idx], pid, k, layer.xor_p)


def assert_matches_scalar(replay, scheme_for, pids, ks, rows=None):
    slots, carriers, acting = decide(replay, pids, ks)
    for i in (range(len(pids)) if rows is None else rows):
        pid, k = int(pids[i]), int(ks[i])
        idx, carrier, hops = scalar_decisions(scheme_for, pid, k)
        kind = scheme_for(k).layers[idx].kind
        assert bool(replay.baseline[slots[i]]) == (kind == BASELINE), (pid, k)
        assert int(carriers[i]) == carrier, (pid, k)
        assert acting[i] == hops, (pid, k)


MIXED_KS = (1, 2, 3, 5, 12, 59)

#: A scheme whose Baseline layer is not layer 0: its reservoir coins
#: hash under ``g-layer1``.
BASELINE_SECOND = CodingScheme(
    (Layer(XOR, 0.3), Layer(BASELINE)), (0.4, 0.6), name="xor-then-baseline"
)


def baseline_moves(k):
    """Baseline at layer 0 on short paths, at layer 1 on long ones: one
    column's reservoir lanes hash under two layer salts."""
    return hybrid_scheme(8) if k < 6 else BASELINE_SECOND


class TestDecisionReplay:
    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_mixed_lengths_match_scalar(self, dtype):
        pids = odd_pids(1500).astype(dtype)
        ks = np.random.default_rng(1).choice(MIXED_KS, size=pids.size)
        replay = DecisionReplay(SEED, multilayer_scheme)
        assert_matches_scalar(replay, multilayer_scheme, pids, ks)

    def test_layer_is_the_scalar_layer_index(self):
        pids = odd_pids(1800)
        ks = np.random.default_rng(2).choice(MIXED_KS, size=pids.size)
        replay = DecisionReplay(SEED, multilayer_scheme)
        slots = replay.slots(pids, ks)
        for k in MIXED_KS:
            ctx = CodecContext(multilayer_scheme(k), 8, 1, SEED)
            at_k = np.flatnonzero(ks == k)
            want = [ctx.layer_of(int(p)) for p in pids[at_k]]
            # Slots of one k are consecutive, one per layer; layer 0
            # holds at least half the mass, so ~300 rows reach it.
            assert 0 in want
            assert (slots[at_k] - slots[at_k].min()).tolist() == want

    @pytest.mark.parametrize("scheme", [
        baseline_scheme(), xor_scheme(0.25), xor_scheme(1.0),
        hybrid_scheme(8), hybrid_scheme(40), BASELINE_SECOND,
    ], ids=lambda s: s.name)
    def test_pinned_scheme_matches_scalar(self, scheme):
        pids = odd_pids(700, seed=3)
        rng = np.random.default_rng(3)
        ks = rng.choice(MIXED_KS, size=pids.size)
        replay = DecisionReplay(SEED, lambda k: scheme)
        assert_matches_scalar(replay, lambda k: scheme, pids, ks)
        # Every length 1..12 in one column: lanes cut off at their own.
        ks = rng.integers(1, 13, size=pids.size)
        assert_matches_scalar(replay, lambda k: scheme, pids, ks)

    def test_baseline_at_two_layer_indices_in_one_column(self):
        pids = odd_pids(900, seed=7)
        ks = np.random.default_rng(7).integers(1, 13, size=pids.size)
        replay = DecisionReplay(SEED, baseline_moves)
        slots, carriers, _ = decide(replay, pids, ks)
        base = replay.baseline[slots]
        assert (base & (ks < 6)).any() and (base & (ks >= 6)).any()
        assert_matches_scalar(replay, baseline_moves, pids, ks)

    def test_new_length_mid_stream_keeps_earlier_answers(self):
        pids = odd_pids(900, seed=4)
        rng = np.random.default_rng(4)
        early = rng.choice((3, 5), size=pids.size)
        replay = DecisionReplay(SEED, multilayer_scheme)
        before = decide(replay, pids, early)
        # Longer *and* shorter lengths arrive: the tables grow both ways.
        late = rng.choice((1, 2, 12, 59), size=pids.size)
        assert_matches_scalar(replay, multilayer_scheme, pids, late)
        after = decide(replay, pids, early)
        assert np.array_equal(before[0], after[0])
        assert np.array_equal(before[1], after[1])
        assert before[2] == after[2]
        fresh = decide(DecisionReplay(SEED, multilayer_scheme), pids, early)
        assert np.array_equal(fresh[1], after[1]) and fresh[2] == after[2]

    def test_lane_block_boundaries(self):
        top = max(MIXED_KS)
        block = GRID_BLOCK // top
        assert [s.stop - s.start for s in lane_blocks(2 * block, top)] == [
            block, block
        ]
        pids = odd_pids(3 * block + 7, seed=5)
        ks = np.random.default_rng(5).choice(MIXED_KS, size=pids.size)
        replay = DecisionReplay(SEED, multilayer_scheme)
        for n in (block - 1, block, block + 1, 3 * block + 7):
            whole = decide(replay, pids[:n], ks[:n])
            half = n // 2
            lo = decide(replay, pids[:half], ks[:half])
            hi = decide(replay, pids[half:n], ks[half:n])
            assert np.array_equal(whole[0], np.concatenate((lo[0], hi[0])))
            assert np.array_equal(whole[1], np.concatenate((lo[1], hi[1])))
            assert whole[2] == lo[2] + hi[2]
        edge = [block - 1, block, block + 1, 2 * block, 3 * block + 6]
        assert_matches_scalar(replay, multilayer_scheme, pids, ks, rows=edge)

    def test_any_length_a_direct_caller_passes(self):
        # Past the sink's MAX_HOPS the carrier no longer fits uint8.
        pids = odd_pids(40, seed=6)
        ks = np.full(pids.size, 300)
        replay = DecisionReplay(SEED, lambda k: baseline_scheme())
        slots = replay.slots(pids, ks)
        carriers = replay.carriers(pids, slots, 300)
        g = CodecContext(baseline_scheme(), 8, 1, SEED).g[0]
        assert carriers.tolist() == [
            reservoir_carrier(g, int(p), 300) for p in pids
        ]
        assert carriers.max() > 255

    def test_rejects_lengths_below_one(self):
        replay = DecisionReplay(SEED, multilayer_scheme)
        with pytest.raises(ValueError, match="1-based"):
            replay.slots(np.arange(3, dtype=np.uint64), np.asarray([2, 0, 3]))

    def test_empty_column(self):
        replay = DecisionReplay(SEED, multilayer_scheme)
        none = np.empty(0, dtype=np.int64)
        assert replay.slots(none.astype(np.uint64), none).size == 0
        assert replay.carriers(none.astype(np.uint64), none, 5).size == 0
        rows, hops = replay.pairs(none.astype(np.uint64), none, 5)
        assert rows.size == 0 and hops.size == 0


class TestContextPickle:
    def test_same_bytes_before_and_after_deciding(self):
        context = PathQueryContext(range(100, 140), seed=SEED)
        context.codec_for(5)
        before = pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL)
        pids = np.arange(1, 400, dtype=np.uint64)
        ks = np.random.default_rng(0).choice((3, 5, 12), size=pids.size)
        carriers, acting = context.replay(pids, ks)
        assert carriers.any() and acting.any()
        after = pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL)
        # codec_for(3) / (12) were not asked for: replay fills the
        # decision tables only, and those are never pickled.
        assert before == after
        clone = pickle.loads(after)
        again = clone.replay(pids, ks)
        assert np.array_equal(again[0], carriers)
        assert np.array_equal(again[1], acting)
