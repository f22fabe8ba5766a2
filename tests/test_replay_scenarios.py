"""Scenario-generator determinism and trace well-formedness."""

import hashlib

import numpy as np
import pytest

from repro.hashing import global_hash
from repro.replay import SCENARIOS, build_trace, scenario, scenario_names


class TestRegistry:
    def test_at_least_six_scenarios(self):
        assert len(scenario_names()) >= 6

    def test_names_are_the_whole_registry(self):
        # Every registered scenario is a base (perfect-network) one:
        # impairment is the driver's job, not a registry entry's.
        assert scenario_names() == list(SCENARIOS)

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="web-search"):
            build_trace("no-such-scenario")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            scenario("incast", "dup")(lambda **kw: None)


class TestGeneratedTraces:
    @pytest.mark.parametrize("name", scenario_names())
    def test_deterministic_from_seed(self, name):
        a = build_trace(name, packets=1200, seed=7)
        b = build_trace(name, packets=1200, seed=7)
        assert a.paths == b.paths
        for col in ("ts", "flow_id", "pid", "path_id", "size"):
            assert np.array_equal(getattr(a, col), getattr(b, col)), col

    @pytest.mark.parametrize("name", scenario_names())
    def test_seed_changes_trace(self, name):
        a = build_trace(name, packets=1200, seed=7)
        c = build_trace(name, packets=1200, seed=8)
        assert (
            not np.array_equal(a.ts, c.ts)
            or not np.array_equal(a.path_id, c.path_id)
            or a.paths != c.paths
        )

    @pytest.mark.parametrize("name", scenario_names())
    def test_well_formed(self, name):
        t = build_trace(name, packets=1200, seed=0)
        assert 0 < len(t) <= 1200
        # Time-sorted with sequential pids: the replay contract.
        assert np.all(np.diff(t.ts) >= 0)
        assert np.array_equal(t.pid, np.arange(len(t)))
        assert t.hop_counts.min() >= 1
        assert t.size.min() >= 1
        assert set(np.unique(t.path_id).tolist()) <= set(range(len(t.paths)))
        for p in t.paths:
            assert set(p) <= set(t.universe)

    def test_path_churn_flows_really_churn(self):
        t = build_trace("path-churn", packets=2000, seed=1)
        multi = [fid for fid, pids in t.flow_paths().items() if len(pids) > 1]
        assert multi, "churn scenario produced no multi-path flows"

    def test_elephant_mice_skew(self):
        t = build_trace("elephant-mice", packets=2000, seed=1)
        counts = np.unique(t.flow_id, return_counts=True)[1]
        assert counts.max() > 50 * np.median(counts)

    def test_incast_waves_share_destination(self):
        t = build_trace("incast", packets=1000, seed=0)
        # All paths end at the aggregator's edge switch.
        assert len({p[-1] for p in t.paths if p}) == 1


def columns_digest(trace) -> str:
    """sha256 of every column widened to 64 bits, the path table and
    the universe: narrowing a column's dtype does not move it, a
    changed value does."""
    h = hashlib.sha256()
    for col, dtype in (
        (trace.ts, "<f8"), (trace.flow_id, "<i8"), (trace.pid, "<i8"),
        (trace.path_id, "<i8"), (trace.size, "<i8"),
    ):
        h.update(np.asarray(col).astype(dtype).tobytes())
    h.update(repr((trace.paths, trace.universe, trace.name)).encode())
    return h.hexdigest()[:16]


#: ``columns_digest`` of every base scenario at 3,000 packets, seeds 0
#: and 1, as the builders produced them with 64-bit columns.
BUILDER_GOLDEN = {
    "web-search/0": "305379fba624b9f3",
    "web-search/1": "12da9b22f940e2fa",
    "hadoop/0": "e057a7dc169825c4",
    "hadoop/1": "036eb57569163fc3",
    "incast/0": "c56a1d3fd6032196",
    "incast/1": "2957c6ff77464041",
    "microburst/0": "b5f57da5a2d6b1b6",
    "microburst/1": "35554e574f317f46",
    "path-churn/0": "141bd788f8b20ba7",
    "path-churn/1": "5a41303272e92d07",
    "elephant-mice/0": "7a7b8dd91ad96de8",
    "elephant-mice/1": "7e0267f892f24172",
    "isp-long-paths/0": "2984e6a5cf2fd18f",
    "isp-long-paths/1": "94204444a3f4b7af",
}


class TestBuilderGolden:
    """The builders' output is pinned, not just self-consistent."""

    def test_every_base_scenario_is_pinned(self):
        assert sorted({key.split("/")[0] for key in BUILDER_GOLDEN}) == sorted(
            scenario_names()
        )

    @pytest.mark.parametrize("key", sorted(BUILDER_GOLDEN))
    def test_columns_match_golden(self, key):
        name, seed = key.split("/")
        trace = build_trace(name, packets=3000, seed=int(seed))
        assert columns_digest(trace) == BUILDER_GOLDEN[key]

    def test_incast_across_row_blocks(self, monkeypatch):
        """200k rows span several row blocks at the default size, and
        many more at a tiny one: the same trace either way."""
        trace = build_trace("incast", packets=200_000, seed=0)
        assert columns_digest(trace) == "ca838181b580711e"
        monkeypatch.setattr(global_hash, "GRID_BLOCK", 997)
        small = build_trace("incast", packets=20_000, seed=0, fanin=7, burst=5)
        monkeypatch.undo()
        assert columns_digest(small) == columns_digest(
            build_trace("incast", packets=20_000, seed=0, fanin=7, burst=5)
        )

    @pytest.mark.parametrize("name", scenario_names())
    def test_columns_are_narrow(self, name):
        trace = build_trace(name, packets=1200, seed=0)
        assert [c.dtype for c in (
            trace.ts, trace.flow_id, trace.pid, trace.path_id, trace.size,
            trace.hop_counts,
        )] == [np.float64, np.int64, np.int64, np.int32, np.int32, np.int16]
