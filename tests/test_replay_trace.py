"""Tests for the columnar Trace container (persistence, invariants)."""

import numpy as np
import pytest

from repro.hashing import global_hash
from repro.replay import Trace, build_trace
from repro.replay import trace as trace_mod


def small_trace():
    paths = [(1, 2, 3), (1, 4, 3), (7,)]
    return Trace(
        ts=[0.0, 1e-5, 2e-5, 3e-5, 4e-5],
        flow_id=[10, 11, 10, 12, 11],
        pid=[0, 1, 2, 3, 4],
        path_id=[0, 1, 0, 2, 1],
        size=[1500, 1500, 700, 40, 1500],
        paths=paths,
        name="unit",
    )


class TestTraceBasics:
    def test_shape_and_universe(self):
        t = small_trace()
        assert len(t) == 5
        assert t.num_flows == 3
        assert t.universe == (1, 2, 3, 4, 7)

    def test_hop_counts_follow_paths(self):
        t = small_trace()
        assert t.hop_counts.tolist() == [3, 3, 3, 1, 3]
        assert t.path_of(3) == (7,)

    def test_flow_paths_ground_truth(self):
        t = small_trace()
        assert t.flow_paths() == {10: (0,), 11: (1,), 12: (2,)}

    @staticmethod
    def _flow_paths_loop(t):
        """The record-at-a-time definition ``flow_paths`` vectorises."""
        out = {}
        for fid, pid in zip(t.flow_id.tolist(), t.path_id.tolist()):
            lst = out.setdefault(fid, [])
            if pid not in lst:
                lst.append(pid)
        return {fid: tuple(lst) for fid, lst in out.items()}

    def test_flow_paths_matches_loop_on_path_churn(self):
        """Multi-path flows: path order per flow and flow order alike."""
        t = build_trace("path-churn", packets=30_000, seed=3)
        got, want = t.flow_paths(), self._flow_paths_loop(t)
        assert got == want
        assert list(got) == list(want)
        assert max(len(p) for p in got.values()) > 1

    def test_flow_paths_survives_sieve_collisions(self):
        """Pairs sharing a sieve slot, flows returning to an old path,
        and huge / negative flow ids (the slot hash wraps) all fall
        through to the exact loop."""
        rng = np.random.default_rng(0)
        n = 6000
        slots = trace_mod._SIEVE_SLOTS
        flow_pool = np.asarray(
            [5, 5 + slots, 5 + 2 * slots, -7, 2**62 + 1, 2**62 + 1 + slots]
        )
        fids = flow_pool[rng.integers(0, len(flow_pool), n)]
        pids = rng.integers(0, 4, n)
        t = Trace(np.arange(n) * 1e-6, fids, np.arange(n), pids,
                  np.full(n, 64), [(1,), (2,), (3,), (4,)])
        got, want = t.flow_paths(), self._flow_paths_loop(t)
        assert got == want
        assert list(got) == list(want)

    @staticmethod
    def _traversed_by_flow_paths(t, flow_ids, paths):
        """``traversed`` spelled with the dict of every flow."""
        truth = t.flow_paths()
        return [
            tuple(hops) in {t.paths[pid] for pid in truth[fid]}
            for fid, hops in zip(flow_ids.tolist(), paths)
        ]

    def test_traversed_is_flow_paths_as_columns(self):
        """Any path a multi-path flow took is a yes, a path only
        *other* flows took and hops no path has are a no."""
        t = build_trace("path-churn", packets=30_000, seed=3)
        truth = t.flow_paths()
        flow_ids = np.asarray(sorted(truth)[::3], dtype=np.int64)
        rng = np.random.default_rng(1)
        asked = [
            t.paths[int(rng.integers(len(t.paths)))] if i % 3 == 0
            else t.paths[truth[fid][i % len(truth[fid])]] if i % 3 == 1
            else (4242, 7)
            for i, fid in enumerate(flow_ids.tolist())
        ]
        got = t.traversed(flow_ids, asked)
        want = self._traversed_by_flow_paths(t, flow_ids, asked)
        assert got.tolist() == want
        assert 0 < sum(want) < len(want)
        # Pairs a caller already holds give the same answers.
        assert t.traversed(flow_ids, asked, t.path_pairs()).tolist() == want
        assert np.unique(t.path_pairs()[0]).size == t.num_flows

    def test_traversed_when_path_ids_share_hops(self):
        """Path ids 0 and 2 are the same hops: a flow that took either
        took "that path", whichever id the lookup names it by -- also
        under sieve collisions and huge / negative flow ids."""
        rng = np.random.default_rng(2)
        n = 4000
        slots = trace_mod._SIEVE_SLOTS
        pool = np.asarray([-7, 5, 5 + slots, 2**62 + 1, 2**62 + 1 + slots])
        fids = pool[rng.integers(0, len(pool), n)]
        # Flow -7 only ever uses path id 2, flow 5 only path id 1.
        pids = np.where(fids == -7, 2, np.where(fids == 5, 1, rng.integers(0, 4, n)))
        paths = [(1, 2), (3,), (1, 2), (4, 5, 6)]
        t = Trace(np.arange(n) * 1e-6, fids, np.arange(n), pids,
                  np.full(n, 64), paths)
        flow_ids = np.unique(fids)
        for hops in paths + [(2, 1), ()]:
            asked = [hops] * len(flow_ids)
            assert t.traversed(flow_ids, asked).tolist() == (
                self._traversed_by_flow_paths(t, flow_ids, asked)
            )
        assert t.traversed(flow_ids[:2], [(1, 2), (1, 2)]).tolist() == [True, False]
        assert t.traversed(flow_ids[:0], []).tolist() == []

    def test_batches_cover_in_order(self):
        t = small_trace()
        bounds = list(t.batches(2))
        assert bounds == [(0, 2), (2, 4), (4, 5)]
        with pytest.raises(ValueError):
            list(t.batches(0))

    def test_sorted_by_time_stable(self):
        t = Trace([2.0, 1.0, 1.0], [1, 2, 3], [0, 1, 2], [0, 0, 0],
                  [9, 9, 9], [(5,)])
        s = t.sorted_by_time()
        assert s.ts.tolist() == [1.0, 1.0, 2.0]
        assert s.flow_id.tolist() == [2, 3, 1]  # equal stamps keep order

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError):
            Trace([0.0], [1, 2], [0], [0], [9], [(5,)])

    def test_bad_path_ids_rejected(self):
        with pytest.raises(ValueError):
            Trace([0.0], [1], [0], [3], [9], [(5,)])
        with pytest.raises(ValueError):
            Trace([0.0], [1], [0], [-1], [9], [(5,)])

    @pytest.mark.parametrize("path_id, size", [
        ([2**32 + 1], [9]),       # wraps to path 1 in int32
        ([2**31], [9]),           # wraps negative
        ([0], [2**32 + 9]),       # wraps to 9 in int32
        ([0], [2**31]),
        ([0], [-1]),
    ])
    def test_wide_values_refused_before_narrowing(self, path_id, size):
        with pytest.raises(ValueError):
            Trace([0.0], [1], [0], path_id, size, [(5,), (6,)])

    def test_narrow_columns_and_per_row_hop_counts(self):
        t = small_trace()
        assert (t.path_id.dtype, t.size.dtype, t.hop_counts.dtype) == (
            np.int32, np.int32, np.int16
        )
        rows = np.asarray([4, 0, 3, 3])
        assert (
            t.lengths_of(t.path_id[rows]).tolist()
            == t.hop_counts[rows].tolist()
        )

    def test_pair_first_rows_same_in_any_block_size(self, monkeypatch):
        """The sieve folds ascending row blocks; its kept rows are the
        whole-trace sieve's at every block size, collisions included."""
        rng = np.random.default_rng(4)
        n = 5000
        slots = trace_mod._SIEVE_SLOTS
        pool = np.asarray([5, 5 + slots, -7, 2**62 + 1, 2**62 + 1 + slots])
        t = Trace(np.arange(n) * 1e-6, pool[rng.integers(0, 5, n)],
                  np.arange(n), rng.integers(0, 4, n), np.full(n, 64),
                  [(1,), (2,), (3,), (4,)])
        whole = t._pair_first_rows()
        for block in (1, 7, 64, 4999):
            monkeypatch.setattr(global_hash, "GRID_BLOCK", block)
            assert t._pair_first_rows().tolist() == whole.tolist()
            assert t.flow_paths() == self._flow_paths_loop(t)

    def test_empty_path_table_rejected(self):
        with pytest.raises(ValueError):
            Trace([0.0], [1], [0], [0], [9], [])
        with pytest.raises(ValueError):
            Trace([0.0], [1], [0], [0], [9], [()])


class TestPersistence:
    def test_npz_roundtrip_exact(self, tmp_path):
        t = small_trace()
        f = str(tmp_path / "t.npz")
        t.save(f)
        back = Trace.load(f)
        assert np.array_equal(back.ts, t.ts)
        assert np.array_equal(back.flow_id, t.flow_id)
        assert np.array_equal(back.pid, t.pid)
        assert np.array_equal(back.path_id, t.path_id)
        assert np.array_equal(back.size, t.size)
        assert back.paths == t.paths
        assert back.universe == t.universe
        assert back.name == t.name

    def test_csv_roundtrip_per_record(self, tmp_path):
        t = small_trace()
        f = str(tmp_path / "t.csv")
        t.to_csv(f)
        back = Trace.from_csv(f)
        assert np.array_equal(back.ts, t.ts)
        assert np.array_equal(back.flow_id, t.flow_id)
        assert np.array_equal(back.pid, t.pid)
        assert np.array_equal(back.size, t.size)
        # Path *ids* may be renumbered by first use; the per-record
        # switch sequences must survive exactly.
        for row in range(len(t)):
            assert back.path_of(row) == t.path_of(row)

    def test_npz_with_int64_columns_loads(self, tmp_path):
        """A file written while every column was 64-bit loads to an
        equal trace, narrowed."""
        t = small_trace()
        f = str(tmp_path / "old.npz")
        np.savez_compressed(
            f, ts=t.ts, flow_id=t.flow_id, pid=t.pid,
            path_id=t.path_id.astype(np.int64),
            size=t.size.astype(np.int64),
            path_table=np.asarray([[1, 2, 3], [1, 4, 3], [7, -1, -1]]),
            path_len=np.asarray([3, 3, 1], dtype=np.int64),
            universe=np.asarray(t.universe, dtype=np.int64),
            name=np.asarray(t.name),
        )
        back = Trace.load(f)
        for col in ("ts", "flow_id", "pid", "path_id", "size"):
            assert np.array_equal(getattr(back, col), getattr(t, col)), col
            assert getattr(back, col).dtype == getattr(t, col).dtype, col
        assert back.hop_counts.tolist() == t.hop_counts.tolist()
        assert (back.paths, back.universe, back.name) == (
            t.paths, t.universe, t.name
        )

    def test_npz_with_wrapping_values_refused(self, tmp_path):
        t = small_trace()
        for col, bad in (("path_id", 2**32 + 1), ("size", 2**32 + 700)):
            f = str(tmp_path / f"{col}.npz")
            t.save(f)
            with np.load(f) as data:
                cols = dict(data)
            cols[col] = cols[col].astype(np.int64)
            cols[col][2] = bad
            np.savez_compressed(f, **cols)
            with pytest.raises(ValueError, match=col):
                Trace.load(f)

    def test_csv_with_wrapping_size_refused(self, tmp_path):
        f = tmp_path / "big.csv"
        f.write_text(
            "ts,flow_id,pid,size,path\n0.0,1,0,1500,1|2\n"
            f"1e-06,1,1,{2**32 + 1500},1|2\n"
        )
        with pytest.raises(ValueError, match="size"):
            Trace.from_csv(str(f))

    def test_csv_missing_columns_rejected(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("ts,flow_id\n0.0,1\n")
        with pytest.raises(ValueError):
            Trace.from_csv(str(f))


class TestEmptyTraces:
    """A capture window that saw no packets must still checkpoint."""

    def test_construct_empty(self):
        t = Trace([], [], [], [], [], [], name="empty")
        assert len(t) == 0
        assert t.num_flows == 0
        assert t.paths == () and t.universe == ()
        assert t.hop_counts.shape == (0,)
        assert t.flow_paths() == {}
        assert list(t.batches(16)) == []
        assert len(t.sorted_by_time()) == 0

    def test_zero_rows_may_keep_a_path_table(self):
        t = Trace([], [], [], [], [], [(1, 2, 3)], name="warm")
        assert len(t) == 0 and t.paths == ((1, 2, 3),)
        assert t.universe == (1, 2, 3)

    def test_npz_roundtrip_empty(self, tmp_path):
        for paths in ([], [(4, 5)]):
            t = Trace([], [], [], [], [], paths, name="e")
            f = str(tmp_path / f"e{len(paths)}.npz")
            t.save(f)
            back = Trace.load(f)
            assert len(back) == 0
            assert back.paths == t.paths
            assert back.universe == t.universe
            assert back.name == "e"

    def test_csv_roundtrip_empty(self, tmp_path):
        t = Trace([], [], [], [], [], [], name="e")
        f = str(tmp_path / "e.csv")
        t.to_csv(f)
        back = Trace.from_csv(f)
        assert len(back) == 0 and back.paths == ()

    def test_header_only_csv_imports(self, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text("ts,flow_id,pid,size,path\n")
        back = Trace.from_csv(str(f))
        assert len(back) == 0

    def test_rows_without_paths_still_rejected(self):
        with pytest.raises(ValueError):
            Trace([0.0], [1], [0], [0], [9], [])
