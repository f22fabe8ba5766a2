"""Columnar packet traces: the replay engine's storage format.

A :class:`Trace` is a struct-of-arrays view of a packet stream -- the
shape the vectorised dataplane and the collector's columnar
``ingest_batch`` consume directly, with no per-packet Python objects
anywhere on the hot path:

* ``ts`` -- arrival time in seconds (float64, non-decreasing after
  :meth:`sorted_by_time`);
* ``flow_id`` -- the flow every record belongs to (int64);
* ``pid`` -- the packet identifier every switch hashes (int64);
* ``path_id`` -- index into the deduplicated ``paths`` table (int32);
* ``size`` -- payload bytes of the packet (int32, in ``[0, 2**31)``).

``pid`` and ``flow_id`` stay 64-bit because the hashes key on them;
the other two are range-checked on the caller's (wide) values, then
narrowed, so a value that would wrap is refused rather than stored.
Paths are interned: the per-record column stores an index into a small
table of switch-ID tuples, so a million-packet trace over a dozen ECMP
paths costs one int32 per packet, not one tuple; :attr:`hop_counts`
reads the table's int16 path lengths.  ``universe`` is the switch-ID
universe V the hash-compressed decoders need (paper §4.2); it defaults
to the union of all switches appearing in ``paths``.

A pass over the whole trace works one block of rows at a time
(:func:`~repro.hashing.lane_blocks` with ``top=1``), so what it
allocates beside the columns is bounded by the block, not the trace.

Persistence is ``.npz`` (columns + padded path table, round-trip
exact) with a CSV import/export for interoperating with external
capture tooling (one row per packet, paths spelled ``"s0|s1|s2"``).
"""

from __future__ import annotations

import csv
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.grouping import distinct_blocks
from repro.hashing import lane_blocks

#: The narrow columns' dtypes: ``path_id`` indexes the path table and
#: ``size`` counts bytes; a path length (:attr:`Trace.hop_counts`) fits
#: int16 with room to spare -- the sinks refuse more than ``MAX_HOPS``.
PATH_ID_DTYPE = np.int32
SIZE_DTYPE = np.int32
HOPS_DTYPE = np.int16

#: Hash slots of the (flow, path) sieve in :meth:`Trace.flow_paths`
#: (a power of two); more pairs than slots only means more rows left
#: to the exact loop.
_SIEVE_SLOTS = 1 << 16


def _narrowed(values, dtype, top: int, what: str) -> np.ndarray:
    """``values`` cast to ``dtype`` once every value lies in ``[0, top)``.

    The range is checked on the values as given, before the cast: a
    wide value the cast would wrap into range (``2**32 + 1`` to ``1``)
    is refused, not stored.
    """
    wide = np.asarray(values)
    if wide.size and (wide.min() < 0 or wide.max() >= top):
        raise ValueError(
            f"{what}: values {wide.min()}..{wide.max()} outside [0, {top})"
        )
    return wide.astype(dtype, copy=False)


class Trace:
    """An immutable columnar packet trace plus its interned path table.

    Parameters
    ----------
    ts, flow_id, pid, path_id, size:
        Equal-length 1-D columns: ``ts`` becomes float64, ``flow_id``
        and ``pid`` int64, ``path_id`` and ``size`` int32 once their
        values are checked (``ValueError`` outside the path table or
        ``[0, 2**31)``).
    paths:
        The path table: ``paths[path_id]`` is the tuple of switch IDs
        the packet traverses, in hop order.
    universe:
        Optional switch-ID universe V; defaults to the sorted union of
        all switches in ``paths``.
    name:
        Label carried into reports and filenames.
    """

    def __init__(
        self,
        ts: Sequence[float],
        flow_id: Sequence[int],
        pid: Sequence[int],
        path_id: Sequence[int],
        size: Sequence[int],
        paths: Sequence[Sequence[int]],
        universe: Optional[Sequence[int]] = None,
        name: str = "trace",
    ) -> None:
        self.paths: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(int(s) for s in p) for p in paths
        )
        self.ts = np.asarray(ts, dtype=np.float64)
        self.flow_id = np.asarray(flow_id, dtype=np.int64)
        self.pid = np.asarray(pid, dtype=np.int64)
        self.path_id = _narrowed(
            path_id, PATH_ID_DTYPE, len(self.paths),
            "path_id column indexes outside the path table",
        )
        self.size = _narrowed(size, SIZE_DTYPE, 1 << 31, "size column")
        self.name = name
        cols = (self.ts, self.flow_id, self.pid, self.path_id, self.size)
        n = self.ts.shape[0]
        if any(c.ndim != 1 or c.shape[0] != n for c in cols):
            raise ValueError(
                "trace columns must be equal-length 1-D arrays, got shapes "
                + "/".join(str(c.shape) for c in cols)
            )
        if not paths and n:
            raise ValueError(
                "trace needs a non-empty path table (only a zero-row "
                "trace may have no paths)"
            )
        if any(not p for p in self.paths):
            raise ValueError("paths must have at least one switch each")
        self._path_lens = _narrowed(
            [len(p) for p in self.paths], HOPS_DTYPE, 1 << 15, "path lengths"
        )
        if universe is None:
            universe = sorted({s for p in self.paths for s in p})
        self.universe: Tuple[int, ...] = tuple(int(v) for v in universe)

    # -- shape -------------------------------------------------------------

    def __len__(self) -> int:
        return int(self.ts.shape[0])

    @property
    def num_flows(self) -> int:
        """Distinct flows in the trace."""
        return int(self.distinct_flows().size)

    def distinct_flows(self, where: Optional[np.ndarray] = None) -> np.ndarray:
        """The distinct flow ids, ascending, of the rows where the
        boolean column ``where`` holds (every row when it is None).

        Counted a row block at a time over the ids' range
        (:func:`~repro.grouping.distinct_blocks`): no whole-trace
        gather, and no sort while the ids are dense.
        """
        if not len(self):
            return np.zeros(0, dtype=np.int64)
        low, span = self._flow_range()
        fid = self.flow_id
        return low + distinct_blocks((
            (fid[b] if where is None else fid[b][where[b]]) - low
            for b in lane_blocks(len(self), 1)
        ), span, len(self))

    def _flow_range(self) -> Tuple[int, int]:
        """What flow ids are counted from, and the span of the counts
        (a non-empty trace): the least id, or 0 when ids spanning
        ``2**63`` or more would wrap as offsets -- a span no table
        takes, so only a sort of the ids themselves ever sees it."""
        low = int(self.flow_id.min())
        span = int(self.flow_id.max()) - low + 1
        return (low, span) if span < 1 << 63 else (0, span)

    @property
    def hop_counts(self) -> np.ndarray:
        """Per-record path length -- the collector's ``hop_count`` column."""
        return self._path_lens[self.path_id]

    def lengths_of(self, path_ids: np.ndarray) -> np.ndarray:
        """The hop count of every path in ``path_ids``: :attr:`hop_counts`
        at some rows, for a caller that has gathered their ``path_id``."""
        return self._path_lens.take(path_ids)

    def path_of(self, row: int) -> Tuple[int, ...]:
        """The switch path record ``row`` traverses."""
        return self.paths[int(self.path_id[row])]

    def flow_paths(self) -> Dict[int, Tuple[int, ...]]:
        """flow_id -> the distinct path ids the flow traversed, in order
        of first appearance.

        Most flows use one path; churned flows list every path they
        rotated through.  This is the ground truth the replay driver
        scores decoded paths against: any traversed path is a correct
        answer to "which path did this flow take", while a path the
        flow never used is a decode error.  The order is what the sieve
        (:meth:`_pair_first_rows`) keeps; scoring needs only the set,
        :meth:`path_pairs`.
        """
        out: Dict[int, List[int]] = {}
        rows = self._pair_first_rows()
        flows, path_ids = self.flow_id[rows], self.path_id[rows]
        for fid, pid in zip(flows.tolist(), path_ids.tolist()):
            lst = out.setdefault(fid, [])
            if pid not in lst:
                lst.append(pid)
        return {fid: tuple(lst) for fid, lst in out.items()}

    def path_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every ``(flow_id, path_id)`` pair of the trace once, as two
        int64 columns ascending by flow, then by path.

        The set of :meth:`flow_paths`, without its order: each pair is
        coded as ``flow offset * paths + path id`` and the codes are
        counted a row block at a time
        (:func:`~repro.grouping.distinct_blocks`: a mark table while
        they span a few times the rows, else sorted).  Flow ids too
        sparse to code beside a path id in 63 bits are ranked first.
        """
        width = len(self.paths)
        if not len(self):
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        low, span = self._flow_range()
        fid, pid = self.flow_id, self.path_id
        ranks: Optional[np.ndarray] = None
        if span * width >= 1 << 63:
            ranks = self.distinct_flows()
            low, span = 0, int(ranks.shape[0])
        blocks = (
            (
                fid[b] - low if ranks is None
                else np.searchsorted(ranks, fid[b])
            ) * width + pid[b]
            for b in lane_blocks(len(self), 1)
        )
        flows, path_ids = np.divmod(
            distinct_blocks(blocks, span * width, len(self)), width
        )
        return (flows + low if ranks is None else ranks[flows]), path_ids

    def traversed(
        self,
        flow_ids: np.ndarray,
        paths: Sequence[Sequence[int]],
        pairs: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> np.ndarray:
        """Whether flow ``flow_ids[i]`` took a path with hops ``paths[i]``.

        The ground truth of :meth:`flow_paths` asked as columns, for a
        few flows (ascending, unique) of a large trace: hop tuples are
        named by path id through one dict (path ids with equal hops
        share the first), and the named ``(flow, path)`` pairs are
        looked up among ``pairs`` (:meth:`path_pairs`, for a caller
        that has them already) with one ``isin`` -- no per-flow list
        is built for flows nobody asked about.
        """
        ids: Dict[Tuple[int, ...], int] = {}
        for path_id, hops in enumerate(self.paths):
            ids.setdefault(hops, path_id)
        named = np.asarray(
            [ids.get(tuple(hops), -1) for hops in paths], dtype=np.int64
        )
        same = np.asarray([ids[hops] for hops in self.paths], dtype=np.int64)
        flows, path_ids = self.path_pairs() if pairs is None else pairs
        asked = np.isin(flows, flow_ids)
        width = len(self.paths)
        took = (
            np.searchsorted(flow_ids, flows[asked]) * width
            + same[path_ids[asked]]
        )
        return np.isin(
            np.arange(named.shape[0]) * width + named, took
        ) & (named >= 0)

    def _pair_first_rows(self) -> np.ndarray:
        """Ascending rows holding every first (flow, path) appearance.

        A vectorised sieve in front of :meth:`flow_paths`' exact loop,
        which only rows that *introduce* a (flow_id, path_id) pair can
        change: pairs are hashed into ``_SIEVE_SLOTS`` slots, each
        slot's first row is kept, and so is every row whose pair
        differs from its slot's first (a collision -- possibly a first
        appearance).  A later repeat of its slot's first pair is never a
        first appearance, so the kept set is a superset of them, and
        typically a few rows per pair instead of the whole trace.

        Blocks of rows are folded in ascending order: once a row's own
        block is folded, its slot's first row is already the global
        first (every earlier row sits in an earlier or the same block),
        so each block is judged as soon as it is folded.
        """
        fid, pid = self.flow_id, self.path_id
        n = len(self)
        first = np.full(_SIEVE_SLOTS, n, dtype=np.int64)
        kept = [np.zeros(0, dtype=np.int64)]
        for block in lane_blocks(n, 1):
            rows = np.arange(block.start, min(block.stop, n))
            f, p = fid[block], pid[block]
            slot = (
                f.astype(np.intp, copy=False) * len(self.paths) + p
            ) & (_SIEVE_SLOTS - 1)
            np.minimum.at(first, slot, rows)
            lead = first[slot]
            kept.append(
                rows[(lead == rows) | (f != fid[lead]) | (p != pid[lead])]
            )
        return np.concatenate(kept)

    def batches(self, batch_size: int) -> Iterator[Tuple[int, int]]:
        """Yield ``[lo, hi)`` row bounds covering the trace in order."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        for lo in range(0, len(self), batch_size):
            yield lo, min(lo + batch_size, len(self))

    def sorted_by_time(self) -> "Trace":
        """A copy sorted stably by ``ts`` (equal stamps keep row order)."""
        order = np.argsort(self.ts, kind="stable")
        return Trace(
            self.ts[order], self.flow_id[order], self.pid[order],
            self.path_id[order], self.size[order],
            self.paths, self.universe, self.name,
        )

    # -- persistence -------------------------------------------------------

    def save(self, path: str) -> None:
        """Write the trace as a compressed ``.npz`` (round-trip exact).

        Zero-row traces round-trip too (an empty path table pads to a
        ``(0, 0)`` matrix): a capture pipeline that saw no packets in
        a window must still be able to checkpoint.
        """
        k_max = int(self._path_lens.max()) if self._path_lens.size else 0
        table = np.full((len(self.paths), k_max), -1, dtype=np.int64)
        for i, p in enumerate(self.paths):
            table[i, : len(p)] = p
        np.savez_compressed(
            path,
            ts=self.ts, flow_id=self.flow_id, pid=self.pid,
            path_id=self.path_id, size=self.size,
            path_table=table, path_len=self._path_lens,
            universe=np.asarray(self.universe, dtype=np.int64),
            name=np.asarray(self.name),
        )

    @staticmethod
    def load(path: str) -> "Trace":
        """Read a trace written by :meth:`save`."""
        with np.load(path, allow_pickle=False) as data:
            table = data["path_table"]
            lens = data["path_len"]
            paths = [
                tuple(int(v) for v in table[i, : int(lens[i])])
                for i in range(table.shape[0])
            ]
            return Trace(
                data["ts"], data["flow_id"], data["pid"],
                data["path_id"], data["size"], paths,
                universe=data["universe"], name=str(data["name"]),
            )

    def to_csv(self, path: str) -> None:
        """Write one row per packet: ``ts,flow_id,pid,size,path``."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["ts", "flow_id", "pid", "size", "path"])
            path_strs = ["|".join(str(s) for s in p) for p in self.paths]
            for i in range(len(self)):
                writer.writerow([
                    repr(float(self.ts[i])), int(self.flow_id[i]),
                    int(self.pid[i]), int(self.size[i]),
                    path_strs[int(self.path_id[i])],
                ])

    @staticmethod
    def from_csv(
        path: str,
        universe: Optional[Sequence[int]] = None,
        name: str = "csv-trace",
    ) -> "Trace":
        """Import a ``ts,flow_id,pid,size,path`` CSV (paths interned)."""
        ts: List[float] = []
        fids: List[int] = []
        pids: List[int] = []
        sizes: List[int] = []
        path_ids: List[int] = []
        interned: Dict[str, int] = {}
        paths: List[Tuple[int, ...]] = []
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            required = {"ts", "flow_id", "pid", "size", "path"}
            if reader.fieldnames is None or not required <= set(reader.fieldnames):
                raise ValueError(
                    f"trace CSV needs columns {sorted(required)}, got "
                    f"{reader.fieldnames}"
                )
            for row in reader:
                key = row["path"]
                pid_idx = interned.get(key)
                if pid_idx is None:
                    pid_idx = len(paths)
                    interned[key] = pid_idx
                    paths.append(tuple(int(s) for s in key.split("|")))
                ts.append(float(row["ts"]))
                fids.append(int(row["flow_id"]))
                pids.append(int(row["pid"]))
                sizes.append(int(row["size"]))
                path_ids.append(pid_idx)
        # A header-only CSV is a legitimate zero-row trace (an empty
        # capture window); only a file without the header is malformed
        # and already rejected above.
        return Trace(ts, fids, pids, path_ids, sizes, paths,
                     universe=universe, name=name)
