"""Flow state as columns: every flow of a sink is a row of one store.

The Inference Module keeps, per flow, a candidate set per hop and the
XOR digests still waiting to peel (paper §4.2).  Most flows of a real
trace are shorter than the packets a path needs to decode, so a sink
mostly creates, holds and reports state for flows that never converge
-- and per-flow Python objects make that the whole cost.  Here the
state is the persistent form of the :class:`~repro.coding.peel.
FixpointPeel` slots:

* a flow is a **row**: ``k`` (0: no decoder yet, or just reset), slot
  ``base``, ``known``, ``packets_seen``, ``inconsistencies``,
  ``decode_errors``, ``pending`` (XOR digests parked);
* its hops are **slots** ``base .. base + k``: ``settled``, ``values``
  (the block; a universe member cast to uint64 like ``peel.values``)
  and, hash digests only, ``cand`` -- the row of a bit-packed
  ``|V|``-wide **pool** holding the candidates of an open hop some
  digest has narrowed (-1: the whole universe, or settled);
* parked XOR digests are four parallel **constraint** arrays: owner
  row, packet id, residual per rep, todo mask.  A row's constraints
  are one contiguous run in arrival order, ``pending`` long from
  ``x_base``, so a flow's digests are found without a scan.

:meth:`PathStateStore.fold` is the batched engine: decoded rows are
checked in place (:meth:`PathStateStore.verify`), the rest go through
one fixpoint peel whose load is gathers and whose commit is scatters.
The scalar decoders stay the specification; one bridge --
:meth:`PathStateStore.materialise` / :meth:`PathStateStore.absorb` --
turns a row into a decoder and back for everything record-at-a-time.
A flow whose digests conflict is never half-written: its row is left
as it was and handed back to the caller, who replays the records
through the scalar reference (Basil's execute / validate / re-run,
PAPERS.md).  :class:`RowStore` is what any per-sink store shares:
rows recycled behind a per-row epoch, the shards' bookkeeping as
columns of the same rows, and the sink's one flow index
(:class:`~repro.coding.flowindex.FlowIndex`), which finds every
record's row in a batch pass -- and with it the batch's *steady* flows,
those whose records fold without grouping the batch by flow.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.coding.context import PathQueryContext
from repro.coding.decoder import HashDecoder, RawDecoder, _PeelingDecoder
from repro.coding.encoder import HASH, unpack_reps_array
from repro.coding.flowindex import FlowIndex
from repro.coding.peel import CONFLICT_REASONS, TABLE_BLOCK, FixpointPeel
from repro.exceptions import RestoreError
from repro.grouping import distinct, run_starts

#: Every ``reason`` label of a sink's
#: ``pint_collector_decode_fallback_flows_total``.
FALLBACK_REASONS = tuple(CONFLICT_REASONS.values())

#: What snapshots charge per flow beside its decoding state:
#: ``sys.getsizeof`` of a slot-less CPython object, which is what a path
#: or congestion consumer was when the accounting was pinned.
OBJECT_BYTES = 56

#: Columns start at ``_FIRST`` entries and grow by ``_GROWTH``.
_FIRST, _GROWTH = 16, 2


def spans(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Indices of ``[starts[i], starts[i] + sizes[i])``, concatenated."""
    offsets = np.cumsum(sizes) - sizes
    return np.repeat(starts - offsets, sizes) + np.arange(int(sizes.sum()))


def narrow(arr: np.ndarray) -> np.ndarray:
    """``arr`` in the smallest integer dtype that holds its values
    (what a checkpoint stores; widen with ``astype`` on the way in)."""
    if not arr.size:
        return arr.astype(np.int8)
    return arr.astype(np.result_type(
        np.min_scalar_type(int(arr.min())), np.min_scalar_type(int(arr.max()))
    ))


class RowStore:
    """Rows for the live flows of one sink, recycled through a free list.

    A row is the whole of a flow's place in its sink: beside the
    per-row columns the subclass names (:attr:`ROW_COLUMNS`) it carries
    the shards' bookkeeping, which the sink's shards write and nobody
    else -- ``last_seen``, ``flow_records`` (records the shard
    accounted to the flow), ``generation``, the ``shard`` that admitted
    the flow (-1: no shard holds the row, a lone decoder's for one) and
    the flow's touch ``stamp``.  Stamps come from one counter per store,
    so a shard's flows by ascending stamp are its LRU order
    (:meth:`shard_rows`).  A released row keeps its place in the
    columns; :attr:`epoch` is what makes reuse safe -- every allocation
    stamps the row with a number never used before and a release zeroes
    it, so whoever still holds ``(row, epoch)`` of an evicted flow can
    tell the row is no longer theirs.  To the array passes a released
    row simply reads as not steady.

    :attr:`index` is the sink's one flow index: it maps the flow id of
    every row a shard admitted (:meth:`admit`, :meth:`enter`) to that
    row, exactly, until :meth:`release` takes the row back.
    """

    ROW_COLUMNS: Tuple[str, ...] = ()
    #: Width of the codes the rows hold, which the sink's front door
    #: range-checks; None for a store whose digests are not codes.
    code_bits: Optional[int] = None
    _OWN = (
        "flow_id", "epoch", "last_seen", "flow_records", "generation",
        "shard", "stamp",
    )

    def __init__(self) -> None:
        #: High-water mark: rows ``[0, rows)`` are live or on the free list.
        self.rows = 0
        self.flow_id = np.zeros(0, dtype=np.int64)
        self.epoch = np.zeros(0, dtype=np.int64)
        self.last_seen = np.zeros(0, dtype=np.float64)
        self.flow_records = np.zeros(0, dtype=np.int64)
        self.generation = np.zeros(0, dtype=np.int64)
        self.shard = np.zeros(0, dtype=np.int64)
        self.stamp = np.zeros(0, dtype=np.int64)
        self.index = FlowIndex()
        self._epochs = 0
        self._stamps = 0
        self._free: List[int] = []

    def _fit(self, names: Iterable[str], need: int) -> None:
        """Grow the columns ``names`` to hold ``need`` leading entries."""
        for name in names:
            arr = getattr(self, name)
            have = arr.shape[0]
            if need > have:
                grown = np.zeros(
                    (max(need, _GROWTH * have, _FIRST),) + arr.shape[1:],
                    dtype=arr.dtype,
                )
                grown[:have] = arr
                setattr(self, name, grown)

    def alloc(self, flow_id: int) -> int:
        """A clean row for ``flow_id`` (its epoch is ``epoch[row]``)."""
        if self._free:
            row = self._free.pop()
        else:
            row = self.rows
            if row == self.flow_id.shape[0]:
                self._fit(self._OWN + self.ROW_COLUMNS, row + 1)
            self.rows = row + 1
        self._epochs = self.epoch[row] = self._epochs + 1
        self.flow_id[row] = flow_id
        self.flow_records[row] = 0
        self.shard[row] = -1
        return row

    def alloc_many(self, flow_ids: np.ndarray) -> np.ndarray:
        """Clean rows for ``flow_ids``: the rows, in order, that
        :meth:`alloc` would hand out one flow at a time."""
        count = flow_ids.shape[0]
        reuse = min(count, len(self._free))
        rows = np.empty(count, dtype=np.int64)
        if reuse:
            rows[:reuse] = self._free[:-reuse - 1:-1]
            del self._free[-reuse:]
        if reuse < count:
            lo = self.rows
            self.rows = hi = lo + count - reuse
            self._fit(self._OWN + self.ROW_COLUMNS, hi)
            rows[reuse:] = np.arange(lo, hi)
        self.epoch[rows] = np.arange(self._epochs + 1, self._epochs + count + 1)
        self._epochs += count
        self.flow_id[rows] = flow_ids
        self.flow_records[rows] = 0
        self.shard[rows] = -1
        return rows

    # -- the shards' side ----------------------------------------------------

    def admit(
        self, flow_ids: np.ndarray, shards: Union[int, np.ndarray]
    ) -> np.ndarray:
        """Rows for flows the index lacks (distinct), allocated in
        :meth:`alloc_many` order and indexed under ``shards`` (one shard
        id, or one per flow)."""
        rows = self.alloc_many(flow_ids)
        self.enter(rows, shards)
        return rows

    def admit_one(self, flow_id: int, shard: int) -> int:
        """Scalar :meth:`admit`."""
        row = self.alloc(flow_id)
        self.shard[row] = shard
        self.index.insert_one(flow_id, row)
        return row

    def enter(self, rows: np.ndarray, shards: Union[int, np.ndarray]) -> None:
        """Index allocated ``rows`` under ``shards``; the flows they
        hold must be new to the index."""
        self.shard[rows] = shards
        self.index.insert(self.flow_id[rows], rows)

    def restamp(self, rows: np.ndarray) -> None:
        """Mark ``rows`` touched in array order (the last, most recently)."""
        count = rows.shape[0]
        self.stamp[rows] = np.arange(self._stamps + 1, self._stamps + count + 1)
        self._stamps += count

    def restamp_one(self, row: int) -> int:
        """Scalar :meth:`restamp`; returns the row's new stamp."""
        self._stamps = stamp = self._stamps + 1
        self.stamp[row] = stamp
        return stamp

    def shard_rows(self, shard: int) -> np.ndarray:
        """The rows ``shard`` holds, least recently touched first."""
        held = np.flatnonzero(self.shard[:self.rows] == shard)
        return held[np.argsort(self.stamp[held])]

    def release(self, row: int) -> None:
        """Return ``row`` and everything it holds; it reads clean again."""
        if self.shard[row] >= 0:
            self.index.remove_one(self.flow_id.item(row))
        self._clear(row)
        self.epoch[row] = self.stamp[row] = 0
        self.shard[row] = -1
        self._free.append(row)

    def _clear(self, row: int) -> None:
        raise NotImplementedError

    def account(self, rows: np.ndarray) -> Tuple[int, float, int]:
        """(flows with an answer, coverage sum, state bytes) of ``rows``."""
        raise NotImplementedError

    def live_rows(self) -> np.ndarray:
        """Every allocated row, ascending."""
        live = np.ones(self.rows, dtype=bool)
        live[self._free] = False
        return np.flatnonzero(live)

    def identity(self) -> Dict[str, Any]:
        """The query a capture of these rows is only meaningful under:
        what :meth:`state_dict` records and :meth:`check_state` compares."""
        raise NotImplementedError

    def check_state(self, state: Dict[str, Any]) -> None:
        """Refuse a capture taken from a store of another query.

        Raises :class:`~repro.exceptions.RestoreError` naming the first
        :meth:`identity` field that differs -- before anything is
        touched, so a refused restore leaves the store as it was.
        """
        theirs = state.get("query", {})
        for field, mine in self.identity().items():
            if theirs.get(field) != mine:
                raise RestoreError(
                    f"checkpoint was captured from a sink with "
                    f"{field}={theirs.get(field)!r}, this sink has "
                    f"{field}={mine!r}; restore requires the same query"
                )

    def _adopt_rows(self, count: int) -> None:
        """Start a bulk load: rows ``[0, count)`` are live and zeroed,
        on fresh epochs (every earlier handle is stale), and no shard
        holds them yet."""
        self._fit(self._OWN + self.ROW_COLUMNS, count)
        for name in self.ROW_COLUMNS:
            getattr(self, name)[:] = 0
        self.rows = count
        self._free = []
        self.epoch[:] = self.stamp[:] = 0
        self.epoch[:count] = np.arange(self._epochs + 1, self._epochs + 1 + count)
        self._epochs += count
        self.shard[:] = -1
        self.index.clear()

    def _steady(self, rows: np.ndarray) -> np.ndarray:
        """Which of ``rows`` are steady (a released row never is)."""
        raise NotImplementedError

    def steady(self, rows: np.ndarray) -> np.ndarray:
        """Which of ``rows`` (-1: no row) hold a steady flow: one whose
        records fold where they stand, without grouping by flow."""
        held = rows >= 0
        if held.all():
            return self._steady(rows)
        held[held] = self._steady(rows[held])
        return held


class PathStateStore(RowStore):
    """The decoder state of every raw- or hash-mode flow of one sink.

    See the module docstring for the layout.  Slots are handed out
    append-only and compacted when dead ones outnumber live ones,
    constraints likewise (a dead one has owner -1); both only at the
    top of :meth:`fold` and :meth:`absorb`, never while a pass holds
    slot positions.
    """

    #: The query kind its rows answer (``AnswerTable.kind``).
    kind = "path"
    ROW_COLUMNS = (
        "k", "base", "known", "packets_seen", "inconsistencies",
        "decode_errors", "pending", "x_base",
    )
    _SLOTS = ("settled", "values", "cand")
    _PARKED = ("x_owner", "x_pid", "x_res", "x_todo")

    def __init__(self, context: PathQueryContext) -> None:
        super().__init__()
        self.context = context
        self.hashed = context.mode == HASH
        self.k = np.zeros(0, dtype=np.int64)
        self.base = np.zeros(0, dtype=np.int64)
        self.known = np.zeros(0, dtype=np.int64)
        self.packets_seen = np.zeros(0, dtype=np.int64)
        self.inconsistencies = np.zeros(0, dtype=np.int64)
        self.decode_errors = np.zeros(0, dtype=np.int64)
        self.pending = np.zeros(0, dtype=np.int64)
        self.x_base = np.zeros(0, dtype=np.int64)
        #: Slots ``[0, slots)`` are handed out, ``dead_slots`` of them
        #: belong to no row any more; likewise constraints ``[0, x_n)``.
        self.slots = self.dead_slots = self.x_n = self.x_dead = 0
        self.settled = np.zeros(0, dtype=bool)
        self.values = np.zeros(0, dtype=np.uint64)
        self.cand = np.zeros(0, dtype=np.int64)
        self._width = int(context.universe.size) if self.hashed else 0
        self.pool = np.zeros((0, -(-self._width // 8)), dtype=np.uint8)
        self.pool_members = np.zeros(0, dtype=np.int64)
        self._pool_free: List[int] = []
        self._pool_rows = 0
        self.x_owner = np.zeros(0, dtype=np.int64)
        self.x_pid = np.zeros(0, dtype=np.uint64)
        self.x_res = np.zeros((0, context.num_hashes), dtype=np.uint64)
        self.x_todo = np.zeros((0, 0), dtype=bool)

    # -- allocation ----------------------------------------------------------

    def _open(self, rows: np.ndarray, ks: np.ndarray) -> None:
        """Give ``rows`` (all ``k == 0``) fresh slots for ``ks`` hops."""
        lo = self.slots
        self.slots = hi = lo + int(ks.sum())
        self._fit(self._SLOTS, hi)
        self.settled[lo:hi] = False
        self.cand[lo:hi] = -1
        self.k[rows] = ks
        self.base[rows] = lo + np.cumsum(ks) - ks

    def _drop_open(self, row: int, k: int) -> None:
        """Free what ``row`` holds beside its slots: pool rows, constraints."""
        if self.hashed and self.known[row] < k:
            lo = int(self.base[row])
            held = self.cand[lo:lo + k]
            self._pool_free.extend(held[held >= 0].tolist())
            held[:] = -1
        count = int(self.pending[row])
        if count:
            lo = int(self.x_base[row])
            self.x_owner[lo:lo + count] = -1
            self.x_dead += count
            self.pending[row] = 0

    def _clear(self, row: int) -> None:
        k = int(self.k[row])
        if k:
            self._drop_open(row, k)
            self.dead_slots += k
        for name in self.ROW_COLUMNS:
            getattr(self, name)[row] = 0

    def _narrow(self, slots: np.ndarray, standing: np.ndarray) -> None:
        """Record ``standing`` (bool rows) as the open ``slots``'
        candidates, in the pool rows they hold or in new ones."""
        held = self.cand[slots]
        need = np.flatnonzero(held < 0)
        reuse = min(int(need.size), len(self._pool_free))
        if reuse:
            held[need[:reuse]] = self._pool_free[-reuse:]
            del self._pool_free[-reuse:]
        if reuse < need.size:
            lo = self._pool_rows
            self._pool_rows = hi = lo + int(need.size) - reuse
            self._fit(("pool", "pool_members"), hi)
            held[need[reuse:]] = np.arange(lo, hi)
        self.cand[slots] = held
        self.pool[held] = np.packbits(standing, axis=1)
        self.pool_members[held] = standing.sum(axis=1)

    def _pend(
        self, owner: np.ndarray, pids: np.ndarray, residuals: np.ndarray,
        todo: np.ndarray,
    ) -> None:
        """Append constraints (arrival order is array order), grouped
        by owner: each owner's run starts its ``x_base``."""
        lo = self.x_n
        self.x_n = hi = lo + owner.shape[0]
        wider = todo.shape[1] - self.x_todo.shape[1]
        if wider > 0:
            self.x_todo = np.pad(self.x_todo, ((0, 0), (0, wider)))
        self._fit(self._PARKED, hi)
        self.x_owner[lo:hi] = owner
        self.x_pid[lo:hi] = pids
        self.x_res[lo:hi] = residuals
        self.x_todo[lo:hi] = False
        self.x_todo[lo:hi, :todo.shape[1]] = todo
        first = np.flatnonzero(run_starts(owner))
        self.x_base[owner[first]] = lo + first

    def _compact(self) -> None:
        """Squeeze out dead slots / constraints once they are the majority."""
        if self.dead_slots > self.slots - self.dead_slots:
            live = np.flatnonzero(self.k[:self.rows])
            ks = self.k[live]
            src = spans(self.base[live], ks)
            for name in self._SLOTS:
                getattr(self, name)[:src.shape[0]] = getattr(self, name)[src]
            self.base[live] = np.cumsum(ks) - ks
            self.slots, self.dead_slots = int(src.shape[0]), 0
        if self.x_dead > self.x_n - self.x_dead:
            alive = self.x_owner[:self.x_n] >= 0
            keep = np.flatnonzero(alive)
            for name in self._PARKED:
                getattr(self, name)[:keep.shape[0]] = getattr(self, name)[keep]
            # A run moves whole: its first constraint's new place.
            held = np.flatnonzero(self.pending[:self.rows])
            self.x_base[held] = (np.cumsum(alive) - 1)[self.x_base[held]]
            self.x_n, self.x_dead = int(keep.shape[0]), 0

    def _steady(self, rows: np.ndarray) -> np.ndarray:
        ks = self.k[rows]
        return (ks > 0) & (self.known[rows] == ks)

    def _parked(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The constraints the flows ``rows`` hold and, for each, its
        owner's position in ``rows``: each row's run, in ``rows``
        order (work in the rows asked, not in the store)."""
        counts = self.pending[rows]
        return (
            spans(self.x_base[rows], counts),
            np.repeat(np.arange(rows.shape[0]), counts),
        )

    # -- the batched engine --------------------------------------------------

    def _reps(self, digests: np.ndarray) -> np.ndarray:
        """The ``(n, num_hashes)`` digest matrix of a packed int64
        column (a matrix passes through: a lone decoder's batch)."""
        if digests.ndim == 2:
            return digests
        context = self.context
        return unpack_reps_array(
            digests, context.digest_bits, context.num_hashes
        )

    def fold(
        self, rows: np.ndarray, starts: np.ndarray, sizes: np.ndarray,
        pids: np.ndarray, hops: np.ndarray, digests: np.ndarray,
    ) -> List[Tuple[int, str]]:
        """Fold one batch's flow groups into their rows.

        Group ``j`` is records ``[starts[j], starts[j] + sizes[j])`` of
        the columns (packet ids, hop counts, packed digests), in
        arrival order, all of the flow in row ``rows[j]`` (distinct
        rows).  A row without a decoder takes its path length from its
        first record's hop count.  Decoded rows are verified in place;
        the others go through one :class:`~repro.coding.peel.
        FixpointPeel` per :data:`~repro.coding.peel.TABLE_BLOCK` of
        candidate table and end up exactly where in-order scalar
        ``observe`` would leave them.  Returns ``(j, reason)`` for
        every group whose digests conflict: that row is untouched --
        pending digests included -- and its records are the caller's
        to replay through the scalar reference, the one place a
        conflict's outcome is defined.
        """
        self._compact()
        fresh = np.flatnonzero(self.k[rows] == 0)
        if fresh.size:
            self._open(rows[fresh], hops[starts[fresh]])
        ks = self.k[rows]
        done = self.known[rows] == ks
        part = np.flatnonzero(done)
        if part.size:
            took = spans(starts[part], sizes[part])
            self.verify(
                np.repeat(rows[part], sizes[part]), pids[took], digests[took]
            )
        conflicts: List[Tuple[int, str]] = []
        open_ = np.flatnonzero(~done)
        slot_ends = np.cumsum(ks[open_])
        budget = max(1, TABLE_BLOCK // max(1, self._width))
        lo = 0
        while lo < open_.shape[0]:
            used = int(slot_ends[lo - 1]) if lo else 0
            hi = max(
                lo + 1, int(np.searchsorted(slot_ends, used + budget, "right"))
            )
            part = open_[lo:hi]
            codes = self._peel(
                rows[part], ks[part], starts[part], sizes[part], pids, digests
            )
            conflicts += [
                (int(part[j]), CONFLICT_REASONS[int(codes[j])])
                for j in np.flatnonzero(codes).tolist()
            ]
            lo = hi
        return conflicts

    def verify(
        self, owners: np.ndarray, pids: np.ndarray, digests: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Check records of decoded flows against their paths, in place.

        Record ``i`` belongs to the (complete) row ``owners[i]``; the
        records need no grouping or order.  A Baseline record must
        carry its carrier hop's decoded block -- compared outright for
        raw digests, re-hashed under every rep for hash digests -- and
        counts one inconsistency on its row otherwise, exactly like
        ``observe`` on a decoded hop; XOR records are no-ops.  Returns
        the rows that received records, ascending, and how many each
        (:func:`~repro.grouping.distinct`): the work is in the records,
        whatever the store's size.
        """
        context = self.context
        upids = pids.astype(np.uint64)
        ks = self.k[owners]
        base, hops = context.baseline_carriers(upids, ks)
        flow = owners[base]
        expected = self.values[self.base[flow] + hops - 1]
        got = self._reps(digests[base])
        if self.hashed:
            # Any codec serves: the value hashes do not depend on k.
            h = context.codec_for(int(ks[0])).h
            base_pids = upids[base]
            bad = np.zeros(base.shape[0], dtype=bool)
            for rep in range(context.num_hashes):
                hashed = h[rep].bits_zip(
                    context.digest_bits, base_pids, expected
                )
                bad |= hashed != got[:, rep]
        else:
            bad = got[:, 0] != expected
        rows, seen = distinct(owners, self.rows)
        self.packets_seen[rows] += seen
        if bad.any():
            np.add.at(self.inconsistencies, flow[bad], 1)
        return rows, seen

    def _peel(
        self, rows: np.ndarray, ks: np.ndarray, starts: np.ndarray,
        sizes: np.ndarray, pids: np.ndarray, digests: np.ndarray,
    ) -> np.ndarray:
        """One fixpoint peel: gather state, run, scatter the clean flows
        back; returns the flows' conflict codes."""
        took = spans(starts, sizes)
        peel = FixpointPeel(self.context, ks)
        # Load.  Peel slot i is store slot src[i].
        src = spans(self.base[rows], ks)
        was = self.settled[src]
        held = np.flatnonzero(was)
        if held.size:
            blocks = self.values[src[held]]
            peel.load_settled(
                held, blocks.astype(np.int64) if self.hashed else blocks
            )
        if self.hashed:
            cand = self.cand[src]
            has = np.flatnonzero(cand >= 0)
            if has.size:
                peel.table[has] = np.unpackbits(
                    self.pool[cand[has]], axis=1, count=self._width
                )
        old = owner = np.zeros(0, dtype=np.int64)
        if self.pending[rows].any():
            # Added first, so arrival order survives the batch.
            old, owner = self._parked(rows)
            peel.add_xor(
                owner, self.x_pid[old], self.x_res[old],
                self.x_todo[old][:, :int(ks.max())],
            )
        peel.run(
            pids[took].astype(np.uint64), self._reps(digests[took]),
            np.repeat(np.arange(rows.shape[0]), sizes),
        )
        # Commit -- to flows whose digests never conflicted.
        clean = peel.conflict == 0
        clean_slot = clean[peel.slot_flow]
        fresh = np.flatnonzero(peel.settled & ~was & clean_slot)
        dst = src[fresh]
        self.settled[dst] = True
        self.values[dst] = peel.values[fresh]
        gained = np.bincount(peel.slot_flow[fresh], minlength=rows.shape[0])
        self.known[rows] += gained
        self.packets_seen[rows[clean]] += sizes[clean]
        if self.hashed:
            freed = self.cand[dst]
            self._pool_free.extend(freed[freed >= 0].tolist())
            self.cand[dst] = -1
            kept = np.flatnonzero(peel.narrowed & ~peel.settled & clean_slot)
            if kept.size:
                self._narrow(src[kept], peel.table[kept])
        if peel.xor_flow.size:
            # A clean flow's parked digests are replaced by the ones
            # still open, the old ones first.
            dead = old[clean[owner]]
            self.x_owner[dead] = -1
            self.x_dead += int(dead.size)
            still = np.flatnonzero(peel.xor_open & clean[peel.xor_flow])
            # Each flow's run: its old digests, then this batch's.
            still = still[np.argsort(peel.xor_flow[still], kind="stable")]
            flows = peel.xor_flow[still]
            self._pend(
                rows[flows], peel.xor_pids[still], peel.xor_residual[still],
                peel.xor_todo[still],
            )
            parked = np.bincount(flows, minlength=rows.shape[0])
            self.pending[rows[clean]] = parked[clean]
        return peel.conflict

    # -- the bridge ----------------------------------------------------------

    def materialise(self, row: int) -> Optional[_PeelingDecoder]:
        """The scalar decoder holding ``row``'s state (a copy), or None
        while the row has no decoder."""
        k = int(self.k[row])
        if not k:
            return None
        cls = HashDecoder if self.hashed else RawDecoder
        decoder: _PeelingDecoder = cls.from_context(self.context, k)
        self.read_into(row, decoder)
        return decoder

    def read_into(self, row: int, decoder: _PeelingDecoder) -> None:
        """Overwrite ``decoder``'s state (same ``k``) with ``row``'s."""
        k = decoder.k
        lo = int(self.base[row])
        blocks = self.values[lo:lo + k]
        hops = np.flatnonzero(self.settled[lo:lo + k])
        decoder.decoded = dict(zip(
            (hops + 1).tolist(),
            (blocks.astype(np.int64) if self.hashed else blocks)[hops].tolist(),
        ))
        decoder.packets_seen = int(self.packets_seen[row])
        decoder.inconsistencies = int(self.inconsistencies[row])
        decoder._pending = []
        decoder._hop_refs = {}
        # Decoded: the path and the counters are all there is.
        decoder._decoded_arr = blocks.copy() if hops.size == k else None
        if isinstance(decoder, HashDecoder):
            cand = self.cand[lo:lo + k]
            decoder._candidates = {
                hop + 1: self.context.universe[np.unpackbits(
                    self.pool[cand[hop]], count=self._width
                ).view(bool)]
                for hop in np.flatnonzero(cand >= 0).tolist()
            }
        lo = int(self.x_base[row])
        for i in range(lo, lo + int(self.pending[row])):
            decoder._park(
                int(self.x_pid[i]), self.x_res[i].tolist(),
                set((np.flatnonzero(self.x_todo[i]) + 1).tolist()),
            )

    def absorb(
        self, row: int, decoder: Optional[_PeelingDecoder], decode_errors: int
    ) -> None:
        """Make ``row`` hold ``decoder``'s state (None: no decoder, a
        reset) -- whatever its path length -- and the reset count."""
        self._compact()
        k = int(self.k[row])
        new_k = decoder.k if decoder is not None else 0
        if new_k != k:
            self._clear(row)
            if decoder is not None:
                one = np.asarray([row], dtype=np.int64)
                self._open(one, np.asarray([new_k], dtype=np.int64))
        self.decode_errors[row] = decode_errors
        if decoder is None:
            return
        self.packets_seen[row] = decoder.packets_seen
        self.inconsistencies[row] = decoder.inconsistencies
        if new_k == k == self.known[row] == len(decoder.decoded):
            # Decoded before and after: only the counters can move.
            return
        self._drop_open(row, new_k)
        lo = int(self.base[row])
        hops = np.fromiter(decoder.decoded, dtype=np.int64) - 1
        blocks = list(decoder.decoded.values())
        self.settled[lo:lo + new_k] = False
        self.settled[lo + hops] = True
        self.values[lo + hops] = (
            np.asarray(blocks, dtype=np.int64).astype(np.uint64)
            if self.hashed else np.asarray(blocks, dtype=np.uint64)
        )
        self.known[row] = hops.size
        if isinstance(decoder, HashDecoder) and decoder._candidates:
            narrowed = decoder._candidates
            standing = np.zeros((len(narrowed), self._width), dtype=bool)
            for i, members in enumerate(narrowed.values()):
                standing[i, np.searchsorted(self.context.universe, members)] = True
            self._narrow(lo + np.fromiter(narrowed, dtype=np.int64) - 1, standing)
        parked = [e for e in decoder._pending if len(e.unknown) > 1]
        if parked:
            todo = np.zeros((len(parked), new_k), dtype=bool)
            for i, entry in enumerate(parked):
                todo[i, [hop - 1 for hop in entry.unknown]] = True
            self._pend(
                np.full(len(parked), row, dtype=np.int64),
                np.asarray([e.packet_id for e in parked], dtype=np.uint64),
                np.asarray([e.residual for e in parked], dtype=np.uint64),
                todo,
            )
            self.pending[row] = len(parked)

    # -- reads ---------------------------------------------------------------

    def answers(
        self, rows: np.ndarray
    ) -> Tuple[Dict[str, np.ndarray], np.ndarray, np.ndarray]:
        """The path answer columns of ``rows`` plus the CSR pair holding
        each decoded flow's path (an undecoded flow's row is empty)."""
        ks, known = self.k[rows], self.known[rows]
        offsets = np.zeros(rows.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.where(known == ks, ks, 0), out=offsets[1:])
        done = np.flatnonzero((known == ks) & (ks > 0))
        values = self.values[spans(self.base[rows[done]], ks[done])]
        columns = {
            "k": ks,
            "known": known,
            "decode_errors": self.decode_errors[rows],
            "packets_seen": self.packets_seen[rows],
            "inconsistencies": self.inconsistencies[rows],
        }
        return columns, offsets, values.astype(np.int64)

    def account(self, rows: np.ndarray) -> Tuple[int, float, int]:
        """(decoded flows, coverage sum, state bytes) of ``rows``.

        The scalar consumers' accounting as arithmetic: per flow
        :data:`OBJECT_BYTES` plus the sum of ``HashDecoder.state_bytes``
        / ``RawDecoder.state_bytes`` (8 bytes a candidate of a narrowed
        set, 8 -- raw: 16 -- a decoded hop, 64 a parked digest, ``8 k``
        once complete), and ``known / k`` summed left to right in the
        order given, as a loop over the flows would.
        """
        ks, known = self.k[rows], self.known[rows]
        complete = (known == ks) & (ks > 0)
        coverage = np.zeros(rows.shape[0], dtype=np.float64)
        np.divide(known, ks, out=coverage, where=ks > 0)
        total = OBJECT_BYTES * rows.shape[0]
        total += (8 if self.hashed else 16) * int(known.sum())
        total += 64 * int(self.pending[rows].sum()) + 8 * int(ks[complete].sum())
        if self.hashed:
            open_ = rows[~complete & (ks > 0)]
            cand = self.cand[spans(self.base[open_], self.k[open_])]
            total += 8 * int(self.pool_members[cand[cand >= 0]].sum())
        return int(complete.sum()), float(sum(coverage.tolist())), total

    # -- checkpoint ----------------------------------------------------------

    def identity(self) -> Dict[str, Any]:
        ctx = self.context
        return {
            "kind": self.kind, "mode": ctx.mode,
            "digest_bits": ctx.digest_bits, "num_hashes": ctx.num_hashes,
            "seed": ctx.seed,
            "scheme": None if ctx.scheme is None else repr(ctx.scheme),
            "universe": hashlib.blake2b(
                ctx.universe.tobytes(), digest_size=16
            ).hexdigest(),
        }

    def state_dict(self, rows: np.ndarray) -> Dict[str, Any]:
        """The state of ``rows`` as a dozen arrays, in canonical form.

        Row ``i`` of the capture is ``rows[i]``, its slots follow in
        row order, pool rows in slot order and each flow's parked
        digests in arrival order -- so two stores holding the same
        flows capture the same bytes whatever their allocation
        history, and ``load_state(state_dict(r))`` captures them again.
        """
        ks = self.k[rows]
        src = spans(self.base[rows], ks)
        cand = self.cand[src]
        narrowed = np.flatnonzero(cand >= 0)
        held, owner = self._parked(rows)
        # As wide as the longest flow with a parked digest, whatever
        # wider flows this store has seen and forgotten.
        width = int(ks[owner].max()) if owner.size else 0
        state = {name: narrow(getattr(self, name)[rows]) for name in (
            "k", "known", "packets_seen", "inconsistencies", "decode_errors",
        )}
        settled = self.settled[src]
        state.update(
            settled=np.packbits(settled),
            # An open slot's value is whatever its last owner left there.
            values=narrow(np.where(settled, self.values[src], 0)),
            narrowed=narrow(narrowed),
            pool=self.pool[cand[narrowed]],
            x_owner=narrow(owner), x_pid=self.x_pid[held],
            x_res=self.x_res[held], x_width=width,
            x_todo=np.packbits(self.x_todo[held][:, :width], axis=1),
            query=self.identity(),
        )
        return state

    def load_state(self, state: Dict[str, Any]) -> None:
        """Replace everything held with a :meth:`state_dict` capture
        (one :meth:`check_state` accepts); row ``i`` of the capture
        becomes row ``i``."""
        ks = state["k"].astype(np.int64)
        count = ks.shape[0]
        self._adopt_rows(count)
        for name in (
            "known", "packets_seen", "inconsistencies", "decode_errors",
        ):
            getattr(self, name)[:count] = state[name]
        self.slots = self.dead_slots = self.x_n = self.x_dead = 0
        self._open(np.arange(count), ks)
        self.settled[:self.slots] = np.unpackbits(
            state["settled"], count=self.slots
        )
        self.values[:self.slots] = state["values"]
        self._pool_free, self._pool_rows = [], 0
        self._narrow(
            state["narrowed"].astype(np.int64), np.unpackbits(
                state["pool"], axis=1, count=self._width
            ).view(bool),
        )
        self.x_todo = np.zeros((0, 0), dtype=bool)
        owner = state["x_owner"].astype(np.int64)
        self._pend(
            owner, state["x_pid"], state["x_res"], np.unpackbits(
                state["x_todo"], axis=1, count=state["x_width"]
            ).view(bool),
        )
        self.pending[:count] = np.bincount(owner, minlength=count)
