"""One fixpoint peel per batch for every still-converging flow of a query.

Peeling (paper §4.2) is a monotone system: a Baseline digest narrows
one hop's candidates, an XOR digest whose acting hops are all settled
but one narrows that one through its residual, and a hop that comes
down to one candidate settles -- which strips it from further XOR
digests.  Candidate sets only shrink and a digest's residual depends
only on settled *values*, so the settled hops, the open hops'
candidates and the open digests' residuals are the least fixpoint of
the constraints whatever order they are applied in -- **provided no
constraint ever conflicts**.  :class:`FixpointPeel` computes that
fixpoint for all flows of one :class:`PathQueryContext` at once, in
array passes, and validates the proviso: a hop left without a
candidate, or a fully stripped XOR digest whose residual is not zero,
flags its flow in :attr:`FixpointPeel.conflict`.  The caller commits
the unflagged flows and replays a flagged flow's rows, from its
untouched pre-batch state, through the scalar reference decoder --
the only place the order of a flow's rows can matter (Basil's
execute / validate / re-run-the-conflicting-unit, PAPERS.md).

State lives in *slots*, one per (flow, hop): flow ``j``'s hop ``h`` is
slot ``starts[j] + h - 1``.  Hash digests keep a boolean
``slots x |universe|`` candidate table; raw digests reveal a hop's
block outright, so they keep only the value column and a conflict is
two different values for one slot.  XOR digests -- this batch's rows
and the flows' still-pending ones alike -- are rows of one constraint
list: packet id, residual, and a boolean mask of the acting hops not
yet stripped.
"""

from __future__ import annotations

import numpy as np

from repro.coding.context import PathQueryContext
from repro.coding.encoder import HASH

#: Cap on the elements of one pass's candidate table (slots x
#: universe booleans); callers chunk their flows to stay under it.
TABLE_BLOCK = 1 << 22

#: Cap on the elements of one block of the (rows x universe) hash
#: matrix a digest is matched through; bounds the temporaries to a few
#: MiB whatever the batch and universe sizes.
_MATCH_BLOCK = 1 << 18

#: :attr:`FixpointPeel.conflict` codes, and what they are called where
#: a flow's hand-over to the scalar route is counted.
EMPTY_CANDIDATES = 1
RESIDUAL_MISMATCH = 2
CONFLICT_REASONS = {
    EMPTY_CANDIDATES: "empty_candidates",
    RESIDUAL_MISMATCH: "residual_mismatch",
}


def _runs(keys: np.ndarray) -> np.ndarray:
    """First index of every run of equal values in a grouped column."""
    return np.concatenate(
        ([0], np.flatnonzero(keys[1:] != keys[:-1]) + 1)
    )


class FixpointPeel:
    """The peel of one batch over flows of path lengths ``ks``.

    Build it, load the flows' pre-batch state (:meth:`load_settled`,
    :meth:`load_candidates`, :meth:`add_xor`), :meth:`run` it on the
    batch's rows, then read the fixpoint off the public arrays; nothing
    outside the instance is written.  Slot-indexed: ``settled`` /
    ``values`` (the decoded blocks, uint64), ``narrowed`` (some digest
    of *this* batch landed on the slot), ``table`` (hash digests only:
    the candidates still standing).  Constraint-indexed, in the order
    the XOR digests were added: ``xor_flow``, ``xor_pids``,
    ``xor_residual``, ``xor_todo`` (acting hops not yet stripped) and
    ``xor_open`` (still waiting on two or more hops).  Flow-indexed:
    ``conflict`` (0, or why the flow's result must be discarded).
    """

    def __init__(self, context: PathQueryContext, ks: np.ndarray) -> None:
        self.context = context
        self.hashed = context.mode == HASH
        self.ks = ks
        self.starts = np.cumsum(ks) - ks
        slots = int(ks.sum())
        self.slot_flow = np.repeat(np.arange(ks.size), ks)
        self.settled = np.zeros(slots, dtype=bool)
        self.values = np.zeros(slots, dtype=np.uint64)
        self.narrowed = np.zeros(slots, dtype=bool)
        width = int(context.universe.size) if self.hashed else 0
        self.table = np.ones((slots, width), dtype=bool)
        self.conflict = np.zeros(ks.size, dtype=np.int8)
        reps = context.num_hashes
        self.xor_flow = np.empty(0, dtype=np.int64)
        self.xor_pids = np.empty(0, dtype=np.uint64)
        self.xor_residual = np.empty((0, reps), dtype=np.uint64)
        self.xor_todo = np.empty((0, int(ks.max())), dtype=bool)
        self.xor_open = np.empty(0, dtype=bool)

    # -- pre-batch state -----------------------------------------------------

    def load_settled(self, slots: np.ndarray, blocks: np.ndarray) -> None:
        """Hops decoded before this batch, with their blocks (hash
        digests: int64 universe members; raw: uint64 digests)."""
        self.settled[slots] = True
        self.values[slots] = blocks.astype(np.uint64)
        if self.hashed:
            # A settled hop is the one-candidate case of the table.
            self.load_candidates(
                slots, np.ones(slots.shape[0], dtype=np.int64), blocks
            )

    def load_candidates(
        self, slots: np.ndarray, sizes: np.ndarray, members: np.ndarray
    ) -> None:
        """Candidate sets narrowed before this batch (hash digests).

        ``members`` concatenates the slots' surviving universe values,
        ``sizes[i]`` of them for ``slots[i]``.  Slots not loaded keep
        the whole universe.
        """
        self.table[slots] = False
        self.table[
            np.repeat(slots, sizes),
            np.searchsorted(self.context.universe, members),
        ] = True

    def add_xor(
        self,
        flows: np.ndarray,
        pids: np.ndarray,
        residuals: np.ndarray,
        todo: np.ndarray,
    ) -> None:
        """Append XOR digests: owner flow, packet id, residual and the
        ``(n, <= max k)`` mask of acting hops still folded into it."""
        mask = np.zeros((todo.shape[0], self.xor_todo.shape[1]), dtype=bool)
        mask[:, :todo.shape[1]] = todo
        self.xor_flow = np.concatenate((self.xor_flow, flows))
        self.xor_pids = np.concatenate((self.xor_pids, pids))
        self.xor_residual = np.concatenate((self.xor_residual, residuals))
        self.xor_todo = np.concatenate((self.xor_todo, mask))
        self.xor_open = np.concatenate(
            (self.xor_open, np.ones(flows.shape[0], dtype=bool))
        )

    # -- the pass ------------------------------------------------------------

    def run(self, pids: np.ndarray, reps: np.ndarray, owner: np.ndarray) -> None:
        """Fold the batch's rows in and iterate to the fixpoint.

        ``pids`` / ``reps`` are the uint64 packet-id column and the
        ``(n, num_hashes)`` unpacked digest matrix, ``owner[i]`` the
        flow of row ``i``.  One decision replay for all rows
        (:meth:`PathQueryContext.replay`), one landing of all Baseline
        rows on their carrier slots, then rounds: strip every settled
        hop out of every open XOR digest that contains it, land the
        digests that are down to one hop on that hop, check the ones
        down to none -- until a round settles nothing (at most ``max
        k`` rounds: each one but the last settles a hop of some flow's
        longest chain).
        """
        carriers, acting = self.context.replay(pids, self.ks[owner])
        xor = np.flatnonzero(carriers == 0)
        self.add_xor(owner[xor], pids[xor], reps[xor], acting[xor])
        base = np.flatnonzero(carriers)
        self._land(
            self.starts[owner[base]] + carriers[base] - 1,
            pids[base], reps[base],
        )
        first = self.starts[self.xor_flow]
        hops = np.arange(self.xor_todo.shape[1])
        top = self.settled.shape[0] - 1
        while True:
            live = np.flatnonzero(self.xor_open)
            # Columns past a flow's own length name no slot of its
            # own; their ``todo`` bit is never set, so the clamp only
            # keeps the gather in bounds.
            lanes = np.minimum(first[live][:, None] + hops, top)
            strip = self.xor_todo[live] & self.settled[lanes]
            row, hop = np.nonzero(strip)
            if row.size:
                self._strip(live[row], hop, self.values[lanes[row, hop]])
            left = self.xor_todo[live].sum(axis=1)
            done = live[left == 0]
            self._flag(
                self.xor_flow[done[self.xor_residual[done].any(axis=1)]],
                RESIDUAL_MISMATCH,
            )
            last = live[left == 1]
            self.xor_open[done] = False
            self.xor_open[last] = False
            if not last.size or not self._land(
                first[last] + self.xor_todo[last].argmax(axis=1),
                self.xor_pids[last], self.xor_residual[last],
            ):
                return

    def _strip(self, rows: np.ndarray, hops: np.ndarray, values: np.ndarray) -> None:
        """XOR settled hops' contributions out of constraint residuals.

        ``(rows[i], hops[i])`` names one acting hop of one constraint
        and ``values[i]`` its settled block; pairs arrive grouped by
        constraint, so one ``reduceat`` folds each constraint's
        contributions before they are xor-ed into its residual.
        """
        run0 = _runs(rows)
        target = rows[run0]
        if self.hashed:
            # Any codec serves: the value hashes do not depend on k.
            h = self.context.codec_for(int(self.ks[0])).h
            bits = self.context.digest_bits
            pids = self.xor_pids[rows]
            for rep in range(self.context.num_hashes):
                self.xor_residual[target, rep] ^= np.bitwise_xor.reduceat(
                    h[rep].bits_zip(bits, pids, values), run0
                )
        else:
            self.xor_residual[target, 0] ^= np.bitwise_xor.reduceat(values, run0)
        self.xor_todo[rows, hops] = False

    def _land(self, slots: np.ndarray, pids: np.ndarray, needed: np.ndarray) -> bool:
        """Apply digests that land whole on one hop each; did any settle?

        ``needed[i]`` is what slot ``slots[i]``'s block must hash to
        under packet ``pids[i]`` (hash digests) or must equal (raw).
        """
        if not slots.size:
            return False
        order = np.argsort(slots, kind="stable")
        slots = slots[order]
        needed = needed[order]
        run0 = _runs(slots)
        touched = slots[run0]
        self.narrowed[touched] = True
        if self.hashed:
            self._match(slots, run0, pids[order], needed)
            left = self.table[touched].sum(axis=1)
            self._flag(self.slot_flow[touched[left == 0]], EMPTY_CANDIDATES)
            fresh = touched[(left == 1) & ~self.settled[touched]]
            self.values[fresh] = self.context.universe[
                self.table[fresh].argmax(axis=1)
            ].astype(np.uint64)
        else:
            said = needed[run0, 0]
            sizes = np.diff(np.append(run0, slots.size))
            clash = ~np.logical_and.reduceat(
                needed[:, 0] == np.repeat(said, sizes), run0
            )
            known = self.settled[touched]
            clash |= known & (self.values[touched] != said)
            self._flag(self.slot_flow[touched[clash]], EMPTY_CANDIDATES)
            fresh = touched[~known]
            self.values[fresh] = said[~known]
        self.settled[fresh] = True
        return bool(fresh.size)

    def _match(
        self, slots: np.ndarray, first: np.ndarray, pids: np.ndarray,
        needed: np.ndarray,
    ) -> None:
        """AND each digest's universe match into its slot's table row.

        Rows arrive grouped by slot, ``first`` the start of each
        slot's rows.  A slot's first digest is matched against the
        whole universe; each later one only against what is left
        standing: nothing (no change), one candidate (one hash per
        rep, and a mismatch empties the row) or more (the whole
        universe again).  AND is order-free, so the table ends the
        same as matching every digest in full -- which a run of
        batches, with many digests per slot, would otherwise pay.
        """
        if first.size == slots.size:
            self._match_all(slots, pids, needed)
            return
        self._match_all(slots[first], pids[first], needed[first])
        later = np.ones(slots.shape[0], dtype=bool)
        later[first] = False
        later_at = np.flatnonzero(later)
        slots, pids, needed = slots[later_at], pids[later_at], needed[later_at]
        left = self.table[slots].sum(axis=1)
        one = np.flatnonzero(left == 1)
        if one.size:
            context = self.context
            h = context.codec_for(int(self.ks[0])).h
            member = context.universe[self.table[slots[one]].argmax(axis=1)]
            bad = np.zeros(one.shape[0], dtype=bool)
            for rep in range(context.num_hashes):
                bad |= h[rep].bits_zip(
                    context.digest_bits, pids[one], member
                ) != needed[one, rep]
            self.table[slots[one[bad]]] = False
        many = np.flatnonzero(left > 1)
        if many.size:
            self._match_all(slots[many], pids[many], needed[many])

    def _match_all(
        self, slots: np.ndarray, pids: np.ndarray, needed: np.ndarray
    ) -> None:
        """AND each digest's whole-universe match into its slot's row.

        Row-blocked so the ``rows x |universe|`` hash matrix stays
        bounded; rows arrive grouped by slot, so one ``reduceat`` per
        block folds the digests that share a slot (a slot straddling
        two blocks is simply AND-ed twice).
        """
        context = self.context
        universe = context.universe
        h = context.codec_for(int(self.ks[0])).h
        block = max(1, _MATCH_BLOCK // int(universe.size))
        for lo in range(0, slots.shape[0], block):
            hi = lo + block
            ok = np.ones((min(hi, slots.shape[0]) - lo, universe.size), dtype=bool)
            for rep in range(context.num_hashes):
                hashed = h[rep].bits_outer(
                    context.digest_bits, pids[lo:hi], universe
                )
                ok &= hashed == needed[lo:hi, rep][:, None]
            run0 = _runs(slots[lo:hi])
            if run0.size < ok.shape[0]:
                ok = np.logical_and.reduceat(ok, run0, axis=0)
            self.table[slots[lo:hi][run0]] &= ok

    def _flag(self, flows: np.ndarray, code: int) -> None:
        """Mark flows conflicting (a flow keeps its first reason)."""
        self.conflict[flows[self.conflict[flows] == 0]] = code
