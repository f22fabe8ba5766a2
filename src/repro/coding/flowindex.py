"""The flow index of a sink: ``flow_id -> row`` as two int64 arrays.

A sink admits far more flows than it decodes (most flows of a real
trace are a packet or two long), so finding a record's flow -- or
learning it has none yet -- is the admission cost.  :class:`FlowIndex`
answers that for a whole batch in array passes: an open-addressing
table with linear probing, ``keys`` (flow ids) beside ``rows`` (-1: an
empty slot), whose size is a power of two kept at least :data:`SPARSE`
times the entries (load <= 1/4).  A flow id's home slot is the top bits of its product with
:data:`SPREAD` (2^64 / golden ratio, odd), so consecutive ids land far
apart.

Lookup and insertion come in a batch form run as rounds over the lanes
still unresolved -- a round is one gather per array, and the load bound
keeps the rounds few -- and a scalar form for record-at-a-time
callers:

* :meth:`FlowIndex.find` / :meth:`FlowIndex.find_one` -- the row of
  each flow, -1 for a flow the index does not hold;
* :meth:`FlowIndex.insert` / :meth:`FlowIndex.insert_one` -- new,
  distinct flows; a batch claims free slots by writing its rows and
  reading them back, so two lanes probing one slot cannot both win;
* :meth:`FlowIndex.remove_one` -- deletion without tombstones, the
  classic backward shift: every entry of the run behind the freed slot
  that may move back toward its home does, so no entry's probe path
  crosses an empty slot.  Flows leave a sink one at a time (an
  eviction, or a release whose row is cleared in a Python loop
  anyway), so removal has no batch form.

Which slot an entry ends up in depends on the order of operations and
is never read by anything but the index itself.
"""

from __future__ import annotations

import numpy as np

#: 2^64 / golden ratio, odd: the multiplier whose top bits spread a
#: flow id over the slots.
SPREAD = 0x9E3779B97F4A7C15
_SPREAD = np.uint64(SPREAD)
_MASK64 = (1 << 64) - 1
#: Slots per entry, at least: the table doubles before the load passes
#: 1/SPARSE.  A batch pass costs one round per probe step of its
#: longest probe, so the load is kept well under 1/2.
SPARSE = 4
#: The smallest table.
_MIN_SLOTS = 64


class FlowIndex:
    """``flow_id -> row`` for the live flows of one sink."""

    def __init__(self) -> None:
        self._reset(_MIN_SLOTS)

    def _reset(self, slots: int) -> None:
        self.keys = np.zeros(slots, dtype=np.int64)
        #: The row each slot holds; -1 marks an empty slot.
        self.rows = np.full(slots, -1, dtype=np.int64)
        self.size = 0
        self._shift = 65 - slots.bit_length()

    def __len__(self) -> int:
        return self.size

    def clear(self) -> None:
        """Forget every flow (and shrink back to the smallest table)."""
        self._reset(_MIN_SLOTS)

    def _home(self, flow_ids: np.ndarray) -> np.ndarray:
        spread = flow_ids.view(np.uint64) * _SPREAD
        return (spread >> np.uint64(self._shift)).view(np.int64)

    def _home_one(self, flow_id: int) -> int:
        return ((flow_id * SPREAD) & _MASK64) >> self._shift

    # -- lookup --------------------------------------------------------------

    def _probe(self, flow_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per flow, the slot its probe ended on and the row found
        there (-1: the flow is not held; the slot is then empty)."""
        keys, rows = self.keys, self.rows
        mask = rows.shape[0] - 1
        pos = self._home(flow_ids)
        at = rows[pos]
        found = np.where(keys[pos] == flow_ids, at, -1)
        # Still probing: an occupied slot holding another flow.
        lanes = np.flatnonzero((at >= 0) & (found < 0))
        while lanes.size:
            step = (pos[lanes] + 1) & mask
            pos[lanes] = step
            at = rows[step]
            hit = np.where(keys[step] == flow_ids[lanes], at, -1)
            found[lanes] = hit
            lanes = lanes[(at >= 0) & (hit < 0)]
        return pos, found

    def find(self, flow_ids: np.ndarray) -> np.ndarray:
        """The row of each of ``flow_ids`` (int64), -1 where none."""
        if not self.size:
            return np.full(flow_ids.shape[0], -1, dtype=np.int64)
        return self._probe(flow_ids)[1]

    def find_one(self, flow_id: int) -> int:
        """Scalar :meth:`find`."""
        flow_id = int(flow_id)
        keys, rows = self.keys, self.rows
        mask = rows.shape[0] - 1
        slot = self._home_one(flow_id)
        while True:
            row: int = rows.item(slot)
            if row < 0 or keys.item(slot) == flow_id:
                return row
            slot = (slot + 1) & mask

    # -- insertion -----------------------------------------------------------

    def _reserve(self, extra: int) -> None:
        """Grow (and rehash) so ``extra`` more entries keep the load
        at most 1/:data:`SPARSE`."""
        need = SPARSE * (self.size + extra)
        slots = self.rows.shape[0]
        if need <= slots:
            return
        held = np.flatnonzero(self.rows >= 0)
        keys, rows = self.keys[held], self.rows[held]
        while slots < need:
            slots *= 2
        self._reset(slots)
        self._place(keys, rows)

    def _place(self, flow_ids: np.ndarray, rows: np.ndarray) -> None:
        """Seat absent, distinct flows (room already reserved)."""
        table, keys = self.rows, self.keys
        mask = table.shape[0] - 1
        self.size += flow_ids.shape[0]
        pos = self._home(flow_ids)
        while flow_ids.size:
            free = table[pos] < 0
            claim = pos[free]
            table[claim] = rows[free]
            # Several lanes may claim one slot: the row read back wins.
            won = np.zeros(flow_ids.shape[0], dtype=bool)
            won[free] = table[claim] == rows[free]
            keys[pos[won]] = flow_ids[won]
            left = ~won
            flow_ids, rows = flow_ids[left], rows[left]
            pos = (pos[left] + 1) & mask

    def insert(self, flow_ids: np.ndarray, rows: np.ndarray) -> None:
        """Add distinct flows the index does not hold, ``rows[i]`` each."""
        if flow_ids.shape[0]:
            self._reserve(flow_ids.shape[0])
            self._place(flow_ids, rows)

    def insert_one(self, flow_id: int, row: int) -> None:
        """Scalar :meth:`insert`."""
        flow_id = int(flow_id)
        self._reserve(1)
        table = self.rows
        mask = table.shape[0] - 1
        slot = self._home_one(flow_id)
        while table.item(slot) >= 0:
            slot = (slot + 1) & mask
        table[slot] = row
        self.keys[slot] = flow_id
        self.size += 1

    # -- removal -------------------------------------------------------------

    def remove_one(self, flow_id: int) -> None:
        """Drop a flow the index holds: a backward-shift delete."""
        flow_id = int(flow_id)
        keys, table = self.keys, self.rows
        mask, shift = table.shape[0] - 1, self._shift
        hole = ((flow_id * SPREAD) & _MASK64) >> shift
        while True:
            if table.item(hole) < 0:
                raise KeyError(flow_id)
            if keys.item(hole) == flow_id:
                break
            hole = (hole + 1) & mask
        slot = hole
        while True:
            slot = (slot + 1) & mask
            row: int = table.item(slot)
            if row < 0:
                break
            # Moves back unless its home lies cyclically in (hole, slot].
            key: int = keys.item(slot)
            home = ((key * SPREAD) & _MASK64) >> shift
            if (slot - home) & mask >= (slot - hole) & mask:
                keys[hole] = key
                table[hole] = row
                hole = slot
        table[hole] = -1
        self.size -= 1
