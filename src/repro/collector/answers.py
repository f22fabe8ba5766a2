"""Answers as columns: what a sink hands back when it is asked.

A PINT sink folds digests (the Recording Module) in order to be
*queried* (the Inference Module, paper sections 3-4).  The answer to
"what does this sink know" is a handful of numbers per flow, so it
crosses every boundary -- worker to parent, sink to scorer, service to
client -- as an :class:`AnswerTable`: a few fixed-width columns and one
CSR pair, never the decoders that produced them.  Shipping *state*
(whole consumers) where *answers* were wanted is what made the bulk
read the largest stage of the multi-process replay; BASEL's lesson
(PAPERS.md) is to specify what crosses a transfer point.

One table per sink and query kind:

``path`` (:meth:`PathDigestConsumer.answer_table`)
    ``k`` (path length; 0 before the first record or right after a
    reset), ``known`` (hops with a reportable value),
    ``decode_errors``, ``packets_seen``, ``inconsistencies``; the CSR
    row is the decoded path of a complete flow and empty otherwise.
``congestion`` (:meth:`CongestionDigestConsumer.answer_table`)
    ``max_code``, ``last_code``, ``records`` and ``bottleneck`` (the
    decoded ``max_code``, NaN before the first record); no CSR part.
any other kind (:meth:`DigestConsumer.answer_table`)
    ``complete``, ``coverage`` and an object column ``result`` holding
    each consumer's ``result()`` -- correct for every consumer, fast
    for none.

``flow_id`` is strictly ascending, so the tables a serial, a parallel
and a checkpoint-restored sink build from one input are *equal arrays*
(the Basil-style check of PAPERS.md: every concurrent execution equals
the serial reference, here ``np.array_equal`` column by column) and a
caller aligns its own flow list with one ``searchsorted``
(:meth:`AnswerTable.rows_of`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable

import numpy as np

#: Kinds whose column layout :meth:`AnswerTable.answer` reads directly.
PATH = "path"
CONGESTION = "congestion"


@dataclass(frozen=True, eq=False)
class AnswerTable:
    """Per-flow answers of one sink, one row per live flow.

    Compare two tables array by array (``np.array_equal``); the class
    defines no ``==`` of its own.
    """

    kind: str
    #: int64, strictly ascending.
    flow_id: np.ndarray
    #: Fixed-width columns, one value per row (layout per ``kind``).
    columns: Dict[str, np.ndarray]
    #: CSR over ``values``: row ``i`` owns ``values[offsets[i]:offsets[i+1]]``.
    offsets: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return int(self.flow_id.shape[0])

    @classmethod
    def fixed_width(
        cls, kind: str, flow_id: np.ndarray, columns: Dict[str, np.ndarray]
    ) -> "AnswerTable":
        """A table whose answers are all in ``columns`` (every CSR row empty)."""
        return cls(
            kind, flow_id, columns,
            np.zeros(flow_id.shape[0] + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )

    @classmethod
    def empty(cls) -> "AnswerTable":
        """The zero-row table (an idle sink has no kind to report yet)."""
        return cls.fixed_width("empty", np.zeros(0, dtype=np.int64), {})

    def rows_of(self, flow_ids: Any) -> np.ndarray:
        """Row of each flow id, in input order; -1 where not live."""
        ids = np.asarray(flow_ids, dtype=np.int64)
        if not len(self):
            return np.full(ids.shape, -1, dtype=np.int64)
        pos = np.minimum(np.searchsorted(self.flow_id, ids), len(self) - 1)
        return np.where(self.flow_id[pos] == ids, pos, -1)

    def row_lengths(self) -> np.ndarray:
        """Width of every row's CSR part."""
        return np.diff(self.offsets)

    @classmethod
    def concat(cls, tables: Iterable["AnswerTable"]) -> "AnswerTable":
        """Merge tables over disjoint flow sets into one ascending table.

        How the per-worker replies become the sink's answer; zero-row
        tables (a worker that owns no live flow) are skipped.
        """
        parts = [t for t in tables if len(t)]
        if not parts:
            return cls.empty()
        first = parts[0]
        if len(parts) == 1:
            return first
        for t in parts[1:]:
            if t.kind != first.kind or t.columns.keys() != first.columns.keys():
                raise ValueError(
                    f"cannot merge a {t.kind!r} table into a "
                    f"{first.kind!r} one: a sink answers one query kind"
                )
        flow_id = np.concatenate([t.flow_id for t in parts])
        order = np.argsort(flow_id, kind="stable")
        flow_id = flow_id[order]
        if np.any(flow_id[1:] == flow_id[:-1]):
            raise ValueError("tables overlap: a flow id appears twice")
        columns = {
            name: np.concatenate([t.columns[name] for t in parts])[order]
            for name in first.columns
        }
        # Each row's slice of the concatenated values moves as a block:
        # element j of new row i sits at old_start[i] + j.
        bases = np.cumsum([0] + [t.values.shape[0] for t in parts[:-1]])
        old_start = np.concatenate(
            [t.offsets[:-1] + base for t, base in zip(parts, bases)]
        )[order]
        lengths = np.concatenate([t.row_lengths() for t in parts])[order]
        offsets = np.zeros(flow_id.shape[0] + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        take = np.repeat(old_start - offsets[:-1], lengths) + np.arange(
            offsets[-1], dtype=np.int64
        )
        values = np.concatenate([t.values for t in parts])[take]
        return cls(first.kind, flow_id, columns, offsets, values)

    def answer(self, row: int) -> Dict[str, Any]:
        """``{complete, coverage, result}`` of one row, as plain Python.

        What the query port serialises; the same three things a
        consumer's ``is_complete`` / ``coverage`` / ``result()`` say.
        """
        cols = self.columns
        if self.kind == PATH:
            lo, hi = int(self.offsets[row]), int(self.offsets[row + 1])
            k = int(cols["k"][row])
            return {
                "complete": hi > lo,
                "coverage": int(cols["known"][row]) / k if k else 0.0,
                "result": self.values[lo:hi].tolist() if hi > lo else None,
            }
        if self.kind == CONGESTION:
            seen = int(cols["records"][row]) > 0
            return {
                "complete": seen,
                "coverage": 1.0 if seen else 0.0,
                "result": (
                    float(cols["bottleneck"][row])
                    if int(cols["max_code"][row]) >= 0 else None
                ),
            }
        return {
            "complete": bool(cols["complete"][row]),
            "coverage": float(cols["coverage"][row]),
            "result": cols["result"][row],
        }
