"""Network impairment engine: columnar loss / reorder / duplication.

The paper's headline robustness property is that PINT's digests
survive an unreliable network: every packet re-selects its layer,
carrier and acting set by a global hash of its own id, so *any subset*
of delivered packets still decodes and accuracy degrades gracefully
with loss (§4).  This module makes that claim testable end-to-end: it
transforms a perfect, in-order packet stream into the stream an
unreliable network would actually deliver, before the collector ever
sees it.

The unit of work is a **delivery schedule**: an int64 array of row
indices into the original trace, in delivery order.  The identity
schedule ``arange(n)`` is the perfect network; impairment models
transform schedules --

* dropping entries (loss),
* repeating entries (duplication -- the copy keeps its packet id, so
  it hashes identically everywhere, exactly like a real duplicate),
* permuting entries (reordering).

Models are **seeded** (two runs with the same models produce
bit-identical schedules), **composable** (each consumes the previous
model's output; order matters and is respected), and **columnar** (no
per-record Python loops -- masks, argsorts and run-length expansions
only, the same vectorised discipline as
:class:`~repro.replay.dataplane.TraceDataplane`).

Concrete models:

* :class:`IIDLoss` -- every delivery dropped independently;
* :class:`GilbertElliott` -- two-state bursty loss (the classic
  good/bad Markov channel), run lengths drawn geometrically in bulk;
* :class:`Reorder` -- bounded displacement: a delivery may be
  overtaken only by deliveries at most ``depth`` positions behind it,
  which bounds per-flow reordering distance by ``depth`` as well;
* :class:`Duplicate` -- independent duplication, the copy landing
  within ``lag`` positions of the original.

Entry points: :func:`plan_delivery` composes models into a schedule
and :func:`summarize_delivery` scores one against the perfect stream.
:class:`~repro.replay.driver.ReplayDriver` applies the schedule
between encode and ingest (``impairments=[...]``), so the report
counts every drop and duplicate against the offered stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.grouping import distinct, stable_order

#: Domain-separation constant folded into every model's RNG seed so an
#: impairment stream can never collide with a workload generator that
#: happens to share the user-facing seed integer.
_SEED_DOMAIN = 0x1A97


class ImpairmentModel:
    """Base class: one seeded, composable delivery-schedule transform.

    Subclasses implement :meth:`apply`, which maps a schedule (row
    indices in delivery order) to the schedule their impairment would
    deliver.  ``stage`` is the model's position in the composed
    pipeline; it salts the RNG so two identically-seeded models at
    different stages draw independent randomness while the pipeline as
    a whole stays bit-reproducible.
    """

    #: Short kind tag used by :meth:`describe` (subclasses override).
    name = "impairment"

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    def _rng(self, stage: int) -> np.random.Generator:
        """The model's deterministic RNG for one pipeline stage."""
        return np.random.default_rng((_SEED_DOMAIN, self.seed, int(stage)))

    def apply(
        self,
        rows: np.ndarray,
        flow_ids: Optional[np.ndarray],
        stage: int,
    ) -> np.ndarray:
        """Transform a delivery schedule (indices in delivery order).

        ``flow_ids`` is the *original* full flow column (models index
        it through ``rows`` when they need per-flow structure); it may
        be None for flow-agnostic pipelines.
        """
        raise NotImplementedError

    def describe(self) -> str:
        """One-line parameterisation, carried into reports."""
        return f"{self.name}(seed={self.seed})"

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return self.describe()


class IIDLoss(ImpairmentModel):
    """Independent per-delivery loss with probability ``rate``."""

    name = "iid-loss"

    def __init__(self, rate: float, seed: int = 0) -> None:
        super().__init__(seed)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {rate}")
        self.rate = float(rate)

    def apply(self, rows, flow_ids, stage):
        if self.rate == 0.0:
            return rows
        rng = self._rng(stage)
        keep = rng.random(rows.shape[0]) >= self.rate
        return rows[keep]

    def describe(self) -> str:
        return f"{self.name}(rate={self.rate}, seed={self.seed})"


class GilbertElliott(ImpairmentModel):
    """Two-state bursty loss: the Gilbert-Elliott channel.

    The channel alternates Good and Bad states with geometric run
    lengths -- ``p_bad`` is the per-delivery probability of entering
    Bad from Good, ``p_good`` of recovering -- and drops each delivery
    with the state's loss probability (``loss_good`` is 0 and
    ``loss_bad`` 1 in the classic Gilbert channel).  The state
    sequence starts Good and is generated by bulk geometric draws and
    one run-length expansion, not a per-record chain walk.
    """

    name = "gilbert-elliott"

    def __init__(
        self,
        p_bad: float,
        p_good: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
        seed: int = 0,
    ) -> None:
        super().__init__(seed)
        if not 0.0 <= p_bad <= 1.0:
            raise ValueError(f"p_bad must be in [0, 1], got {p_bad}")
        if not 0.0 < p_good <= 1.0:
            raise ValueError(f"p_good must be in (0, 1], got {p_good}")
        if not 0.0 <= loss_good <= 1.0 or not 0.0 <= loss_bad <= 1.0:
            raise ValueError("loss probabilities must be in [0, 1]")
        self.p_bad = float(p_bad)
        self.p_good = float(p_good)
        self.loss_good = float(loss_good)
        self.loss_bad = float(loss_bad)

    def _bad_states(self, m: int, rng: np.random.Generator) -> np.ndarray:
        """Boolean Bad-state column of length ``m`` (True = Bad)."""
        # Expected Good+Bad cycle length; draw ~that many cycles per
        # chunk so one pass usually covers the stream.
        cycle = 1.0 / self.p_bad + 1.0 / self.p_good
        chunks: List[np.ndarray] = []
        covered = 0
        while covered < m:
            need = max(8, int((m - covered) / cycle) + 8)
            good_runs = rng.geometric(self.p_bad, size=need)
            bad_runs = rng.geometric(self.p_good, size=need)
            lens = np.empty(2 * need, dtype=np.int64)
            lens[0::2] = good_runs
            lens[1::2] = bad_runs
            # Clip each run to the chunk's remaining need (+1 so a
            # clipped run still spills past the window): any run
            # starting inside the window then covers its remainder
            # exactly as the unclipped run would, while a tiny p_bad
            # (geometric draws of ~1/p) can no longer materialise
            # gigabytes of states for a short stream.
            lens = np.minimum(lens, m - covered + 1)
            states = np.zeros(2 * need, dtype=bool)
            states[1::2] = True
            chunk = np.repeat(states, lens)
            chunks.append(chunk)
            covered += int(chunk.shape[0])
        return np.concatenate(chunks)[:m]

    def apply(self, rows, flow_ids, stage):
        if self.p_bad == 0.0 and self.loss_good == 0.0:
            return rows
        rng = self._rng(stage)
        m = rows.shape[0]
        if m == 0:
            return rows
        if self.p_bad == 0.0:
            drop_p = np.full(m, self.loss_good)
        else:
            bad = self._bad_states(m, rng)
            drop_p = np.where(bad, self.loss_bad, self.loss_good)
        keep = rng.random(m) >= drop_p
        return rows[keep]

    def describe(self) -> str:
        return (
            f"{self.name}(p_bad={self.p_bad}, p_good={self.p_good}, "
            f"loss_good={self.loss_good}, loss_bad={self.loss_bad}, "
            f"seed={self.seed})"
        )


class Reorder(ImpairmentModel):
    """Bounded random reordering via jittered sort keys.

    Each delivery's sort key is its position plus, with probability
    ``prob``, a uniform jitter in ``[0, depth)``; a stable argsort of
    the keys is the reordered schedule.  A delivery at position ``j``
    can only land before one at position ``i < j`` when ``j - i <
    depth``, so displacement is bounded by ``depth`` positions in the
    stream -- and a fortiori *per flow*: two same-flow deliveries more
    than ``depth`` apart can never invert, which is the bounded
    per-flow reordering the sink's decoders are scored against
    (property-tested).  ``depth=0`` is the identity.
    """

    name = "reorder"

    def __init__(self, depth: int, prob: float = 1.0, seed: int = 0) -> None:
        super().__init__(seed)
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth}")
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"prob must be in [0, 1], got {prob}")
        self.depth = int(depth)
        self.prob = float(prob)

    def apply(self, rows, flow_ids, stage):
        if self.depth == 0 or self.prob == 0.0:
            return rows
        rng = self._rng(stage)
        m = rows.shape[0]
        if m < 2:
            return rows
        jitter = rng.uniform(0.0, float(self.depth), size=m)
        if self.prob < 1.0:
            jitter *= rng.random(m) < self.prob
        keys = np.arange(m, dtype=np.float64) + jitter
        # Sorts differ only in how they order equal keys: the default
        # one is taken unless the sorted keys show a tie.
        order = np.argsort(keys)
        ranked = keys[order]
        if (ranked[1:] == ranked[:-1]).any():
            order = np.argsort(keys, kind="stable")
        return rows[order]

    def describe(self) -> str:
        return (
            f"{self.name}(depth={self.depth}, prob={self.prob}, "
            f"seed={self.seed})"
        )


class Duplicate(ImpairmentModel):
    """Independent duplication; copies land within ``lag`` positions.

    Each delivery is duplicated with probability ``prob``.  The copy
    keeps its row index -- and therefore its packet id -- so it hashes
    identically everywhere downstream, exactly like a retransmitted or
    switch-duplicated packet; it is inserted at a uniform offset in
    ``(0, lag]`` positions after the original (fractional copy keys
    merged into the originals' integer keys, originals first on a tie).
    """

    name = "duplicate"

    def __init__(self, prob: float, lag: int = 16, seed: int = 0) -> None:
        super().__init__(seed)
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"prob must be in [0, 1], got {prob}")
        if lag < 1:
            raise ValueError(f"lag must be >= 1, got {lag}")
        self.prob = float(prob)
        self.lag = int(lag)

    def apply(self, rows, flow_ids, stage):
        if self.prob == 0.0:
            return rows
        rng = self._rng(stage)
        m = rows.shape[0]
        dup = rng.random(m) < self.prob
        idx = np.flatnonzero(dup)
        if idx.size == 0:
            return rows
        # Copies get fractional keys strictly between their original's
        # integer key and original + lag, so a copy never precedes its
        # original and never outruns the lag bound.
        copy_keys = idx + rng.uniform(0.5, self.lag + 0.5, size=idx.size)
        # The originals are in key order already: each sorted copy goes
        # after every original whose key is not above its own.
        order = np.argsort(copy_keys, kind="stable")
        at = np.searchsorted(np.arange(m), copy_keys[order], side="right")
        return np.insert(rows, at, rows[idx[order]])

    def describe(self) -> str:
        return (
            f"{self.name}(prob={self.prob}, lag={self.lag}, "
            f"seed={self.seed})"
        )


# -- composition and scoring ----------------------------------------------


def plan_delivery(
    models: Sequence[ImpairmentModel],
    n: int,
    flow_ids: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Compose ``models`` over the identity schedule of ``n`` records.

    Returns the delivered row indices, in delivery order.  Models are
    applied left to right -- composition order is semantic (loss before
    duplication cannot duplicate a dropped packet; the reverse can
    deliver one copy of a packet whose other copy was lost) -- and the
    whole composition is bit-deterministic in the models' seeds.
    """
    rows = np.arange(n, dtype=np.int64)
    fids = np.asarray(flow_ids) if flow_ids is not None else None
    for stage, model in enumerate(models):
        rows = np.asarray(model.apply(rows, fids, stage), dtype=np.int64)
    return rows


@dataclass(frozen=True)
class DeliverySummary:
    """What one schedule did to the perfect stream, in counts."""

    offered: int
    #: Deliveries (duplicates included) -- the records the sink ingests.
    delivered: int
    #: Distinct original records delivered at least once.
    unique_delivered: int
    dropped: int
    duplicated: int
    #: Deliveries arriving after a later-sent record of the same flow.
    reordered: int

    @property
    def delivery_rate(self) -> float:
        """Fraction of offered records delivered at least once.

        NaN on a zero-record stream; JSON writers route it through
        :func:`repro.jsonutil.jsonable`, which serialises it null.
        """
        if self.offered == 0:
            return float("nan")
        return self.unique_delivered / self.offered


def _count_reordered(rows: np.ndarray, fids: np.ndarray) -> int:
    """Deliveries whose original index trails an already-delivered
    later record of the same flow (vectorised per-flow running max).

    Flows are grouped with one linear-time stable sort
    (:func:`~repro.grouping.stable_order`: delivery order is kept
    inside each group, and groups come in ascending flow order), so a
    count of the flow ids (:func:`~repro.grouping.distinct`) gives
    every group's size without gathering the ids in that order.  The
    per-group running max runs as a single ``maximum.accumulate`` over
    group-offset values, the contiguous-groups trick that avoids both
    a per-flow loop and a segmented scan.
    """
    m = rows.shape[0]
    if m < 2:
        return 0
    fids = np.asarray(fids, dtype=np.int64)
    order = stable_order(fids)
    # The same unsigned offsets stable_order ranks by.
    offset = (fids - fids.min()).view(np.uint64)
    sizes = distinct(offset, int(offset.max()) + 1)[1]
    # Offset each group into its own disjoint value range so one global
    # cummax cannot leak across the boundary.
    span = np.int64(m) + np.int64(rows.max()) + 2
    shifted = rows[order] + np.repeat(
        np.arange(sizes.shape[0], dtype=np.int64) * span, sizes
    )
    cummax = np.maximum.accumulate(shifted)
    # A delivery is reordered when a *previous* same-flow delivery had
    # a larger original index: compare against the exclusive cummax.
    # A group's first delivery is never counted: it is above every
    # value of the groups before it.
    return int(np.count_nonzero(shifted[1:] < cummax[:-1]))


def delivered_mask(n: int, rows: np.ndarray) -> np.ndarray:
    """Boolean ``(n,)`` column: which offered records arrived at all.

    A delivery schedule holds row indices in ``[0, n)``, so the
    delivered *set* is one ``bincount`` -- O(n), where a generic
    ``np.unique`` over the near-sorted million-row schedule costs two
    orders of magnitude more.  ``np.flatnonzero`` of the mask is the
    sorted set ``np.unique`` would return.
    """
    return np.bincount(rows, minlength=n) > 0


def summarize_delivery(
    n: int,
    rows: np.ndarray,
    flow_ids: Optional[np.ndarray] = None,
    delivered: Optional[np.ndarray] = None,
) -> DeliverySummary:
    """Score a delivery schedule against the perfect ``arange(n)``.

    ``delivered`` is ``delivered_mask(n, rows)`` for a caller that
    holds it already; it is computed when omitted.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if delivered is None:
        delivered = delivered_mask(n, rows)
    unique = int(np.count_nonzero(delivered))
    if flow_ids is not None and rows.size:
        fids = np.asarray(flow_ids)[rows]
    else:
        fids = np.zeros(rows.shape[0], dtype=np.int64)
    return DeliverySummary(
        offered=int(n),
        delivered=int(rows.shape[0]),
        unique_delivered=unique,
        dropped=int(n) - unique,
        duplicated=int(rows.shape[0]) - unique,
        reordered=_count_reordered(rows, fids),
    )


def describe_models(models: Sequence[ImpairmentModel]) -> Tuple[str, ...]:
    """The pipeline's one-line descriptions, in application order."""
    return tuple(m.describe() for m in models)
