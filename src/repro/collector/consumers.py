"""Per-flow digest consumers: the collector-side Recording/Inference glue.

A :class:`DigestConsumer` owns the decoding state for one flow under one
query and is fed digests incrementally as the collector ingests packets.
Each concrete consumer wraps an existing decoder stack so the collector
adds the *service* layer (sharding, eviction, batching) without forking
any decoding logic:

* :class:`PathDigestConsumer` -- incremental path decoding via
  :class:`repro.coding.HashDecoder` (the §4.2 peeling decoder);
* :class:`LatencyDigestConsumer` -- per-hop latency samples attributed by
  the reservoir-carrier hash, stored in :class:`repro.sketch.KLLSketch`;
* :class:`CongestionDigestConsumer` -- running bottleneck (max) link
  utilisation via :class:`repro.apps.congestion.UtilizationCodec`.

Consumers expose ``consume_batch`` so shards can hand over a whole
per-flow column slice at once.  The default implementation loops over
:meth:`consume` (the scalar reference path) -- a latency flow's batch
takes exactly that loop, so batch size cannot change its state; the
path consumer overrides it with a columnar one.

A sink's path flows (raw and hash digests) and congestion flows do not
live in consumer objects at all: their state is a row of the one
column store their factory owns (:class:`repro.coding.store.
PathStateStore`, :class:`CongestionStore`), the sink's shards hold
nothing per flow but that row's number, and a three-slot *handle*
(:class:`PathFlowHandle`, :class:`CongestionFlowHandle`) answering the
consumer API off the columns is built on every read of the flow.
Sinks whose flows *are* objects keep them in a :class:`ConsumerRows`,
so every shard deals in rows (:func:`sink_store`).  A batch folds into the store in array passes
(:func:`fold_rows`); the object consumers below stay the scalar
specification, the form a handle takes when it is pickled or fed one
record, and what a consumer built directly is.
"""

from __future__ import annotations

import sys
from functools import partial
from itertools import chain
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.congestion import UtilizationCodec
from repro.apps.latency import HopLatencyStore, LatencyCompressor
from repro.coding import (
    FRAGMENT,
    HASH,
    RAW,
    CodingScheme,
    FragmentDecoder,
    HashDecoder,
    PathQueryContext,
    RawDecoder,
    multilayer_scheme,
    unpack_reps,
    unpack_reps_array,
)
from repro.coding.store import (
    OBJECT_BYTES,
    PathStateStore,
    RowStore,
    spans,
)
from repro.collector.answers import CONGESTION, PATH, AnswerTable
from repro.exceptions import DecodingError
from repro.grouping import distinct
from repro.hashing import GlobalHash, reservoir_carrier

#: A factory a sink calls to build one consumer per live flow.
ConsumerFactory = Callable[[int], "DigestConsumer"]


class DigestConsumer:
    """Base class: per-flow decoding state fed one digest at a time."""

    __slots__ = ()

    #: Human-readable query kind, surfaced in snapshots.
    kind = "abstract"

    #: Per-sink state the flow shares with its siblings, or None when
    #: it decodes alone.
    context = None

    #: The column store holding this flow's state, or None when the
    #: consumer object holds it itself (see :class:`RowHandle`).
    store = None

    def consume(self, pid: int, hop_count: int, digest: int) -> None:
        """Fold one packet's digest into the flow state."""
        raise NotImplementedError

    def consume_batch(
        self,
        pids: Sequence[int],
        hop_counts: Sequence[int],
        digests: Sequence[int],
    ) -> None:
        """Fold a column slice of records (default: scalar loop)."""
        for pid, hops, digest in zip(pids, hop_counts, digests):
            self.consume(int(pid), int(hops), int(digest))

    @property
    def is_complete(self) -> bool:
        """True when the flow's query has a decodable answer."""
        return False

    @property
    def coverage(self) -> float:
        """How much of the flow's answer is known, in [0, 1].

        The decode-under-loss metric: impaired streams leave flows
        partially decoded, and snapshots/reports aggregate this per
        flow (see ``Snapshot.mean_coverage``).  Consumers whose answer
        is all-or-nothing report 1.0 once complete.
        """
        return 1.0 if self.is_complete else 0.0

    def result(self):
        """The query answer so far (None while undecodable)."""
        return None

    def state_bytes(self) -> int:
        """Rough resident-state estimate (snapshot memory accounting)."""
        return sys.getsizeof(self)

    @classmethod
    def answer_table(
        cls, flow_ids: np.ndarray, consumers: Sequence["DigestConsumer"]
    ) -> AnswerTable:
        """The answers of ``consumers`` (flows ``flow_ids``, ascending).

        The generic layout of :mod:`repro.collector.answers`: what every
        consumer can say about itself, ``result()`` kept as a Python
        object.  Kinds with a fixed-width answer override this with
        real columns.  Reads only -- building a table changes no state.
        """
        results = np.empty(len(consumers), dtype=object)
        for i, consumer in enumerate(consumers):
            results[i] = consumer.result()
        columns = {
            "complete": np.asarray(
                [c.is_complete for c in consumers], dtype=bool
            ),
            "coverage": np.asarray(
                [c.coverage for c in consumers], dtype=np.float64
            ),
            "result": results,
        }
        return AnswerTable.fixed_width(cls.kind, flow_ids, columns)


class PathDigestConsumer(DigestConsumer):
    """Incremental per-flow path decoding (paper §4.2 peeling).

    The decoder is built lazily from the first record's ``hop_count``
    (the sink learns the path length from the packet itself), so one
    factory serves flows of any length: by default the coding scheme
    is likewise derived per flow from that hop count, matching
    encoders tuned to each flow's actual path.  Pass ``d`` to pin the
    scheme to a typical diameter (the :class:`PathTracer` harness
    convention) or ``scheme`` to pin it outright -- the scheme must
    match the flow's encoder or nothing decodes.  ``mode`` selects the
    digest representation the flow's encoders used: ``"hash"`` (the
    default) peels with a :class:`HashDecoder` over ``universe``,
    ``"raw"`` with a :class:`RawDecoder`, ``"fragment"`` with a
    :class:`FragmentDecoder` whose fragment count derives from
    ``value_bits`` (universe-wide width by default -- pass the same
    value the encoders fragmented against).  A digest that contradicts
    the candidate sets -- a reroute mid-flow, or state that was
    evicted and re-created against a stale path -- raises
    :class:`DecodingError` inside the decoder; the consumer counts it
    and resets, so the flow re-converges on the new path instead of
    wedging the shard.

    Decode-under-loss contract: gaps in the packet stream only slow
    convergence (every packet re-draws its role by hash) and
    duplicates only re-confirm, so at any point the consumer exposes a
    well-defined partial answer -- :attr:`coverage` (fraction of hops
    known) and :meth:`partial_path` (known hops, None elsewhere).
    """

    kind = PATH

    def __init__(
        self,
        universe: Sequence[int],
        digest_bits: int = 8,
        num_hashes: int = 1,
        seed: int = 0,
        scheme: Optional[CodingScheme] = None,
        d: Optional[int] = None,
        mode: str = "hash",
        value_bits: Optional[int] = None,
    ) -> None:
        self._bind(path_query_context(
            universe, digest_bits, num_hashes, seed, scheme, d, mode,
            value_bits,
        ))

    @classmethod
    def from_context(cls, context: PathQueryContext) -> "PathDigestConsumer":
        """One flow's consumer on a sink-wide ``context``.

        What :func:`path_consumer_factory` calls per flow: the query's
        parameters were validated and derived once, in
        :func:`path_query_context`; the flow only references them.
        """
        self = cls.__new__(cls)
        self._bind(context)
        return self

    def _bind(self, context: PathQueryContext) -> None:
        #: The query's shared parameters (universe, widths, seed, mode,
        #: pinned scheme, ...); read them off here.
        self.context = context
        self.decode_errors = 0
        self._decoder = None

    def _unpack(self, digest: int) -> tuple:
        context = self.context
        return unpack_reps(digest, context.digest_bits, context.num_hashes)

    def _ensure_decoder(self, hop_count: int):
        """Build the flow's mode-matching decoder from a hop count."""
        if self._decoder is None:
            self._decoder = _DECODERS[self.context.mode].from_context(
                self.context, hop_count
            )
        return self._decoder

    def consume(self, pid: int, hop_count: int, digest: int) -> None:
        """Feed one digest to the flow's peeling decoder."""
        self._ensure_decoder(hop_count)
        try:
            self._decoder.observe(pid, self._unpack(digest))
        except DecodingError:
            self.decode_errors += 1
            self._decoder = None

    def consume_batch(
        self,
        pids: Sequence[int],
        hop_counts: Sequence[int],
        digests: Sequence[int],
    ) -> None:
        """Columnar decode of a whole flow-group slice.

        Bit-identical to the scalar loop including ``DecodingError``
        resets.  The consumer lends its state to a private one-row
        store, folds the slice there as a sink would
        (:func:`consume_groups`) and takes the result back; fragment
        digests go to the decoder's own per-fragment scatter.  Slices
        too small to amortise the array passes take the scalar
        reference loop; the paths produce the same state, so the
        cutoff is purely a speed knob.
        """
        n = len(pids)
        context = self.context
        if n <= 4:
            super().consume_batch(pids, hop_counts, digests)
        elif context.mode == FRAGMENT:
            self._ensure_decoder(int(hop_counts[0])).observe_batch(
                pids, unpack_reps_array(
                    np.asarray(digests), context.digest_bits, 1
                ),
            )
        else:
            store = PathStateStore(context)
            handle = PathFlowHandle(store, store.alloc(0))
            store.absorb(handle.row, self._decoder, self.decode_errors)
            handle.consume_batch(pids, hop_counts, digests)
            self.decode_errors = handle.decode_errors
            self._decoder = store.materialise(handle.row)

    @property
    def is_complete(self) -> bool:
        """True once every hop has a unique candidate."""
        return self._decoder is not None and self._decoder.is_complete

    @property
    def progress(self) -> tuple:
        """(decoded hops, total hops) so far."""
        if self._decoder is None:
            return (0, 0)
        return (self._decoder.k - self._decoder.missing, self._decoder.k)

    @property
    def coverage(self) -> float:
        """Fraction of the flow's hops with a *reportable* value.

        Counted from ``known_blocks()`` so it always agrees with
        :meth:`partial_path`: in fragment mode a hop counts only once
        every fragment is decoded (``FragmentDecoder.missing`` rounds
        partially-fragmented hops optimistically, which would overstate
        what the sink can actually answer).  0.0 before the first
        record (no decoder, no path length); a flow whose packets were
        all dropped by the network never grows past that, which is
        exactly the degradation the impairment sweeps chart.
        """
        if self._decoder is None:
            return 0.0
        return len(self._decoder.known_blocks()) / self._decoder.k

    def partial_path(self) -> Optional[List[Optional[int]]]:
        """Known hops in order, None where still undecoded.

        None (not a list) before the first record: without a hop count
        the consumer does not yet know the path length.
        """
        if self._decoder is None:
            return None
        known = self._decoder.known_blocks()
        return [known.get(h) for h in range(1, self._decoder.k + 1)]

    def result(self) -> Optional[List[int]]:
        """The decoded switch path, or None while incomplete."""
        if not self.is_complete:
            return None
        return self._decoder.path()

    def state_bytes(self) -> int:
        """Candidate arrays dominate the decoder's footprint."""
        if self._decoder is None:
            return OBJECT_BYTES
        return OBJECT_BYTES + self._decoder.state_bytes()

    @classmethod
    def answer_table(
        cls, flow_ids: np.ndarray, consumers: Sequence["DigestConsumer"]
    ) -> AnswerTable:
        """Path answers as columns, any digest mode (a sink's fragment
        flows; its raw and hash flows answer through
        :class:`PathFlowHandle`).

        One pass over the decoders' public read API: ``k`` (0 while a
        flow has no decoder -- before its first record or right after
        a reset), ``known`` (``len(known_blocks())``, what
        :attr:`coverage` divides), the counters, and the decoded path
        of every complete flow as its CSR row.
        """
        n = len(consumers)
        k, known, seen, incons, lengths = ([0] * n for _ in range(5))
        paths: List[List[int]] = []
        for i, consumer in enumerate(consumers):
            decoder = consumer._decoder
            if decoder is None:
                continue
            k[i] = decoder.k
            known[i] = len(decoder.known_blocks())
            seen[i] = decoder.packets_seen
            incons[i] = decoder.inconsistencies
            if decoder.is_complete:
                path = decoder.path()
                lengths[i] = len(path)
                paths.append(path)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        values = np.fromiter(
            chain.from_iterable(paths), dtype=np.int64, count=int(offsets[-1])
        )
        columns = {
            "k": np.asarray(k, dtype=np.int64),
            "known": np.asarray(known, dtype=np.int64),
            "decode_errors": np.asarray(
                [c.decode_errors for c in consumers], dtype=np.int64
            ),
            "packets_seen": np.asarray(seen, dtype=np.int64),
            "inconsistencies": np.asarray(incons, dtype=np.int64),
        }
        return AnswerTable(PATH, flow_ids, columns, offsets, values)


class LatencyDigestConsumer(DigestConsumer):
    """Per-hop latency quantiles from reservoir-sampled digests (§6.2).

    Recomputes the reservoir-carrier hash to attribute each digest to
    its hop and feeds a per-hop KLL sketch (or raw list when
    ``sketch_size`` is None), mirroring
    :class:`repro.apps.latency.LatencyRuntime` flow-locally.
    """

    kind = "latency"

    def __init__(
        self,
        bits: int = 8,
        seed: int = 0,
        sketch_size: Optional[int] = None,
        max_latency_s: float = 4.0,
    ) -> None:
        self.compressor = LatencyCompressor(bits, max_latency_s, seed)
        self.g = GlobalHash(seed, "latency-reservoir")
        self.sketch_size = sketch_size
        self._stores: Dict[int, HopLatencyStore] = {}

    def _store_for(self, carrier: int, hop_count: int) -> HopLatencyStore:
        """Fetch-or-create the carrier hop's store.

        A new store's sketch budget is sized from the hop count of the
        record that creates it (the per-flow space budget split of
        §4.1).
        """
        store = self._stores.get(carrier)
        if store is None:
            per_hop = None
            if self.sketch_size:
                per_hop = max(4, self.sketch_size // max(1, hop_count))
            store = HopLatencyStore(per_hop)
            self._stores[carrier] = store
        return store

    def consume(self, pid: int, hop_count: int, digest: int) -> None:
        """Attribute the sample to its carrier hop and record it."""
        carrier = reservoir_carrier(self.g, pid, hop_count)
        store = self._store_for(carrier, hop_count)
        store.add(self.compressor.decode(digest))

    @property
    def is_complete(self) -> bool:
        """A latency stream is answerable once any hop has samples."""
        return bool(self._stores)

    def quantile(self, hop: int, phi: float) -> float:
        """Estimated phi-quantile of this flow's latency at ``hop``.

        Raises a descriptive ``KeyError`` when the reservoir carrier
        never attributed a sample to ``hop`` (short flows routinely
        miss hops); probe with :meth:`samples_at` first.
        """
        store = self._stores.get(hop)
        if store is None:
            raise KeyError(
                f"hop {hop}: no samples attributed yet "
                f"(samples_at({hop}) == 0)"
            )
        return store.quantile(phi)

    def samples_at(self, hop: int) -> int:
        """Samples attributed to ``hop`` so far."""
        store = self._stores.get(hop)
        return store.count if store else 0

    def result(self) -> Dict[int, int]:
        """Per-hop sample counts (the cheap always-available answer)."""
        return {hop: s.count for hop, s in sorted(self._stores.items())}

    def state_bytes(self) -> int:
        """Stored digests across hops, at 8 bytes apiece."""
        items = sum(s.stored_items() for s in self._stores.values())
        return sys.getsizeof(self) + 8 * items + 64 * len(self._stores)


class CongestionDigestConsumer(DigestConsumer):
    """Running bottleneck-utilisation aggregation (§4.3 Example #3).

    The multiplicative code is monotone in the value, so the max over
    codes equals the code of the max -- aggregation is a compare on the
    *encoded* digests and one decode at query time.  A sink's
    congestion flows are rows of a :class:`CongestionStore`, whose
    :meth:`~CongestionStore.fold` is the batched form of
    :meth:`consume`; a consumer object built directly takes a batch
    through the base class's scalar loop.
    """

    kind = CONGESTION

    def __init__(
        self,
        bits: int = 8,
        epsilon: float = 0.025,
        seed: int = 0,
        codec: Optional[UtilizationCodec] = None,
    ) -> None:
        self.codec = codec if codec is not None else UtilizationCodec(
            bits, epsilon, seed=seed
        )
        self.max_code = -1
        self.last_code = -1
        self.records = 0

    def consume(self, pid: int, hop_count: int, digest: int) -> None:
        """Keep the running max of the encoded utilisation."""
        self.records += 1
        self.last_code = digest
        if digest > self.max_code:
            self.max_code = digest

    @property
    def is_complete(self) -> bool:
        """Answerable as soon as one digest arrived."""
        return self.records > 0

    def bottleneck(self) -> Optional[float]:
        """Decoded max path utilisation seen so far."""
        if self.max_code < 0:
            return None
        return self.codec.decode(self.max_code)

    def latest(self) -> Optional[float]:
        """Decoded most-recent digest (the per-ACK HPCC feedback)."""
        if self.last_code < 0:
            return None
        return self.codec.decode(self.last_code)

    def result(self) -> Optional[float]:
        """The bottleneck utilisation (None before any record)."""
        return self.bottleneck()

    def state_bytes(self) -> int:
        """Constant-size state: two codes and a counter."""
        return OBJECT_BYTES

    @classmethod
    def answer_table(
        cls, flow_ids: np.ndarray, consumers: Sequence["DigestConsumer"]
    ) -> AnswerTable:
        """Congestion answers as columns: the codes and the decoded max."""
        columns = {
            "max_code": np.asarray(
                [c.max_code for c in consumers], dtype=np.int64
            ),
            "last_code": np.asarray(
                [c.last_code for c in consumers], dtype=np.int64
            ),
            "records": np.asarray(
                [c.records for c in consumers], dtype=np.int64
            ),
            # None (no record yet) becomes NaN.
            "bottleneck": np.asarray(
                [c.bottleneck() for c in consumers], dtype=np.float64
            ),
        }
        return AnswerTable.fixed_width(CONGESTION, flow_ids, columns)


#: Digest representation -> the decoder class that peels it.
_DECODERS = {RAW: RawDecoder, HASH: HashDecoder, FRAGMENT: FragmentDecoder}


def path_query_context(
    universe: Sequence[int],
    digest_bits: int = 8,
    num_hashes: int = 1,
    seed: int = 0,
    scheme: Optional[CodingScheme] = None,
    d: Optional[int] = None,
    mode: str = "hash",
    value_bits: Optional[int] = None,
) -> PathQueryContext:
    """Validate a path query's parameters into its shared context.

    Takes :class:`PathDigestConsumer`'s constructor arguments; done
    once per sink by :func:`path_consumer_factory` and once per
    consumer by the standalone constructor.
    """
    if mode not in _DECODERS:
        raise ValueError(
            f"mode must be 'raw', 'hash' or 'fragment', got {mode!r}"
        )
    if mode != HASH and num_hashes != 1:
        raise ValueError("multiple hash instantiations need hash mode")
    universe = tuple(universe)
    # Fragment layout width: the universe-wide block width unless
    # the caller pins it (must match the encoders' value_bits).
    if value_bits is None and universe:
        value_bits = max(1, max(universe).bit_length())
    if mode == FRAGMENT and value_bits is None:
        raise ValueError(
            "fragment mode needs value_bits (or a non-empty "
            "universe to derive it from)"
        )
    # Scheme resolution: explicit scheme > tuned-for-d scheme >
    # (default) per-flow scheme derived from the observed hop
    # count, for sinks whose encoders tune to each flow's length.
    if scheme is None and d is not None:
        scheme = multilayer_scheme(d)
    return PathQueryContext(
        universe, digest_bits, num_hashes, seed, scheme, value_bits,
        mode=mode,
    )


def _revive(cls, state: dict) -> "DigestConsumer":
    """Unpickle the consumer object a handle was pickled as."""
    consumer = cls.__new__(cls)
    consumer.__dict__.update(state)
    return consumer


class RowHandle(DigestConsumer):
    """A view of a flow whose state is one row of its sink's column store.

    Built when somebody asks for the flow's consumer -- nothing keeps
    one per flow: the ``store``, the flow's ``row`` and the ``epoch``
    the row was allocated under.  Batches never go through it (the
    rows of all touched flows fold at once, :func:`fold_rows`); it
    answers the consumer API off the columns, one flow at a time, and
    pickles to the consumer object with equal state (``materialise``).
    Once the flow is evicted the row's epoch moves on and the handle
    reads as a flow that never saw a record, whoever owns the row
    next; feeding it raises.
    """

    __slots__ = ("store", "row", "epoch")

    def __init__(self, store: RowStore, row: int) -> None:
        self.store = store
        self.row = row
        self.epoch = int(store.epoch[row])

    kind = property(lambda self: self.store.kind)
    context = property(lambda self: self.store.context)
    live = property(lambda self: self.store.epoch[self.row] == self.epoch)

    def _column(self, column: np.ndarray) -> int:
        """This flow's entry of ``column`` (0 once evicted)."""
        return int(column[self.row]) if self.live else 0

    def _own(self) -> int:
        """The row, for writing."""
        if not self.live:
            raise LookupError("flow state was evicted; fetch a fresh handle")
        return self.row

    def consume_batch(self, pids, hop_counts, digests) -> None:
        cols = np.asarray(pids), np.asarray(hop_counts), np.asarray(digests)
        self.consume_slice(*cols, 0, len(pids))

    def consume_slice(self, pids, hop_counts, digests, lo, hi) -> None:
        if hi > lo:
            group = np.asarray([[self._own()], [lo], [hi - lo]])
            fold_rows(self.store, *group, pids, hop_counts, digests)

    def state_bytes(self) -> int:
        if not self.live:
            return OBJECT_BYTES
        return self.store.account(np.asarray([self.row]))[2]

    def __reduce__(self):
        consumer = self.materialise()
        return _revive, (type(consumer), vars(consumer))


class PathFlowHandle(RowHandle):
    """A raw- or hash-mode path flow of a sink (see :class:`RowHandle`).

    Reads come off the row and build no decoder; ``_decoder``,
    :meth:`partial_path` and pickling go through the store's bridge
    and see a *copy*.  The scalar :meth:`consume` is that bridge there
    and back around :meth:`PathDigestConsumer.consume`, so the
    specification keeps defining every record-at-a-time result.
    """

    __slots__ = ()

    def materialise(self) -> PathDigestConsumer:
        """This flow as a consumer object (a copy of the row)."""
        consumer = PathDigestConsumer.from_context(self.context)
        if self.live:
            consumer.decode_errors = int(self.store.decode_errors[self.row])
            consumer._decoder = self.store.materialise(self.row)
        return consumer

    def consume(self, pid: int, hop_count: int, digest: int) -> None:
        row = self._own()
        consumer = self.materialise()
        consumer.consume(pid, hop_count, digest)
        self.store.absorb(row, consumer._decoder, consumer.decode_errors)

    _decoder = property(lambda self: self.materialise()._decoder)
    decode_errors = property(lambda self: self._column(self.store.decode_errors))
    progress = property(lambda self: (
        self._column(self.store.known), self._column(self.store.k)
    ))

    @property
    def is_complete(self) -> bool:
        known, k = self.progress
        return known == k > 0

    @property
    def coverage(self) -> float:
        known, k = self.progress
        return known / k if k else 0.0

    def partial_path(self) -> Optional[List[Optional[int]]]:
        return self.materialise().partial_path()

    def result(self) -> Optional[List[int]]:
        if not self.is_complete:
            return None
        store = self.store
        lo = int(store.base[self.row])
        blocks = store.values[lo:lo + int(store.k[self.row])]
        return (blocks.astype(np.int64) if store.hashed else blocks).tolist()


class CongestionStore(RowStore):
    """Every congestion flow of one sink: three columns.

    ``top`` and ``last`` hold the running max and the last code *plus
    one*, so that zero -- what a fresh or released row reads -- means
    no record yet.  A flow with a record is always steady: another
    record only moves its max, its last code and its count, in any
    order across flows.
    """

    kind = CONGESTION
    ROW_COLUMNS = ("top", "last", "records")
    context = None

    def __init__(self, codec: UtilizationCodec) -> None:
        super().__init__()
        self.codec = codec
        self.code_bits = codec.bits
        self.top = np.zeros(0, dtype=np.int64)
        self.last = np.zeros(0, dtype=np.int64)
        self.records = np.zeros(0, dtype=np.int64)

    def _clear(self, row: int) -> None:
        self.top[row] = self.last[row] = self.records[row] = 0

    def _steady(self, rows: np.ndarray) -> np.ndarray:
        return self.records[rows] > 0

    def fold(self, rows, starts, sizes, pids, hops, digests) -> list:
        """Fold flow groups (see :meth:`PathStateStore.fold`); nothing
        can conflict."""
        codes = digests[spans(starts, sizes)] + 1
        ends = np.cumsum(sizes)
        self.top[rows] = np.maximum(
            self.top[rows], np.maximum.reduceat(codes, ends - sizes)
        )
        self.last[rows] = codes[ends - 1]
        self.records[rows] += sizes
        return []

    def verify(self, owners, pids, digests) -> tuple:
        """Fold ungrouped records, ``owners[i]`` the row of record
        ``i``; returns the rows that received records, ascending, and
        how many each (work in the records, whatever the store's size)."""
        np.maximum.at(self.top, owners, digests + 1)
        # A repeated index keeps its last assignment: arrival order.
        self.last[owners] = digests + 1
        rows, seen = distinct(owners, self.rows)
        self.records[rows] += seen
        return rows, seen

    def answers(self, rows: np.ndarray) -> tuple:
        top = self.top[rows] - 1
        # No record yet: NaN.
        bottleneck = np.full(rows.shape[0], np.nan)
        bottleneck[top >= 0] = self.codec.decode_array(top[top >= 0])
        columns = {
            "max_code": top, "last_code": self.last[rows] - 1,
            "records": self.records[rows], "bottleneck": bottleneck,
        }
        none = np.zeros(0, dtype=np.int64)
        return columns, np.zeros(rows.shape[0] + 1, dtype=np.int64), none

    def account(self, rows: np.ndarray) -> Tuple[int, float, int]:
        seen = int(np.count_nonzero(self.records[rows]))
        return seen, float(seen), OBJECT_BYTES * rows.shape[0]

    def identity(self) -> dict:
        codec = self.codec
        return {
            "kind": self.kind, "bits": codec.bits, "epsilon": codec.epsilon,
            "max_util": codec.max_util,
        }

    def state_dict(self, rows: np.ndarray) -> dict:
        state = {name: getattr(self, name)[rows] for name in self.ROW_COLUMNS}
        state["query"] = self.identity()
        return state

    def load_state(self, state: dict) -> None:
        count = state["records"].shape[0]
        self._adopt_rows(count)
        for name in self.ROW_COLUMNS:
            getattr(self, name)[:count] = state[name]


class CongestionFlowHandle(RowHandle):
    """A congestion flow of a sink (see :class:`RowHandle`); answers
    like the :class:`CongestionDigestConsumer` it pickles to."""

    __slots__ = ()
    max_code = property(lambda self: self._column(self.store.top) - 1)
    last_code = property(lambda self: self._column(self.store.last) - 1)
    records = property(lambda self: self._column(self.store.records))
    codec = property(lambda self: self.store.codec)
    is_complete = CongestionDigestConsumer.is_complete
    bottleneck = CongestionDigestConsumer.bottleneck
    latest = CongestionDigestConsumer.latest
    result = CongestionDigestConsumer.result

    def materialise(self) -> CongestionDigestConsumer:
        consumer = CongestionDigestConsumer(codec=self.codec)
        consumer.max_code, consumer.last_code = self.max_code, self.last_code
        consumer.records = self.records
        return consumer

    def consume(self, pid: int, hop_count: int, digest: int) -> None:
        self.consume_slice(None, None, np.asarray([digest]), 0, 1)


class ConsumerRows(RowStore):
    """The minimal store of a sink whose flows are consumer objects
    (fragment-mode path, latency): rows carry the shards'
    bookkeeping and one column more, the list of those objects
    (None where a row is free)."""

    def __init__(self, factory: ConsumerFactory) -> None:
        super().__init__()
        self.factory = factory
        self.consumers: List[Optional[DigestConsumer]] = []

    def alloc(self, flow_id: int) -> int:
        return int(self.alloc_many(np.asarray([flow_id], dtype=np.int64))[0])

    def alloc_many(self, flow_ids: np.ndarray, consumers=None) -> np.ndarray:
        """Rows holding ``consumers`` (default: new, from the factory)."""
        if consumers is None:
            # Built first: a factory that raises must leave no row behind.
            consumers = [self.factory(fid) for fid in flow_ids.tolist()]
        rows = super().alloc_many(flow_ids)
        held = self.consumers
        held.extend([None] * (self.rows - len(held)))
        for row, consumer in zip(rows.tolist(), consumers):
            held[row] = consumer
        return rows

    def _clear(self, row: int) -> None:
        self.consumers[row] = None

    def _steady(self, rows: np.ndarray) -> np.ndarray:
        """No flow folds without its group: objects take slices."""
        return np.zeros(rows.shape[0], dtype=bool)

    def of(self, rows: np.ndarray) -> List[DigestConsumer]:
        held = self.consumers
        return [held[row] for row in rows.tolist()]

    def account(self, rows: np.ndarray) -> Tuple[int, float, int]:
        """(complete flows, coverage sum, state bytes) of ``rows``;
        coverage is summed left to right in the order given."""
        consumers = self.of(rows)
        return (
            sum(1 for c in consumers if c.is_complete),
            float(sum(c.coverage for c in consumers)),
            sum(c.state_bytes() for c in consumers),
        )


class StoreFactory:
    """A consumer factory whose flows are rows of one column store.

    Calling it allocates a row of its ``store`` and returns the row's
    ``handle``.  A store serves exactly one sink -- its flow-id index is
    keyed by flow id alone -- so a sink takes a store of its own from
    :func:`sink_store`; this one keeps serving direct calls.
    """

    def __init__(self, make_store: Callable[[], RowStore], handle) -> None:
        self.make_store, self.handle = make_store, handle
        self.store = make_store()

    def __call__(self, flow_id: int) -> RowHandle:
        return self.handle(self.store, self.store.alloc(flow_id))


def sink_store(
    factory: ConsumerFactory,
) -> Tuple[RowStore, Callable[[int], DigestConsumer]]:
    """A new store for one sink's flows, and the consumer in a row.

    A :class:`StoreFactory`'s flows are rows of a fresh store of its
    kind, read through a handle built per call; any other factory's
    flows are the objects it builds, held by a :class:`ConsumerRows`.
    """
    if isinstance(factory, StoreFactory):
        store = factory.make_store()
        return store, partial(factory.handle, store)
    rows = ConsumerRows(factory)
    return rows, rows.consumers.__getitem__


def path_consumer_factory(universe: Sequence[int], **kwargs) -> ConsumerFactory:
    """Factory of a sink's path flows.

    All flows share one :class:`~repro.coding.PathQueryContext`, built
    here: the sorted universe, the widths and -- per path length, on
    first use -- the coding scheme and derived hashes exist once per
    sink, not once per flow.  Raw and hash digests get a
    :class:`StoreFactory` (flows are :class:`PathFlowHandle` rows of
    one :class:`~repro.coding.store.PathStateStore`); fragment digests
    (several sub-decoders per flow) get one :class:`PathDigestConsumer`
    per flow.
    """
    context = path_query_context(universe, **kwargs)
    if context.mode == FRAGMENT:
        return lambda flow_id: PathDigestConsumer.from_context(context)
    return StoreFactory(lambda: PathStateStore(context), PathFlowHandle)


def fold_rows(
    store, rows, starts, sizes, pids, hop_counts, digests, fallbacks=None
) -> None:
    """Fold one batch's flow groups into ``store`` (``store.fold``).

    Decoded path flows are verified in place, the still-converging
    ones -- new ones included -- go through one fixpoint peel,
    congestion flows through one ``reduceat``.  A path flow whose
    digests conflict comes back untouched and takes the scalar
    reference, :meth:`PathDigestConsumer.consume` row by row (there
    and back over the store's bridge, once), which owns the reset
    semantics -- a contradicting digest raises :class:`DecodingError`
    inside the decoder, the consumer counts it, drops the decoder and
    rebuilds it from the *next* row's hop count, the re-convergence a
    reroute triggers.  Every flow handed over is counted, by reason,
    on ``fallbacks`` (a counter per
    :data:`repro.coding.store.FALLBACK_REASONS`).  Rows of a
    :class:`ConsumerRows` are objects: each folds its own slice
    (:func:`consume_groups`).
    """
    if isinstance(store, ConsumerRows):
        consume_groups(
            list(zip(store.of(rows), starts.tolist(), (starts + sizes).tolist())),
            pids, hop_counts, digests, fallbacks,
        )
        return
    for j, reason in store.fold(rows, starts, sizes, pids, hop_counts, digests):
        if fallbacks is not None:
            fallbacks[reason].inc()
        row, lo = int(rows[j]), int(starts[j])
        cut = slice(lo, lo + int(sizes[j]))
        consumer = PathFlowHandle(store, row).materialise()
        for record in zip(
            pids[cut].tolist(), hop_counts[cut].tolist(), digests[cut].tolist()
        ):
            consumer.consume(*record)
        store.absorb(row, consumer._decoder, consumer.decode_errors)


def answer_rows(store: RowStore, rows: np.ndarray) -> AnswerTable:
    """The answers of the flows in ``rows`` of a sink's ``store``
    (ascending flow id): column slices and one CSR gather, or what the
    consumers' own kind builds from its objects."""
    if not rows.size:
        return AnswerTable.empty()
    flow_ids = store.flow_id[rows]
    if isinstance(store, ConsumerRows):
        consumers = store.of(rows)
        return type(consumers[0]).answer_table(flow_ids, consumers)
    return AnswerTable(store.kind, flow_ids, *store.answers(rows))


def consume_groups(groups, pids, hop_counts, digests, fallbacks=None) -> None:
    """Fold every flow group of one batch into its consumer.

    ``groups`` holds ``(consumer, lo, hi)``: rows ``[lo, hi)`` of the
    (flow-grouped) columns belong to ``consumer``.  Handles are
    bucketed by store and each store folds all its groups at once
    (:func:`fold_rows`); object consumers fold their own slice.
    """
    by_store: dict = {}
    for consumer, lo, hi in groups:
        store = consumer.store
        if store is not None:
            by_store.setdefault(store, []).append((consumer.row, lo, hi - lo))
            continue
        consumer.consume_batch(pids[lo:hi], hop_counts[lo:hi], digests[lo:hi])
    for store, members in by_store.items():
        rows, starts, sizes = np.asarray(members, dtype=np.int64).T
        fold_rows(
            store, rows, starts, sizes, pids, hop_counts, digests, fallbacks
        )


def latency_consumer_factory(**kwargs) -> ConsumerFactory:
    """Factory of :class:`LatencyDigestConsumer`, one per flow."""
    return lambda flow_id: LatencyDigestConsumer(**kwargs)


def congestion_consumer_factory(**kwargs) -> ConsumerFactory:
    """Factory of a sink's congestion flows: :class:`CongestionFlowHandle`
    rows of one :class:`CongestionStore`, sharing one codec."""
    codec = UtilizationCodec(
        kwargs.pop("bits", 8), kwargs.pop("epsilon", 0.025),
        seed=kwargs.pop("seed", 0), **kwargs,
    )
    return StoreFactory(lambda: CongestionStore(codec), CongestionFlowHandle)
