"""The vectorized PINT dataplane: whole-batch switch-chain encoding.

A :class:`TraceDataplane` does to a columnar batch what the chain of
per-switch Encoding Modules does to each packet -- execution-plan layer
selection, Baseline reservoir stamping, per-layer XOR folding, and
raw / hash-compressed / fragmented digest representations -- as array
operations over the whole batch at once.  It is *bit-identical* to the
scalar :class:`repro.coding.PathEncoder` under shared seeds
(property-tested): every probabilistic decision is the same
:class:`~repro.hashing.GlobalHash` draw, evaluated through the paired
vectorised APIs whose lane-for-lane equality the hashing tests pin
down.

Batches mix packets of many flows, many paths and many path lengths,
and the whole batch encodes as *one column*
(:func:`repro.coding.encoder.encode_columns`): every hash the chain
draws keys on the packet id, the hop number and the per-hop block
value -- never on the path identity or its length -- so one decision
grid (:class:`repro.coding.decisions.DecisionReplay`, the same object
the sink's decoders replay) says which hops act on which packet, the
acting hops' blocks are gathered from the trace's path table, and one
pairwise hash per rep covers every (packet, hop) pair of the batch.
The per-record Python cost of the scalar encoder becomes a fixed
number of array passes per batch -- the switch-side mirror of the
collector's ``ingest_batch`` amortisation (``replay.dataplane.encode_rps``
in ``bench/``'s per-layer ledger).

Value queries compress the same way: :func:`compress_utilizations`
runs the §4.3 multiplicative randomized rounding over whole columns,
reusing :meth:`UtilizationCodec.encode_array`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.apps.congestion import UtilizationCodec
from repro.coding import (
    HASH,
    DecisionReplay,
    DistributedMessage,
    PathEncoder,
    encode_columns,
    multilayer_scheme,
    pack_reps,
    pack_reps_array,
)
from repro.grouping import distinct
from repro.replay.trace import Trace

class TraceDataplane:
    """Vectorised encoder bound to one trace's path table.

    Parameters
    ----------
    trace:
        The trace whose ``path_id`` column this dataplane encodes.
    digest_bits / num_hashes / mode / seed:
        Forwarded to each per-path :class:`PathEncoder` (``mode`` may
        be "auto"/"raw"/"hash"/"fragment" exactly as there).  Every
        path of length k is encoded under ``multilayer_scheme(k)``
        (Algorithm 1), the scheme the sink derives per flow.
    value_bits:
        Fragment mode: the shared value width every encoder fragments
        against (defaults to the trace universe's widest switch ID),
        so sink-side :class:`~repro.coding.FragmentDecoder` layouts
        derived from the same universe line up with every path.
    """

    def __init__(
        self,
        trace: Trace,
        digest_bits: int = 8,
        num_hashes: int = 1,
        mode: str = "auto",
        seed: int = 0,
        value_bits: Optional[int] = None,
    ) -> None:
        if digest_bits * num_hashes > 63:
            raise ValueError(
                f"packed digests need digest_bits * num_hashes <= 63 "
                f"(got {digest_bits} * {num_hashes}): the collector's "
                "digest column is int64"
            )
        self.trace = trace
        self.digest_bits = digest_bits
        self.num_hashes = num_hashes
        self.mode = mode
        self.seed = seed
        if value_bits is None and mode == "fragment" and trace.universe:
            value_bits = max(1, max(trace.universe).bit_length())
        self.value_bits = value_bits
        #: Lazily compiled scalar twins, one per path id.  Each carries
        #: the CodecContext the vectorised path replays, so the two
        #: paths cannot diverge in configuration.
        self._encoders: Dict[int, PathEncoder] = {}
        self._decisions = DecisionReplay(seed, multilayer_scheme)
        #: One representative encoder per digest representation
        #: ``(mode, fragment count)`` met so far, and path id -> the
        #: position of its representation there (-1: not resolved yet).
        self._representations: Dict[Tuple[str, int], PathEncoder] = {}
        self._representation = np.full(len(trace.paths), -1, dtype=np.int64)
        self._path_table: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def encoder(self, path_id: int) -> PathEncoder:
        """The scalar-twin :class:`PathEncoder` for one path id."""
        enc = self._encoders.get(path_id)
        if enc is None:
            enc = self._path_encoder(self.trace.paths[path_id])
            self._encoders[path_id] = enc
        return enc

    def _path_encoder(self, path: Sequence[int]) -> PathEncoder:
        """A :class:`PathEncoder` under this dataplane's configuration."""
        message = DistributedMessage.from_path(
            path, self.trace.universe if self.mode in ("auto", HASH) else None,
        )
        return PathEncoder(
            message, multilayer_scheme(len(path)),
            digest_bits=self.digest_bits, mode=self.mode,
            num_hashes=self.num_hashes, seed=self.seed,
            value_bits=self.value_bits,
        )

    # -- vectorised encode -----------------------------------------------

    def _paths(self) -> Tuple[np.ndarray, np.ndarray]:
        """The trace's path table as a padded (paths, max_k) matrix,
        and every path's length."""
        if self._path_table is None:
            lens = np.asarray([len(p) for p in self.trace.paths], np.int64)
            table = np.zeros((lens.size, int(lens.max())), dtype=np.int64)
            for i, p in enumerate(self.trace.paths):
                table[i, : len(p)] = p
            self._path_table = table, lens
        return self._path_table

    def _resolve(self, path_ids: np.ndarray) -> np.ndarray:
        """Each row's digest representation, as ``_representations`` index.

        Mode and fragment count are one value per dataplane unless
        ``fragment`` runs with neither a universe nor ``value_bits``,
        where each path sizes its fragments by its own widest block and
        is resolved through its scalar twin (:meth:`encoder`), once per
        path.  A fixed representation is resolved once, by one encoder
        over every switch the path table names: it refuses whatever
        some path's own encoder would (a switch outside the universe,
        a block wider than a raw digest or than ``value_bits``).
        """
        fixed = self.mode != "fragment" or self.value_bits is not None
        if fixed and not self._representations:
            enc = self._path_encoder(
                sorted({s for path in self.trace.paths for s in path})
            )
            self._representations[(enc.mode, enc.num_fragments)] = enc
            self._representation.fill(0)
        found = self._representation.take(path_ids)
        if found.min() < 0:
            missing = distinct(path_ids[found < 0], len(self.trace.paths))[0]
            for path_id in missing.tolist():
                enc = self.encoder(path_id)
                key = (enc.mode, enc.num_fragments)
                self._representations.setdefault(key, enc)
                self._representation[path_id] = list(
                    self._representations
                ).index(key)
            found = self._representation.take(path_ids)
        return found

    def encode_rows(self, rows: np.ndarray) -> np.ndarray:
        """Packed digests for the given trace rows, one int64 per row.

        Row-for-row equal to ``encode_scalar(row)``: :meth:`encode` over
        the rows' ``path_id`` and ``pid`` columns.
        """
        rows = np.asarray(rows, dtype=np.int64)
        return self.encode(self.trace.path_id[rows], self.trace.pid[rows])

    def encode(self, path_ids: np.ndarray, pids: np.ndarray) -> np.ndarray:
        """Packed digests of records given as columns, one int64 each.

        ``path_ids`` index this trace's path table and ``pids`` are the
        packet ids, row for row -- for a caller that has gathered them
        already.  The whole column runs the switch chain at once --
        rows of every path and path length together
        (:func:`~repro.coding.encoder.encode_columns`) -- and per-hash
        digests are packed with the shared wire layout
        (:func:`pack_reps_array`).  Only rows whose digest
        *representation* differs are encoded apart.
        """
        path_ids = np.asarray(path_ids)
        if path_ids.size == 0:
            return np.empty(0, dtype=np.int64)
        # The hashes read the pid's bits as unsigned: a view, no copy.
        pids = np.ascontiguousarray(pids, dtype=np.int64).view(np.uint64)
        found = self._resolve(path_ids)
        ks = self._paths()[1].take(path_ids)
        encoders = list(self._representations.values())
        if len(encoders) == 1:
            return self._encode(encoders[0], pids, ks, path_ids)
        out = np.empty(path_ids.shape[0], dtype=np.int64)
        for idx, enc in enumerate(encoders):
            lanes = np.flatnonzero(found == idx)
            if lanes.size:
                out[lanes] = self._encode(
                    enc, pids[lanes], ks[lanes], path_ids[lanes]
                )
        return out

    def _encode(
        self,
        enc: PathEncoder,
        pids: np.ndarray,
        ks: np.ndarray,
        path_ids: np.ndarray,
    ) -> np.ndarray:
        """Packed digests of rows sharing ``enc``'s representation."""
        digests = encode_columns(
            self._decisions, enc.ctx, enc.mode, enc.num_fragments,
            pids, ks, self._paths()[0], path_ids,
        )
        return pack_reps_array(digests, self.digest_bits)

    # -- scalar reference ------------------------------------------------

    def encode_scalar(self, row: int) -> int:
        """One record through the scalar per-switch chain (reference).

        The per-packet path the benchmark compares against and the
        parity tests pin the vectorised path to.
        """
        enc = self.encoder(int(self.trace.path_id[row]))
        return pack_reps(
            enc.encode(int(self.trace.pid[row])), self.digest_bits
        )

    def encode_scalar_rows(self, rows: np.ndarray) -> np.ndarray:
        """Scalar :meth:`encode_scalar` over many rows (benchmark loop)."""
        return np.asarray(
            [self.encode_scalar(int(r)) for r in np.asarray(rows)],
            dtype=np.int64,
        )


def compress_utilizations(
    codec: UtilizationCodec,
    utilizations: np.ndarray,
    pids: np.ndarray,
    hop_counts: np.ndarray,
) -> np.ndarray:
    """Batched §4.3 bottleneck compression, keyed ``(pid, hop_count)``.

    Lane-for-lane identical to ``codec.encode(util, pid, hops)`` -- the
    randomized-rounding coin is the same keyed hash draw, folded
    pairwise so one pass serves a column of any mix of hop counts.
    """
    return codec.encode_array(
        np.asarray(utilizations, dtype=np.float64), np.asarray(pids),
        np.asarray(hop_counts, dtype=np.int64),
    )
