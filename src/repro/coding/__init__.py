"""Distributed coding schemes for static per-flow aggregation (paper §4.2).

The pipeline:

* :class:`DistributedMessage` -- k blocks held by k path switches.
* :mod:`repro.coding.schemes` -- Baseline / XOR / Hybrid / Multi-layer
  (Algorithm 1) layer structures.
* :class:`PathEncoder` -- the switch-side Encoding Module (raw, hashed,
  or fragmented digests; multiple hash instantiations);
  :func:`encode_columns` is its array form over a whole column.
* :class:`DecisionReplay` -- which layer, which carrier, which acting
  hops: the one array form of the per-packet decisions, replayed by
  the vectorised switch chain and the sink's batch decoders alike.
* :class:`RawDecoder` / :class:`HashDecoder` / :class:`FragmentDecoder`
  -- peeling decoders for the Inference Module.
* :class:`PathQueryContext` -- what all flows of one path query share
  (universe, per-``k`` scheme and hashes) and the batched replay of
  the per-packet encoder decisions.
* :mod:`repro.coding.peel` -- the fixpoint peel that decodes all
  still-converging flows of a batch at once.
* :class:`LNCEncoder` / :class:`LNCDecoder` -- the Linear Network Coding
  comparator.
* :mod:`repro.coding.simulate` -- Monte-Carlo harnesses producing the
  Fig. 5 / Fig. 10 quantities.
"""

from repro.coding.context import PathQueryContext
from repro.coding.decisions import DecisionReplay
from repro.coding.decoder import (
    FragmentDecoder,
    HashDecoder,
    RawDecoder,
    make_decoder,
)
from repro.coding.encoder import (
    FRAGMENT,
    HASH,
    RAW,
    CodecContext,
    PathEncoder,
    encode_columns,
    pack_reps,
    pack_reps_array,
    unpack_reps,
    unpack_reps_array,
)
from repro.coding.fastdecode import FastXORDecoder, FastXOREncoder
from repro.coding.lnc import LNCDecoder, LNCEncoder
from repro.coding.message import DistributedMessage
from repro.coding.schemes import (
    BASELINE,
    XOR,
    CodingScheme,
    Layer,
    baseline_scheme,
    hybrid_scheme,
    improved_multilayer_scheme,
    multilayer_scheme,
    xor_scheme,
)
from repro.coding.simulate import (
    TrialStats,
    average_progress,
    decode_probability,
    decode_progress,
    packet_count_distribution,
    packets_to_decode,
)

__all__ = [
    "DistributedMessage",
    "CodingScheme",
    "Layer",
    "BASELINE",
    "XOR",
    "baseline_scheme",
    "xor_scheme",
    "hybrid_scheme",
    "multilayer_scheme",
    "improved_multilayer_scheme",
    "PathEncoder",
    "encode_columns",
    "CodecContext",
    "DecisionReplay",
    "PathQueryContext",
    "RAW",
    "HASH",
    "FRAGMENT",
    "pack_reps",
    "pack_reps_array",
    "unpack_reps",
    "unpack_reps_array",
    "RawDecoder",
    "HashDecoder",
    "FragmentDecoder",
    "make_decoder",
    "LNCEncoder",
    "LNCDecoder",
    "FastXOREncoder",
    "FastXORDecoder",
    "TrialStats",
    "packets_to_decode",
    "decode_progress",
    "average_progress",
    "decode_probability",
    "packet_count_distribution",
]
