"""The five benchmark workloads and how each builds its inputs.

A workload fixes a scenario trace, a packet count and the sink
configuration under test.  ``--seed`` reaches only the generated inputs
(``build_trace`` and the impairment models); the program's own hash
seed stays 0, so every seed runs the same program on different input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.replay.driver import ReplayDriver
from repro.replay.impair import Duplicate, GilbertElliott, Reorder
from repro.replay.scenarios import build_trace

BATCH_SIZE = 8192
PROGRAM_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    packets: int
    why: str
    workers: Optional[int] = None
    transport: Optional[str] = None
    lossy: bool = False
    #: Open-loop phase B (rate in records/s; None = closed loop only).
    open_loop_rps: Optional[int] = None

    @property
    def serial(self) -> bool:
        """True when the configuration under test *is* the reference:
        one in-process serial collector per query."""
        return self.workers is None and self.transport is None

    def build_trace(self, seed: int, scale: float = 1.0):
        packets = max(BATCH_SIZE // 4, int(self.packets * scale))
        return build_trace(self.scenario, packets=packets, seed=seed)

    def impairments(self, seed: int) -> List:
        if not self.lossy:
            return []
        return [
            GilbertElliott(p_bad=0.02, p_good=0.2, seed=seed),
            Reorder(depth=64, prob=0.5, seed=seed),
            Duplicate(prob=0.02, seed=seed),
        ]

    def driver(self, seed: int) -> ReplayDriver:
        """The configuration under test, exactly as a user builds it."""
        return ReplayDriver(
            batch_size=BATCH_SIZE, seed=PROGRAM_SEED,
            workers=self.workers, transport=self.transport,
            impairments=self.impairments(seed),
        )


WORKLOADS: List[Workload] = [
    Workload(
        "mice-inproc", "elephant-mice", 150_000,
        "tens of thousands of 1-2 packet flows: per-flow first touch in "
        "collector.consumers/coding.decoder is >90% of wall; sink "
        "flow-setup work shows here",
    ),
    Workload(
        "incast-inproc", "incast", 2_000_000,
        "same code, 15 flows, almost no flow creation: encode, grouping "
        "and steady observe dominate; flow-setup changes must read no "
        "change here",
    ),
    Workload(
        "incast-udp", "incast", 2_000_000,
        "the incast trace over reliable UDP: cheap records make "
        "service.wire/client/server the cost; pairs with incast-inproc "
        "to isolate the wire; open-loop phase gives freshness",
        transport="udp", open_loop_rps=200_000,
    ),
    Workload(
        "longpath-lossy", "isp-long-paths", 1_000_000,
        "long paths under bursty loss, reorder and duplicates: "
        "replay.impair and the decoders' out-of-order handling run; a "
        "fast-path gain that costs the impaired path shows here",
        lossy=True,
    ),
    Workload(
        "websearch-workers2", "web-search", 300_000,
        "the only workload through collector.parallel + collector.shm: "
        "scatter, ring back-pressure, worker decode and the bulk "
        "flows() RPC; worker skew sets the wall",
        workers=2,
    ),
]

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}
