"""Named scenario generators: seeds in, columnar traces out.

Each scenario synthesises a :class:`~repro.replay.trace.Trace` from a
seed -- fully deterministic, so two processes (or a benchmark and a
test) that build ``("incast", seed=7)`` get bit-identical columns.
Generators reuse the repo's existing traffic models rather than
inventing new ones: flow sizes come from the decile-encoded
:mod:`repro.sim.workload` CDFs (vectorised via ``sample_n``), paths
come from :mod:`repro.net` topologies with ECMP candidate sets.

The registry maps scenario names to builders; the replay driver runs
every registered scenario end-to-end.  Registered scenarios:

* ``web-search`` / ``hadoop`` -- Poisson arrivals with the paper's two
  flow-size CDFs on a k=4 fat-tree;
* ``incast`` -- synchronized many-to-one waves (the partition/aggregate
  pattern that motivates DCTCP's workload);
* ``microburst`` -- dense bursts on a few hot flows over light
  background mice;
* ``path-churn`` -- long-lived inter-pod flows that hop between ECMP
  paths mid-flow (the decoder-reset stress case);
* ``elephant-mice`` -- adversarial mix: a few huge flows interleaved
  with a swarm of 1-3 packet mice;
* ``isp-long-paths`` -- long-haul paths on a synthetic ISP tree (the
  Fig. 10 large-diameter regime).

Every scenario is a perfect network.  An impaired replay is a base
scenario plus ``ReplayDriver(impairments=[...])``, which scores the
sink against the offered stream (see :mod:`repro.replay.impair`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hashing import lane_blocks
from repro.net import fat_tree, synthetic_isp
from repro.net.topology import KIND, SWITCH, Topology
from repro.replay.trace import PATH_ID_DTYPE, SIZE_DTYPE, Trace
from repro.sim.workload import EmpiricalCDF, hadoop_cdf, web_search_cdf

#: Packet payload capacity: flow bytes become ceil(size / MTU) packets.
MTU = 1500


@dataclass(frozen=True)
class Scenario:
    """One registered generator: a named, seeded trace builder."""

    name: str
    description: str
    build: Callable[..., Trace]


#: The registry, in registration order.
SCENARIOS: Dict[str, Scenario] = {}


def scenario(name: str, description: str):
    """Register a trace builder under ``name``."""

    def deco(fn: Callable[..., Trace]) -> Callable[..., Trace]:
        if name in SCENARIOS:
            raise ValueError(f"scenario {name!r} already registered")
        SCENARIOS[name] = Scenario(name, description, fn)
        return fn

    return deco


def scenario_names() -> List[str]:
    """Registered scenario names, in registration order."""
    return list(SCENARIOS)


def build_trace(name: str, packets: int = 20_000, seed: int = 0, **kw) -> Trace:
    """Build ``name``'s trace with ~``packets`` records (seeded)."""
    try:
        entry = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; registered: {scenario_names()}"
        ) from None
    return entry.build(packets=packets, seed=seed, **kw)


# -- shared assembly helpers ----------------------------------------------


class _PathInterner:
    """Dedupe switch paths into a table; hand out stable indices."""

    def __init__(self) -> None:
        self._ids: Dict[Tuple[int, ...], int] = {}
        self.paths: List[Tuple[int, ...]] = []

    def intern(self, path: Sequence[int]) -> int:
        key = tuple(int(s) for s in path)
        idx = self._ids.get(key)
        if idx is None:
            idx = len(self.paths)
            self._ids[key] = idx
            self.paths.append(key)
        return idx


def _ecmp_switch_paths(
    topo: Topology, src: int, dst: int, limit: int = 8
) -> List[Tuple[int, ...]]:
    """Distinct switch-only ECMP paths between two nodes, in nx order."""
    out: List[Tuple[int, ...]] = []
    for node_path in topo.ecmp_paths(src, dst, limit):
        sw = tuple(
            n for n in node_path
            if topo.graph.nodes[n].get(KIND, SWITCH) == SWITCH
        )
        if sw and sw not in out:
            out.append(sw)
    return out


def _per_flow_columns(
    fids: np.ndarray,
    starts: np.ndarray,
    pkts: np.ndarray,
    gaps: np.ndarray,
    flow_path_id: np.ndarray,
    flow_bytes: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Expand per-flow specs into per-packet (ts, flow, path, size) columns.

    Packet ``j`` of a flow leaves at ``start + j * gap``; every packet
    is MTU-sized except the last, which carries the remainder of the
    flow's bytes (clamped to [1, MTU] in case the packet count was
    capped below ``ceil(bytes / MTU)``).
    """
    reps = pkts.astype(np.int64)
    total = int(reps.sum())
    offs = np.cumsum(reps) - reps
    seq = np.arange(total, dtype=np.int64) - np.repeat(offs, reps)
    ts = np.repeat(starts, reps) + seq * np.repeat(gaps, reps)
    flow_col = np.repeat(fids, reps)
    path_col = np.repeat(flow_path_id.astype(PATH_ID_DTYPE), reps)
    size_col = np.full(total, MTU, dtype=SIZE_DTYPE)
    last_rows = offs + reps - 1
    size_col[last_rows] = np.clip(flow_bytes - (reps - 1) * MTU, 1, MTU)
    return ts, flow_col, path_col, size_col


def _finalize(
    name: str,
    ts: np.ndarray,
    flow_col: np.ndarray,
    path_col: np.ndarray,
    size_col: np.ndarray,
    paths: Sequence[Sequence[int]],
    universe: Sequence[int],
    packets: Optional[int],
) -> Trace:
    """Time-sort, truncate to ``packets`` rows, assign sequential pids.

    One column at a time, each cast to its trace dtype before the
    gather: no 64-bit copy of a narrow column is made, and a column
    the caller handed over (straight from :func:`_per_flow_columns`)
    is let go as soon as its sorted copy exists.
    """
    order = np.argsort(ts, kind="stable")[:packets]
    ts = ts[order]
    flow_col = flow_col[order]
    path_col = path_col.astype(PATH_ID_DTYPE, copy=False)[order]
    size_col = size_col.astype(SIZE_DTYPE, copy=False)[order]
    return Trace(
        ts, flow_col, np.arange(order.size, dtype=np.int64),
        path_col, size_col, paths, universe, name,
    )


def _random_host_paths(
    topo: Topology,
    flows: int,
    rng: np.random.Generator,
    interner: _PathInterner,
    require_ecmp: bool = False,
) -> Tuple[np.ndarray, List[List[int]]]:
    """Pick a host pair per flow; return one interned ECMP pick each.

    Also returns each flow's full candidate list (interned), which the
    churn scenario cycles through.  ``require_ecmp`` keeps only pairs
    with at least two distinct switch paths.
    """
    hosts = topo.hosts
    cache: Dict[Tuple[int, int], List[int]] = {}
    picks = np.empty(flows, dtype=np.int64)
    candidates: List[List[int]] = []
    made = 0
    while made < flows:
        src, dst = rng.choice(len(hosts), size=2, replace=False)
        key = (hosts[int(src)], hosts[int(dst)])
        ids = cache.get(key)
        if ids is None:
            ids = [
                interner.intern(p)
                for p in _ecmp_switch_paths(topo, key[0], key[1])
            ]
            cache[key] = ids
        if require_ecmp and len(ids) < 2:
            continue
        picks[made] = ids[int(rng.integers(len(ids)))]
        candidates.append(ids)
        made += 1
    return picks, candidates


# -- the scenarios --------------------------------------------------------


def _poisson_dc(
    name: str,
    cdf: EmpiricalCDF,
    packets: int,
    seed: int,
    interarrival: float,
    max_flow_pkts: int,
) -> Trace:
    """Poisson flow arrivals with CDF-drawn sizes on a k=4 fat-tree."""
    rng = np.random.default_rng(seed)
    topo = fat_tree(4)
    mean_pkts = max(1.0, cdf.mean() / MTU)
    # Overshoot ~30% so truncation to `packets` rows cuts the tail, not
    # the flow mix.
    flows = max(8, int(1.3 * packets / mean_pkts))
    flow_bytes = cdf.sample_n(flows, rng)
    pkts = np.clip(-(-flow_bytes // MTU), 1, max_flow_pkts)
    starts = np.cumsum(rng.exponential(scale=interarrival, size=flows))
    gaps = rng.uniform(20e-6, 60e-6, size=flows)
    interner = _PathInterner()
    picks, _ = _random_host_paths(topo, flows, rng, interner)
    return _finalize(name, *_per_flow_columns(
        np.arange(1, flows + 1, dtype=np.int64), starts, pkts, gaps,
        picks, flow_bytes,
    ), interner.paths, topo.switch_universe(), packets)


@scenario("web-search", "Poisson web-search flows (Fig. 7b CDF), k=4 fat-tree")
def web_search(packets: int = 20_000, seed: int = 0, scale: float = 0.02) -> Trace:
    """Web-search workload, size-scaled so flows average ~30 packets."""
    return _poisson_dc("web-search", web_search_cdf(scale), packets, seed,
                       interarrival=200e-6, max_flow_pkts=512)


@scenario("hadoop", "Poisson Hadoop flows (Fig. 7c CDF), k=4 fat-tree")
def hadoop(packets: int = 20_000, seed: int = 0, scale: float = 0.1) -> Trace:
    """Hadoop workload: mostly sub-kilobyte mice plus a heavy tail."""
    return _poisson_dc("hadoop", hadoop_cdf(scale), packets, seed,
                       interarrival=120e-6, max_flow_pkts=512)


@scenario("incast", "Synchronized many-to-one waves into a single sink host")
def incast(
    packets: int = 20_000,
    seed: int = 0,
    fanin: int = 15,
    burst: int = 32,
    period: float = 1e-3,
) -> Trace:
    """Partition/aggregate incast: every worker answers every wave.

    One long-lived flow per worker; each wave, all workers burst
    ``burst`` MTU packets at the same aggregator host within
    microseconds of each other.

    Built without full-size temporaries: the stamps are filled one
    block of rows at a time (a row's wave, worker and packet come from
    its index), and every other column is derived from the time order
    block by block -- the peak is the trace plus that order.
    """
    rng = np.random.default_rng(seed)
    topo = fat_tree(4)
    hosts = topo.hosts
    fanin = min(fanin, len(hosts) - 1)
    aggregator = hosts[0]
    workers = hosts[1 : fanin + 1]
    interner = _PathInterner()
    worker_paths = np.empty(fanin, dtype=np.int64)
    for i, w in enumerate(workers):
        cands = _ecmp_switch_paths(topo, w, aggregator)
        worker_paths[i] = interner.intern(cands[int(rng.integers(len(cands)))])
    waves = max(1, -(-packets // (fanin * burst)))
    jitter = rng.uniform(0.0, 5e-6, size=(waves, fanin))
    # Row layout: wave-major, worker-mid, packet-minor.
    total = waves * fanin * burst
    ts = np.empty(total, dtype=np.float64)
    for block in lane_blocks(total, 1):
        wave_idx, rest = np.divmod(
            np.arange(block.start, min(block.stop, total)), fanin * burst
        )
        worker_idx, seq = np.divmod(rest, burst)
        ts[block] = (
            wave_idx * period
            + jitter[wave_idx, worker_idx]
            + seq * 1e-6
        )
    # The stable time order, truncated as _finalize truncates.
    order = np.argsort(ts, kind="stable")[:packets]
    ts = ts[order]
    n = order.size
    flow_col = np.empty(n, dtype=np.int64)
    path_col = np.empty(n, dtype=PATH_ID_DTYPE)
    for block in lane_blocks(n, 1):
        worker_idx = order[block] % (fanin * burst) // burst
        flow_col[block] = worker_idx + 1
        path_col[block] = worker_paths[worker_idx]
    del order  # pid and size need no order: free it before they exist
    return Trace(
        ts, flow_col, np.arange(n, dtype=np.int64), path_col,
        np.full(n, MTU, dtype=SIZE_DTYPE), interner.paths,
        topo.switch_universe(), "incast",
    )


@scenario("microburst", "Dense bursts on hot flows over background mice")
def microburst(
    packets: int = 20_000,
    seed: int = 0,
    hot_flows: int = 8,
    burst: int = 64,
    inter_burst: float = 5e-3,
    background_frac: float = 0.3,
) -> Trace:
    """Microburst trains: short dense bursts separated by quiet gaps.

    Hot flows fire trains of ``burst`` back-to-back packets every
    ``inter_burst`` seconds; a light background of mice keeps batches
    spanning many flows (the collector's grouping stress).
    """
    rng = np.random.default_rng(seed)
    topo = fat_tree(4)
    interner = _PathInterner()
    hot_budget = int(packets * (1.0 - background_frac))
    trains = max(1, -(-hot_budget // (hot_flows * burst)))
    hot_picks, _ = _random_host_paths(topo, hot_flows, rng, interner)
    # Hot columns: flow-major, train-mid, packet-minor.
    flow_idx = np.repeat(np.arange(hot_flows), trains * burst)
    train_idx = np.tile(np.repeat(np.arange(trains), burst), hot_flows)
    seq = np.tile(np.arange(burst), hot_flows * trains)
    phase = rng.uniform(0.0, inter_burst, size=hot_flows)
    hot_ts = phase[flow_idx] + train_idx * inter_burst + seq * 2e-6
    hot_flow_col = flow_idx + 1
    hot_path_col = hot_picks[flow_idx]
    duration = float(trains * inter_burst)
    # Background mice: 1-3 packets each, uniform arrivals.
    mice = max(4, int(packets * background_frac) // 2)
    mice_pkts = rng.integers(1, 4, size=mice)
    mice_picks, _ = _random_host_paths(topo, mice, rng, interner)
    mice_ts, mice_flow_col, mice_path_col, mice_size = _per_flow_columns(
        np.arange(hot_flows + 1, hot_flows + mice + 1, dtype=np.int64),
        rng.uniform(0.0, duration, size=mice),
        mice_pkts,
        np.full(mice, 30e-6),
        mice_picks,
        mice_pkts * MTU,
    )
    ts = np.concatenate([hot_ts, mice_ts])
    flow_col = np.concatenate([hot_flow_col, mice_flow_col])
    path_col = np.concatenate([hot_path_col, mice_path_col])
    size_col = np.concatenate(
        [np.full(hot_ts.size, MTU, dtype=SIZE_DTYPE), mice_size]
    )
    return _finalize("microburst", ts, flow_col, path_col, size_col,
                     interner.paths, topo.switch_universe(), packets)


@scenario("path-churn", "Long-lived inter-pod flows hopping between ECMP paths")
def path_churn(
    packets: int = 20_000,
    seed: int = 0,
    flows: int = 64,
    churn_every: Optional[int] = None,
) -> Trace:
    """ECMP path churn: each flow rotates through its candidate paths.

    Every ``churn_every`` packets a flow moves to its next equal-cost
    path -- the reroute case the path decoder detects as an
    inconsistency, resets on, and re-converges from (the driver's
    accuracy column quantifies the cost).  By default the period is a
    quarter of each flow's packet budget, so flows churn ~3 times at
    any trace size.
    """
    rng = np.random.default_rng(seed)
    topo = fat_tree(4)
    interner = _PathInterner()
    _, candidates = _random_host_paths(
        topo, flows, rng, interner, require_ecmp=True
    )
    per_flow = max(1, -(-packets // flows))
    if churn_every is None:
        churn_every = max(8, per_flow // 4)
    starts = rng.uniform(0.0, 1e-3, size=flows)
    gaps = rng.uniform(20e-6, 60e-6, size=flows)
    seq = np.arange(per_flow, dtype=np.int64)
    cols_ts = []
    cols_flow = []
    cols_path = []
    for f in range(flows):
        cands = np.asarray(candidates[f], dtype=np.int64)
        cols_ts.append(starts[f] + seq * gaps[f])
        cols_flow.append(np.full(per_flow, f + 1, dtype=np.int64))
        cols_path.append(cands[(seq // churn_every) % len(cands)])
    ts = np.concatenate(cols_ts)
    flow_col = np.concatenate(cols_flow)
    path_col = np.concatenate(cols_path)
    size_col = np.full(ts.size, MTU, dtype=SIZE_DTYPE)
    return _finalize("path-churn", ts, flow_col, path_col, size_col,
                     interner.paths, topo.switch_universe(), packets)


@scenario("elephant-mice", "A few huge flows interleaved with a mice swarm")
def elephant_mice(
    packets: int = 20_000,
    seed: int = 0,
    elephants: int = 6,
    elephant_share: float = 0.7,
) -> Trace:
    """Adversarial skew: elephants carry the bytes, mice carry the flows.

    The mice swarm forces the collector to hold state for thousands of
    flows that will never decode, while the elephants' packets arrive
    interleaved -- the flow-table and batching worst case.
    """
    rng = np.random.default_rng(seed)
    topo = fat_tree(4)
    interner = _PathInterner()
    ele_budget = int(packets * elephant_share)
    ele_pkts = np.full(elephants, max(1, ele_budget // elephants))
    mice = max(4, (packets - ele_budget) // 2)
    mice_pkts = rng.integers(1, 4, size=mice)
    counts = np.concatenate([ele_pkts, mice_pkts])
    flows = elephants + mice
    picks, _ = _random_host_paths(topo, flows, rng, interner)
    duration = 0.5
    starts = np.concatenate([
        rng.uniform(0.0, 1e-3, size=elephants),
        rng.uniform(0.0, duration, size=mice),
    ])
    # Elephant gaps spread their packets across the whole trace so every
    # batch interleaves them with mice.
    gaps = np.concatenate([
        duration / np.maximum(1, ele_pkts),
        np.full(mice, 30e-6),
    ])
    return _finalize("elephant-mice", *_per_flow_columns(
        np.arange(1, flows + 1, dtype=np.int64), starts, counts, gaps,
        picks, counts * MTU,
    ), interner.paths, topo.switch_universe(), packets)


@scenario("isp-long-paths", "Long-haul flows on a synthetic ISP tree")
def isp_long_paths(
    packets: int = 20_000,
    seed: int = 0,
    num_switches: int = 48,
    diameter: int = 12,
    flows: int = 48,
) -> Trace:
    """The Fig. 10 large-diameter regime: long paths, big universe.

    Endpoint pairs are drawn from a synthetic ISP tree (§6.3
    substitution); paths run up to ``diameter + 1`` switches, so
    per-flow decoding needs many more packets than in the fat-tree
    scenarios -- the slow-convergence end of the replay spectrum.
    """
    rng = np.random.default_rng(seed)
    topo = synthetic_isp(num_switches, diameter, seed=seed)
    switches = topo.switches
    interner = _PathInterner()
    picks = np.empty(flows, dtype=np.int64)
    made = 0
    while made < flows:
        a, b = rng.choice(len(switches), size=2, replace=False)
        path = topo.switch_path(switches[int(a)], switches[int(b)])
        if len(path) < 3:
            continue
        picks[made] = interner.intern(path)
        made += 1
    per_flow = max(1, -(-packets // flows))
    return _finalize("isp-long-paths", *_per_flow_columns(
        np.arange(1, flows + 1, dtype=np.int64),
        rng.uniform(0.0, 1e-3, size=flows),
        np.full(flows, per_flow, dtype=np.int64),
        rng.uniform(20e-6, 60e-6, size=flows),
        picks,
        np.full(flows, per_flow * MTU, dtype=np.int64),
    ), interner.paths, topo.switch_universe(), packets)

