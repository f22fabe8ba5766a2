"""Columnar trace/scenario replay engine with a vectorized dataplane.

The batch-oriented source the sink-side collector was missing: PINT's
switches do O(1) per-packet stamping while the sink decodes at leisure
(§3-§4), and this subpackage reproduces that split at array speed --

* :class:`Trace` -- struct-of-arrays packet traces (``.npz`` save/load,
  CSV import), paths interned into a table;
* :mod:`repro.replay.scenarios` -- seeded generators for named traffic
  scenarios (web-search, Hadoop, incast, microbursts, ECMP path churn,
  elephant/mice, ISP long paths);
* :class:`TraceDataplane` -- the whole-batch switch-chain encoder,
  bit-identical to the scalar :class:`repro.coding.PathEncoder`;
* :class:`ReplayDriver` -- streams encoded batches into a
  :class:`repro.collector.Collector` and scores throughput + decode
  accuracy per scenario.

See DESIGN.md ("Replay engine") for the data flow and ``bench/`` for
the end-to-end and per-layer numbers.
"""

from repro.replay.dataplane import TraceDataplane, compress_utilizations
from repro.replay.driver import ReplayDriver, ScenarioReport
from repro.replay.impair import (
    DeliverySummary,
    Duplicate,
    GilbertElliott,
    IIDLoss,
    ImpairmentModel,
    Reorder,
    describe_models,
    plan_delivery,
    summarize_delivery,
)
from repro.replay.scenarios import (
    SCENARIOS,
    Scenario,
    build_trace,
    scenario,
    scenario_names,
)
from repro.replay.trace import Trace

__all__ = [
    "Trace",
    "Scenario",
    "SCENARIOS",
    "scenario",
    "scenario_names",
    "build_trace",
    "TraceDataplane",
    "compress_utilizations",
    "ReplayDriver",
    "ScenarioReport",
    "ImpairmentModel",
    "IIDLoss",
    "GilbertElliott",
    "Reorder",
    "Duplicate",
    "DeliverySummary",
    "plan_delivery",
    "summarize_delivery",
    "describe_models",
]
