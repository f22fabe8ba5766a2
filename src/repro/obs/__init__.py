"""Pipeline-wide observability: metrics, stage tracing, exposition.

PINT is itself a telemetry system; this package is the telemetry *of*
the reproduction's own pipeline -- the per-stage visibility ROADMAP
item 2 calls out as missing (end-to-end replay runs 50x slower than
serial ingest and nothing says where the time goes).

Three layers, each usable alone:

* :mod:`repro.obs.metrics` -- thread-safe :class:`MetricsRegistry`
  (Counter / Gauge / log-bucket Histogram), :class:`Span` stage
  timers with an injectable clock, a shared no-op
  :data:`NULL_REGISTRY` for the disabled fast path, and
  :func:`merge_metrics` for folding per-process registries.
* :mod:`repro.obs.prom` -- Prometheus text exposition v0.0.4 and a
  stdlib scrape server (``GET /metrics``).
* :mod:`repro.obs.watch` -- a live terminal view polling a running
  collector's query port with a fixed-size ring-buffer history
  (``python -m repro.obs watch``).

The instrumented components (collector, parallel scatter, replay
driver, service front door, reliable sender) all take an optional
``obs=`` registry; omitted, they run on the no-op registry.  Two
properties make this safe to leave on: instrumented output is
bit-identical (the ``obs`` axis of ``tests/equivalence.py``) and
enabled overhead stays under 5% of ingest
(``benchmarks/bench_obs_overhead.py``).
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    Span,
    StageTimes,
    log_buckets,
    merge_metrics,
)
from repro.obs.prom import MetricsHTTPServer, render_prometheus

#: The watch layer sits *above* the collector (it polls query ports),
#: while the collector imports :mod:`repro.obs.metrics` from below --
#: so ``repro.obs.watch`` must load lazily or the package would cycle
#: through ``repro.service`` on its own import.
_WATCH_NAMES = ("RingBuffer", "Watcher", "sparkline", "watch")


def __getattr__(name: str):
    if name in _WATCH_NAMES:
        # importlib, not ``from repro.obs import watch``: the function
        # ``watch`` shadows the submodule name, so a from-import would
        # re-enter this hook and recurse.
        import importlib

        _watch = importlib.import_module("repro.obs.watch")
        return getattr(_watch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsHTTPServer",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "RingBuffer",
    "Span",
    "StageTimes",
    "Watcher",
    "log_buckets",
    "merge_metrics",
    "render_prometheus",
    "sparkline",
    "watch",
]
