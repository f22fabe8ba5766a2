"""Pipeline-wide metrics: counters, gauges, log-bucket histograms, spans.

The six-stage replay pipeline (scenario -> encode -> impair -> wire ->
ingest -> decode) spans threads, processes and sockets, and until now
its only visibility was the end-of-run report dict.  This module is
the shared instrumentation substrate: a thread-safe
:class:`MetricsRegistry` holding named :class:`Counter` /
:class:`Gauge` / :class:`Histogram` instruments (with static label
sets, so one registry can carry both sinks of a replay), plus
:class:`Span` stage timers built on an *injectable* clock so tests
assert exact durations instead of sleeping.

Design constraints, in priority order:

* **The data path must not notice.**  Instrumentation is per-*batch*,
  never per-record, and a disabled registry (:data:`NULL_REGISTRY`)
  hands out shared no-op instruments whose methods are empty -- the
  hot loops keep their ``inc()``/``with span:`` calls unconditionally
  and ``benchmarks/bench_obs_overhead.py`` enforces that the enabled
  path stays under 5% ingest overhead (that snapshots are
  bit-identical either way -- metrics observe, they never steer -- is
  the ``obs`` axis of ``tests/equivalence.py``).
* **Mergeable across processes.**  A registry serialises to a plain
  dict (:meth:`MetricsRegistry.as_dict`) and :func:`merge_metrics`
  folds any number of such dicts -- counters and histogram buckets
  add, gauges add (label per-worker gauges if you need them apart) --
  which is how the parallel collector's per-worker registries
  reassemble into one :class:`~repro.collector.snapshot.Snapshot`.
* **Scrape-friendly.**  The dict form renders to Prometheus text
  exposition (:mod:`repro.obs.prom`) and ships over the JSON query
  port's ``metrics`` verb unchanged.

Instruments whose value already lives somewhere cheaper (a flow-table
counter, a queue's ``qsize``) register a *function* via
``set_function`` and are read only at export time -- zero hot-path
cost is better than low.
"""

from __future__ import annotations

import bisect
import math
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "Span",
    "StageTimes",
    "log_buckets",
    "merge_metrics",
]

#: Label sets are frozen at instrument creation: a sorted tuple of
#: (key, value) pairs, hashable and deterministic.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Dict[str, str]]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def log_buckets(
    lo: float, hi: float, per_decade: int = 3
) -> Tuple[float, ...]:
    """Log-spaced histogram bucket upper bounds covering [lo, hi].

    ``per_decade`` bounds per power of ten, inclusive of both ends --
    the right shape for quantities spanning orders of magnitude
    (microseconds to seconds, single-record to million-record
    batches), where linear buckets waste resolution at one end.
    The implicit +Inf bucket is added by :class:`Histogram`.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError("need 0 < lo < hi for log-spaced buckets")
    if per_decade < 1:
        raise ValueError("per_decade must be >= 1")
    n = int(round(math.log10(hi / lo) * per_decade))
    bounds = [lo * (hi / lo) ** (i / n) for i in range(n + 1)] if n else [lo]
    # Round to a short decimal so bucket edges are stable across
    # platforms and readable in exposition ("0.00316", not 15 digits).
    out: List[float] = []
    for b in bounds:
        r = float(f"{b:.4g}")
        if not out or r > out[-1]:
            out.append(r)
    return tuple(out)


#: Default duration buckets: 1us .. 10s, 3 per decade.
DURATION_BUCKETS = log_buckets(1e-6, 10.0, per_decade=3)
#: Default size buckets: 1 .. 1M (records per batch, queue depths).
SIZE_BUCKETS = log_buckets(1.0, 1e6, per_decade=3)


class _Instrument:
    """Shared identity + lock for all instrument kinds."""

    __slots__ = ("name", "help", "labels", "_lock", "_fn")

    kind = "untyped"

    def __init__(self, name: str, help: str, labels: LabelKey) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self._lock = threading.Lock()
        self._fn: Optional[Callable[[], float]] = None

    def set_function(self, fn: Callable[[], float]) -> "_Instrument":
        """Read the value from ``fn`` at export time instead.

        For values that already exist (table counters, ``qsize``):
        the hot path pays nothing and the scrape pays one call.
        """
        self._fn = fn
        return self


class Counter(_Instrument):
    """Monotone accumulator (resets only with its process)."""

    __slots__ = ("_value",)

    kind = "counter"

    def __init__(self, name: str, help: str, labels: LabelKey) -> None:
        super().__init__(name, help, labels)
        self._value = 0.0

    def inc(self, by: float = 1.0) -> None:
        if by < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += by

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        with self._lock:
            return self._value

    def sample(self) -> dict:
        return {"labels": dict(self.labels), "value": self.value}


class Gauge(_Instrument):
    """A value that goes both ways (depths, RTT estimates, backlogs)."""

    __slots__ = ("_value",)

    kind = "gauge"

    def __init__(self, name: str, help: str, labels: LabelKey) -> None:
        super().__init__(name, help, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, by: float = 1.0) -> None:
        with self._lock:
            self._value += by

    def dec(self, by: float = 1.0) -> None:
        with self._lock:
            self._value -= by

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        with self._lock:
            return self._value

    def sample(self) -> dict:
        return {"labels": dict(self.labels), "value": self.value}


class Histogram(_Instrument):
    """Fixed-bucket distribution; log-spaced bounds by default.

    Buckets store *per-bucket* counts internally (cheap single
    increment per observe); exposition renders the cumulative
    ``le``-form Prometheus expects.  The +Inf bucket is implicit.
    """

    __slots__ = ("bounds", "_counts", "_sum", "_count")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labels: LabelKey,
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(buckets) if buckets is not None else DURATION_BUCKETS
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram buckets must be strictly increasing")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: the +Inf bucket
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        idx = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def sample(self) -> dict:
        with self._lock:
            counts = list(self._counts)
            total, n = self._sum, self._count
        edges = [*self.bounds, "+Inf"]
        return {
            "labels": dict(self.labels),
            "buckets": [[e, c] for e, c in zip(edges, counts)],
            "sum": total,
            "count": n,
        }


class _NullInstrument:
    """The disabled-mode instrument: every method is a no-op.

    One shared instance stands in for every counter, gauge and
    histogram of a :class:`NullRegistry`, so uninstrumented hot loops
    pay exactly one attribute call per metric site.
    """

    __slots__ = ()

    def inc(self, by: float = 1.0) -> None:
        pass

    def dec(self, by: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def set_function(self, fn: Callable[[], float]) -> "_NullInstrument":
        return self

    value = 0.0
    count = 0
    sum = 0.0


_NULL_INSTRUMENT = _NullInstrument()


class Span:
    """Context-manager stage timer feeding a histogram.

    Re-entrant use is not supported (a span times one section at a
    time); create distinct spans for distinct stages.  The clock is
    whatever the owning registry was built with -- inject a fake for
    deterministic tests.
    """

    __slots__ = ("_hist", "_clock", "_t0")

    def __init__(self, hist: Histogram, clock: Callable[[], float]) -> None:
        self._hist = hist
        self._clock = clock
        self._t0 = 0.0

    def __enter__(self) -> "Span":
        self._t0 = self._clock()
        return self

    def __exit__(self, *exc: object) -> None:
        self._hist.observe(self._clock() - self._t0)


class _NullSpan:
    """Disabled-mode span: enter/exit do nothing, no clock reads."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class MetricsRegistry:
    """Thread-safe named-instrument store, one per process (or sink).

    ``counter/gauge/histogram`` are get-or-create on the
    ``(name, labels)`` pair: asking twice returns the same instrument,
    asking with a different kind for an existing name raises.  This is
    what lets independently-constructed components (two collectors, a
    server, a sender) share one registry without coordination --
    distinct label sets keep their streams apart.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._lock = threading.Lock()
        self._instruments: Dict[Tuple[str, LabelKey], _Instrument] = {}
        self._kinds: Dict[str, str] = {}
        self._help: Dict[str, str] = {}

    def _get_or_create(
        self,
        cls: Any,
        name: str,
        help: str,
        labels: Optional[Dict[str, str]],
        **kw: Any,
    ) -> Any:
        key = (name, _label_key(labels))
        with self._lock:
            existing = self._instruments.get(key)
            if existing is not None:
                if existing.kind != cls.kind:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                return existing
            if name in self._kinds and self._kinds[name] != cls.kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{self._kinds[name]}, not {cls.kind}"
                )
            inst = cls(name, help or self._help.get(name, ""), key[1], **kw)
            self._instruments[key] = inst
            self._kinds[name] = cls.kind
            if help:
                self._help[name] = help
            return inst

    def counter(
        self, name: str, help: str = "",
        labels: Optional[Dict[str, str]] = None,
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(
        self, name: str, help: str = "",
        labels: Optional[Dict[str, str]] = None,
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self, name: str, help: str = "",
        labels: Optional[Dict[str, str]] = None,
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labels, buckets=buckets
        )

    def span(
        self, name: str, help: str = "",
        labels: Optional[Dict[str, str]] = None,
        buckets: Optional[Tuple[float, ...]] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> Span:
        """A stage timer whose durations land in histogram ``name``.

        ``clock`` replaces the registry's own for this span, e.g.
        ``time.thread_time`` to time a stage's CPU beside its wall.
        """
        return Span(
            self.histogram(name, help, labels, buckets=buckets),
            self.clock if clock is None else clock,
        )

    def as_dict(self) -> dict:
        """Deterministic, JSON-/pickle-ready dump of every instrument.

        Function-backed instruments are evaluated *here*, in the
        owning process -- which is why worker registries cross the
        pipe as dicts, never as live objects.
        """
        with self._lock:
            items = sorted(self._instruments.items())
        families: Dict[str, dict] = {}
        for (name, _), inst in items:
            fam = families.setdefault(name, {
                "type": inst.kind,
                "help": self._help.get(name, ""),
                "samples": [],
            })
            fam["samples"].append(inst.sample())
        return {"families": families}


class NullRegistry:
    """The disabled registry: shared no-op instruments, empty export.

    ``enabled`` is False so call sites can skip *preparation* work
    (delta sums, label formatting) entirely; the instrument calls
    themselves are already free.
    """

    enabled = False
    clock = time.perf_counter

    def counter(
        self, name: str, help: str = "",
        labels: Optional[Dict[str, str]] = None,
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(
        self, name: str, help: str = "",
        labels: Optional[Dict[str, str]] = None,
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(
        self, name: str, help: str = "",
        labels: Optional[Dict[str, str]] = None,
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def span(
        self, name: str, help: str = "",
        labels: Optional[Dict[str, str]] = None,
        buckets: Optional[Tuple[float, ...]] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> _NullSpan:
        return _NULL_SPAN

    def as_dict(self) -> dict:
        return {"families": {}}


#: The shared disabled registry -- pass nothing, get this.
NULL_REGISTRY = NullRegistry()


class StageTimes:
    """Always-on per-stage wall-time accumulator for one run.

    Lighter than histograms: a plain ``{stage: seconds}`` dict plus a
    reusable span object per stage (no contextlib machinery, two clock
    reads per section).  The replay driver uses one per ``replay()``
    call and copies :meth:`totals` onto the
    :class:`~repro.replay.driver.ScenarioReport`.
    """

    __slots__ = ("totals", "_clock", "_spans")

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.totals: Dict[str, float] = {}
        self._clock = clock
        self._spans: Dict[str, _StageSpan] = {}

    def span(self, stage: str) -> "_StageSpan":
        """The (cached, reusable) timer for ``stage``."""
        sp = self._spans.get(stage)
        if sp is None:
            sp = self._spans[stage] = _StageSpan(self, stage)
        return sp

    def add(self, stage: str, seconds: float) -> None:
        self.totals[stage] = self.totals.get(stage, 0.0) + seconds

    def items(self) -> Tuple[Tuple[str, float], ...]:
        """Stable (stage, seconds) pairs, insertion-ordered."""
        return tuple(self.totals.items())


class _StageSpan:
    """One stage's reusable context manager (see :class:`StageTimes`)."""

    __slots__ = ("_times", "_stage", "_t0")

    def __init__(self, times: StageTimes, stage: str) -> None:
        self._times = times
        self._stage = stage
        self._t0 = 0.0

    def __enter__(self) -> "_StageSpan":
        self._t0 = self._times._clock()
        return self

    def __exit__(self, *exc: object) -> None:
        self._times.add(self._stage, self._times._clock() - self._t0)


# -- cross-process merge -----------------------------------------------------

def _merge_histogram(into: dict, sample: dict) -> None:
    if [b[0] for b in into["buckets"]] != [b[0] for b in sample["buckets"]]:
        raise ValueError("cannot merge histograms with different buckets")
    for slot, (_, count) in zip(into["buckets"], sample["buckets"]):
        slot[1] += count
    into["sum"] += sample["sum"]
    into["count"] += sample["count"]


def merge_metrics(parts: Iterable[Optional[dict]]) -> Optional[dict]:
    """Fold registry dumps (:meth:`MetricsRegistry.as_dict`) into one.

    Samples are matched on ``(family, labels)``: counters and gauges
    add their values, histograms add bucket-wise (identical bucket
    edges required).  ``None`` parts are skipped -- a worker with
    metrics disabled simply contributes nothing -- and all-``None``
    input returns ``None``, so an uninstrumented merge stays
    indistinguishable from no merge at all.  Mismatched types for the
    same family raise: that is version skew, not data.
    """
    merged: Optional[dict] = None
    for part in parts:
        if part is None:
            continue
        if merged is None:
            merged = {"families": {}}
        for name, fam in part.get("families", {}).items():
            mfam = merged["families"].get(name)
            if mfam is None:
                mfam = merged["families"][name] = {
                    "type": fam["type"],
                    "help": fam.get("help", ""),
                    "samples": [],
                }
            elif mfam["type"] != fam["type"]:
                raise ValueError(
                    f"cannot merge metric {name!r}: type "
                    f"{fam['type']} vs {mfam['type']}"
                )
            if not mfam["help"]:
                mfam["help"] = fam.get("help", "")
            by_labels = {
                tuple(sorted(s["labels"].items())): s
                for s in mfam["samples"]
            }
            for sample in fam["samples"]:
                key = tuple(sorted(sample["labels"].items()))
                into = by_labels.get(key)
                if into is None:
                    copy = {
                        "labels": dict(sample["labels"]),
                    }
                    if "buckets" in sample:
                        copy["buckets"] = [
                            [e, c] for e, c in sample["buckets"]
                        ]
                        copy["sum"] = sample["sum"]
                        copy["count"] = sample["count"]
                    else:
                        copy["value"] = sample["value"]
                    mfam["samples"].append(copy)
                    by_labels[key] = copy
                elif "buckets" in sample:
                    _merge_histogram(into, sample)
                else:
                    into["value"] += sample["value"]
    if merged is not None:
        for fam in merged["families"].values():
            fam["samples"].sort(
                key=lambda s: tuple(sorted(s["labels"].items()))
            )
    return merged
