"""repro.obs: metrics registry, spans, merge, exposition, watch CLI.

The observability substrate's contract is sharp: instruments are
get-or-create on (name, labels) with kind consistency enforced, the
disabled registry is free, registry dumps merge across processes
bucket-by-bucket, and the dict form round-trips to Prometheus text
exposition byte-for-byte predictably.  Spans and the watch loop take
injectable clocks, so every timing assertion here is exact -- no
sleeps, no tolerances.
"""

from __future__ import annotations

import io
import json
import threading
import urllib.request

import pytest

from repro.collector import Collector, path_consumer_factory
from repro.obs import (
    MetricsHTTPServer,
    MetricsRegistry,
    NULL_REGISTRY,
    RingBuffer,
    StageTimes,
    Watcher,
    log_buckets,
    merge_metrics,
    render_prometheus,
    sparkline,
)
from repro.obs.metrics import DURATION_BUCKETS, SIZE_BUCKETS
from repro.replay import ReplayDriver, build_trace
from repro.service.query import QueryServer


class FakeClock:
    """Deterministic clock: advances only when told."""

    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# -- buckets ----------------------------------------------------------------

class TestLogBuckets:
    def test_strictly_increasing_and_covering(self):
        b = log_buckets(1e-6, 10.0, per_decade=3)
        assert list(b) == sorted(set(b))
        assert b[0] == pytest.approx(1e-6)
        assert b[-1] == pytest.approx(10.0)

    def test_per_decade_density(self):
        assert len(log_buckets(1.0, 1000.0, per_decade=1)) == 4  # 1,10,100,1k
        assert len(log_buckets(1.0, 100.0, per_decade=3)) == 7

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            log_buckets(0.0, 1.0)
        with pytest.raises(ValueError):
            log_buckets(2.0, 1.0)
        with pytest.raises(ValueError):
            log_buckets(1.0, 10.0, per_decade=0)

    def test_default_buckets_sane(self):
        assert DURATION_BUCKETS[0] == pytest.approx(1e-6)
        assert DURATION_BUCKETS[-1] == pytest.approx(10.0)
        assert SIZE_BUCKETS[0] == 1.0 and SIZE_BUCKETS[-1] == pytest.approx(1e6)


# -- instruments ------------------------------------------------------------

class TestInstruments:
    def test_counter_monotone(self):
        c = MetricsRegistry().counter("c_total")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)
        assert c.value == 5

    def test_gauge_goes_both_ways(self):
        g = MetricsRegistry().gauge("g")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.value == 7.0

    def test_histogram_buckets_and_moments(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 1.0, 5.0, 50.0, 500.0):
            h.observe(v)
        s = h.sample()
        # Per-bucket internal counts: <=1, <=10, <=100, +Inf.
        assert s["buckets"] == [[1.0, 2], [10.0, 1], [100.0, 1], ["+Inf", 1]]
        assert s["count"] == 5 and s["sum"] == pytest.approx(556.5)

    def test_histogram_rejects_unsorted_buckets(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("bad", buckets=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            reg.histogram("bad2", buckets=(2.0, 1.0))

    def test_function_backed_read_at_export(self):
        reg = MetricsRegistry()
        box = {"n": 3}
        reg.counter("fn_total").set_function(lambda: box["n"])
        assert reg.counter("fn_total").value == 3
        box["n"] = 9
        fam = reg.as_dict()["families"]["fn_total"]
        assert fam["samples"][0]["value"] == 9


class TestRegistry:
    def test_get_or_create_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "help once")
        b = reg.counter("x_total")
        assert a is b
        a.inc()
        assert b.value == 1

    def test_labels_separate_streams(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", labels={"sink": "path"})
        b = reg.counter("x_total", labels={"sink": "congestion"})
        assert a is not b
        a.inc(3)
        samples = reg.as_dict()["families"]["x_total"]["samples"]
        assert len(samples) == 2
        by = {s["labels"]["sink"]: s["value"] for s in samples}
        assert by == {"path": 3, "congestion": 0}

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.histogram("x_total", labels={"other": "labels"})

    def test_as_dict_deterministic_and_json_safe(self):
        reg = MetricsRegistry()
        reg.counter("b_total", labels={"w": "1"}).inc()
        reg.counter("b_total", labels={"w": "0"}).inc(2)
        reg.gauge("a").set(1.5)
        d1, d2 = reg.as_dict(), reg.as_dict()
        assert d1 == d2
        json.dumps(d1, allow_nan=False)
        labels = [s["labels"]["w"]
                  for s in d1["families"]["b_total"]["samples"]]
        assert labels == ["0", "1"]  # sorted by label tuple

    def test_thread_safety_no_lost_updates(self):
        reg = MetricsRegistry()
        c = reg.counter("t_total")

        def bump():
            for _ in range(10_000):
                c.inc()

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 40_000


class TestSpans:
    def test_span_exact_duration_with_fake_clock(self):
        clock = FakeClock()
        reg = MetricsRegistry(clock=clock)
        sp = reg.span("stage_seconds", buckets=(0.1, 1.0))
        with sp:
            clock.advance(0.5)
        with sp:
            clock.advance(0.05)
        h = reg.histogram("stage_seconds", buckets=(0.1, 1.0))
        assert h.count == 2 and h.sum == pytest.approx(0.55)
        assert h.sample()["buckets"] == [[0.1, 1], [1.0, 1], ["+Inf", 0]]

    def test_stage_times_accumulates(self):
        clock = FakeClock()
        st = StageTimes(clock=clock)
        with st.span("encode"):
            clock.advance(1.0)
        with st.span("ingest"):
            clock.advance(0.25)
        with st.span("encode"):
            clock.advance(0.5)
        st.add("decode", 2.0)
        assert dict(st.items()) == {
            "encode": 1.5, "ingest": 0.25, "decode": 2.0,
        }
        # Insertion-ordered, and the span objects are reused.
        assert [k for k, _ in st.items()] == ["encode", "ingest", "decode"]
        assert st.span("encode") is st.span("encode")


    def test_span_takes_its_own_clock(self):
        wall, cpu = FakeClock(), FakeClock()
        reg = MetricsRegistry(clock=wall)
        with reg.span("busy_seconds", clock=cpu):
            wall.advance(2.0)
            cpu.advance(0.5)
        assert reg.histogram("busy_seconds").sum == pytest.approx(0.5)


class TestCollectorCpuSpans:
    """A collector times its group and consume stages twice: wall time,
    and this thread's CPU time, so a slow fold tells working from
    waiting.  A bare collector reads neither clock."""

    @staticmethod
    def _ingest(obs):
        sink = Collector(
            path_consumer_factory(
                range(16), digest_bits=8, num_hashes=1, seed=0, mode="hash",
                value_bits=4,
            ),
            num_shards=2, obs=obs,
        )
        cols = ([1, 2, 1, 3], [1, 2, 3, 4], [4, 4, 4, 4], [9, 8, 7, 6])
        sink.ingest_batch(*cols, now=1.0)
        sink.ingest_run([(cols, 2.0), (cols, 3.0)])
        return sink

    @pytest.mark.parametrize("stage", ["group", "consume"])
    def test_cpu_span_beside_each_wall_span(self, stage):
        obs = MetricsRegistry()
        self._ingest(obs)
        fams = obs.as_dict()["families"]
        wall = fams[f"pint_collector_{stage}_seconds"]["samples"][0]
        cpu = fams[f"pint_collector_{stage}_cpu_seconds"]["samples"][0]
        assert cpu["count"] == wall["count"] > 0
        assert 0.0 <= cpu["sum"]

    def test_the_cpu_clock_is_read_only_when_enabled(self, monkeypatch):
        import time

        reads = []
        real = time.thread_time

        def thread_time():
            reads.append(1)
            return real()

        monkeypatch.setattr(time, "thread_time", thread_time)
        self._ingest(None)
        assert reads == []
        self._ingest(MetricsRegistry())
        assert reads


class TestNullRegistry:
    def test_everything_is_a_noop(self):
        assert NULL_REGISTRY.enabled is False
        c = NULL_REGISTRY.counter("x_total")
        c.inc()
        c.inc(100)
        NULL_REGISTRY.gauge("g").set(5)
        NULL_REGISTRY.histogram("h").observe(1.0)
        with NULL_REGISTRY.span("s"):
            pass
        assert c.value == 0.0
        assert NULL_REGISTRY.as_dict() == {"families": {}}

    def test_shared_instances(self):
        # One instrument object serves every name: no allocation per site.
        assert NULL_REGISTRY.counter("a") is NULL_REGISTRY.gauge("b")
        assert NULL_REGISTRY.span("s") is NULL_REGISTRY.span("t")
        assert NULL_REGISTRY.counter("a").set_function(lambda: 9).value == 0.0


# -- merge ------------------------------------------------------------------

def _dump(build) -> dict:
    reg = MetricsRegistry()
    build(reg)
    return reg.as_dict()


class TestMergeMetrics:
    def test_counters_and_gauges_add(self):
        a = _dump(lambda r: r.counter("c_total").inc(3))
        b = _dump(lambda r: r.counter("c_total").inc(4))
        merged = merge_metrics([a, b])
        assert merged["families"]["c_total"]["samples"][0]["value"] == 7

    def test_label_streams_merge_independently(self):
        def one(r):
            r.counter("c_total", labels={"w": "0"}).inc(1)
            r.counter("c_total", labels={"w": "1"}).inc(10)

        merged = merge_metrics([_dump(one), _dump(one)])
        by = {s["labels"]["w"]: s["value"]
              for s in merged["families"]["c_total"]["samples"]}
        assert by == {"0": 2, "1": 20}

    def test_histograms_add_bucketwise(self):
        def one(r):
            h = r.histogram("h", buckets=(1.0, 10.0))
            h.observe(0.5)
            h.observe(5.0)

        merged = merge_metrics([_dump(one), _dump(one), None])
        s = merged["families"]["h"]["samples"][0]
        assert s["buckets"] == [[1.0, 2], [10.0, 2], ["+Inf", 0]]
        assert s["count"] == 4 and s["sum"] == pytest.approx(11.0)

    def test_bucket_mismatch_raises(self):
        a = _dump(lambda r: r.histogram("h", buckets=(1.0, 2.0)).observe(1))
        b = _dump(lambda r: r.histogram("h", buckets=(1.0, 3.0)).observe(1))
        with pytest.raises(ValueError, match="different buckets"):
            merge_metrics([a, b])

    def test_type_mismatch_raises(self):
        a = _dump(lambda r: r.counter("x").inc())
        b = _dump(lambda r: r.gauge("x").set(1))
        with pytest.raises(ValueError, match="cannot merge metric"):
            merge_metrics([a, b])

    def test_none_parts_skip_and_all_none_stays_none(self):
        assert merge_metrics([]) is None
        assert merge_metrics([None, None]) is None
        a = _dump(lambda r: r.counter("c_total").inc())
        assert merge_metrics([None, a, None]) == a

    def test_merge_does_not_mutate_inputs(self):
        a = _dump(lambda r: r.counter("c_total").inc(1))
        b = _dump(lambda r: r.counter("c_total").inc(2))
        before = json.dumps([a, b], sort_keys=True)
        merge_metrics([a, b])
        assert json.dumps([a, b], sort_keys=True) == before


# -- exposition -------------------------------------------------------------

class TestRenderPrometheus:
    def test_counter_and_gauge_lines(self):
        reg = MetricsRegistry()
        reg.counter("pint_x_total", "records in", {"sink": "path"}).inc(41)
        reg.gauge("pint_depth").set(2.5)
        text = render_prometheus(reg)
        assert "# HELP pint_x_total records in" in text
        assert "# TYPE pint_x_total counter" in text
        assert 'pint_x_total{sink="path"} 41' in text  # integral: no ".0"
        assert "pint_depth 2.5" in text
        assert text.endswith("\n")

    def test_histogram_renders_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("pint_h", buckets=(1.0, 10.0))
        for v in (0.5, 0.6, 5.0, 50.0):
            h.observe(v)
        text = render_prometheus(reg)
        assert 'pint_h_bucket{le="1"} 2' in text
        assert 'pint_h_bucket{le="10"} 3' in text
        assert 'pint_h_bucket{le="+Inf"} 4' in text
        assert "pint_h_sum 56.1" in text
        assert "pint_h_count 4" in text

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("pint_e_total", labels={"q": 'a"b\\c\nd'}).inc()
        text = render_prometheus(reg)
        assert 'q="a\\"b\\\\c\\nd"' in text

    def test_accepts_dict_and_merged_payloads(self):
        a = _dump(lambda r: r.counter("c_total").inc(2))
        b = _dump(lambda r: r.counter("c_total").inc(3))
        text = render_prometheus(merge_metrics([a, b]))
        assert "c_total 5" in text


class TestMetricsHTTPServer:
    def test_scrape_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("pint_up_total").inc(7)
        with MetricsHTTPServer(reg) as srv:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{srv.port}/metrics", timeout=5
            ) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"].startswith("text/plain")
                body = resp.read().decode()
        assert "pint_up_total 7" in body

    def test_scrape_sees_live_updates(self):
        reg = MetricsRegistry()
        c = reg.counter("pint_live_total")
        with MetricsHTTPServer(reg) as srv:
            url = f"http://127.0.0.1:{srv.port}/metrics"
            c.inc()
            with urllib.request.urlopen(url, timeout=5) as resp:
                assert "pint_live_total 1" in resp.read().decode()
            c.inc(9)
            with urllib.request.urlopen(url, timeout=5) as resp:
                assert "pint_live_total 10" in resp.read().decode()

    def test_unknown_path_404(self):
        with MetricsHTTPServer(MetricsRegistry()) as srv:
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{srv.port}/nope", timeout=5
                )
            assert exc.value.code == 404

    def test_callable_source(self):
        box = {"families": {"pint_fn": {
            "type": "gauge", "help": "", "samples":
            [{"labels": {}, "value": 1}],
        }}}
        with MetricsHTTPServer(lambda: box) as srv:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{srv.port}/metrics", timeout=5
            ) as resp:
                assert "pint_fn 1" in resp.read().decode()


# -- watch ------------------------------------------------------------------

class TestRingBuffer:
    def test_append_and_order(self):
        ring = RingBuffer(3)
        for i in range(2):
            ring.append(i)
        assert list(ring) == [0, 1]
        assert ring.oldest() == 0 and ring.latest() == 1

    def test_wraparound_overwrites_oldest(self):
        ring = RingBuffer(3)
        for i in range(7):
            ring.append(i)
        assert len(ring) == 3
        assert list(ring) == [4, 5, 6]
        assert ring.oldest() == 4 and ring.latest() == 6

    def test_capacity_one(self):
        ring = RingBuffer(1)
        ring.append("a")
        ring.append("b")
        assert list(ring) == ["b"]
        assert ring.latest() == ring.oldest() == "b"

    def test_empty_and_invalid(self):
        with pytest.raises(ValueError):
            RingBuffer(0)
        ring = RingBuffer(2)
        assert list(ring) == [] and len(ring) == 0
        with pytest.raises(IndexError):
            ring.latest()
        with pytest.raises(IndexError):
            ring.oldest()


class TestSparkline:
    def test_scales_to_max(self):
        line = sparkline([0, 5, 10])
        assert len(line) == 3
        assert line[0] == " " and line[-1] == "█"

    def test_all_zero_and_empty(self):
        assert sparkline([]) == ""
        assert sparkline([0, 0, 0]) == "   "

    def test_width_clips_oldest(self):
        assert len(sparkline(range(100), width=10)) == 10


def _watch_fixture(obs=None):
    """A live query server over a freshly fed collector."""
    trace = build_trace("hadoop", packets=400, seed=3)
    coll = Collector(
        path_consumer_factory(trace.universe, digest_bits=8, num_hashes=1,
                              seed=3),
        num_shards=2, seed=3, obs=obs,
    )
    from repro.replay import TraceDataplane
    import numpy as np
    dp = TraceDataplane(trace, digest_bits=8, num_hashes=1, seed=3)
    rows = np.arange(len(trace), dtype=np.int64)
    coll.ingest_batch(trace.flow_id, trace.pid, trace.hop_counts,
                      dp.encode_rows(rows), now=1.0)
    metrics_fn = (lambda: obs.as_dict()) if obs is not None else None
    return QueryServer(coll, threading.Lock(), metrics_fn=metrics_fn).start()


class TestWatcher:
    def test_session_renders_frames_and_rates(self):
        qs = _watch_fixture()
        out = io.StringIO()
        clock = FakeClock()
        try:
            w = Watcher("127.0.0.1", qs.port, interval=1.0, history=8,
                        out=out, clock=clock,
                        sleep=lambda dt: clock.advance(dt), clear=False)
            frames = w.run(iterations=3)
        finally:
            qs.close()
        assert frames == 3
        text = out.getvalue()
        assert text.count("repro.obs watch") == 3
        assert "records" in text and "ingest rate" in text
        # Three samples one fake-second apart, no new records: two
        # adjacent-pair rates, both exactly zero.
        assert w.rates() == [0.0, 0.0]
        assert len(w.ring) == 3

    def test_metric_lines_appear_with_registry(self):
        obs = MetricsRegistry()
        qs = _watch_fixture(obs=obs)
        out = io.StringIO()
        clock = FakeClock()
        try:
            w = Watcher("127.0.0.1", qs.port, interval=0.5, history=4,
                        out=out, clock=clock,
                        sleep=lambda dt: clock.advance(dt), clear=False)
            frames = w.run(iterations=1)
        finally:
            qs.close()
        assert frames == 1
        # The collector was built with this registry, so the frame
        # carries the per-batch stage digest.
        assert "stages:" in out.getvalue()
        assert "consume" in out.getvalue()

    def test_stage_timings_are_per_batch(self):
        # One run of four batches enters the group stage five times
        # (each batch's check, then the run's grouping) and the consume
        # stage twice: "ms/batch" divides by the batches counted.
        obs = MetricsRegistry()
        trace = build_trace("hadoop", packets=20_000, seed=3)
        coll = Collector(
            path_consumer_factory(trace.universe, digest_bits=8,
                                  num_hashes=1, seed=3),
            num_shards=2, seed=3, obs=obs,
        )
        from repro.replay import TraceDataplane
        import numpy as np
        dp = TraceDataplane(trace, digest_bits=8, num_hashes=1, seed=3)
        digests = dp.encode_rows(np.arange(len(trace), dtype=np.int64))
        quarter = len(trace) // 4
        coll.ingest_run([
            ((trace.flow_id[lo:lo + quarter], trace.pid[lo:lo + quarter],
              trace.hop_counts[lo:lo + quarter], digests[lo:lo + quarter]),
             float(i + 1))
            for i, lo in enumerate(range(0, 4 * quarter, quarter))
        ])
        metrics = obs.as_dict()
        families = metrics["families"]
        assert families["pint_collector_batches_total"]["samples"][0][
            "value"] == 4
        text = "\n".join(Watcher(interval=1.0)._metric_lines(metrics))
        for label in ("group", "consume"):
            samples = families[f"pint_collector_{label}_seconds"]["samples"]
            assert sum(s["count"] for s in samples) != 4
            total = sum(s["sum"] for s in samples)
            assert f"{label} {total / 4 * 1e3:.2f}ms/batch" in text

    def test_bare_collector_omits_wire_lines(self):
        qs = _watch_fixture()  # no stats_fn, no metrics_fn
        out = io.StringIO()
        clock = FakeClock()
        try:
            Watcher("127.0.0.1", qs.port, interval=1.0, history=4,
                    out=out, clock=clock,
                    sleep=lambda dt: clock.advance(dt), clear=False,
                    ).run(iterations=1)
        finally:
            qs.close()
        assert "wire:" not in out.getvalue()
        assert "stages:" not in out.getvalue()

    def test_connection_loss_is_a_message_not_a_traceback(self):
        qs = _watch_fixture()
        port = qs.port
        out = io.StringIO()
        clock = FakeClock()
        w = Watcher("127.0.0.1", port, interval=1.0, history=4, out=out,
                    clock=clock, sleep=lambda dt: clock.advance(dt),
                    clear=False)
        qs.close()  # server gone before the watch starts
        frames = w.run(iterations=2)
        assert frames == 0
        assert "connection lost" in out.getvalue()

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            Watcher(interval=0.0)


class TestObsCLI:
    def test_parser_shapes(self):
        from repro.obs.__main__ import build_parser
        args = build_parser().parse_args(["watch", "--port", "7",
                                          "--iterations", "2", "--no-clear"])
        assert args.port == 7 and args.iterations == 2 and args.no_clear
        args = build_parser().parse_args(["dump", "--port", "7", "--json"])
        assert args.json is True
        with pytest.raises(SystemExit):
            build_parser().parse_args(["watch"])  # --port required

    def test_dump_prints_exposition(self, capsys):
        from repro.obs.__main__ import main
        obs = MetricsRegistry()
        obs.counter("pint_cli_total").inc(3)
        qs = _watch_fixture(obs=obs)
        try:
            assert main(["dump", "--port", str(qs.port)]) == 0
        finally:
            qs.close()
        assert "pint_cli_total 3" in capsys.readouterr().out


# -- driver stage breakdown -------------------------------------------------

class TestDriverStageBreakdown:
    def test_report_carries_stage_seconds(self):
        trace = build_trace("incast", packets=800, seed=0)
        report = ReplayDriver(batch_size=256, seed=0).replay(trace)
        stages = dict(report.stage_seconds)
        for stage in ("select", "encode", "ingest", "decode", "transport"):
            assert stage in stages and stages[stage] >= 0.0
        d = report.as_dict()
        assert d["stage_seconds"] == stages
        json.dumps(d, allow_nan=True)

    def test_obs_driver_fills_stage_histogram(self):
        obs = MetricsRegistry()
        trace = build_trace("hadoop", packets=600, seed=1)
        ReplayDriver(batch_size=256, seed=1, obs=obs).replay(trace)
        fam = obs.as_dict()["families"]["pint_replay_stage_seconds"]
        stages = {s["labels"]["stage"] for s in fam["samples"]}
        assert {"select", "encode", "ingest", "decode"} <= stages
        text = render_prometheus(obs)
        assert 'pint_replay_stage_seconds_count{stage="encode"} 1' in text
