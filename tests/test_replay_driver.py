"""End-to-end replay: scenarios -> dataplane -> Collector -> report."""

import gc
import math
import time
import tracemalloc

import numpy as np
import pytest

from repro.collector import Collector, ParallelCollector
from repro.core.plan import ExecutionPlan
from repro.hashing import global_hash
from repro.replay import (
    Duplicate,
    GilbertElliott,
    IIDLoss,
    ReplayDriver,
    Reorder,
    ScenarioReport,
    TraceDataplane,
    build_trace,
    scenario_names,
)
from repro.replay import driver as driver_module
from repro.replay.dataplane import compress_utilizations
from repro.replay.impair import plan_delivery
from repro.service import ReliableUDPSender


class TestReplayDriver:
    def test_incast_end_to_end(self):
        drv = ReplayDriver(batch_size=512, seed=1)
        report = drv.run_scenario("incast", packets=3000, seed=1)
        assert report.records == 3000
        assert report.batches == 6
        assert report.path_records + report.congestion_records <= 3000
        # Long-lived incast flows decode fully and correctly.
        assert report.path_decoded == report.path_flows
        assert report.path_accuracy == 1.0
        assert report.records_per_sec > 0
        # Congestion decode within a few grid steps of the true max.
        assert report.congestion_median_rel_err < 0.1

    def test_churn_decodes_mostly_real_paths(self):
        drv = ReplayDriver(batch_size=1024, seed=0)
        report = drv.run_scenario("path-churn", packets=4000, seed=2)
        assert report.path_decoded > 0
        # Reroutes surface as decoder resets...
        assert report.path_resets > 0
        # ...and most decoded answers are paths the flow actually
        # traversed.  A decoder fed digests straddling a reroute can
        # converge on a hop mix of old and new path (the §7 multipath
        # caveat), so churn accuracy is high but not guaranteed 100%.
        assert report.path_accuracy >= 0.9

    def test_run_all_covers_registry(self):
        drv = ReplayDriver(batch_size=2048)
        reports = drv.run_all(packets=600, seed=3)
        assert [r.scenario for r in reports] == scenario_names()
        for r in reports:
            assert r.records > 0
            assert r.path_flows > 0
            assert "rec/s" in r.summary()

    def test_replay_prebuilt_trace(self):
        trace = build_trace("hadoop", packets=800, seed=4)
        report = ReplayDriver(batch_size=256).replay(trace)
        assert report.scenario == "hadoop"
        assert report.records == len(trace)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ReplayDriver(batch_size=0)
        with pytest.raises(ValueError, match="mode must be"):
            ReplayDriver(mode="auto")


class TestOnePlanDraw:
    """Every packet's query set is drawn once per replay, on the clock."""

    @pytest.mark.parametrize("knobs", [
        {}, {"workers": 2}, {"transport": "udp"},
        {"impairments": [
            GilbertElliott(p_bad=0.05, p_good=0.2, seed=1),
            Reorder(depth=64, prob=0.5, seed=2), Duplicate(prob=0.05, seed=3),
        ]},
    ], ids=["serial", "workers2", "udp", "impaired"])
    def test_select_array_runs_once_over_the_whole_trace(
        self, monkeypatch, knobs
    ):
        calls = []
        draw = ExecutionPlan.select_array

        def spy(plan, packet_ids):
            calls.append(np.array(packet_ids, copy=True))
            return draw(plan, packet_ids)

        monkeypatch.setattr(ExecutionPlan, "select_array", spy)
        trace = build_trace("incast", packets=3000, seed=1)
        report = ReplayDriver(batch_size=512, **knobs).replay(trace)
        assert report.batches > 1
        assert len(calls) == 1
        assert np.array_equal(calls[0], trace.pid)

    def test_the_draw_is_on_the_replay_clock(self, monkeypatch):
        draw = ExecutionPlan.select_array

        def slow(plan, packet_ids):
            time.sleep(0.05)
            return draw(plan, packet_ids)

        monkeypatch.setattr(ExecutionPlan, "select_array", slow)
        trace = build_trace("incast", packets=1000, seed=1)
        report = ReplayDriver(batch_size=512).replay(trace)
        assert report.seconds >= 0.05
        assert dict(report.stage_seconds)["select"] >= 0.05


class TestRowBlocks:
    """Whole-trace passes run one row block at a time; the block size
    moves no answer."""

    @staticmethod
    def _answers(report):
        d = report.as_dict()
        for timed in ("seconds", "stage_seconds", "records_per_sec"):
            d.pop(timed)
        return d

    @pytest.mark.parametrize("impaired", [False, True])
    def test_report_same_at_every_block_size(self, monkeypatch, impaired):
        models = [
            GilbertElliott(p_bad=0.05, p_good=0.2, seed=1),
            Reorder(depth=64, prob=0.5, seed=2), Duplicate(prob=0.05, seed=3),
        ] if impaired else []
        trace = build_trace("path-churn", packets=6000, seed=2)
        want = self._answers(
            ReplayDriver(batch_size=512, impairments=models).replay(trace)
        )
        monkeypatch.setattr(global_hash, "GRID_BLOCK", 701)
        got = ReplayDriver(batch_size=512, impairments=models).replay(trace)
        assert self._answers(got) == want

    def test_utilizations_same_at_every_block_size(self, monkeypatch):
        trace = build_trace("incast", packets=5000, seed=1)
        want = ReplayDriver().utilizations(trace)
        monkeypatch.setattr(global_hash, "GRID_BLOCK", 333)
        assert ReplayDriver().utilizations(trace).tolist() == want.tolist()


class TestMemoryBounds:
    """A replay process holds its trace plus one block: the builder and
    a warm replay stay near the trace's own column bytes.

    ``tracemalloc`` sees NumPy buffers, and counts live bytes, so heap
    reuse cannot hide a full-size temporary.
    """

    @staticmethod
    def _column_bytes(trace):
        return sum(c.nbytes for c in (
            trace.ts, trace.flow_id, trace.pid, trace.path_id, trace.size,
        ))

    @staticmethod
    def _peak(work):
        """Live bytes ``work()`` allocates at its peak, over its start."""
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = work()
            return out, tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    def test_build_peak(self):
        trace, peak = self._peak(
            lambda: build_trace("incast", packets=200_000, seed=0)
        )
        assert peak <= 1.5 * self._column_bytes(trace), (
            peak / self._column_bytes(trace)
        )

    def test_warm_replay_peak(self):
        trace = build_trace("incast", packets=200_000, seed=0)
        driver = ReplayDriver(batch_size=8192)
        driver.replay(trace)
        _, peak = self._peak(lambda: driver.replay(trace))
        assert peak <= 1.0 * self._column_bytes(trace), (
            peak / self._column_bytes(trace)
        )


class TestReportFiniteness:
    def test_records_per_sec_clamped_on_zero_seconds(self):
        import json

        report = ScenarioReport(
            scenario="degenerate", records=10, flows=1, batches=1,
            seconds=0.0, path_records=10, path_flows=1, path_decoded=0,
            path_correct=0, path_resets=0, congestion_records=0,
            congestion_flows=0, congestion_median_rel_err=float("nan"),
        )
        assert report.records_per_sec == 0.0
        # The clamped rate is strict-JSON safe (the bench writers
        # additionally sanitise the NaN error field to null).
        json.dumps(report.records_per_sec, allow_nan=False)
        assert "rec/s" in report.summary()


class TestParallelReplay:
    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            ReplayDriver(workers=0)
        with pytest.raises(ValueError):
            # The driver honors num_shards rather than silently
            # widening it; more workers than shards cannot be served.
            ReplayDriver(num_shards=2, workers=4)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_journal_without_checkpoints_rejected_up_front(self, workers):
        # Once accepted and ignored (serial), or refused only inside
        # replay() after the trace was built (workers).
        with pytest.raises(ValueError, match="require checkpoint_every"):
            ReplayDriver(workers=workers, journal_batches=3)
        with pytest.raises(ValueError, match="require checkpoint_every"):
            ReplayDriver(workers=2, faults=object())
        ReplayDriver(workers=2, checkpoint_every=2, journal_batches=3)


def reference_score(driver, trace, path, cong, delivery):
    """The specification of ``ReplayDriver._score``: one consumer at a time.

    The per-flow loop the driver ran before it scored on the sinks'
    AnswerTables, kept here over ``flows()`` (whole decoders) so the
    columnar scorer always has something slower and plainer to equal.
    It draws its own plan column and utilisations over the whole
    trace, so it shares no column with the scorer it checks.
    """
    entry = driver.plan.select_array(trace.pid)
    utils = driver.utilizations(trace)
    truth = trace.flow_paths()
    fids = np.unique(trace.flow_id[entry == 0]).tolist()
    delivered = None
    lossy = set()
    if delivery is not None:
        delivered = np.zeros(len(trace), dtype=bool)
        delivered[delivery] = True
        lossy = set(trace.flow_id[(entry == 0) & ~delivered].tolist())
    out = dict(path_flows=len(fids), path_decoded=0, path_correct=0,
               path_resets=0, path_completed_under_loss=0)
    coverages = []
    for fid, consumer in zip(fids, path.collector.flows(fids)):
        if consumer is None:
            continue
        out["path_resets"] += consumer.decode_errors
        coverages.append(consumer.coverage)
        result = consumer.result()
        if result is None:
            continue
        out["path_decoded"] += 1
        out["path_completed_under_loss"] += fid in lossy
        traversed = {trace.paths[pid] for pid in truth[fid]}
        out["path_correct"] += tuple(result) in traversed
    out["path_coverage_mean"] = (
        float(np.mean(coverages)) if coverages else float("nan")
    )
    errs = []
    if cong.records:
        keep = entry == 1 if delivered is None else (entry == 1) & delivered
        for fid in np.unique(trace.flow_id[keep]).tolist():
            consumer = cong.collector.flow(fid)
            if consumer is not None and consumer.max_code >= 0:
                true_max = utils[keep & (trace.flow_id == fid)].max()
                got = driver.codec.decode_array(
                    np.asarray([consumer.max_code])
                )[0]
                errs.append(abs(got - true_max) / true_max)
    out["congestion_flows"] = len(errs)
    out["congestion_median_rel_err"] = (
        float(np.median(errs)) if errs else float("nan")
    )
    return out


class _CheckedDriver(ReplayDriver):
    """Scores every replay twice and insists the two scorers agree."""

    checked = 0

    def _score(self, trace, path, cong, entry, batches, seconds, delivery):
        report = super()._score(
            trace, path, cong, entry, batches, seconds, delivery
        )
        want = reference_score(self, trace, path, cong, delivery)
        for field, value in want.items():
            got = getattr(report, field)
            assert got == value or (got != got and value != value), field
        self.checked += 1
        return report


#: The three standard impairment pipelines, as functions of the
#: scenario seed (offset so the network's coins never collide with the
#: workload generator's).
PIPELINES = {
    # 10% uniform loss with a whiff of duplication: the paper's
    # graceful-degradation regime.
    "lossy": lambda seed: [
        IIDLoss(0.1, seed=seed + 101),
        Duplicate(0.01, lag=8, seed=seed + 102),
    ],
    # Heavy bounded reordering plus duplicates -- nothing dropped.
    "reordered": lambda seed: [
        Reorder(depth=64, prob=0.5, seed=seed + 201),
        Duplicate(0.02, lag=16, seed=seed + 202),
    ],
    # Gilbert-Elliott bursty loss: ~8-record loss trains at a ~10%
    # average rate, the BASEL buffering-drop shape.
    "bursty": lambda seed: [
        GilbertElliott(p_bad=0.015, p_good=0.125, loss_bad=0.9,
                       seed=seed + 301),
    ],
}


class TestScorerEqualsReference:
    @pytest.mark.parametrize("mode", ["hash", "raw", "fragment"])
    @pytest.mark.parametrize("workers", [None, 2])
    def test_every_scenario_clean_and_impaired(self, mode, workers):
        seed = 3
        drivers = [
            _CheckedDriver(batch_size=512, mode=mode, workers=workers,
                           impairments=models)
            for models in [[]] + [make(seed) for make in PIPELINES.values()]
        ]
        for name in scenario_names():
            for driver in drivers:
                report = driver.run_scenario(name, packets=1200, seed=seed)
                assert report.path_flows > 0
        for driver in drivers:
            assert driver.checked == len(scenario_names())

    @pytest.mark.parametrize("name", scenario_names())
    def test_lossy_pipeline_counts_against_the_offered_stream(self, name):
        """The three numbers a trace rewritten before replay got wrong."""
        seed = 3
        trace = build_trace(name, packets=1200, seed=seed)
        clean = ReplayDriver(batch_size=512).replay(trace)
        lossy = ReplayDriver(
            batch_size=512, impairments=PIPELINES["lossy"](seed)
        ).replay(trace)
        assert lossy.offered_records == len(trace)
        assert lossy.dropped_records > 0
        assert lossy.records == (
            lossy.offered_records - lossy.dropped_records
            + lossy.duplicated_records
        )
        # A flow every record of which was dropped still counts.
        assert lossy.path_flows == clean.path_flows

    def test_path_ids_sharing_one_hop_tuple(self):
        """A decoded path is a right answer under every id it goes by."""
        from repro.replay import Trace

        base = build_trace("incast", packets=4000, seed=3)
        # Every other record of a flow moves to a twin of its path id.
        twins = len(base.paths)
        moved = base.path_id + twins * (np.arange(len(base)) % 2)
        trace = Trace(
            base.ts, base.flow_id, base.pid, moved, base.size,
            base.paths + base.paths, base.universe, "incast-twins",
        )
        assert max(len(p) for p in trace.flow_paths().values()) == 2
        driver = _CheckedDriver(batch_size=512)
        report = driver.replay(trace)
        assert driver.checked == 1
        assert report.path_decoded == report.path_correct > 0
        assert report.flows == trace.num_flows

    def test_driver_level_impairments_and_an_emptied_sink(self):
        trace = build_trace("path-churn", packets=3000, seed=3)

        def replay(models):
            driver = _CheckedDriver(
                batch_size=512, num_hashes=2, workers=2, impairments=models,
            )
            report = driver.replay(trace)
            assert driver.checked == 1
            return report

        report = replay([
            GilbertElliott(p_bad=0.02, p_good=0.2, seed=1),
            Reorder(depth=64, prob=0.5, seed=2), Duplicate(prob=0.02, seed=3),
        ])
        assert report.dropped_records > 0 and report.path_resets > 0
        assert report.path_completed_under_loss > 0
        # Every record dropped: the sinks hold nothing, nothing to score.
        report = replay([IIDLoss(1.0, seed=1)])
        assert report.records == 0 and report.path_decoded == 0
        assert math.isnan(report.path_coverage_mean)


def reference_calls(driver, trace):
    """Every sink call a replay makes, built one batch at a time.

    Batch ``k`` is rows ``[k*B, (k+1)*B)`` of the delivered stream,
    split by the plan with digests from the scalar switch chain and
    codes from :func:`compress_utilizations` over
    :meth:`ReplayDriver.utilizations` -- nothing shared with the block
    loop it checks.  Returns ``(entry, batch, columns, now)`` per
    non-empty sink batch, in batch order (path sink before congestion
    sink within a batch).
    """
    dataplane = TraceDataplane(
        trace, digest_bits=driver.digest_bits, num_hashes=driver.num_hashes,
        mode=driver.mode, seed=driver.seed,
    )
    stream = (
        plan_delivery(driver.impairments, len(trace), trace.flow_id)
        if driver.impairments else np.arange(len(trace))
    )
    utils = driver.utilizations(trace)
    hops = trace.hop_counts
    calls = []
    for batch, lo in enumerate(range(0, stream.size, driver.batch_size)):
        rows = stream[lo:lo + driver.batch_size]
        now = float(
            trace.ts[rows].max() if driver.impairments else trace.ts[rows[-1]]
        )
        part = driver.plan.select_array(trace.pid[rows])
        for index in (0, 1):
            mine = rows[part == index]
            if not mine.size:
                continue
            values = (
                dataplane.encode_scalar_rows(mine) if index == 0
                else compress_utilizations(
                    driver.codec, utils[mine], trace.pid[mine], hops[mine]
                )
            )
            cols = (trace.flow_id[mine], trace.pid[mine], hops[mine], values)
            calls.append((index, batch, cols, now))
    return calls


class _Sinks(ReplayDriver):
    """A driver that reads both sinks before they close; with
    ``per_batch`` its serial in-process sinks take one ``ingest_batch``
    per batch instead of one ``ingest_run`` per block."""

    per_batch = False

    def _make_sink(self, stack, consumer_factory, sink_label, workers):
        sink = super()._make_sink(
            stack, consumer_factory, sink_label, workers
        )
        if self.per_batch and isinstance(sink.collector, Collector):
            sink.ingest = driver_module._batch_by_batch(
                sink.collector.ingest_batch
            )
        return sink

    def _score(self, trace, path, cong, *rest):
        from repro.collector.recovery import capture_checkpoint

        self.sinks = {}
        for name, sink in (("path", path), ("congestion", cong)):
            collector = sink.collector
            self.sinks[name] = (
                collector.snapshot().as_dict(), collector.answers(),
                capture_checkpoint(collector)
                if isinstance(collector, Collector) else None,
            )
        return super()._score(trace, path, cong, *rest)


class TestBlockRuns:
    """A serial replay hands each in-process sink a row block's batches
    as one run: the ``pint_collector_run_batches`` histogram holds one
    observation per block, and reports, snapshots (shard ``records``
    and ``batches`` included), checkpoints and answers equal those of
    the same batches fed one ``ingest_batch`` at a time."""

    REORDER = (Reorder(depth=64, prob=0.5, seed=2), Duplicate(prob=0.05, seed=3))

    @staticmethod
    def _fields(report):
        """The report minus its clock readings, NaN as None."""
        timing = {"seconds", "stage_seconds", "records_per_sec"}
        return {
            k: None if isinstance(v, float) and math.isnan(v) else v
            for k, v in report.as_dict().items() if k not in timing
        }

    @pytest.mark.parametrize("packets, batch_size, impaired, workers", [
        (40_000, 8192, False, None),
        (40_000, 8192, True, None),
        (40_000, 64, False, None),  # a block of 512 batches
        (40_000, 8192, False, 2),
    ], ids=["unimpaired", "reorder-duplicate", "batch64", "workers2"])
    def test_runs_are_blocks_and_fold_like_batches(
        self, packets, batch_size, impaired, workers
    ):
        from repro.obs import MetricsRegistry

        trace = build_trace("path-churn", packets=packets, seed=3)
        knobs = dict(
            batch_size=batch_size, workers=workers,
            impairments=list(self.REORDER) if impaired else None,
        )
        obs = MetricsRegistry()
        runs = _Sinks(obs=obs, **knobs)
        report = runs.replay(trace)
        one = _Sinks(**knobs)
        one.per_batch = True
        want = one.replay(trace)
        assert self._fields(report) == self._fields(want)
        for name, (snap, answers, blob) in runs.sinks.items():
            snap_want, answers_want, blob_want = one.sinks[name]
            assert snap == snap_want, name
            assert blob == blob_want, name
            for field in ("flow_id", "offsets", "values"):
                assert np.array_equal(
                    getattr(answers, field), getattr(answers_want, field)
                ), (name, field)
            for column, values in answers_want.columns.items():
                assert np.array_equal(
                    answers.columns[column], values, equal_nan=True
                ), (name, column)
        # One run per block and in-process sink; a parallel path sink's
        # runs are its workers', in their own registries.
        per_block = runs._block_rows() // batch_size
        blocks = -(-report.batches // per_block)
        fams = obs.as_dict()["families"]["pint_collector_run_batches"]
        observed = {s["labels"]["sink"]: s for s in fams["samples"]}
        assert set(observed) == (
            {"congestion"} if workers else {"path", "congestion"}
        )
        assert blocks > 1 and report.batches > blocks
        for name, sample in observed.items():
            # Every batch of this trace holds records of both queries.
            assert sample["count"] == blocks, name
            assert sample["sum"] == report.batches, name


class TestBlockLoopContract:
    """The row-block loop hands every sink exactly the batches of a
    batch-at-a-time replay: same rows, order, ``now`` and count, as
    read-only views.  A serial in-process sink takes each block's
    batches as one run; a parallel sink and a wire sender take them one
    call each."""

    MODELS = (
        GilbertElliott(p_bad=0.05, p_good=0.2, seed=1),
        Reorder(depth=64, prob=0.5, seed=2), Duplicate(prob=0.05, seed=3),
    )

    @staticmethod
    def _copy(cols, now):
        return (
            tuple(np.array(c) for c in cols),
            [c.flags.writeable for c in cols], now,
        )

    @classmethod
    def _spy(cls, monkeypatch, owner, name, calls):
        """Record each ``name(*cols, now=)`` call as a run of one."""
        real = getattr(owner, name)

        def record(sink, *cols, now=None):
            calls.append((sink, [cls._copy(cols, now)]))
            return real(sink, *cols, now=now)

        monkeypatch.setattr(owner, name, record)

    @classmethod
    def _spy_runs(cls, monkeypatch, calls):
        real = Collector.ingest_run

        def record(sink, batches, park=None):
            calls.append((sink, [cls._copy(*batch) for batch in batches]))
            return real(sink, batches, park)

        monkeypatch.setattr(Collector, "ingest_run", record)

    @pytest.mark.parametrize("grid, batch_size", [
        (None, 512),   # one partial block of the default size
        (2048, 256),   # batches divide the block; 6 blocks
        (2048, 300),   # batches leave a remainder of the half-grid
        (2048, 1500),  # a batch exceeds the half-grid: one batch a block
    ])
    @pytest.mark.parametrize("impaired", [False, True])
    @pytest.mark.parametrize("sink", ["serial", "workers2", "udp"])
    def test_sink_calls_equal_per_batch_reference(
        self, monkeypatch, grid, batch_size, impaired, sink
    ):
        trace = build_trace("path-churn", packets=6000, seed=2)
        knobs = {"workers2": {"workers": 2}, "udp": {"transport": "udp"}}
        driver = ReplayDriver(
            batch_size=batch_size,
            impairments=list(self.MODELS) if impaired else None,
            **knobs.get(sink, {}),
        )
        want = reference_calls(driver, trace)
        if grid is not None:
            monkeypatch.setattr(global_hash, "GRID_BLOCK", grid)
        per_block = driver._block_rows() // batch_size
        calls = []
        if sink == "udp":
            # The server's own ingest calls are the wire's, not the loop's.
            self._spy(monkeypatch, ReliableUDPSender, "send_batch", calls)
        else:
            self._spy_runs(monkeypatch, calls)
            self._spy(monkeypatch, ParallelCollector, "ingest_batch", calls)
        report = driver.replay(trace)
        assert report.batches == -(-report.records // batch_size)
        # One sink object per plan entry, the path sink first in every
        # block, and parallel when workers are set.
        targets = []
        for target, _ in calls:
            if all(target is not seen for seen in targets):
                targets.append(target)
        assert len(targets) == 2
        if sink == "workers2":
            assert isinstance(targets[0], ParallelCollector)
        for index, target in enumerate(targets):
            runs = [run for to, run in calls if to is target]
            ref = [call for call in want if call[0] == index]
            got = [batch for run in runs for batch in run]
            assert len(got) == len(ref)
            for (cols, writeable, now), (_, _, expect, ref_now) in zip(
                got, ref
            ):
                assert now == ref_now
                for column, column_ref in zip(cols, expect):
                    assert np.array_equal(column, column_ref)
                if sink != "udp":
                    assert writeable == [False] * 4
            blocks = [batch // per_block for _, batch, _, _ in ref]
            lengths = (
                [blocks.count(b) for b in sorted(set(blocks))]
                if isinstance(target, Collector) else [1] * len(ref)
            )
            assert [len(run) for run in runs] == lengths

    def test_one_encode_and_one_compress_call_per_block(self, monkeypatch):
        trace = build_trace("incast", packets=6000, seed=1)
        encodes, compresses = [], []
        encode = TraceDataplane.encode
        compress = driver_module.compress_utilizations

        def count_encode(dataplane, path_ids, pids):
            encodes.append(len(pids))
            return encode(dataplane, path_ids, pids)

        def count_compress(codec, utils, pids, hops):
            compresses.append(len(pids))
            return compress(codec, utils, pids, hops)

        monkeypatch.setattr(TraceDataplane, "encode", count_encode)
        monkeypatch.setattr(
            driver_module, "compress_utilizations", count_compress
        )
        monkeypatch.setattr(global_hash, "GRID_BLOCK", 2048)
        report = ReplayDriver(batch_size=256).replay(trace)
        # 1,024-row blocks of four batches: six blocks for 6,000 rows.
        assert report.batches == 24
        assert len(encodes) == len(compresses) == 6
        assert sum(encodes) + sum(compresses) == len(trace)
