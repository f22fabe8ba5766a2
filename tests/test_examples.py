"""Smoke tests: every shipped example must run end-to-end.

These keep deliverable (b) honest -- if an API change breaks an
example, the suite fails.  Heavy examples are trimmed via monkeypatched
parameters where needed; each still exercises its full code path.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class TestExamplesRun:
    def test_quickstart(self, capsys):
        _load("quickstart").main()
        out = capsys.readouterr().out
        assert "decoded path" in out
        assert "bottleneck util" in out

    def test_loop_detection(self, capsys):
        _load("loop_detection").main(packets=200, fp_packets=2000)
        out = capsys.readouterr().out
        assert "false positives" in out

    def test_pipeline_layouts(self, capsys):
        _load("pipeline_layouts").main()
        out = capsys.readouterr().out
        assert "4 stages" in out
        assert "8 stages" in out

    def test_latency_monitoring(self, capsys):
        _load("latency_monitoring").main()
        out = capsys.readouterr().out
        assert "regression detected" in out

    @pytest.mark.slow
    def test_congestion_control(self, capsys):
        _load("congestion_control").main()
        out = capsys.readouterr().out
        assert "HPCC(PINT)" in out

    @pytest.mark.slow
    def test_path_tracing_isp(self, capsys):
        _load("path_tracing_isp").main(trials=2)
        out = capsys.readouterr().out
        assert "PINT 2x(b=8)" in out

    def test_collector_service(self, capsys):
        _load("collector_service").main()
        out = capsys.readouterr().out
        assert "records streamed to sink" in out
        assert "paths decoded exactly      : 16/16" in out

    def test_parallel_collector(self, capsys):
        _load("parallel_collector").main()
        out = capsys.readouterr().out
        assert "decode outcomes identical  : True" in out
        assert "merged snapshot identical  : True" in out

    def test_replay_scenarios(self, capsys):
        _load("replay_scenarios").main()
        out = capsys.readouterr().out
        assert "replaying every scenario" in out
        assert "isp-long-paths" in out
        assert "trace round-trip" in out
        assert "exact" in out
        assert "identical to original: True" in out

    def test_lossy_replay(self, capsys):
        _load("lossy_replay").main()
        out = capsys.readouterr().out
        assert "perfect network" in out
        assert "graceful degradation" in out
        assert "decoded fully" in out
        assert "partial path" in out

    def test_live_service(self, capsys):
        _load("live_service").main()
        out = capsys.readouterr().out
        assert "json query port" in out
        assert "exactly once" in out
        # Every ACK is an RTT sample, even with a resend in every batch.
        assert re.search(r"\(srtt \d+\.\d+ ms\)", out)
        assert "complete=True" in out
        assert "despite the lossy wire" in out

    def test_chaos_recovery(self, capsys, monkeypatch):
        # The one example that drives a supervised ParallelCollector
        # through ReplayDriver; 5,000 packets still reach worker 0's
        # eighth batch, where the starved-journal section kills it.
        module = _load("chaos_recovery")
        monkeypatch.setattr(module, "PACKETS", 5_000)
        module.main()
        out = capsys.readouterr().out
        assert "fired: [('kill', 'worker=1', 5)]" in out
        assert "every scored answer bit-identical" in out
        assert "still bit-identical" in out
        assert "records lost -- accounted on the snapshot" in out

    def test_obs_watch(self, capsys):
        _load("obs_watch").main()
        out = capsys.readouterr().out
        assert "instrumented replay" in out
        assert "stages:" in out
        assert "pint_replay_stage_seconds_sum" in out
        assert "drew 3 frames" in out
