"""Answers as columns: one AnswerTable per sink, whoever asks.

The specification is what the per-flow consumers say about themselves
(``result()``, ``coverage``, ``decode_errors``, ``packets_seen``,
``inconsistencies``, ``max_code`` / ``last_code`` / ``records``), read
through ``flows()``; every table here is checked against it.  The
equivalence is stated once: for one input, the table of a serial sink,
of a 2- and a 4-worker sink, of a sink behind UDP and of a
checkpoint-restored sink are equal arrays, column by column.
"""

import functools
import pickle
import threading

import numpy as np
import pytest

from repro.collector import (
    AnswerTable,
    Collector,
    ParallelCollector,
    capture_checkpoint,
    congestion_consumer_factory,
    latency_consumer_factory,
    path_consumer_factory,
    restore_collector,
)
from repro.collector import parallel
from repro.exceptions import CollectorClosedError
from repro.obs.metrics import MetricsRegistry
from repro.replay import (
    Duplicate,
    IIDLoss,
    TraceDataplane,
    build_trace,
    plan_delivery,
)
from repro.service import (
    QueryClient,
    QueryServer,
)
from repro.service.query import QueryHandler

#: (digest mode, hash instantiations) of the three representations.
MODES = [("hash", 1), ("hash", 2), ("raw", 1), ("fragment", 1)]
#: A ``+lossy`` suffix delivers the scenario through 10% i.i.d. loss
#: and 1% duplication: the sinks see a gappy, repeating stream.
SCENARIOS = ["web-search", "elephant-mice", "path-churn", "isp-long-paths+lossy"]


@functools.lru_cache(maxsize=None)
def path_stream(scenario, mode, num_hashes, packets=2500):
    """A scenario prefix as path-query columns, plus its sink factory."""
    name, _, lossy = scenario.partition("+")
    trace = build_trace(name, packets=packets, seed=3)
    rows = np.arange(len(trace), dtype=np.int64)
    if lossy:
        rows = plan_delivery(
            [IIDLoss(0.1, seed=104), Duplicate(0.01, lag=8, seed=105)],
            len(trace), trace.flow_id,
        )
    dataplane = TraceDataplane(
        trace, digest_bits=8, num_hashes=num_hashes, mode=mode, seed=0
    )
    cols = (
        trace.flow_id[rows], trace.pid[rows], trace.hop_counts[rows],
        dataplane.encode_rows(rows),
    )

    def factory():
        return path_consumer_factory(
            trace.universe, digest_bits=8, num_hashes=num_hashes, seed=0,
            mode=mode, value_bits=dataplane.value_bits,
        )

    return cols, factory


def feed(sink, cols, batch, lo=0, hi=None):
    hi = len(cols[0]) if hi is None else hi
    for a in range(lo, hi, batch):
        b = min(a + batch, hi)
        sink.ingest_batch(*(c[a:b] for c in cols), now=float(b))


def assert_tables_equal(got: AnswerTable, want: AnswerTable):
    assert got.kind == want.kind
    assert got.columns.keys() == want.columns.keys()
    for name in ("flow_id", "offsets", "values"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.int64, name
        assert np.array_equal(a, b), name
    for name, column in want.columns.items():
        assert got.columns[name].dtype == column.dtype, name
        if column.dtype == object:
            assert got.columns[name].tolist() == column.tolist(), name
        else:
            assert np.array_equal(
                got.columns[name], column, equal_nan=True
            ), name


def assert_path_table_matches_consumers(table, sink):
    """Every column against what the flows() consumers answer."""
    assert table.kind == "path"
    assert np.all(np.diff(table.flow_id) > 0)
    consumers = sink.flows(table.flow_id)
    lengths = table.row_lengths()
    for row, consumer in enumerate(consumers):
        assert consumer is not None
        decoder = consumer._decoder
        cols = {name: int(col[row]) for name, col in table.columns.items()}
        assert cols["decode_errors"] == consumer.decode_errors
        if decoder is None:
            assert (cols["k"], cols["known"], lengths[row]) == (0, 0, 0)
            assert cols["packets_seen"] == cols["inconsistencies"] == 0
        else:
            assert cols["k"] == decoder.k
            assert cols["known"] == len(decoder.known_blocks())
            assert cols["packets_seen"] == decoder.packets_seen
            assert cols["inconsistencies"] == decoder.inconsistencies
        answer = table.answer(row)
        assert answer == {
            "complete": consumer.is_complete,
            "coverage": consumer.coverage,
            "result": consumer.result(),
        }
        lo, hi = table.offsets[row], table.offsets[row + 1]
        assert table.values[lo:hi].tolist() == (consumer.result() or [])


class TestPathTables:
    @pytest.mark.parametrize("batch", [64, 8192])
    @pytest.mark.parametrize("mode,num_hashes", MODES)
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_table_is_what_the_consumers_answer(
        self, scenario, mode, num_hashes, batch
    ):
        # That workers=2/4 merge to this very table is the ``answers``
        # digest of the worker rows of tests/equivalence.py.
        cols, factory = path_stream(scenario, mode, num_hashes)
        serial = Collector(factory(), num_shards=4, seed=1)
        feed(serial, cols, batch)
        table = serial.answers()
        assert len(table) == len(serial) > 0
        assert_path_table_matches_consumers(table, serial)

    def test_churn_yields_reset_flows(self):
        cols, factory = path_stream("path-churn", "hash", 1)
        sink = Collector(factory(), num_shards=4, seed=1)
        feed(sink, cols, 512)
        table = sink.answers()
        # Reroutes surface as decode errors on flows that re-converged.
        assert (table.columns["decode_errors"] > 0).any()
        assert table.columns["inconsistencies"].sum() > 0

    def test_flow_mid_reset_and_corrupted_flow(self):
        cols, factory = path_stream("web-search", "hash", 1)
        fid, pid, hops = int(cols[0][0]), int(cols[1][0]), int(cols[2][0])
        # A digest no switch of the universe hashes to: the first
        # record of a flow empties a candidate set, the decoder resets.
        probe = factory()
        bad = next(
            d for d in range(256)
            if _errors_after(probe(0), pid, hops, d)
        )
        sink = Collector(factory(), num_shards=4, seed=1)
        sink.ingest_batch([fid], [pid], [hops], [bad], now=1.0)
        table = sink.answers()
        assert table.columns["k"].tolist() == [0]
        assert table.columns["decode_errors"].tolist() == [1]
        assert table.answer(0) == {
            "complete": False, "coverage": 0.0, "result": None
        }
        # The flow's real stream re-converges behind the reset; the
        # error stays on the record.
        feed(sink, cols, 256)
        table = sink.answers()
        row = int(table.rows_of([fid])[0])
        assert table.columns["decode_errors"][row] >= 1
        assert table.columns["k"][row] == hops
        assert_path_table_matches_consumers(table, sink)


def _errors_after(consumer, pid, hops, digest) -> int:
    consumer.consume(pid, hops, digest)
    return consumer.decode_errors


class TestSubsetsAndEviction:
    def sinks(self, **kw):
        cols, factory = path_stream("web-search", "hash", 1)
        serial = Collector(factory(), num_shards=4, seed=1, **kw)
        par = ParallelCollector(
            factory(), workers=2, num_shards=4, seed=1, **kw
        )
        return cols, serial, par

    def test_subset_with_unknown_duplicate_and_evicted_ids(self):
        cols, serial, par = self.sinks()
        with par:
            for sink in (serial, par):
                feed(sink, cols, 512)
            live = np.unique(cols[0])
            evicted, kept = int(live[0]), live[1:6]
            asked = [int(kept[2]), 10**12, int(kept[0]), int(kept[2]),
                     evicted, -7]
            for sink in (serial, par):
                assert sink.evict(evicted)
                table = sink.answers(asked)
                assert table.flow_id.tolist() == sorted(
                    {int(kept[0]), int(kept[2])}
                )
                assert table.rows_of(asked).tolist() == [1, -1, 0, 1, -1, -1]
                assert len(sink.answers([])) == 0
                assert len(sink.answers([10**12])) == 0
            assert_tables_equal(par.answers(asked), serial.answers(asked))
            # A subset is the whole table restricted to it.
            whole = serial.answers()
            part = serial.answers(kept)
            rows = whole.rows_of(kept)
            for name, column in part.columns.items():
                assert np.array_equal(column, whole.columns[name][rows])

    def test_lru_recency_is_unchanged_by_the_read(self):
        cols, serial, par = self.sinks(max_flows_per_shard=8)
        half = len(cols[0]) // 2
        with par:
            reference = Collector(
                path_stream("web-search", "hash", 1)[1](), num_shards=4,
                seed=1, max_flows_per_shard=8,
            )
            for sink in (serial, par, reference):
                feed(sink, cols, 256, hi=half)
            before = [
                shard.store.flow_id[shard.rows()].tolist()
                for shard in serial.shards
            ]
            for sink in (serial, par):
                table = sink.answers()
                assert len(table) == len(serial) <= 32
                sink.answers(table.flow_id[::2])
            assert before == [
                shard.store.flow_id[shard.rows()].tolist()
                for shard in serial.shards
            ]
            # Same victims afterwards as a sink that was never read.
            for sink in (serial, par, reference):
                feed(sink, cols, 256, lo=half)
            want = reference.snapshot().as_dict()
            assert serial.snapshot().as_dict() == want
            assert par.snapshot().as_dict() == want
            assert_tables_equal(serial.answers(), reference.answers())
            assert_tables_equal(par.answers(), reference.answers())


class TestOtherKinds:
    def test_congestion_columns(self):
        rng = np.random.default_rng(4)
        n = 4000
        cols = (
            rng.integers(1, 300, n), np.arange(1, n + 1),
            rng.integers(2, 7, n), rng.integers(0, 256, n),
        )
        serial = Collector(
            congestion_consumer_factory(seed=3), num_shards=4, seed=1
        )
        feed(serial, cols, 500)
        table = serial.answers()
        assert table.kind == "congestion"
        assert table.values.size == 0 and not table.row_lengths().any()
        for row, consumer in enumerate(serial.flows(table.flow_id)):
            for name in ("max_code", "last_code", "records"):
                assert table.columns[name][row] == getattr(consumer, name)
            assert table.answer(row) == {
                "complete": True, "coverage": 1.0,
                "result": consumer.result(),
            }
        for workers in (2, 4):
            with ParallelCollector(
                congestion_consumer_factory(seed=3), workers=workers,
                num_shards=4, seed=1,
            ) as par:
                feed(par, cols, 500)
                assert_tables_equal(par.answers(), table)
                fid = int(table.flow_id[5])
                assert par.result(fid) == serial.result(fid)
                assert par.result(10**9) is None

    def test_latency_answers_through_the_generic_fallback(self):
        rng = np.random.default_rng(5)
        n = 1500
        cols = (
            rng.integers(1, 40, n), np.arange(1, n + 1),
            rng.integers(2, 7, n), rng.integers(0, 256, n),
        )
        serial = Collector(
            latency_consumer_factory(seed=3), num_shards=4, seed=1
        )
        feed(serial, cols, 500)
        table = serial.answers()
        assert table.kind == "latency"
        assert set(table.columns) == {"complete", "coverage", "result"}
        for row, consumer in enumerate(serial.flows(table.flow_id)):
            assert table.answer(row) == {
                "complete": consumer.is_complete,
                "coverage": consumer.coverage,
                "result": consumer.result(),
            }
        with ParallelCollector(
            latency_consumer_factory(seed=3), workers=2, num_shards=4, seed=1
        ) as par:
            feed(par, cols, 500)
            assert_tables_equal(par.answers(), table)
            fid = int(table.flow_id[0])
            assert par.result(fid) == serial.result(fid)


class TestLifecycle:
    def test_empty_sinks(self):
        factory = path_stream("web-search", "hash", 1)[1]
        for table in (
            Collector(factory()).answers(), Collector(factory()).answers([1]),
        ):
            assert len(table) == 0 and table.offsets.tolist() == [0]
            assert table.rows_of([3, 4]).tolist() == [-1, -1]
        with ParallelCollector(factory(), workers=2) as par:
            assert len(par.answers()) == 0 and len(par.answers([1])) == 0
            assert par.flow(1) is None and par.result(1) is None

    def test_closed_parallel_raises_closed_serial_answers(self):
        cols, factory = path_stream("web-search", "hash", 1)
        par = ParallelCollector(factory(), workers=2, num_shards=4, seed=1)
        serial = Collector(factory(), num_shards=4, seed=1)
        for sink in (serial, par):
            feed(sink, cols, 1024)
        want = serial.answers()
        for sink in (serial, par):
            sink.close()
        assert_tables_equal(serial.answers(), want)
        for read in (par.answers, lambda: par.flow(1), lambda: par.result(1)):
            with pytest.raises(CollectorClosedError):
                read()

    def test_concat_rejects_mixed_kinds_and_overlap(self):
        path = Collector(path_stream("web-search", "hash", 1)[1]())
        path.ingest_batch([1], [1], [3], [9], now=1.0)
        cong = Collector(congestion_consumer_factory())
        cong.ingest_batch([2], [1], [3], [9], now=1.0)
        with pytest.raises(ValueError, match="one query kind"):
            AnswerTable.concat([path.answers(), cong.answers()])
        with pytest.raises(ValueError, match="twice"):
            AnswerTable.concat([cong.answers(), cong.answers()])
        assert len(AnswerTable.concat([])) == 0


class TestReadOnlyAndRestore:
    @pytest.mark.parametrize("mode,num_hashes", MODES)
    def test_answers_writes_no_state(self, mode, num_hashes):
        cols, factory = path_stream("web-search", mode, num_hashes)
        sink = Collector(factory(), num_shards=4, seed=1)
        feed(sink, cols, 256, hi=len(cols[0]) // 2)
        table = sink.answers()
        # Half-converged: decoded, open and untouched flows all present.
        done = table.row_lengths() > 0
        assert done.any() and not done.all()
        before = capture_checkpoint(sink)
        sink.answers()
        sink.answers(table.flow_id[:10])
        assert capture_checkpoint(sink) == before

    @pytest.mark.parametrize("kind", ["path", "congestion", "latency"])
    def test_checkpoint_restore_gives_an_equal_table(self, kind):
        if kind == "path":
            cols, factory = path_stream("elephant-mice", "hash", 1)
        else:
            cols = path_stream("elephant-mice", "hash", 1)[0]
            factory = {
                "congestion": lambda: congestion_consumer_factory(seed=3),
                "latency": lambda: latency_consumer_factory(seed=3),
            }[kind]
        sink = Collector(factory(), num_shards=4, seed=1)
        feed(sink, cols, 512)
        restored = Collector(factory(), num_shards=4, seed=1)
        restore_collector(restored, capture_checkpoint(sink))
        assert_tables_equal(restored.answers(), sink.answers())


class TestTransferSize:
    def test_worker_reply_is_columns_not_decoders(self):
        cols, factory = path_stream("web-search", "hash", 1, packets=20_000)
        with ParallelCollector(
            factory(), workers=2, num_shards=4, seed=1
        ) as par:
            feed(par, cols, 4096)
            reply = par._call(0, (parallel._ANSWERS, None))
            state = par.flows(reply.flow_id)
        assert isinstance(reply, AnswerTable) and len(reply) > 300
        blob = pickle.dumps(reply)
        assert len(blob) <= 64 * len(reply) + 8 * reply.values.size
        assert b"DigestConsumer" not in blob and b"consumers" not in blob
        # What the state read moves for the same flows.
        assert len(pickle.dumps(state)) > len(blob)
        assert b"PathDigestConsumer" in pickle.dumps(state)


class TestObservability:
    def test_answers_span_and_row_counter(self):
        cols, factory = path_stream("web-search", "hash", 1)
        obs = MetricsRegistry()
        sink = Collector(
            factory(), num_shards=4, seed=1, obs=obs,
            obs_labels={"sink": "path"},
        )
        feed(sink, cols, 1024)
        rows = len(sink.answers()) + len(sink.answers(cols[0][:5]))
        families = obs.as_dict()["families"]
        counter, = families["pint_collector_answer_rows_total"]["samples"]
        assert counter["labels"] == {"sink": "path"}
        assert counter["value"] == rows
        span, = families["pint_collector_answers_seconds"]["samples"]
        assert span["count"] == 2 and span["sum"] > 0

    def test_parallel_sink_reports_parent_and_worker_series(self):
        cols, factory = path_stream("web-search", "hash", 1)
        obs = MetricsRegistry()
        with ParallelCollector(
            factory(), workers=2, num_shards=4, seed=1, obs=obs,
            obs_labels={"sink": "path"},
        ) as par:
            feed(par, cols, 1024)
            rows = len(par.answers())
            families = par.snapshot().metrics["families"]
        by_labels = {
            tuple(sorted(s["labels"].items())): s["value"]
            for s in families["pint_collector_answer_rows_total"]["samples"]
        }
        assert by_labels[(("sink", "path"),)] == rows
        assert sum(
            value for labels, value in by_labels.items()
            if dict(labels).get("worker") is not None
        ) == rows


class _CountingLock:
    """A lock that counts its holds (the query port's cut counter)."""

    def __init__(self):
        self._lock = threading.Lock()
        self.holds = 0

    def __enter__(self):
        self._lock.acquire()
        self.holds += 1

    def __exit__(self, *exc):
        self._lock.release()


class TestQueryPort:
    def handler(self, sink):
        lock = _CountingLock()
        return QueryHandler(sink, lock), lock

    def test_bulk_flows_is_one_cut_with_the_flow_reply_shape(self):
        cols, factory = path_stream("web-search", "hash", 1)
        sink = Collector(factory(), num_shards=4, seed=1)
        feed(sink, cols, 1024)
        handler, lock = self.handler(sink)
        table = sink.answers()
        done = table.flow_id[table.row_lengths() > 0]
        asked = [int(done[0]), 10**9, int(table.flow_id[0]), int(done[0])]
        reply = handler.handle({"op": "flows", "flow_ids": asked})
        assert lock.holds == 1
        assert reply["ok"] and reply["op"] == "flows"
        assert [f["flow_id"] for f in reply["flows"]] == asked
        assert [f["known"] for f in reply["flows"]] == [True, False, True, True]
        assert reply["flows"][1] == {
            "ok": True, "op": "flow", "flow_id": 10**9, "known": False,
        }
        for flow in reply["flows"]:
            # Bulk and single replies are the same serialisation.
            assert flow == handler.handle(
                {"op": "flow", "flow_id": flow["flow_id"]}
            )
            if flow["known"]:
                consumer = sink.flow(flow["flow_id"])
                assert set(flow) == {"ok", "op", "flow_id", "known",
                                     "complete", "coverage", "result"}
                assert flow["complete"] == consumer.is_complete
                assert flow["coverage"] == consumer.coverage
                assert flow["result"] == consumer.result()
                assert handler.handle(
                    {"op": "result", "flow_id": flow["flow_id"]}
                )["result"] == consumer.result()
        assert reply["flows"][0]["complete"] is True

    @pytest.mark.parametrize("bad", ["7", 1.5, None, True, 1 << 63])
    def test_one_malformed_id_fails_the_whole_request(self, bad):
        sink = Collector(congestion_consumer_factory(), num_shards=2)
        sink.ingest_batch([1, 2], [1, 2], [3, 3], [9, 9], now=1.0)
        handler, lock = self.handler(sink)
        reply = handler.handle({"op": "flows", "flow_ids": [1, bad, 2]})
        assert reply["ok"] is False and "flow_id" in reply["error"]
        assert lock.holds == 0
        for op in ("flow", "result"):
            assert handler.handle({"op": op, "flow_id": bad})["ok"] is False

    def test_every_kind_answers_through_the_port(self):
        for factory, fid_result in (
            (congestion_consumer_factory(seed=3), float),
            (latency_consumer_factory(seed=3), dict),
        ):
            sink = Collector(factory, num_shards=2)
            sink.ingest_batch([1, 1, 2], [1, 2, 3], [3, 3, 3], [9, 40, 7],
                              now=1.0)
            handler, _ = self.handler(sink)
            flow = handler.handle({"op": "flow", "flow_id": 1})
            assert flow["known"] and flow["complete"]
            assert isinstance(flow["result"], fid_result)
            assert handler.handle({"op": "result", "flow_id": 5}) == {
                "ok": True, "op": "result", "flow_id": 5, "result": None,
            }

    def test_parallel_sink_bulk_read_is_one_rpc_per_worker(self, monkeypatch):
        cols, factory = path_stream("web-search", "hash", 1)
        serial = Collector(factory(), num_shards=4, seed=1)
        feed(serial, cols, 1024)
        with ParallelCollector(
            factory(), workers=2, num_shards=4, seed=1
        ) as par:
            feed(par, cols, 1024)
            par.drain()
            sent = []
            request = par._request
            monkeypatch.setattr(
                par, "_request",
                lambda w, msg: (sent.append((w, msg[0])), request(w, msg))[1],
            )
            asked = np.unique(cols[0])[:200].tolist()
            got = self.handler(par)[0].handle(
                {"op": "flows", "flow_ids": asked}
            )
            want = self.handler(serial)[0].handle(
                {"op": "flows", "flow_ids": asked}
            )
        assert got == want
        assert sorted(sent) == [(0, parallel._ANSWERS), (1, parallel._ANSWERS)]

    def test_query_client_flows_over_the_socket(self):
        cols, factory = path_stream("web-search", "hash", 1)
        sink = Collector(factory(), num_shards=4, seed=1)
        feed(sink, cols, 1024)
        server = QueryServer(sink, threading.Lock()).start()
        try:
            with QueryClient("127.0.0.1", server.port) as client:
                asked = np.unique(cols[0])[:20]
                flows = client.flows(asked)
                assert [f["flow_id"] for f in flows] == asked.tolist()
                assert flows == [client.flow(f) for f in asked]
                assert client.flows([]) == []
        finally:
            server.close()
