"""One front door on both collectors: what a record must be to get in.

A refused record or batch raises ``ValueError`` before the clock ticks
or any table is touched, on the serial :class:`Collector` and the
:class:`ParallelCollector` alike -- the same input must never become
two different sinks depending on which collector took it.
"""

import numpy as np
import pytest

from repro.collector import (
    Collector,
    ParallelCollector,
    congestion_consumer_factory,
    path_consumer_factory,
)


def make(kind: str, parallel: bool):
    factory = (
        congestion_consumer_factory(bits=8, seed=0) if kind == "congestion"
        else path_consumer_factory(range(32), seed=0)
    )
    if parallel:
        return ParallelCollector(factory, workers=2, num_shards=2)
    return Collector(factory, num_shards=2)


def ingest_one(sink, *record, now=None):
    """One record through the front door: scalar ``ingest`` on the
    serial collector, a one-record batch on the parallel one, which
    takes batches only."""
    if isinstance(sink, ParallelCollector):
        return sink.ingest_batch(*([field] for field in record), now=now)
    return sink.ingest(*record, now=now)


def state(sink) -> tuple:
    sink.drain()
    answers = sink.answers()
    return (
        sink.now, sink.snapshot().records, answers.flow_id.tolist(),
        {name: col.tolist() for name, col in answers.columns.items()
         if col.dtype.kind != "f"},
    )


@pytest.fixture(params=[False, True], ids=["serial", "parallel"])
def parallel(request):
    return request.param


class TestCongestionCodeRange:
    """An 8-bit sink holds exponents 0..255 of its codec grid; a code
    outside would decode past ``max_util`` (or overflow the decode)."""

    def test_codes_in_range_accepted(self, parallel):
        with make("congestion", parallel) as sink:
            ingest_one(sink, 1, 1, 3, 0, now=1.0)
            ingest_one(sink, 1, 2, 3, 255, now=1.0)
            assert sink.ingest_batch(
                [2, 3], [3, 4], [3, 3], [0, 255], now=1.0
            ) == 2
            sink.drain()
            assert sink.answers().columns["max_code"].tolist() == [255, 0, 255]

    @pytest.mark.parametrize("bad", [256, -1, 5000, 20000])
    def test_codes_out_of_range_refused_state_untouched(self, parallel, bad):
        with make("congestion", parallel) as sink:
            sink.ingest_batch([1, 2], [1, 2], [3, 3], [7, 9], now=1.0)
            before = state(sink)
            with pytest.raises(ValueError, match=r"\[0, 255\]"):
                ingest_one(sink, 1, 3, 3, bad, now=2.0)
            with pytest.raises(ValueError, match=r"\[0, 255\]"):
                # Good records around the bad one: all refused.
                sink.ingest_batch(
                    [1, 2, 3], [4, 5, 6], [3, 3, 3], [8, bad, 8], now=2.0
                )
            assert state(sink) == before
            # Answers and results still decode: nothing past the grid.
            assert np.isfinite(sink.answers().columns["bottleneck"]).all()

    def test_path_sink_digests_are_not_codes(self, parallel):
        with make("path", parallel) as sink:
            assert sink.ingest_batch([1], [1], [3], [1 << 40]) == 1


class TestIntegerRule:
    """Every field of a scalar record is a 64-bit integer; every batch
    column has an integer dtype.  Nothing is coerced."""

    BAD = ["1", 1.5, None, True, 1 << 63]

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    @pytest.mark.parametrize("field", range(4))
    def test_scalar_field_refused_alike(self, bad, field):
        outcomes = []
        for parallel in (False, True):
            with make("path", parallel) as sink:
                ingest_one(sink, 1, 1, 3, 7, now=1.0)
                before = state(sink)
                record = [1, 2, 3, 9]
                record[field] = bad
                # A one-record batch meets the column rule instead.
                if not parallel:
                    refused = pytest.raises(ValueError, match="64-bit integer")
                elif bad == 1 << 63:
                    refused = pytest.raises(OverflowError)
                else:
                    refused = pytest.raises(ValueError, match="must hold integers")
                with refused:
                    ingest_one(sink, *record, now=2.0)
                assert state(sink) == before
                outcomes.append(before)
        assert outcomes[0] == outcomes[1]

    def test_numpy_integers_are_integers(self, parallel):
        with make("path", parallel) as sink:
            ingest_one(
                sink, np.int64(1), np.uint32(1), np.int8(3), np.int64(7)
            )
            sink.drain()
            assert sink.answers().flow_id.tolist() == [1]

    @pytest.mark.parametrize("column", [
        np.array([1.0, 1.9]), np.array([True, False]),
        np.array(["1", "2"]), np.array([1, "2"], dtype=object), [1, 2.5],
    ], ids=["float", "bool", "str", "object", "float-list"])
    def test_non_integer_column_refused(self, parallel, column):
        with make("path", parallel) as sink:
            sink.ingest_batch([5], [1], [3], [7], now=1.0)
            before = state(sink)
            with pytest.raises(ValueError, match="must hold integers"):
                sink.ingest_batch(column, [1, 2], [3, 3], [4, 4], now=2.0)
            assert state(sink) == before

    def test_integer_columns_as_before(self, parallel):
        with make("path", parallel) as sink:
            assert sink.ingest_batch([], [], [], []) == 0
            assert sink.ingest_batch(
                np.array([1, 2], dtype=np.int32), [1, 2], [3, 3], [4, 4]
            ) == 2
            with pytest.raises(OverflowError):
                sink.ingest_batch([1 << 63], [1], [3], [4])
