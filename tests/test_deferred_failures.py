"""Fire-and-forget front doors: a batch's failure waits for a barrier.

The parallel collector's workers and the service's ingest thread take
batches without answering for them, so both park a failing batch in a
:class:`~repro.exceptions.DeferredFailures` ledger and raise it at the
next sync point: the first eight whole, the rest counted.
"""

import re

import numpy as np
import pytest

from repro.collector import Collector, ParallelCollector
from repro.collector import congestion_consumer_factory
from repro.exceptions import DeferredFailures, WorkerFailedError
from repro.service import CollectorServer, ReliableUDPSender

#: Failing batches fed through each front door: more than the ledger
#: keeps whole.
FAILING = 12


def _refusing_factory(flow_id):
    raise RuntimeError(f"no consumer for flow {flow_id}")


def worker_front_door():
    """A one-worker sink whose every flow fails to build; and the line
    each failure's text ends with."""
    par = ParallelCollector(_refusing_factory, workers=1, num_shards=1)

    def feed(i):
        par.ingest_batch([i + 1], [i], [3], [5], now=float(i + 1))

    return feed, par.drain, par.close, "RuntimeError: no consumer for flow"


def server_front_door():
    """A wire sink whose collector refuses every batch (hop count 300)."""
    srv = CollectorServer(
        Collector(congestion_consumer_factory(), num_shards=1)
    ).start()
    tx = ReliableUDPSender("127.0.0.1", srv.udp_port)

    def feed(i):
        tx.send_batch([i + 1], [i], [300], [5], now=float(i + 1))

    def drain():
        tx.flush()
        srv.drain()

    def close():
        tx.close()
        srv.close()

    return feed, drain, close, "ValueError: hop counts must lie in [1, 255]"


@pytest.mark.parametrize(
    "front_door", [worker_front_door, server_front_door],
    ids=["worker", "server"],
)
def test_failures_past_the_bound_are_counted(front_door):
    feed, drain, close, failure = front_door()
    try:
        for i in range(FAILING):
            feed(i)
        with pytest.raises(WorkerFailedError) as err:
            drain()
        text = str(err.value)
        kept = DeferredFailures.LIMIT
        assert text.count(failure) == kept
        assert re.search(
            rf"\n\.\.\. and {FAILING - kept} further ingest failure\(s\) "
            r"suppressed\s*$", text,
        )
        drain()  # delivered once: the ledger is empty again
    finally:
        close()


def test_ledger_pops_once_under_its_prefix():
    ledger = DeferredFailures("deferred")
    ledger.raise_pending()  # empty: nothing to raise
    try:
        raise ValueError("first")
    except ValueError:
        ledger.park()
    ledger.park("second")
    with pytest.raises(WorkerFailedError) as err:
        ledger.raise_pending()
    text = str(err.value)
    assert text.startswith("deferred:\n")
    assert "ValueError: first" in text and text.endswith("\nsecond")
    ledger.raise_pending()  # raised once: the ledger is empty again


def test_server_close_closes_a_failing_parallel_collector():
    # Both front doors hold a failure at close: the workers could not
    # build a consumer, and the server's collector refused a batch
    # outright.  close(close_collector=True) must stop the workers all
    # the same and report both failures.
    par = ParallelCollector(_refusing_factory, workers=2, num_shards=2)
    procs = list(par._procs)
    srv = CollectorServer(par).start()
    n = 64
    ids = np.arange(1, n + 1)
    with ReliableUDPSender("127.0.0.1", srv.udp_port) as tx:
        tx.send_batch(ids, ids, np.full(n, 3), np.full(n, 5), now=1.0)
        tx.send_batch([1], [1], [300], [5], now=2.0)
    with pytest.raises(WorkerFailedError) as err:
        srv.close(close_collector=True)
    assert "no consumer for flow" in str(err.value)
    assert "[1, 255]" in str(err.value)
    assert par._closed
    for proc in procs:
        proc.join(timeout=5.0)
        assert not proc.is_alive()
