"""Teardown for the tier-1 suite: no failed test leaves workers behind.

A test that fails while a :class:`ParallelCollector` it built is still
open keeps the collector alive through its traceback, so the workers
outlive the test (and a stopped one held the interpreter's exit).  The
autouse fixture below closes every collector still open after a failed
test; a passing test is left alone, so collectors shared across tests
by a fixture keep working.
"""

import gc

import pytest

from repro.collector.parallel import ParallelCollector
from repro.exceptions import WorkerFailedError


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.failed:
        item.failed_phase = report.when


@pytest.fixture(autouse=True)
def close_collectors_a_failed_test_left_open(request):
    yield
    if getattr(request.node, "failed_phase", None) is None:
        return
    for obj in gc.get_objects():
        if isinstance(obj, ParallelCollector) and not obj._closed:
            try:
                obj.close(timeout=1.0)
            except WorkerFailedError:
                pass  # a dead or stopped worker: killed and reported
