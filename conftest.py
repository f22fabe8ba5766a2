"""Repo-wide pytest configuration: deterministic test sharding.

CI splits the tier-1 suite across parallel jobs with ``--shard-count
N --shard-index K`` (1-based ``K``).  The partition is a stable hash
of the test's nodeid -- ``zlib.crc32``, not the per-process-salted
builtin ``hash()`` -- so every run on every interpreter assigns the
same test to the same shard and the union of the shards is exactly
the full suite.  The default ``--shard-count 1`` keeps plain
``pytest`` invocations (the tier-1 command, local runs) unchanged.
"""

import zlib

import pytest


def pytest_addoption(parser):
    group = parser.getgroup("shard", "deterministic test sharding")
    group.addoption(
        "--shard-count", type=int, default=1,
        help="total number of shards the suite is split into",
    )
    group.addoption(
        "--shard-index", type=int, default=1,
        help="1-based index of the shard this run executes",
    )
    parser.addoption(
        "--update-golden", action="store_true",
        help="rewrite tests/golden/equivalence.json from this run "
             "(tests/test_golden_equivalence.py) instead of comparing",
    )


def pytest_collection_modifyitems(config, items):
    count = config.getoption("--shard-count")
    index = config.getoption("--shard-index")
    if count <= 1:
        return
    if not 1 <= index <= count:
        raise pytest.UsageError(
            f"--shard-index {index} out of range 1..{count}"
        )
    kept, deselected = [], []
    for item in items:
        if zlib.crc32(item.nodeid.encode()) % count == index - 1:
            kept.append(item)
        else:
            deselected.append(item)
    if deselected:
        config.hook.pytest_deselected(items=deselected)
        items[:] = kept
