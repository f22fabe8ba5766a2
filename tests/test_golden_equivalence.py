"""Tier-1 face of ``tests/equivalence.py``: the property on the
pairwise sample, and every configuration's digests against
``tests/golden/equivalence.json`` (protocol in that module's docstring).
"""

import json
from functools import partial
from unittest import mock

import pytest

from repro.coding.store import PathStateStore

from equivalence import (
    AXES,
    GOLDEN,
    INCOMPATIBLE,
    Config,
    compatible_pairs,
    differences,
    digests,
    driver_module,
    pairs,
    pinned,
    reference,
    run,
    sample,
)

SAMPLE = {config.name: config for config in sample()}
CONFIGS = {**pinned(), **{n: partial(run, c) for n, c in SAMPLE.items()}}


@pytest.fixture(scope="module")
def golden(request):
    """``(committed, fresh)`` digests by configuration name; under
    ``--update-golden`` the file is written when the module is done."""
    committed = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    fresh = {}
    yield committed, fresh
    if request.config.getoption("--update-golden"):
        # A full run rewrites the file from scratch (orphans go); a
        # partial one (-k, a shard) replaces only what it ran.
        if fresh.keys() != CONFIGS.keys():
            fresh = {**committed, **fresh}
        GOLDEN.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_equivalence(name, golden, request):
    committed, fresh = golden
    outcome = CONFIGS[name]()
    if name in SAMPLE:
        moved = differences(outcome, run(reference(SAMPLE[name])))
        assert not moved, f"{name}: not bit-identical to its reference: {moved}"
    got = fresh[name] = digests(outcome)
    if request.config.getoption("--update-golden"):
        return
    assert name in committed, f"{name}: no golden entry (run --update-golden)"
    pinned_digests = committed[name]
    moved = sorted(
        k for k in got.keys() | pinned_digests.keys()
        if got.get(k) != pinned_digests.get(k)
    )
    assert not moved, (
        f"{name}: moved against tests/golden/equivalence.json: {moved}"
    )


def test_every_golden_entry_has_a_configuration():
    orphans = sorted(json.loads(GOLDEN.read_text()).keys() - CONFIGS.keys())
    assert not orphans, f"no configuration produces {orphans}"


def test_sample_covers_every_compatible_pair():
    covered = set()
    for config in SAMPLE.values():
        row = {axis: getattr(config, axis) for axis in AXES}
        assert not pairs(row) & INCOMPATIBLE, config.name
        covered |= pairs(row)
    assert covered == compatible_pairs()
    # Widening the exclusion table must be a decision, not a way to pass.
    assert len(INCOMPATIBLE) == 5


class TestThePropertyCanFail:
    """PINT's silent failure is a sink that still "decodes": every
    defect below leaves every record ingested and most flows answered."""

    CONFIG = Config("web-search", batch=64)

    def test_sink_built_with_another_seed(self):
        build = driver_module.path_consumer_factory

        def reseeded(universe, **kwargs):
            return build(universe, **{**kwargs, "seed": kwargs["seed"] + 1})

        with mock.patch.object(
            driver_module, "path_consumer_factory", reseeded
        ):
            got = run(self.CONFIG)
        moved = differences(got, run(reference(self.CONFIG)))
        assert "path.answers" in moved and "report.path_correct" in moved
        assert not any(key.startswith("congestion") for key in moved)

    def test_one_delivered_digest_bit_flipped(self):
        class OneBitOff(driver_module.TraceDataplane):
            flipped = False

            def encode(self, path_ids, pids):
                encoded = super().encode(path_ids, pids)
                if not OneBitOff.flipped:
                    OneBitOff.flipped = True
                    encoded[0] ^= 1
                return encoded

        with mock.patch.object(driver_module, "TraceDataplane", OneBitOff):
            got = run(self.CONFIG)
        assert OneBitOff.flipped
        moved = differences(got, run(reference(self.CONFIG)))
        assert "path.state" in moved
        assert got["report"]["records"] == 2_560

    def test_column_answers_overstate_known_hops(self):
        # The reference shares no code with the column stores, so a
        # defect in their read-out shows even though every decoder
        # state is right: run under the patch, both sides would read
        # it if the reference answered through PathStateStore too.
        answers = PathStateStore.answers

        def one_hop_too_many(store, rows):
            columns, offsets, values = answers(store, rows)
            columns["known"] = columns["known"] + (columns["k"] > 0)
            return columns, offsets, values

        with mock.patch.object(PathStateStore, "answers", one_hop_too_many):
            moved = differences(
                run(self.CONFIG), run(reference(self.CONFIG))
            )
        assert moved == [
            "path.answers", "path.shard0", "path.shard1", "path.shard2",
            "path.shard3", "report.path_coverage_mean",
        ]
