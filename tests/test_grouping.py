"""``stable_order``: the linear-time grouping replay scoring and the sink's
fold run on."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.grouping import sorted_distinct, stable_order

I64 = np.iinfo(np.int64)


def assert_stable_argsort(keys):
    keys = np.asarray(keys, dtype=np.int64)
    want = np.argsort(keys, kind="stable")
    assert np.array_equal(stable_order(keys), want)
    assert np.array_equal(sorted_distinct(keys), np.unique(keys))


@pytest.mark.parametrize("keys", [
    [], [7], [3] * 50, [-5, -1, -5, -3, -1],
    [I64.min, I64.max, 0, -1, I64.max, I64.min, 1],
])
def test_small_columns(keys):
    assert_stable_argsort(keys)


@pytest.mark.parametrize("span", [255, 256, 65_535, 65_536, 2**32])
def test_spans_at_digit_boundaries(span):
    rng = np.random.default_rng(span)
    keys = rng.integers(-3, -3 + span, size=5000, endpoint=True)
    keys[:2] = (-3, -3 + span)
    assert_stable_argsort(keys)
    # Few distinct keys of the same span: long runs of ties.
    assert_stable_argsort(rng.choice(keys[:40], size=5000))


def test_random_full_range_keys():
    rng = np.random.default_rng(0)
    keys = rng.integers(I64.min, I64.max, size=20_000, endpoint=True)
    keys[::7] = keys[3]
    assert_stable_argsort(keys)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(
    st.integers(-3, 3), st.integers(I64.min, I64.max),
), max_size=200))
def test_equals_stable_argsort(keys):
    assert_stable_argsort(keys)

