"""R009 known-good: distinct values through repro.grouping."""
import numpy as np

from repro.grouping import distinct, sorted_distinct


def flows(fids):
    return sorted_distinct(fids)


def shards(ids, num_shards):
    return distinct(ids, num_shards)


def cold(names):
    return np.unique(names)  # repro-lint: disable=R009 reason=strings, once per run
