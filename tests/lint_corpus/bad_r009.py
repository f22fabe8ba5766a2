"""R009 known-bad: hashed np.unique in library code."""
import numpy as np
from numpy import unique  # bad


def flows(fids):
    return np.unique(fids)  # bad


def counts(fids):
    return unique(fids, return_counts=True)
