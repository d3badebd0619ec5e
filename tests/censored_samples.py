"""Random censored samples shared across the test modules."""

import numpy as np

from cemfit.censoring import CensoredSample


def random_censoring(seed=2024, n=300):
    """Normal lifetimes censored at their own normal bounds: 241 of 300 units
    censored, with bounds on both sides of the location."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, n)
    c = rng.normal(-1.0, 1.0, n)
    return CensoredSample(np.minimum(x, c), (x <= c).astype(int))


def positive_censoring():
    """``random_censoring`` with every w replaced by |w|: a Rayleigh sample."""
    sample = random_censoring()
    return CensoredSample(np.abs(sample.w), sample.delta)
