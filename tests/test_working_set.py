"""Working set of the stacked evaluations.

The Ricci contraction and the nonexistence certificate evaluate stacks of
vectors or matrices, split so that no stacked temporary exceeds
``_STACK_BUDGET`` float entries.  The memory they hold beyond their result
is therefore set by the budget, not by the dimension or the sample count.
"""

import tracemalloc

import numpy as np
import pytest

import quadric as q
from quadric import suites
from quadric.tangent import _STACK_BUDGET

#: Budget-sized temporaries a stacked evaluation may hold at once, beyond
#: what it returns.  Measured: about 4 for the contraction at m = 64, and
#: about 13 for the certificate at m = 16 with 2000 samples, which keeps one
#: stack's arrays until the next stack replaces them.  Drawing all 2000
#: samples as one stack holds about 290.
TEMPORARIES = 16


def transient_peak(call, warm_up) -> int:
    """Peak traced bytes of ``call`` beyond what it returns, after ``warm_up``
    has run the same code."""
    warm_up()
    tracemalloc.start()
    try:
        result = call()  # noqa: F841 - kept alive, so it counts as retained
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - retained


@pytest.fixture(scope="module")
def hopf_64():
    return q.random_hopf_data(64, np.random.default_rng(7), "generic")


def test_ricci_consistency_at_the_dimension_cap(hopf_64):
    def check():
        return suites.ricci_consistency(hopf_64)

    peak = transient_peak(check, warm_up=check)
    assert peak <= TEMPORARIES * _STACK_BUDGET * np.dtype(float).itemsize


def test_nonexistence_with_many_samples():
    peak = transient_peak(
        lambda: suites.nonexistence(16, samples=2000, seed=7),
        warm_up=lambda: suites.nonexistence(16, samples=2, seed=7),
    )
    assert peak <= TEMPORARIES * _STACK_BUDGET * np.dtype(float).itemsize
