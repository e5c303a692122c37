import math
import sys
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import settings

from gaussesd import ChannelParams, CovarianceMatrix, GaussianParams

# every @given test draws the same examples on every run and keeps no example
# database, so two runs of the suite are comparable test for test
settings.register_profile("gaussesd", derandomize=True, database=None)
settings.load_profile("gaussesd")

MOMENT_FIELDS = tuple(f.name for f in fields(CovarianceMatrix))
PARAM_FIELDS = tuple(f.name for f in fields(GaussianParams))


def random_setup(rng):
    p = GaussianParams(
        z1=rng.uniform(-1.5, 1.5),
        z2=rng.uniform(-1.5, 1.5),
        r=rng.uniform(0.0, 1.5),
        nu1=rng.uniform(0.0, 2.0),
        nu2=rng.uniform(0.0, 2.0),
    )
    ch = ChannelParams(
        gamma1=rng.uniform(0.05, 0.6),
        gamma2=rng.uniform(0.05, 0.6),
        nb1=rng.uniform(0.0, 1.0),
        nb2=rng.uniform(0.0, 1.0),
    )
    return p, ch


def normal(x: float) -> bool:
    """x is a normal float: finite, nonzero and not subnormal, so that
    scaling it by a power of two is exact."""
    return sys.float_info.min <= abs(x) < math.inf


def rescaled(ch, k: int):
    """ch with both rates multiplied by 2**k."""
    return ChannelParams(math.ldexp(ch.gamma1, k), math.ldexp(ch.gamma2, k), ch.nb1, ch.nb2)


def scale_exponents(rng, ch) -> list[int]:
    """Powers k for the rate-time scaling tests: two drawn from [-1000, 1000]
    and the largest k at which both rates of rescaled(ch, k) stay finite,
    where 2 gamma overflows for the faster rate (and often gamma1 + gamma2)."""
    top = 1024 - max(math.frexp(g)[1] for g in (ch.gamma1, ch.gamma2))
    return [int(k) for k in rng.integers(-1000, 1001, 2)] + [top]


def traced_peak(call):
    """Peak bytes that numpy and Python allocate during call(), measured after
    one untraced warm-up call has filled the layout caches."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def moment_diff(a, b) -> float:
    return max(abs(getattr(a, f) - getattr(b, f)) for f in MOMENT_FIELDS)


def param_diff(a, b) -> float:
    return max(abs(getattr(a, f) - getattr(b, f)) for f in PARAM_FIELDS)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
