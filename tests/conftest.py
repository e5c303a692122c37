from dataclasses import fields

import numpy as np
import pytest

from gaussesd import CovarianceMatrix, GaussianParams

MOMENT_FIELDS = tuple(f.name for f in fields(CovarianceMatrix))
PARAM_FIELDS = tuple(f.name for f in fields(GaussianParams))


def moment_diff(a, b) -> float:
    return max(abs(getattr(a, f) - getattr(b, f)) for f in MOMENT_FIELDS)


def param_diff(a, b) -> float:
    return max(abs(getattr(a, f) - getattr(b, f)) for f in PARAM_FIELDS)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
