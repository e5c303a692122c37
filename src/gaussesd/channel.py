"""Closed-form covariance evolution under independent thermal reservoirs.

Each mode couples to its own Markovian bath with dissipation rate gamma_i
and thermal occupation nb_i.  The six second moments evolve in closed form:
occupations relax toward nb_i at rate 2 gamma_i, single-mode correlations
m_i decay at 2 gamma_i, cross correlations m_c, m_s at gamma_1 + gamma_2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidGrid
from .states import (
    CovarianceMatrix,
    GaussianParams,
    _combine,
    _param_terms,
    _require_finite,
    simon_from_moments,
)

__all__ = [
    "ChannelParams",
    "Trajectory",
    "evolve",
    "evolve_cm",
    "simon_curve",
    "simon_grid",
    "evolve_symmetric",
    "symmetric_initial_moments",
    "sample_trajectory",
]


@dataclass(frozen=True)
class ChannelParams:
    """Reservoir couplings: dissipation rates gamma_i > 0 (inverse time),
    every finite one, and finite bath thermal occupations nb_i >= 0.  Rates
    and times enter only as gamma_i t (:func:`_decay`), so scaling the rates
    by 2**k and every time by 2**-k keeps every bit while gamma t is normal."""

    gamma1: float
    gamma2: float
    nb1: float = 0.0
    nb2: float = 0.0

    def __post_init__(self):
        for name in ("gamma1", "gamma2", "nb1", "nb2"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if not (self.gamma1 > 0 and self.gamma2 > 0):
            raise DomainError(f"dissipation rates must be > 0, got {self.gamma1}, {self.gamma2}")
        if self.nb1 < 0 or self.nb2 < 0:
            raise DomainError(f"bath occupations must be >= 0, got {self.nb1}, {self.nb2}")

    @classmethod
    def symmetric(cls, gamma: float, nb: float = 0.0) -> "ChannelParams":
        return cls(gamma1=gamma, gamma2=gamma, nb1=nb, nb2=nb)


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution curve: strictly increasing times, the covariance at
    each time, and the Simon value at each time."""

    times: tuple[float, ...]
    states: tuple[CovarianceMatrix, ...]
    simon: tuple[float, ...]

    def __post_init__(self):
        if not (len(self.times) == len(self.states) == len(self.simon)):
            raise InvalidGrid("trajectory fields must have equal lengths")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise InvalidGrid("trajectory times must be strictly increasing")


def _decay(ch: ChannelParams):
    """t -> the decay factors (e1, h1, e2, h2, ec) of states._combine, with
    the channel read once: the only code that exponentiates a rate times a
    time, and the one that refuses a negative or NaN t (DomainError).
    e_i = exp(-2 gamma_i t), h_i = (1 - e_i) nb_i by expm1 and
    ec = exp(-(gamma1 + gamma2) t); no exponent is positive, so e_i and ec
    lie in [0, 1] and h_i in [0, nb_i] at every t >= 0, inf included.  Each
    gamma t is formed before it is doubled, and (gamma1 + gamma2) t as
    2 ((gamma1/2 + gamma2/2) t) where the sum overflows, so the
    ChannelParams scaling rule holds."""
    g1, g2, nb1, nb2 = ch.gamma1, ch.gamma2, ch.nb1, ch.nb2
    c, g12 = (1.0, g1 + g2) if g1 + g2 < math.inf else (2.0, 0.5 * g1 + 0.5 * g2)
    exp, expm1 = math.exp, math.expm1

    def at(t: float) -> tuple:
        if not t >= 0:  # NaN fails it too
            raise DomainError(f"time must be >= 0, got {t}")
        x1 = -2.0 * (g1 * t)
        x2 = -2.0 * (g2 * t)
        return exp(x1), -expm1(x1) * nb1, exp(x2), -expm1(x2) * nb2, exp(-(c * (g12 * t)))

    return at


def evolve(p0: GaussianParams, ch: ChannelParams, t: float) -> CovarianceMatrix:
    """Covariance moments at time t >= 0 for initial parameters p0.

    Implements the closed-form solutions of the thermal-reservoir master
    equation; at t = 0 this reduces exactly to cm_from_params(p0), and for
    t -> infinity it converges to the bath moments (n_i = nb_i, m = 0).
    """
    decay = _decay(ch)(t)
    return CovarianceMatrix(*_combine(_param_terms(p0.z1, p0.z2, p0.r, p0.nu1, p0.nu2), decay))


def simon_curve(p0: GaussianParams, ch: ChannelParams):
    """t -> simon_criterion(evolve(p0, ch, t)), bit for bit, with the
    per-state terms and the channel's decay function built once per curve
    and no dataclass per call."""
    terms = _param_terms(p0.z1, p0.z2, p0.r, p0.nu1, p0.nu2)
    decay = _decay(ch)

    def s_of(t: float) -> float:
        s = simon_from_moments(*_combine(terms, decay(t)))
        if not math.isfinite(s):
            raise DomainError(f"Simon value is not finite at t={t}")
        return s

    return s_of


def _evolve_grid(rows, ch: ChannelParams, times) -> tuple:
    """The six evolved moments and the Simon value of each state at each
    time, as arrays of shape (len(rows), len(times)), bit for bit equal to
    :func:`evolve` and simon_criterion.  Each row holds one state's
    (z1, z2, r, nu1, nu2) as floats that GaussianParams would accept; the
    caller has checked them.  Raises DomainError where S is not finite, which
    is how an overflow shows; numpy's warnings are silenced."""
    factors = np.array(list(map(_decay(ch), times))).reshape(-1, 5).T
    terms = np.array([_param_terms(*row) for row in rows]).reshape(-1, 12).T[:, :, None]
    with np.errstate(over="ignore", invalid="ignore"):
        moments = _combine(terms, factors)
        s = simon_from_moments(*moments)
    if not np.isfinite(s).all():
        raise DomainError("Simon value is not finite on the grid")
    return moments, s


def simon_grid(states, ch: ChannelParams, times) -> np.ndarray:
    """Simon value of each state at each time, shape (len(states),
    len(times)), bit for bit equal to simon_criterion(evolve(p, ch, t))."""
    rows = [(p.z1, p.z2, p.r, p.nu1, p.nu2) for p in states]
    return _evolve_grid(rows, ch, times)[1]


def evolve_cm(cm: CovarianceMatrix, ch: ChannelParams, t: float) -> CovarianceMatrix:
    """Propagate arbitrary covariance moments for a further time t.

    This is the semigroup form of the channel (n_i relaxes exponentially
    toward nb_i, correlations decay) on e1, e2 and the cross factor
    exp(-(gamma1 + gamma2) t) of :func:`_decay`, so it takes every finite
    rate and the same scaling rule; evolve(p0, ch, t) equals
    evolve_cm(cm_from_params(p0), ch, t) up to rounding.
    """
    e1, _, e2, _, ec = _decay(ch)(t)
    return CovarianceMatrix(ch.nb1 + e1 * (cm.n1 - ch.nb1), ch.nb2 + e2 * (cm.n2 - ch.nb2),
                            e1 * cm.m1, e2 * cm.m2, ec * cm.ms, ec * cm.mc)


def symmetric_initial_moments(r0: float, nu0: float = 0.0) -> tuple[float, float]:
    """Initial (n0, m0) for the symmetric case z = 0, nu1 = nu2 = nu0:
    n0 = ((2 nu0 + 1) cosh 2r0 - 1)/2, m0 = (2 nu0 + 1) sinh(2 r0)/2.
    DomainError, naming r0, where cosh or sinh overflows."""
    try:
        ch2r, sh2r = math.cosh(2.0 * r0), math.sinh(2.0 * r0)
    except OverflowError:
        raise DomainError(f"initial moments overflow at r0={r0}") from None
    return 0.5 * ((2.0 * nu0 + 1.0) * ch2r - 1.0), 0.5 * (2.0 * nu0 + 1.0) * sh2r


def evolve_symmetric(n0: float, m0: float, gamma: float, t: float) -> tuple[float, float]:
    """Symmetric zero-temperature case: both surviving moments scale by
    exp(-2 gamma t), the e1 of :func:`_decay` for ChannelParams.symmetric(gamma)."""
    decay = _decay(ChannelParams.symmetric(gamma))(t)[0]
    return n0 * decay, m0 * decay


def _uniform_times(t_max: float, n_points: int) -> list[float]:
    """The uniform time grid t_max * i / (n_points - 1), i = 0 .. n_points - 1,
    over [0, t_max], both endpoints included.  Raises InvalidGrid unless
    t_max is finite and > 0, n_points >= 2 and t_max * (n_points - 1) is
    finite, so that no point is inf."""
    if not 0 < t_max < math.inf:
        raise InvalidGrid(f"t_max must be finite and > 0, got {t_max}")
    if n_points < 2:
        raise InvalidGrid(f"n_points must be >= 2, got {n_points}")
    if not math.isfinite(t_max * (n_points - 1)):
        raise InvalidGrid(f"t_max * (n_points - 1) overflows: t_max {t_max}, n_points {n_points}")
    return [t_max * i / (n_points - 1) for i in range(n_points)]


def sample_trajectory(
    p0: GaussianParams, ch: ChannelParams, t_max: float, n_points: int
) -> Trajectory:
    """Evaluate the evolved covariance and Simon value on the uniform time
    grid of :func:`_uniform_times`.  Raises InvalidGrid for a grid it
    refuses and DomainError where S is not finite."""
    times = tuple(_uniform_times(t_max, n_points))
    moments, simon = _evolve_grid([(p0.z1, p0.z2, p0.r, p0.nu1, p0.nu2)], ch, times)
    states = tuple(CovarianceMatrix(*row) for row in zip(*(m[0].tolist() for m in moments)))
    return Trajectory(times=times, states=states, simon=tuple(simon[0].tolist()))
