"""Entanglement sudden death (ESD) detection.

For symmetric pure states (z1 = z2 = z0, nu = 0) in equal zero-temperature
channels, separation happens at a finite time exactly when

    0 < r0 < log(cosh(2 z0)) / 2,

and the separation time follows from a closed-form decay ratio
exp(-2 gamma t_esd).  General channels are handled by root-finding on the
Simon value along the evolved trajectory.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams, _evolve_grid, simon_curve
from .errors import BudgetExceeded, DomainError, InvalidGrid
from .states import GaussianParams, _require_finite

__all__ = [
    "EsdKind",
    "EsdMethod",
    "EsdResult",
    "esd_condition_symmetric",
    "symmetric_esd_decay_ratio",
    "symmetric_esd_decay_ratio_alt",
    "t_esd_analytic_symmetric",
    "t_esd_numeric",
    "initial_entanglement_threshold",
    "esd_boundary_sweep",
    "simon_sign",
    "count_sign_changes",
]

# Simon values inside this band around zero are numerically indistinguishable
# from zero (cancellation noise of the invariant combination) and are never
# treated as sign information.
SIGN_TOL = 1e-12

# Bisection of t_esd_numeric: absolute time tolerance and iteration cap.
TIME_TOL = 1e-10
MAX_ITER = 200
# Regula-falsi steps of t_esd_numeric before its bisection.
ILLINOIS_STEPS = 12


def simon_sign(s):
    """Elementwise Simon sign: -1 entangled, +1 separable, 0 inside the dead band."""
    return np.where(s > SIGN_TOL, 1, np.where(s < -SIGN_TOL, -1, 0))


def count_sign_changes(values) -> int:
    """Number of sign flips in a sampled curve under :func:`simon_sign`.

    Values inside its dead band, and NaN, carry no sign and are dropped
    before the flips are counted, which keeps late-time floating-point
    flicker around zero from being miscounted as crossings.
    """
    signs = simon_sign(np.asarray(values, dtype=float))
    signs = signs[signs != 0]
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


class EsdKind(enum.Enum):
    FINITE_TIME = "FiniteTime"
    ASYMPTOTIC = "Asymptotic"
    INITIALLY_SEPARABLE = "InitiallySeparable"


class EsdMethod(enum.Enum):
    ANALYTIC = "Analytic"
    NUMERIC_ROOT = "NumericRoot"


@dataclass(frozen=True)
class EsdResult:
    """Outcome of an ESD query.  t_esd is present exactly when
    kind == FINITE_TIME."""

    kind: EsdKind
    method: EsdMethod
    t_esd: float | None = None
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if (self.kind is EsdKind.FINITE_TIME) != (self.t_esd is not None):
            raise DomainError("t_esd must be present exactly when kind is FiniteTime")
        if self.t_esd is not None and not 0 < self.t_esd < math.inf:
            raise DomainError(f"t_esd must be > 0 and finite, got {self.t_esd}")


def esd_condition_symmetric(z0: float, r0: float) -> bool:
    """True when a symmetric pure state (z1 = z2 = z0) in equal
    zero-temperature channels separates at a finite time:
    0 < r0 < log(cosh(2 z0)) / 2.  DomainError where cosh(2 z0) overflows."""
    if not r0 > 0:
        raise DomainError(f"r0 must be > 0, got {r0}")
    try:
        return r0 < 0.5 * math.log(math.cosh(2.0 * z0))
    except OverflowError:
        raise DomainError(f"cosh(2 z0) overflows at z0={z0}") from None


def symmetric_esd_decay_ratio(z0: float, r0: float) -> float:
    """Decay ratio R = exp(-2 gamma t_esd) for the symmetric pure
    zero-temperature case, in the eta/zeta form

        R = eta (1 + zeta^2 - 2 eta zeta) / (eta - zeta - eta^2 zeta + zeta^2 eta)

    with eta = exp(2 r0), zeta = exp(2 z0).  A finite separation time exists
    exactly when R lies in (0, 1), which reproduces the condition
    r0 < log(cosh 2 z0)/2.  This form agrees with the numeric root of the
    Simon value throughout its validity window.  DomainError where a term
    overflows or the denominator vanishes.
    """
    try:
        eta, zeta = math.exp(2.0 * r0), math.exp(2.0 * z0)
    except OverflowError:
        eta = zeta = math.inf
    num = eta * (1.0 + zeta * zeta - 2.0 * eta * zeta)
    den = eta - zeta - eta * eta * zeta + zeta * zeta * eta
    if not (math.isfinite(num) and math.isfinite(den)):
        raise DomainError(f"decay ratio overflows at z0={z0}, r0={r0}")
    if den == 0.0:
        raise DomainError(f"decay-ratio denominator vanishes at z0={z0}, r0={r0}")
    return num / den


def symmetric_esd_decay_ratio_alt(z0: float, r0: float) -> float:
    """Alternative closed form for the decay ratio,

        R = (2 e^{r0} cosh(2 z0) sinh(r0) - 2 sinh^2 z0)
            / (e^{2 r0} (cosh(2 r0) - sinh(2 z0))).

    This expression is inconsistent with :func:`symmetric_esd_decay_ratio`
    (e.g. at z0 = 0 it yields a ratio in (0, 1), predicting finite-time
    separation where the decay is in fact asymptotic) and does not match the
    numeric root anywhere tested.  Kept so that the discrepancy stays pinned
    (acceptance criterion 4).
    """
    num = 2.0 * math.exp(r0) * math.cosh(2.0 * z0) * math.sinh(r0) - 2.0 * math.sinh(z0) ** 2
    den = math.exp(2.0 * r0) * (math.cosh(2.0 * r0) - math.sinh(2.0 * z0))
    if den == 0.0:
        raise DomainError(f"alt decay-ratio denominator vanishes at z0={z0}, r0={r0}")
    return num / den


def t_esd_analytic_symmetric(z0: float, r0: float, gamma: float) -> EsdResult:
    """Closed-form separation time for the symmetric pure zero-temperature
    case.  Returns FiniteTime with t_esd = -ln(R)/(2 gamma) when the decay
    ratio R lies in (0, 1), Asymptotic otherwise, and DomainError where R
    has rounded out of (0, 1) although esd_condition_symmetric holds."""
    if not (r0 > 0 and gamma > 0):
        raise DomainError(f"need r0 > 0 and gamma > 0, got r0={r0}, gamma={gamma}")
    ratio = symmetric_esd_decay_ratio(z0, r0)
    if 0.0 < ratio < 1.0:
        kind, t_esd = EsdKind.FINITE_TIME, -0.5 * math.log(ratio) / gamma
    elif esd_condition_symmetric(z0, r0):
        raise DomainError(f"decay ratio {ratio} does not resolve t_esd at z0={z0}, r0={r0}")
    else:
        kind, t_esd = EsdKind.ASYMPTOTIC, None
    return EsdResult(kind, EsdMethod.ANALYTIC, t_esd, diagnostics={"decay_ratio": ratio})


def _root(s_of, lo: float, hi: float, s_lo: float, s_hi: float) -> float:
    """Midpoint of the bisection of S = s_of on the scan's bracket (lo, hi),
    where S(lo) = s_lo < SIGN_TOL <= S(hi) = s_hi.

    The bisection halves (lo, hi) towards S(mid) < 0 until it is narrower
    than TIME_TOL or no float lies strictly inside it.  Before it, at most
    ILLINOIS_STEPS steps of Illinois regula falsi (Dowell & Jarratt, BIT 11,
    168 (1971)) narrow a signed bracket (a, b): a only ever takes a point
    where S < 0 was evaluated and b one where S >= 0 was, so lo and hi, which
    carry no sign of their own, start it.  The bisection then evaluates S
    only at midpoints that (a, b) leaves open.  So wherever the computed
    sign of S changes once on (lo, hi), the result is the plain bisection's
    bit for bit, from about a fifth of its evaluations of S.
    """
    a, fa, b, fb, kept = lo, s_lo, hi, s_hi, None
    for _ in range(ILLINOIS_STEPS):
        if b - a < TIME_TOL or math.nextafter(a, b) == b:
            break
        # the secant point, or the midpoint where it is not strictly inside:
        # S(lo) may lie in [0, SIGN_TOL) and S may be 0.0 exactly
        x = a - fa * (b - a) / (fb - fa) if fb - fa > 0.0 else a
        if not a < x < b:
            x = 0.5 * (a + b)
        if (fx := s_of(x)) < 0.0:
            a, fa = x, fx
            if kept == "b":  # b kept twice: halve its weight (Illinois)
                fb *= 0.5
            kept = "b"
        else:
            b, fb = x, fx
            if kept == "a":
                fa *= 0.5
            kept = "a"

    for _ in range(MAX_ITER):
        if hi - lo < TIME_TOL or math.nextafter(lo, hi) == hi:
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo + hi)
        if lo < mid <= a:  # S(a) < 0 decides it
            lo = mid
        elif b <= mid < hi:  # S(b) >= 0 decides it
            hi = mid
        elif s_of(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    raise BudgetExceeded(f"bisection did not converge within {MAX_ITER} iterations")


def t_esd_numeric(p0: GaussianParams, ch: ChannelParams, t_max: float) -> EsdResult:
    """Separation time by sign scan and bisection on the Simon value S(t).

    If S(0) >= 0 the state is InitiallySeparable.  Otherwise S is scanned on
    a geometric grid (ratio 1.25, starting at 1e-3 over the mean rate, capped
    at t_max) and the first sign change is bisected.  Bisection stops when
    the bracket is narrower than TIME_TOL or when no float lies strictly
    inside it (late separation times, above about 2**19 = 5.2e5, where
    adjacent floats are more than TIME_TOL apart); t_esd is the bracket's
    midpoint.  BudgetExceeded is raised only if neither happens within
    MAX_ITER halvings.  A regula-falsi phase first narrows the bracket, and
    the bisection skips every midpoint whose sign it has decided, so t_esd
    is the plain bisection's bit for bit wherever the computed sign of S
    changes once on the scan's bracket (:func:`_root`).  Without a sign
    change by t_max the decay is classified Asymptotic, with t_max and
    S(t_max) recorded in the diagnostics.
    """
    if not t_max > 0:
        raise DomainError(f"t_max must be > 0, got {t_max}")

    s_of = simon_curve(p0, ch)

    s0 = s_of(0.0)
    if s0 >= 0.0:
        return EsdResult(
            kind=EsdKind.INITIALLY_SEPARABLE,
            method=EsdMethod.NUMERIC_ROOT,
            diagnostics={"s0": s0},
        )

    # halved before the sum, so that two rates near the float maximum give a
    # finite mean; the first point is then at least 1e-3 / 1.8e308, which is
    # positive and far enough above 5e-324 that each step by 1.25 advances;
    # two rates of 5e-324 halve to a mean of 0, and the scan starts at t_max
    gamma_mean = 0.5 * ch.gamma1 + 0.5 * ch.gamma2
    t_lo, s_lo, t = 0.0, s0, min(1e-3 / gamma_mean if gamma_mean else math.inf, t_max)
    while (s := s_of(t)) < SIGN_TOL:
        if t >= t_max:  # the grid ends at t_max exactly
            return EsdResult(
                kind=EsdKind.ASYMPTOTIC,
                method=EsdMethod.NUMERIC_ROOT,
                diagnostics={"t_max": t_max, "s_at_t_max": s},
            )
        t_lo, s_lo, t = t, s, min(t * 1.25, t_max)

    return EsdResult(
        kind=EsdKind.FINITE_TIME,
        method=EsdMethod.NUMERIC_ROOT,
        t_esd=_root(s_of, t_lo, t, s_lo, s),
        diagnostics={"bracket": (t_lo, t)},
    )


def initial_entanglement_threshold(nu1: float, nu2: float) -> float:
    """Smallest two-mode squeezing that entangles the initial state with
    z1 = z2 = 0 and thermal occupations (nu1, nu2), in the paper's form

        r_min = arccosh(Q) / 4,
        Q = ((1+nu2)^2 + 2 nu1 (1+nu2)(1+4 nu2) + nu1^2 (1 + 8 nu2 (1+nu2)))
            / (1 + nu1 + nu2)^2.

    Q - 1 = 8 nu1 nu2 (1+nu1)(1+nu2) / (1+nu1+nu2)^2 and arccosh(1 + 2 x^2) =
    2 arcsinh(x) give r_min = arcsinh(2 sqrt(nu1 (1+nu1) nu2 (1+nu2)) /
    (1+nu1+nu2)) / 2, evaluated so that no digit is lost where Q rounds to 1
    and nothing overflows where Q would.  States with r0 > r_min have
    S(0) < 0.  r_min is symmetric in (nu1, nu2) and zero when either mode is
    pure.
    """
    if not (0 <= nu1 < math.inf and 0 <= nu2 < math.inf):  # NaN fails it too
        raise DomainError(f"occupations must be finite and >= 0, got {nu1}, {nu2}")
    x = math.sqrt(nu1) * math.sqrt(1.0 + nu1) / (0.5 + 0.5 * nu1 + 0.5 * nu2)
    return 0.5 * math.asinh(x * math.sqrt(nu2) * math.sqrt(1.0 + nu2))


def esd_boundary_sweep(r0: float, ch: ChannelParams, z_grid, t_grid) -> np.ndarray:
    """Sign of the Simon value per (z, t) cell for symmetric pure initial
    states (z1 = z2 = z) with two-mode squeezing r0.

    Returns an int matrix of shape (len(z_grid), len(t_grid)) holding -1
    (entangled), +1 (separable) or 0 (inside the numerical dead band).  The
    inputs are checked once: InvalidGrid unless both grids are non-empty,
    1-d and strictly increasing, every z is finite and every t is >= 0;
    DomainError unless r0 is finite.
    """
    z_grid = np.asarray(z_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    if z_grid.ndim != 1 or t_grid.ndim != 1 or z_grid.size == 0 or t_grid.size == 0:
        raise InvalidGrid("z_grid and t_grid must be non-empty 1-d sequences")
    if np.any(np.diff(z_grid) <= 0) or np.any(np.diff(t_grid) <= 0):
        raise InvalidGrid("grids must be strictly increasing")
    if not np.all(t_grid >= 0):  # NaN fails it too
        raise InvalidGrid("times must be >= 0")
    if not np.isfinite(z_grid).all():
        raise InvalidGrid("z_grid must be finite")
    r0 = _require_finite("r0", r0)

    rows = [(z, z, r0, 0.0, 0.0) for z in z_grid.tolist()]
    return simon_sign(_evolve_grid(rows, ch, t_grid.tolist())[1])
