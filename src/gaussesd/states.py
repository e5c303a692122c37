"""Two-mode Gaussian states: parameters, second moments, symplectic
invariants and the Simon separability test.

A zero-mean two-mode Gaussian state is parameterized by single-mode
squeezings z1, z2, a two-mode squeezing r and thermal occupations nu1, nu2
(state = S1(z1,z2) S2(r) sigma(nu1,nu2) S2' S1').  All squeezing parameters
are restricted to real values, so the six independent second moments

    n_i = <a_i' a_i>,   m_i = -<a_i^2>,   m_s = -<a1 a2'>,   m_c = <a1 a2>

are real and the 4x4 covariance matrix in the (a1, a1', a2, a2') ordering
is real symmetric (primes denote daggers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ExtractionOutOfDomain, NonPhysicalCM

__all__ = [
    "GaussianParams",
    "CovarianceMatrix",
    "SymplecticInvariants",
    "cm_from_params",
    "params_from_cm",
    "invariants",
    "simon_criterion",
    "simon_from_moments",
    "simon_criterion_no_squeezing",
    "locally_squeezed",
    "two_mode_squeezed",
]

# Tolerance for clamping arctanh/arccosh arguments that rounding pushed
# marginally outside their domain.
CLAMP_TOL = 1e-9


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class GaussianParams:
    """State parameters: single-mode squeezings z1, z2 (real), two-mode
    squeezing r (real) and thermal occupations nu1, nu2 >= 0."""

    z1: float
    z2: float
    r: float
    nu1: float = 0.0
    nu2: float = 0.0

    def __post_init__(self):
        for name in ("z1", "z2", "r", "nu1", "nu2"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if self.nu1 < 0 or self.nu2 < 0:
            raise ValueError(f"thermal occupations must be >= 0, got nu1={self.nu1}, nu2={self.nu2}")

    @classmethod
    def symmetric(cls, z0: float, r0: float, nu0: float = 0.0) -> "GaussianParams":
        """Both modes squeezed by z0 and equally mixed (nu1 = nu2 = nu0)."""
        return cls(z1=z0, z2=z0, r=r0, nu1=nu0, nu2=nu0)

    @classmethod
    def tmsv(cls, r: float) -> "GaussianParams":
        """Two-mode squeezed vacuum."""
        return cls(z1=0.0, z2=0.0, r=r)


@dataclass(frozen=True)
class CovarianceMatrix:
    """The six independent real second moments of a two-mode Gaussian state."""

    n1: float
    n2: float
    m1: float
    m2: float
    ms: float
    mc: float

    def __post_init__(self):
        for name in ("n1", "n2", "m1", "m2", "ms", "mc"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        # occupations that rounding pushed a few ulp below zero are clamped
        for name in ("n1", "n2"):
            value = getattr(self, name)
            if value < 0:
                if value < -1e-12:
                    raise ValueError(f"occupations must be >= 0, got {name}={value}")
                object.__setattr__(self, name, 0.0)

    def as_matrix(self) -> np.ndarray:
        """Assemble the 4x4 covariance matrix, ordering (a1, a1', a2, a2')."""
        a = self.n1 + 0.5
        b = self.n2 + 0.5
        return np.array(
            [
                [a, self.m1, self.ms, self.mc],
                [self.m1, a, self.mc, self.ms],
                [self.ms, self.mc, b, self.m2],
                [self.mc, self.ms, self.m2, b],
            ]
        )

    def is_physical(self, tol: float = 1e-12) -> bool:
        """The uncertainty relation V + i Omega / 2 >= 0 in invariant form
        (Simon, PRL 84, 2726 (2000)): the 4x4 matrix PSD (within tol),
        i1, i2 >= 1/4, iv >= 1/16 and iv + 1/16 >= (i1 + i2 + 2 i3) / 4, each
        within tol times its scale: s1 = (n1 + 1/2 + |m1|)^2 for i1, s2 for
        i2 and s1 s2 for the last two, so that rounding of large moments
        never rejects a physical state."""
        s1 = (self.n1 + 0.5 + abs(self.m1)) ** 2
        s2 = (self.n2 + 0.5 + abs(self.m2)) ** 2
        inv = invariants(self)
        return (
            inv.i1 >= 0.25 - tol * s1
            and inv.i2 >= 0.25 - tol * s2
            and float(np.linalg.eigvalsh(self.as_matrix()).min()) >= -tol
            and inv.iv >= 0.0625 - tol * s1 * s2
            and inv.iv + 0.0625 - 0.25 * (inv.i1 + inv.i2 + 2.0 * inv.i3) >= -tol * s1 * s2
        )


@dataclass(frozen=True)
class SymplecticInvariants:
    """Local-unitary invariants of the covariance matrix:
    i1 = det V1, i2 = det V2, i3 = det C,
    i4 = tr[V1 Z C Z V2 Z C' Z] with Z = diag(1, -1), iv = det of the 4x4."""

    i1: float
    i2: float
    i3: float
    i4: float
    iv: float


def _local_invariants(n1, n2, m1, m2, ms, mc):
    """i1..i4 from the moments, elementwise on floats or broadcastable arrays.

    i4 = tr[V1 Z C Z V2 Z C Z] is expanded: with P = V1 Z C Z and Q = V2 Z C Z
    both of the form ((x, y), (y, x)), the trace is 2 (p0 q0 + p1 q1).
    """
    a = n1 + 0.5
    b = n2 + 0.5
    p0 = a * ms - m1 * mc
    p1 = m1 * ms - a * mc
    q0 = b * ms - m2 * mc
    q1 = m2 * ms - b * mc
    return a * a - m1 * m1, b * b - m2 * m2, ms * ms - mc * mc, 2.0 * (p0 * q0 + p1 * q1)


def invariants(cm: CovarianceMatrix) -> SymplecticInvariants:
    """Compute the five local-unitary invariants of a covariance matrix.

    iv is the determinant of the 4x4 matrix: every 2x2 block has the form
    ((x, y), (y, x)), so the rotation to (x + y, x - y) splits it into two
    2x2 determinants.
    """
    a = cm.n1 + 0.5
    b = cm.n2 + 0.5
    iv = ((a + cm.m1) * (b + cm.m2) - (cm.ms + cm.mc) ** 2) * (
        (a - cm.m1) * (b - cm.m2) - (cm.ms - cm.mc) ** 2
    )
    return SymplecticInvariants(*_local_invariants(cm.n1, cm.n2, cm.m1, cm.m2, cm.ms, cm.mc), iv)


def _square(x):
    # libm pow, as float ** 2 computes it; ndarray ** 2 multiplies instead,
    # which differs in the last bit on about 0.1% of inputs
    return x ** 2 if type(x) is float else np.float_power(x, 2.0)


def simon_from_moments(n1, n2, m1, m2, ms, mc):
    """Simon value from the six moments, elementwise on floats or on
    broadcastable arrays, bit for bit the same either way."""
    i1, i2, i3, i4 = _local_invariants(n1, n2, m1, m2, ms, mc)
    return i1 * i2 + _square(0.25 - abs(i3)) - i4 - 0.25 * (i1 + i2)


def simon_criterion(cm: CovarianceMatrix) -> float:
    """Simon separability test value

        S = I1 I2 + (1/4 - |I3|)^2 - I4 - (I1 + I2)/4.

    S >= 0 means separable; S < 0 means entangled (necessary and sufficient
    for two-mode Gaussian states).
    """
    return simon_from_moments(cm.n1, cm.n2, cm.m1, cm.m2, cm.ms, cm.mc)


def simon_criterion_no_squeezing(n1: float, n2: float, mc: float) -> float:
    """Simon value for states with m1 = m2 = ms = 0, in the product form

        S = (n1 + n1 n2 - mc^2)(n2 + n1 n2 - mc^2) - mc^2.

    Algebraically identical to :func:`simon_criterion` on such states, but
    free of the O(1) cancellations of the invariant combination, so the sign
    remains resolvable when the moments have decayed to the 1e-300 scale.
    """
    w1 = n1 + n1 * n2 - mc * mc
    w2 = n2 + n1 * n2 - mc * mc
    return w1 * w2 - mc * mc


def _param_terms(p: GaussianParams) -> tuple:
    """Per-state factors of the closed-form moments, grouped by moment
    (math.cosh/sinh, so that every caller gets the same bits)."""
    chr2 = math.cosh(p.r) ** 2
    shr2 = math.sinh(p.r) ** 2
    psum = 1.0 + p.nu1 + p.nu2
    ch2r = math.cosh(2.0 * p.r)
    return (
        math.cosh(2.0 * p.z1) * (p.nu1 * chr2 + (1.0 + p.nu2) * shr2), math.sinh(p.z1) ** 2,
        math.cosh(2.0 * p.z2) * (p.nu2 * chr2 + (1.0 + p.nu1) * shr2), math.sinh(p.z2) ** 2,
        p.nu1 - p.nu2 + psum * ch2r, math.cosh(p.z1), math.sinh(p.z1),
        p.nu2 - p.nu1 + psum * ch2r, math.cosh(p.z2), math.sinh(p.z2),
        psum, math.cosh(p.z1 + p.z2), math.sinh(p.z1 + p.z2), math.sinh(2.0 * p.r),
    )


def _combine(terms, decay) -> tuple:
    """(n1, n2, m1, m2, ms, mc) from per-state terms and the channel's decay
    factors (e1, k1, o1, e2, k2, o2, h); elementwise, so (S, 1) terms and (T,)
    factors give (S, T) moments.  The grouping of every sum and product is
    fixed, so scalar and array callers get the same bits."""
    a1, b1, a2, b2, y1, c1, s1, y2, c2, s2, psum, cz, sz, s2r = terms
    e1, k1, o1, e2, k2, o2, h = decay
    return (
        e1 * ((k1 + a1) + b1) + o1, e2 * ((k2 + a2) + b2) + o2,
        -e1 * y1 * c1 * s1, -e2 * y2 * c2 * s2,
        -h * psum * s2r * sz, h * psum * cz * s2r,
    )


def cm_from_params(p: GaussianParams) -> CovarianceMatrix:
    """Forward map from state parameters to the six second moments: the
    closed form of the channel at t = 0."""
    return CovarianceMatrix(*_combine(_param_terms(p), (1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.5)))


def _locally_squeezed_raw(n1, n2, m1, m2, ms, mc, s1, s2):
    c1, sh1 = math.cosh(s1), math.sinh(s1)
    c2, sh2 = math.cosh(s2), math.sinh(s2)

    n1_, m1_ = (
        n1 * math.cosh(2.0 * s1) + sh1 * sh1 - m1 * math.sinh(2.0 * s1),
        m1 * math.cosh(2.0 * s1) - (n1 + 0.5) * math.sinh(2.0 * s1),
    )
    n2_, m2_ = (
        n2 * math.cosh(2.0 * s2) + sh2 * sh2 - m2 * math.sinh(2.0 * s2),
        m2 * math.cosh(2.0 * s2) - (n2 + 0.5) * math.sinh(2.0 * s2),
    )
    # mode 1 then mode 2 on the correlation pair (ms, mc)
    ms_, mc_ = c1 * ms - sh1 * mc, c1 * mc - sh1 * ms
    ms_, mc_ = c2 * ms_ - sh2 * mc_, c2 * mc_ - sh2 * ms_
    return n1_, n2_, m1_, m2_, ms_, mc_


def _two_mode_squeezed_raw(n1, n2, m1, m2, ms, mc, r):
    c2, s2 = math.cosh(r) ** 2, math.sinh(r) ** 2
    s2r = math.sinh(2.0 * r)
    c2r = math.cosh(2.0 * r)
    return (
        n1 * c2 + (n2 + 1.0) * s2 + mc * s2r,
        n2 * c2 + (n1 + 1.0) * s2 + mc * s2r,
        m1 * c2 + m2 * s2 + ms * s2r,
        m2 * c2 + m1 * s2 + ms * s2r,
        ms * c2r + 0.5 * s2r * (m1 + m2),
        mc * c2r + 0.5 * s2r * (1.0 + n1 + n2),
    )


def locally_squeezed(cm: CovarianceMatrix, s1: float, s2: float) -> CovarianceMatrix:
    """Moments after applying single-mode squeezers (s1 on mode 1, s2 on
    mode 2) to the state.  Leaves all five symplectic invariants unchanged."""
    n1, n2, m1, m2, ms, mc = _locally_squeezed_raw(
        cm.n1, cm.n2, cm.m1, cm.m2, cm.ms, cm.mc, s1, s2
    )
    return CovarianceMatrix(n1=n1, n2=n2, m1=m1, m2=m2, ms=ms, mc=mc)


def two_mode_squeezed(cm: CovarianceMatrix, r: float) -> CovarianceMatrix:
    """Moments after applying the two-mode squeezer with parameter r."""
    n1, n2, m1, m2, ms, mc = _two_mode_squeezed_raw(
        cm.n1, cm.n2, cm.m1, cm.m2, cm.ms, cm.mc, r
    )
    return CovarianceMatrix(n1=n1, n2=n2, m1=m1, m2=m2, ms=ms, mc=mc)


def _clamped_arctanh(x: float, what: str) -> float:
    if abs(x) >= 1.0:
        if abs(x) >= 1.0 + CLAMP_TOL:
            raise ExtractionOutOfDomain(f"{what}: arctanh argument {x} outside (-1, 1)")
        x = math.copysign(1.0 - 2.0 ** -53, x)
    return math.atanh(x)


def params_from_cm(cm: CovarianceMatrix, textbook_formulas: bool = False) -> GaussianParams:
    """Recover (z1, z2, r, nu1, nu2) from the six second moments.

    Exact (to rounding) on covariance matrices generated by the real
    parameterization, i.e. the image of :func:`cm_from_params`.  The default
    path extracts the squeezings, unwinds them on the moments and reads the
    thermal occupations from the resulting diagonal state; it satisfies the
    round-trip contract params -> cm -> params to better than 1e-9.

    ``textbook_formulas=True`` switches to the uncorrected published closed
    forms for the extraction.  Those fail the round-trip (the squeezing signs
    come out flipped and the occupation expressions are structurally wrong);
    they are kept only for comparison.
    """
    if not cm.is_physical(tol=1e-9):
        raise NonPhysicalCM(
            "covariance moments violate the uncertainty relation V + i Omega / 2 >= 0"
        )
    if textbook_formulas:
        return _params_from_cm_textbook(cm)

    z1 = -0.5 * _clamped_arctanh(cm.m1 / (cm.n1 + 0.5), "z1")
    z2 = -0.5 * _clamped_arctanh(cm.m2 / (cm.n2 + 0.5), "z2")

    unsq = _locally_squeezed_raw(cm.n1, cm.n2, cm.m1, cm.m2, cm.ms, cm.mc, -z1, -z2)
    r = 0.5 * _clamped_arctanh(2.0 * unsq[5] / (1.0 + unsq[0] + unsq[1]), "r")

    core = _two_mode_squeezed_raw(*unsq, -r)
    nu1, nu2 = core[0], core[1]
    if nu1 < 0.0 or nu2 < 0.0:
        if nu1 < -CLAMP_TOL or nu2 < -CLAMP_TOL:
            raise ExtractionOutOfDomain(
                f"extracted thermal occupations negative: nu1={nu1}, nu2={nu2}"
            )
        nu1, nu2 = max(nu1, 0.0), max(nu2, 0.0)
    return GaussianParams(z1=z1, z2=z2, r=r, nu1=nu1, nu2=nu2)


def _params_from_cm_textbook(cm: CovarianceMatrix) -> GaussianParams:
    """Published extraction expressions, evaluated verbatim.

    z_i = arctanh(m_i / (n_i + 1/2)) / 2, r = arctanh(x) / 2 with
    x = 2 m_s / ((sqrt(det V1) + sqrt(det V2)) sinh(z1 + z2)), and the
    occupation expressions built from det V1 +- det V2.  When z1 + z2 = 0 the
    x expression is indeterminate; r is then recovered from m_c through
    m_c = (1 + nu1 + nu2) cosh(z1 + z2) sinh(2r) / 2, using
    sqrt(det V1) + sqrt(det V2) = (1 + nu1 + nu2) cosh(2r).
    """
    z1 = 0.5 * _clamped_arctanh(cm.m1 / (cm.n1 + 0.5), "z1")
    z2 = 0.5 * _clamped_arctanh(cm.m2 / (cm.n2 + 0.5), "z2")

    a = cm.n1 + 0.5
    b = cm.n2 + 0.5
    det_v1 = a * a - cm.m1 * cm.m1
    det_v2 = b * b - cm.m2 * cm.m2
    root_sum = math.sqrt(det_v1) + math.sqrt(det_v2)

    sz = math.sinh(z1 + z2)
    if abs(sz) > 1e-12:
        x = 2.0 * cm.ms / (root_sum * sz)
    else:
        # indeterminate branch: recover the two-mode squeezing from m_c
        x = 2.0 * cm.mc / (root_sum * math.cosh(z1 + z2))
    r = 0.5 * _clamped_arctanh(x, "r")

    x = min(max(x, -1.0), 1.0)
    root = 0.5 * math.sqrt(1.0 - x * x) * (det_v1 + det_v2)
    nu1 = 0.5 * (det_v1 - det_v2) + root - 0.5
    nu2 = 0.5 * (det_v2 - det_v1) + root - 0.5
    return GaussianParams(z1=z1, z2=z2, r=r, nu1=max(nu1, 0.0), nu2=max(nu2, 0.0))
