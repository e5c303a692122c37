import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussesd import (
    ChannelParams,
    DomainError,
    evolve,
    EsdKind,
    EsdMethod,
    EsdResult,
    GaussianParams,
    InvalidGrid,
    cm_from_params,
    esd_boundary_sweep,
    esd_condition_symmetric,
    initial_entanglement_threshold,
    simon_criterion,
    simon_curve,
    simon_sign,
    symmetric_esd_decay_ratio,
    symmetric_esd_decay_ratio_alt,
    t_esd_analytic_symmetric,
    t_esd_numeric,
)
from gaussesd import esd
from gaussesd.esd import ILLINOIS_STEPS, MAX_ITER, SCAN_STRIDE, SIGN_TOL, TIME_TOL, _root
from conftest import normal, random_setup, rescaled, scale_exponents

# z boundary at r0 = 1: cosh(2 z*) = e^2
Z_STAR = 0.5 * math.acosh(math.exp(2.0))
# decay ratio and separation time for z0 = 2, r0 = 1, gamma = 0.1
RATIO_Z2_R1 = 0.8459672689071789
T_ESD_Z2_R1_G01 = 0.8363730467968733


class TestCondition:
    def test_no_single_mode_squeezing_never_separates(self):
        assert not esd_condition_symmetric(0.0, 1.0)

    def test_strong_single_mode_squeezing_separates(self):
        # log(cosh 4)/2 ~ 1.654 > 1
        assert esd_condition_symmetric(2.0, 1.0)
        assert 0.5 * math.log(math.cosh(4.0)) > 1.0

    def test_threshold_z_at_r_one(self):
        lo, hi = 1.0, 2.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if esd_condition_symmetric(mid, 1.0):
                hi = mid
            else:
                lo = mid
        assert 0.5 * (lo + hi) == pytest.approx(Z_STAR, abs=1e-12)

    def test_requires_positive_r(self):
        with pytest.raises(ValueError):
            esd_condition_symmetric(1.0, 0.0)


class TestAnalyticTime:
    def test_finite_time_example(self):
        res = t_esd_analytic_symmetric(2.0, 1.0, 0.1)
        assert res.kind is EsdKind.FINITE_TIME
        assert res.method is EsdMethod.ANALYTIC
        assert res.t_esd == pytest.approx(T_ESD_Z2_R1_G01, abs=1e-12)
        ratio = symmetric_esd_decay_ratio(2.0, 1.0)
        assert ratio == pytest.approx(RATIO_Z2_R1, abs=1e-12)
        assert res.t_esd == pytest.approx(-math.log(ratio) / 0.2, abs=1e-14)

    def test_decay_ratio_matches_compact_form(self):
        # eta/zeta expression == (cosh 2z - e^{2r}) / (cosh 2z - cosh 2r)
        for z0, r0 in [(2.0, 1.0), (1.2, 0.4), (0.9, 0.2), (2.4, 1.6)]:
            compact = (math.cosh(2 * z0) - math.exp(2 * r0)) / (
                math.cosh(2 * z0) - math.cosh(2 * r0)
            )
            assert symmetric_esd_decay_ratio(z0, r0) == pytest.approx(compact, rel=1e-12)

    def test_no_squeezing_is_asymptotic(self):
        # the condition fails, so no decay ratio is formed
        res = t_esd_analytic_symmetric(0.0, 1.0, 0.1)
        assert res.kind is EsdKind.ASYMPTOTIC
        assert res.t_esd is None and "decay_ratio" not in res.diagnostics
        ratio = symmetric_esd_decay_ratio(0.0, 1.0)
        # R = 2 eta / (eta - 1) > 1 for all eta > 1
        assert ratio == pytest.approx(2 * math.e**2 / (math.e**2 - 1), rel=1e-12)
        assert ratio > 1.0

    def test_time_diverges_at_the_boundary(self):
        z0 = 1.0
        bound = 0.5 * math.log(math.cosh(2.0 * z0))
        times = []
        for delta in (1e-2, 1e-4, 1e-6):
            res = t_esd_analytic_symmetric(z0, bound - delta, 0.1)
            assert res.kind is EsdKind.FINITE_TIME
            times.append(res.t_esd)
        assert times[0] < times[1] < times[2]
        assert times[2] > 40.0
        # the decay ratio approaches 0 there, not 1
        assert symmetric_esd_decay_ratio(z0, bound - 1e-6) == pytest.approx(0.0, abs=1e-4)

    def test_denominator_vanishes_on_diagonal(self):
        # the ratio's denominator vanishes on z0 = r0 and, from cancellation,
        # at r0 = 1e-10 by z0 = 0; the condition fails on both, so the
        # analytic kind is Asymptotic there without the ratio
        for z0, r0 in ((1.0, 1.0), (0.0, 1e-10)):
            with pytest.raises(DomainError, match=f"^decay-ratio denominator vanishes at "
                                                  f"z0={z0}, r0={r0}$"):
                symmetric_esd_decay_ratio(z0, r0)
            assert t_esd_analytic_symmetric(z0, r0, 0.1).kind is EsdKind.ASYMPTOTIC

    def test_scale_covariance_in_gamma(self):
        t1 = t_esd_analytic_symmetric(2.0, 1.0, 0.1).t_esd
        t2 = t_esd_analytic_symmetric(2.0, 1.0, 0.2).t_esd
        assert abs(t2 - 0.5 * t1) < 1e-15

    def test_never_answers_against_the_condition(self):
        # z0 = 0.1 i (i = 0 .. 3548) x r0 in {0.01, ..., 100}: from z0 ~ 17 the
        # ratio rounds to 1 and from z0 ~ 127 it overflows, while
        # 0 < r0 < log(cosh 2 z0)/2 holds; those are named refusals.  Where
        # the condition fails, the diagonal z0 = r0 included, the answer is
        # Asymptotic, and every answer agrees with the condition
        outcomes = Counter()
        for r0 in (0.01, 0.1, 1.0, 10.0, 100.0):
            for i in range(3549):
                z0 = 0.1 * i
                try:
                    res = t_esd_analytic_symmetric(z0, r0, 1.0)
                except DomainError:
                    outcomes["refused"] += 1
                    continue
                agrees = (res.kind is EsdKind.FINITE_TIME) == esd_condition_symmetric(z0, r0)
                outcomes["agrees" if agrees else "disagrees"] += 1
        assert outcomes == {"agrees": 2027, "refused": 15718}

    def test_unresolved_ratio_is_refused_by_name(self):
        with pytest.raises(DomainError, match=r"^decay ratio 1\.0 does not resolve t_esd at "
                                              r"z0=17\.2, r0=0\.01$"):
            t_esd_analytic_symmetric(17.2, 0.01, 1.0)

    def test_overflow_is_refused_by_name(self):
        for z0, r0 in ((200.0, 0.01), (400.0, 1.0), (1.0, 400.0)):
            with pytest.raises(DomainError, match="^decay ratio overflows"):
                symmetric_esd_decay_ratio(z0, r0)
        # the condition holds at (200, 0.01) and (400, 1), so the ratio is
        # formed; it fails at (1, 400), so it is not
        with pytest.raises(DomainError, match=r"^decay ratio overflows at z0=200\.0, r0=0\.01$"):
            t_esd_analytic_symmetric(200.0, 0.01, 1.0)
        assert t_esd_analytic_symmetric(1.0, 400.0, 1.0).kind is EsdKind.ASYMPTOTIC
        with pytest.raises(DomainError, match=r"^decay ratio overflows at z0=400\.0, r0=1\.0$"):
            t_esd_analytic_symmetric(400.0, 1.0, 1.0)

    def test_condition_past_the_cosh_overflow(self):
        # cosh(2 z0) overflows above |z0| = 355.2378, and 2 z0 itself from
        # 2**1023; the bound |z0| - log(2)/2 answers there, and equals the
        # cosh form bit for bit below the overflow
        for z0 in (355.3, 400.0, -400.0, 1e308):
            boundary = abs(z0) - 0.5 * math.log(2.0)
            assert esd_condition_symmetric(z0, 1.0)
            assert not esd_condition_symmetric(z0, boundary)
            assert t_esd_analytic_symmetric(z0, boundary, 1.0).kind is EsdKind.ASYMPTOTIC
        assert t_esd_analytic_symmetric(355.3, 1000.0, 1.0).kind is EsdKind.ASYMPTOTIC
        assert t_esd_analytic_symmetric(400.0, 1000.0, 1.0).kind is EsdKind.ASYMPTOTIC
        for z0 in np.linspace(354.0, 355.2378, 201).tolist():
            boundary = z0 - 0.5 * math.log(2.0)
            assert boundary == 0.5 * math.log(math.cosh(2.0 * z0))
            for z in (z0, -z0):
                assert esd_condition_symmetric(z, math.nextafter(boundary, 0.0))
                assert not esd_condition_symmetric(z, boundary)

    def test_time_beyond_the_float_maximum_is_refused(self):
        # -ln(R) / (2 gamma) overflows for the smallest rate
        with pytest.raises(DomainError, match="^t_esd must be > 0 and finite, got inf$"):
            t_esd_analytic_symmetric(2.0, 1.0, 5e-324)


class TestAlternativeForm:
    def test_disagrees_even_without_single_mode_squeezing(self):
        # the alt form claims a finite separation time for a two-mode
        # squeezed vacuum at zero temperature, which is wrong
        ratio = symmetric_esd_decay_ratio(0.0, 1.0)
        ratio_alt = symmetric_esd_decay_ratio_alt(0.0, 1.0)
        assert 0.0 < ratio_alt < 1.0 and not 0.0 < ratio < 1.0
        assert ratio_alt == pytest.approx(0.23, abs=0.01)
        ratio_direct = (math.e**2 - 1) / (math.e**2 * math.cosh(2.0))
        assert ratio_alt == pytest.approx(ratio_direct, rel=1e-12)

    def test_disagrees_in_the_separating_region(self):
        assert 0.0 < symmetric_esd_decay_ratio(2.0, 1.0) < 1.0
        assert symmetric_esd_decay_ratio_alt(2.0, 1.0) < 0.0

    def test_canonical_form_matches_numeric_root(self):
        # the arbitration: only the eta/zeta form agrees with root-finding
        ch = ChannelParams.symmetric(0.1)
        res = t_esd_numeric(GaussianParams.symmetric(2.0, 1.0), ch, 60.0)
        assert res.kind is EsdKind.FINITE_TIME
        assert abs(res.t_esd - T_ESD_Z2_R1_G01) / T_ESD_Z2_R1_G01 < 1e-6
        # while the alt form has no valid solution there at all
        assert not (0.0 < symmetric_esd_decay_ratio_alt(2.0, 1.0) < 1.0)
        # and where the alt form claims one (z0 = 0), the root does not exist
        res0 = t_esd_numeric(GaussianParams.tmsv(1.0), ch, 120.0)
        assert res0.kind is EsdKind.ASYMPTOTIC


class TestNumericRoot:
    def test_heated_bath_separates(self):
        res = t_esd_numeric(
            GaussianParams.tmsv(1.0), ChannelParams.symmetric(0.1, 0.2), 50.0
        )
        assert res.kind is EsdKind.FINITE_TIME
        assert res.method is EsdMethod.NUMERIC_ROOT
        # independent localization on a dense grid
        ch = ChannelParams.symmetric(0.1, 0.2)
        ts = np.linspace(0.0, 20.0, 20001)
        s = [simon_criterion(evolve(GaussianParams.tmsv(1.0), ch, t)) for t in ts]
        idx = next(i for i in range(1, len(s)) if s[i - 1] < 0 <= s[i])
        assert ts[idx - 1] <= res.t_esd <= ts[idx]

    def test_zero_temperature_unequal_rates_is_asymptotic(self):
        res = t_esd_numeric(GaussianParams.tmsv(1.0), ChannelParams(0.1, 0.5), 80.0)
        assert res.kind is EsdKind.ASYMPTOTIC
        assert res.diagnostics["t_max"] == 80.0
        assert res.diagnostics["s_at_t_max"] <= 0.0

    def test_agrees_with_analytic(self):
        for z0, r0, gamma in [(2.0, 1.0, 0.1), (1.5, 0.5, 0.25), (1.0, 0.2, 0.05)]:
            ana = t_esd_analytic_symmetric(z0, r0, gamma)
            num = t_esd_numeric(
                GaussianParams.symmetric(z0, r0), ChannelParams.symmetric(gamma), 400.0
            )
            assert num.kind is EsdKind.FINITE_TIME
            assert abs(num.t_esd - ana.t_esd) / ana.t_esd < 1e-6

    @pytest.mark.parametrize("gamma", [1e-7, 1e-9, 1e-12])
    def test_late_root_stops_at_float_resolution(self, gamma):
        # t_esd above 2**19: adjacent floats are more than the 1e-10 time
        # tolerance apart, so bisection has to stop on an empty bracket
        ana = t_esd_analytic_symmetric(2.0, 1.0, gamma)
        num = t_esd_numeric(GaussianParams.symmetric(2.0, 1.0), ChannelParams.symmetric(gamma),
                            10.0 * ana.t_esd)
        assert num.kind is EsdKind.FINITE_TIME
        assert abs(num.t_esd - ana.t_esd) / ana.t_esd < 1e-9

    @pytest.mark.parametrize("p, ch, t_max", [
        (GaussianParams.tmsv(1.0), ChannelParams(0.1, 0.5), 20.0),
        (GaussianParams(0.3, -0.2, 0.8, 0.1, 0.0), ChannelParams(0.2, 0.05), 37.3),
        (GaussianParams.tmsv(1.0), ChannelParams.symmetric(0.1), 1e-3),  # one scan time
    ], ids=["unequal-rates", "asymmetric", "first-scan-time"])
    def test_asymptotic_reports_the_simon_value_at_t_max(self, p, ch, t_max):
        # the scan's last value, which is S(t_max) bit for bit
        res = t_esd_numeric(p, ch, t_max)
        assert res.kind is EsdKind.ASYMPTOTIC
        assert res.diagnostics["s_at_t_max"] == simon_criterion(evolve(p, ch, t_max)) < 0.0

    def test_scan_past_the_exp_overflow_is_asymptotic(self):
        # the scan reaches 2 gamma t = 1000, past 709.78, where exp(2 gamma t)
        # would overflow a double; the channel forms only exp(-2 gamma t)
        res = t_esd_numeric(GaussianParams.symmetric(0.0, 1.0), ChannelParams.symmetric(0.1), 5000.0)
        assert res.kind is EsdKind.ASYMPTOTIC
        assert res.diagnostics["s_at_t_max"] == 0.0

    @pytest.mark.parametrize("ch, kind", [
        (ChannelParams(1e308, 0.1), EsdKind.ASYMPTOTIC),
        (ChannelParams(1e308, 1e308, 0.1, 0.1), EsdKind.FINITE_TIME),
    ], ids=["one-huge", "both-huge-heated"])
    def test_rates_near_the_float_maximum_return(self, ch, kind):
        # S(0) is the initial state's, not nan from inf * 0, and the mean rate
        # stays finite, so the scan starts above t = 0 and advances
        p = GaussianParams(0.3, 0.2, 1.0, 0.1, 0.2)
        res = t_esd_numeric(p, ch, 30.0)
        assert res.kind is kind
        assert res.t_esd is None or res.t_esd > 0.0

    def test_initially_separable(self):
        # threshold for nu = (1, 1) is ~0.549 > 0.3
        res = t_esd_numeric(
            GaussianParams(0.0, 0.0, 0.3, 1.0, 1.0), ChannelParams.symmetric(0.1), 50.0
        )
        assert res.kind is EsdKind.INITIALLY_SEPARABLE
        assert res.t_esd is None

    def test_scale_covariance(self):
        p = GaussianParams.symmetric(2.0, 1.0)
        t1 = t_esd_numeric(p, ChannelParams.symmetric(0.1), 50.0).t_esd
        t2 = t_esd_numeric(p, ChannelParams.symmetric(0.2), 50.0).t_esd
        assert abs(t2 - 0.5 * t1) < 1e-9

    def test_monotone_in_single_mode_squeezing(self):
        r0 = 0.5
        ch = ChannelParams.symmetric(0.1)
        previous = math.inf
        for z0 in np.linspace(1.0, 2.2, 7):
            assert esd_condition_symmetric(z0, r0)
            t = t_esd_numeric(GaussianParams.symmetric(float(z0), r0), ch, 300.0).t_esd
            assert t < previous
            previous = t

    def test_result_type_invariant(self):
        with pytest.raises(ValueError):
            EsdResult(kind=EsdKind.FINITE_TIME, method=EsdMethod.ANALYTIC, t_esd=None)
        with pytest.raises(ValueError):
            EsdResult(kind=EsdKind.ASYMPTOTIC, method=EsdMethod.ANALYTIC, t_esd=1.0)


class TestRateTimeScaling:
    """Rates and times enter only as gamma t: with both rates times 2**k and
    t_max over 2**k, the analytic time scales by 2**-k and the numeric root
    keeps its kind (and its scan, bit for bit, while the scan times are
    normal); its bisection stops at the absolute TIME_TOL, so its t_esd does
    not scale."""

    def test_analytic_time_scales(self, rng):
        kinds = Counter()
        for _ in range(300):
            _, ch = random_setup(rng)
            z0, r0 = float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0.01, 1.5))
            base = t_esd_analytic_symmetric(z0, r0, ch.gamma1)
            kinds[base.kind] += 1
            for k in scale_exponents(rng, ChannelParams.symmetric(ch.gamma1)):
                res = t_esd_analytic_symmetric(z0, r0, math.ldexp(ch.gamma1, k))
                assert res.kind is base.kind
                if base.t_esd is not None:
                    want = math.ldexp(base.t_esd, -k)
                    # below the normal range ldexp rounds a second time
                    assert res.t_esd == want if normal(want) else abs(res.t_esd - want) <= 5e-324
        assert kinds[EsdKind.FINITE_TIME] > 0 and kinds[EsdKind.ASYMPTOTIC] > 0

    def test_numeric_kind_and_scan_scale(self, rng):
        kinds = Counter()
        for _ in range(60):
            p, ch = random_setup(rng)
            t_max = float(np.exp(rng.uniform(math.log(0.05), math.log(60.0))))
            base = t_esd_numeric(p, ch, t_max)
            kinds[base.kind] += 1
            for k in scale_exponents(rng, ch):
                res = t_esd_numeric(p, rescaled(ch, k), math.ldexp(t_max, -k))
                assert res.kind is base.kind, (p, ch, t_max, k)
                if normal(math.ldexp(1e-3, -k)):  # every scan time is normal
                    want = {key: tuple(math.ldexp(t, -k) for t in value) if key == "bracket"
                            else math.ldexp(value, -k) if key == "t_max" else value
                            for key, value in base.diagnostics.items()}
                    assert res.diagnostics == want
        assert len(kinds) == 3, kinds

    def test_analytic_time_at_a_rate_near_the_float_maximum(self):
        # 2 gamma overflows; -ln R / 2 is formed first, then divided by gamma
        res = t_esd_analytic_symmetric(1.0, 0.5, 1e308)
        twin = t_esd_analytic_symmetric(1.0, 0.5, math.ldexp(1e308, -1000))
        assert res.kind is EsdKind.FINITE_TIME
        assert abs(res.t_esd - math.ldexp(twin.t_esd, -1000)) <= 5e-324
        assert res.t_esd == pytest.approx(3.77e-309, rel=1e-3)

    def test_smallest_rates_scan_from_t_max(self):
        # both rates halve to 0 in the mean rate, so the scan starts at t_max
        res = t_esd_numeric(GaussianParams(0.3, 0.2, 1.0), ChannelParams(5e-324, 5e-324), 1.0)
        assert res.kind is EsdKind.ASYMPTOTIC
        assert res.diagnostics["t_max"] == 1.0


def plain_bisection(s_of, lo, hi):
    """t_esd_numeric's bisection without the regula-falsi phase: its
    midpoint and the number of S evaluations it makes."""
    calls = 0
    for _ in range(MAX_ITER):
        if hi - lo < TIME_TOL or math.nextafter(lo, hi) == hi:
            break
        mid = 0.5 * (lo + hi)
        calls += 1
        lo, hi = (mid, hi) if s_of(mid) < 0.0 else (lo, mid)
    return 0.5 * (lo + hi), calls


def scan_grid(ch, t_max):
    """t_esd_numeric's scan times: t0 = min(1e-3 / gamma_mean, t_max), then
    min(1.25 t, t_max) up to t_max."""
    gamma_mean = 0.5 * ch.gamma1 + 0.5 * ch.gamma2
    grid = [min(1e-3 / gamma_mean if gamma_mean else math.inf, t_max)]
    while grid[-1] < t_max:
        grid.append(min(grid[-1] * 1.25, t_max))
    return grid


def plain_t_esd(p, ch, t_max, s_of=None):
    """Kind, t_esd and bracket from a scan of every grid point in order and
    the plain bisection: t_esd_numeric before its strided scan and its
    regula-falsi phase.  s_of replaces the curve S(t) of (p, ch)."""
    s_of = s_of or simon_curve(p, ch)
    if s_of(0.0) >= 0.0:
        return EsdKind.INITIALLY_SEPARABLE, None, None
    lo = 0.0
    for t in scan_grid(ch, t_max):
        if s_of(t) >= SIGN_TOL:
            return EsdKind.FINITE_TIME, plain_bisection(s_of, lo, t)[0], (lo, t)
        lo = t
    return EsdKind.ASYMPTOTIC, None, None


def grid_flips(p, ch, t_max) -> int:
    """How often the computed sign of S against SIGN_TOL changes along
    S(0) and the whole scan grid."""
    s_of = simon_curve(p, ch)
    above = [s_of(t) >= SIGN_TOL for t in [0.0, *scan_grid(ch, t_max)]]
    return sum(a != b for a, b in zip(above, above[1:]))


def wide_z(rng):
    """A query with |z| <= 10, rates log-uniform in [1e-3, 1e3], 30% of
    channels at zero temperature and 30% of modes pure, gamma_mean t_max in
    [1, 1e3]: S spans many orders of magnitude, and at large |z| its
    computed sign can flicker from rounding."""
    z1, z2 = rng.uniform(-10.0, 10.0, 2)
    nu1, nu2 = (0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 1.0)) for _ in range(2))
    g1, g2 = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 2))
    nb1, nb2 = (0.0, 0.0) if rng.random() < 0.3 else rng.uniform(0.0, 2.0, 2)
    p = GaussianParams(float(z1), float(z2), float(rng.uniform(0.0, 2.0)), nu1, nu2)
    horizon = math.exp(rng.uniform(0.0, math.log(1e3)))
    return p, ChannelParams(float(g1), float(g2), float(nb1), float(nb2)), horizon / (0.5 * (g1 + g2))


def roots_like(rng):
    """A query like the roots benchmark's: heated unequal channels or the
    symmetric pure zero-temperature family, horizons gamma t_max in [1, 1e3]."""
    horizon = math.exp(rng.uniform(0.0, math.log(1e3)))
    g1, g2 = np.exp(rng.uniform(math.log(0.05), math.log(0.5), 2))
    if rng.random() < 0.25:
        p = GaussianParams.symmetric(float(rng.uniform(0.0, 2.5)), float(rng.uniform(0.05, 1.5)))
        return p, ChannelParams.symmetric(float(g1)), horizon / g1
    z1, z2 = rng.uniform(0.0, 2.5, 2)
    nu1, nu2 = rng.uniform(0.0, 1.0, 2)
    nb1, nb2 = rng.uniform(0.01, 1.0, 2)
    p = GaussianParams(float(z1), float(z2), float(rng.uniform(0.05, 1.5)), float(nu1), float(nu2))
    return p, ChannelParams(float(g1), float(g2), float(nb1), float(nb2)), horizon / (0.5 * (g1 + g2))


# curves S(t) whose computed sign is negative below one point and >= 0 from
# it on; d = t - tau and w the bracket's width
SHAPES = {
    "linear": lambda d, w: d,
    "wiggly": lambda d, w: d * (2.0 + math.sin(40.0 * d / w)),
    "convex": lambda d, w: math.expm1(8.0 * math.tanh(d / w)),
    "concave": lambda d, w: -math.expm1(-8.0 * math.tanh(d / w)),
    "steep": lambda d, w: math.tanh(1e6 * d / w),
    "clamped": lambda d, w: max(d, 0.0),
}


@st.composite
def one_crossing(draw):
    """A scan bracket (lo, hi) and a curve with one sign change at tau <= hi:
    tau anywhere inside, on either end, on the bracket's midpoint, or up to
    SIGN_TOL / scale below lo, where S(lo) >= 0 is of the order of SIGN_TOL
    (in [0, SIGN_TOL) for the linear curve)."""
    lo = draw(st.sampled_from([0.0, 1e-3, 0.8, 3.0, 1e3, 6e5, 2.0**40]))
    lo *= draw(st.floats(1.0, 1.25))
    hi = lo + (lo or 1.0) * draw(st.sampled_from([1e-12, 1e-9, 1e-4, 0.25, 1.0]))
    scale = 10.0 ** draw(st.integers(-14, 12))
    shape = draw(st.sampled_from(sorted(SHAPES)))
    where = draw(st.sampled_from(["inside", "lo", "hi", "mid", "below-lo"]))
    if where == "inside":
        tau = lo + (hi - lo) * draw(st.floats(0.0, 1.0))
    elif where == "mid":
        tau = 0.5 * (lo + hi)
    elif where == "below-lo":
        tau = lo - draw(st.floats(0.0, 1.0)) * SIGN_TOL / scale
    else:
        tau = lo if where == "lo" else hi
    w = hi - lo

    def s_of(t):
        return scale * SHAPES[shape](t - tau, w)

    return s_of, lo, hi


class TestRootBracket:
    """t_esd_numeric's root is the plain bisection's midpoint, bit for bit,
    wherever the computed sign of S changes once on the scan bracket."""

    @settings(max_examples=300, deadline=None)
    @given(one_crossing())
    def test_matches_plain_bisection(self, case):
        s_of, lo, hi = case
        assert _root(s_of, lo, hi, s_of(lo), s_of(hi)) == plain_bisection(s_of, lo, hi)[0]

    def test_exact_zeros_on_both_ends(self):
        # S(lo) = 0, and S = 0 at the first midpoint, so fb - fa = 0 after it
        def s_of(t):
            return max(t - 1.75, 0.0)

        assert _root(s_of, 1.5, 2.0, 0.0, 0.25) == plain_bisection(s_of, 1.5, 2.0)[0]

    def test_evaluates_a_fraction_of_the_bisection(self, rng):
        ours, plain, finite = [], [], 0
        for _ in range(400):
            p, ch, t_max = roots_like(rng)
            res = t_esd_numeric(p, ch, t_max)
            if res.kind is not EsdKind.FINITE_TIME:
                continue
            finite += 1
            (lo, hi), s_of = res.diagnostics["bracket"], simon_curve(p, ch)
            calls = []
            assert _root(lambda t: calls.append(t) or s_of(t), lo, hi,
                         s_of(lo), s_of(hi)) == res.t_esd
            ours.append(len(calls))
            plain.append(plain_bisection(s_of, lo, hi)[1])
            # the bisection never evaluates more midpoints than it would alone
            assert ours[-1] <= ILLINOIS_STEPS + plain[-1]
        assert finite > 250
        # about 6 against 29.5 evaluations of S per FiniteTime query
        assert np.mean(ours) < 8.0 < 25.0 < np.mean(plain)

    def test_real_curves_keep_the_kind_and_the_root(self, rng):
        kinds, moved = Counter(), 0
        for i in range(300):
            if i % 2:
                p, ch = random_setup(rng)
                t_max = float(rng.uniform(1.0, 60.0))
            else:
                p, ch, t_max = roots_like(rng)
            res = t_esd_numeric(p, ch, t_max)
            kind, t_esd, _ = plain_t_esd(p, ch, t_max)
            kinds[kind] += 1
            assert res.kind is kind, (p, ch, t_max)
            if t_esd is not None:
                assert abs(res.t_esd - t_esd) <= 1e-6 * t_esd, (p, ch, t_max)
                moved += res.t_esd != t_esd
        assert kinds[EsdKind.FINITE_TIME] > 150 and len(kinds) == 3, kinds
        assert moved <= 3


def counted(monkeypatch, curve=None):
    """Every time at which t_esd_numeric evaluates S, in order: wraps
    esd.simon_curve, or replaces it with curve(t) where given."""
    times, simon = [], esd.simon_curve

    def wrapped(p, ch):
        s_of = curve or simon(p, ch)
        return lambda t: times.append(t) or s_of(t)

    monkeypatch.setattr(esd, "simon_curve", wrapped)
    return times


class TestStridedScan:
    """The strided scan keeps the kind of a scan of every grid point in
    order, on every input, and its bracket wherever the computed sign of S
    against SIGN_TOL changes at most once along the grid."""

    @pytest.mark.parametrize("family", [roots_like, random_setup, wide_z],
                             ids=["roots-like", "random-setup", "wide-z"])
    def test_kind_always_and_bracket_unless_the_sign_flickers(self, rng, family):
        kinds, flickering = Counter(), 0
        for _ in range(300):
            if family is random_setup:
                p, ch = random_setup(rng)
                t_max = float(rng.uniform(1.0, 60.0))
            else:
                p, ch, t_max = family(rng)
            res = t_esd_numeric(p, ch, t_max)
            kind, t_esd, bracket = plain_t_esd(p, ch, t_max)
            kinds[kind] += 1
            assert res.kind is kind, (p, ch, t_max)
            if kind is EsdKind.FINITE_TIME and res.diagnostics["bracket"] != bracket:
                assert grid_flips(p, ch, t_max) > 1, (p, ch, t_max)
                flickering += 1
            elif kind is EsdKind.ASYMPTOTIC:
                assert res.diagnostics["s_at_t_max"] == simon_curve(p, ch)(t_max)
        assert kinds[EsdKind.FINITE_TIME] > 150 and len(kinds) >= 2, kinds
        assert flickering <= 3

    def test_a_blip_inside_a_skipped_stretch(self, monkeypatch):
        # S >= SIGN_TOL at grid point 1 only, inside the first stride, and
        # again from grid point 10 on: an in-order scan brackets the blip,
        # the strided one the later crossing; FiniteTime either way
        p, ch, t_max = GaussianParams.tmsv(1.0), ChannelParams.symmetric(1.0), 10.0
        grid = scan_grid(ch, t_max)

        def blip(t):
            return 1.0 if t == grid[1] or t >= grid[10] else -1.0

        counted(monkeypatch, blip)
        res = t_esd_numeric(p, ch, t_max)
        kind, _, bracket = plain_t_esd(p, ch, t_max, blip)
        assert res.kind is kind is EsdKind.FINITE_TIME
        assert bracket == (grid[0], grid[1])
        assert res.diagnostics["bracket"] == (grid[9], grid[10])

    def test_a_blip_before_an_asymptotic_end_is_found(self, monkeypatch):
        # no stride end reaches SIGN_TOL, so every skipped point is walked
        # in order and the blip is bracketed as an in-order scan brackets it
        p, ch, t_max = GaussianParams.tmsv(1.0), ChannelParams.symmetric(1.0), 10.0
        grid = scan_grid(ch, t_max)

        def blip(t):
            return 1.0 if t == grid[13] else -1.0

        times = counted(monkeypatch, blip)
        res = t_esd_numeric(p, ch, t_max)
        assert res.kind is EsdKind.FINITE_TIME
        assert res.diagnostics["bracket"] == (grid[12], grid[13])
        # S(0), every stride end, then every grid point up to the blip, once
        scanned = {0.0, *grid[SCAN_STRIDE - 1::SCAN_STRIDE], grid[-1], *grid[:14]}
        assert sorted(times[:len(scanned)]) == sorted(scanned)

    def test_a_stride_end_that_refuses_walks_in_order(self, monkeypatch):
        # S is not finite at grid point 7, a stride end, after a crossing at
        # point 6 or a blip at point 1: answered as an in-order scan answers
        p, ch, t_max = GaussianParams.tmsv(1.0), ChannelParams.symmetric(1.0), 10.0
        grid = scan_grid(ch, t_max)
        for up in (lambda t: t >= grid[6], lambda t: t == grid[1]):
            def curve(t, up=up):
                if t >= grid[7]:
                    raise DomainError(f"Simon value is not finite at t={t}")
                return 1.0 if up(t) else -1.0

            counted(monkeypatch, curve)
            res = t_esd_numeric(p, ch, t_max)
            kind, t_esd, bracket = plain_t_esd(p, ch, t_max, curve)
            assert res.kind is kind is EsdKind.FINITE_TIME
            assert (res.t_esd, res.diagnostics["bracket"]) == (t_esd, bracket)
        # with no crossing before it, both refuse there
        counted(monkeypatch, lambda t: curve(t, up=lambda t: False))
        for call in (lambda: t_esd_numeric(p, ch, t_max),
                     lambda: plain_t_esd(p, ch, t_max, esd.simon_curve(p, ch))):
            with pytest.raises(DomainError, match="^Simon value is not finite"):
                call()

    def test_evaluates_each_grid_point_at_most_once(self, rng, monkeypatch):
        times = counted(monkeypatch)
        finite = []
        for _ in range(400):
            p, ch, t_max = roots_like(rng)
            times.clear()
            res = t_esd_numeric(p, ch, t_max)
            grid = scan_grid(ch, t_max)
            if res.kind is EsdKind.FINITE_TIME:
                lo, hi = res.diagnostics["bracket"]
                scanned = [t for t in times if not lo < t < hi]
                assert len(scanned) == len(set(scanned)) and set(scanned) <= {0.0, *grid}
                finite.append(len(times))
            elif res.kind is EsdKind.ASYMPTOTIC:
                assert sorted(times) == [0.0, *grid]  # S(0) and its grid, once each
            else:
                assert times == [0.0]
        # 25.1 evaluations of S per FiniteTime query with an in-order scan
        assert len(finite) > 250 and np.mean(finite) < 16.0


@pytest.mark.parametrize("call, error, message", [
    (lambda: esd_boundary_sweep(1.0, ChannelParams.symmetric(0.1), [0.0, 1.0], [-1.0, 0.5]),
     InvalidGrid, "times must be >= 0"),
    (lambda: esd_boundary_sweep(1.0, ChannelParams.symmetric(0.1), [0.0, 1.0], [math.nan, 0.5]),
     InvalidGrid, "times must be >= 0"),
    (lambda: esd_boundary_sweep(1.0, ChannelParams.symmetric(0.1), [0.0, math.nan], [0.5]),
     InvalidGrid, "z_grid must be finite"),
    (lambda: esd_boundary_sweep(1.0, ChannelParams.symmetric(0.1), [0.0, math.inf], [0.5]),
     InvalidGrid, "z_grid must be finite"),
    (lambda: esd_boundary_sweep(math.nan, ChannelParams.symmetric(0.1), [0.0, 1.0], [0.5]),
     ValueError, "r0 must be finite"),
    (lambda: t_esd_numeric(GaussianParams.tmsv(1.0), ChannelParams.symmetric(0.1), 0.0),
     ValueError, "t_max must be > 0"),
    (lambda: t_esd_numeric(GaussianParams.tmsv(1.0), ChannelParams.symmetric(0.1), -1.0),
     ValueError, "t_max must be > 0"),
    # (1/4 - |i3|)^2 overflows at nu = 1e80: the scalar square gives inf, as
    # numpy's does on arrays, and S is named as not finite
    (lambda: t_esd_numeric(GaussianParams(0.0, 0.0, 1.0, 1e80, 1e80),
                           ChannelParams.symmetric(0.1), 30.0),
     ValueError, r"Simon value is not finite at t=0\.0$"),
    (lambda: t_esd_analytic_symmetric(2.0, 0.0, 0.1), ValueError, "need r0 > 0 and gamma > 0"),
    (lambda: t_esd_analytic_symmetric(2.0, 1.0, 0.0), ValueError, "need r0 > 0 and gamma > 0"),
    (lambda: t_esd_analytic_symmetric(2.0, 1.0, -0.1), ValueError, "need r0 > 0 and gamma > 0"),
    (lambda: t_esd_analytic_symmetric(math.nan, 1.0, 1.0), DomainError,
     "^z0 must be finite, got nan$"),
    (lambda: t_esd_analytic_symmetric(2.0, math.inf, 1.0), DomainError,
     "^r0 must be finite, got inf$"),
    (lambda: t_esd_analytic_symmetric(2.0, 1.0, math.inf), DomainError,
     "^gamma must be finite, got inf$"),
    (lambda: t_esd_analytic_symmetric(2.0, 1.0, math.nan), DomainError,
     "^gamma must be finite, got nan$"),
    (lambda: esd_condition_symmetric(math.nan, 1.0), DomainError, "^z0 must be finite, got nan$"),
    (lambda: esd_condition_symmetric(math.inf, 1.0), DomainError, "^z0 must be finite, got inf$"),
    (lambda: esd_condition_symmetric(1.0, math.inf), DomainError, "^r0 must be finite, got inf$"),
    (lambda: EsdResult(EsdKind.FINITE_TIME, EsdMethod.ANALYTIC, 0.0), ValueError,
     "t_esd must be > 0"),
    (lambda: EsdResult(EsdKind.FINITE_TIME, EsdMethod.ANALYTIC, -1.0), ValueError,
     "t_esd must be > 0"),
], ids=["sweep-negative-times", "sweep-nan-time", "sweep-nan-z", "sweep-inf-z", "sweep-nan-r0",
        "numeric-t-max-zero", "numeric-t-max-negative",
        "numeric-simon-overflow", "analytic-r0-zero", "analytic-gamma-zero", "analytic-gamma-negative",
        "analytic-nan-z0", "analytic-inf-r0", "analytic-inf-gamma", "analytic-nan-gamma",
        "condition-nan-z0", "condition-inf-z0", "condition-inf-r0",
        "result-t-esd-zero", "result-t-esd-negative"])
def test_out_of_range_input_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestInitialEntanglementThreshold:
    def test_pure_modes_have_zero_threshold(self):
        assert initial_entanglement_threshold(0.0, 0.0) == 0.0
        assert initial_entanglement_threshold(0.0, 3.0) == 0.0
        assert initial_entanglement_threshold(3.0, 0.0) == 0.0

    def test_equal_unit_occupations(self):
        r_min = initial_entanglement_threshold(1.0, 1.0)
        assert r_min == pytest.approx(0.25 * math.acosh(41.0 / 9.0), abs=1e-15)
        assert r_min == pytest.approx(math.log(9.0) / 4.0, abs=1e-14)

    def test_threshold_is_simon_sign_change(self):
        for nu1, nu2 in [(1.0, 1.0), (2.0, 1.0), (0.3, 1.7), (2.8, 2.8)]:
            r_min = initial_entanglement_threshold(nu1, nu2)
            below = simon_criterion(cm_from_params(GaussianParams(0, 0, r_min - 1e-6, nu1, nu2)))
            above = simon_criterion(cm_from_params(GaussianParams(0, 0, r_min + 1e-6, nu1, nu2)))
            assert below > 0.0 > above

    def test_symmetric_in_arguments(self, rng):
        for _ in range(100):
            nu1, nu2 = rng.uniform(0.0, 3.0, 2)
            a = initial_entanglement_threshold(nu1, nu2)
            b = initial_entanglement_threshold(nu2, nu1)
            assert abs(a - b) < 1e-12

    def test_monotone_in_each_argument(self):
        grid = np.linspace(0.0, 3.0, 31)
        for nu2 in (0.5, 1.5, 3.0):
            values = [initial_entanglement_threshold(float(nu1), nu2) for nu1 in grid]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_rejects_negative_occupation(self):
        with pytest.raises(ValueError):
            initial_entanglement_threshold(-0.5, 0.0)

    def test_closed_form_keeps_its_digits(self):
        # the paper's Q rounds to 1 for small occupations and overflows for
        # large ones; r_min is evaluated without forming Q
        assert initial_entanglement_threshold(1e-10, 1e-10) == pytest.approx(1e-10, rel=1e-6)
        assert initial_entanglement_threshold(0.15, 0.0) == 0.0
        nus = np.logspace(-3, 3, 25).tolist()
        checked = 0
        for nu1 in nus:
            for nu2 in nus:
                q = ((1 + nu2) ** 2 + 2 * nu1 * (1 + nu2) * (1 + 4 * nu2)
                     + nu1 * nu1 * (1 + 8 * nu2 * (1 + nu2))) / (1 + nu1 + nu2) ** 2
                if q - 1 >= 1e-3:
                    want = 0.25 * math.acosh(q)
                    assert initial_entanglement_threshold(nu1, nu2) == pytest.approx(want, rel=1e-12)
                    checked += 1
        assert checked > 400
        assert math.isfinite(initial_entanglement_threshold(1e150, 1e150))
        # 1 + nu1 + nu2 overflows here; r_min = asinh(about 1e308) / 2
        assert initial_entanglement_threshold(1e308, 1e308) == pytest.approx(
            0.5 * math.asinh(1e308), rel=1e-15)
        for nu in (math.nan, math.inf):
            with pytest.raises(ValueError, match="occupations must be finite and >= 0"):
                initial_entanglement_threshold(nu, 0.5)
            with pytest.raises(ValueError, match="occupations must be finite and >= 0"):
                initial_entanglement_threshold(0.5, nu)


def sign_of(s: float) -> int:
    return 1 if s > 1e-12 else (-1 if s < -1e-12 else 0)


class TestBoundarySweep:
    def test_boundary_location(self):
        ch = ChannelParams.symmetric(0.1)
        z_grid = np.linspace(0.0, 2.5, 251)
        t_grid = np.linspace(0.5, 300.0, 120)
        signs = esd_boundary_sweep(1.0, ch, z_grid, t_grid)
        separates = (signs == 1).any(axis=1)
        boundary = z_grid[separates].min()
        assert abs(boundary - Z_STAR) < 0.015  # within one z-grid cell

    def test_no_squeezing_row_never_flips(self):
        ch = ChannelParams.symmetric(0.1)
        signs = esd_boundary_sweep(1.0, ch, [0.0, 0.5], np.linspace(0.5, 200.0, 150))
        assert not (signs[0] == 1).any()
        assert not (signs[1] == 1).any()

    def test_strong_squeezing_row_flips_at_analytic_time(self):
        ch = ChannelParams.symmetric(0.1)
        t_grid = np.linspace(0.05, 10.0, 200)
        signs = esd_boundary_sweep(1.0, ch, [2.0], t_grid)[0]
        flips = [i for i in range(1, len(signs)) if signs[i - 1] == -1 and signs[i] == 1]
        assert len(flips) == 1
        assert t_grid[flips[0] - 1] <= T_ESD_Z2_R1_G01 <= t_grid[flips[0]]

    @pytest.mark.parametrize("ch", [ChannelParams.symmetric(0.1),
                                    ChannelParams(0.07, 0.19, 0.3, 0.05),
                                    ChannelParams(0.3, 0.05, 0.0, 0.4)])
    def test_matches_per_cell_signs(self, ch):
        # zero temperature, a heated grid with unequal rates, then one cold
        # and one hot mode at unequal rates
        z_grid = np.linspace(0.0, 3.5, 23)
        t_grid = np.linspace(0.0, 60.0, 31)
        signs = esd_boundary_sweep(1.0, ch, z_grid, t_grid)
        want = [[sign_of(simon_criterion(evolve(GaussianParams.symmetric(z, 1.0), ch, t)))
                 for t in t_grid] for z in z_grid]
        assert signs.dtype == int
        assert np.array_equal(signs, want)
        assert {-1, 1} <= set(signs.ravel().tolist())

    def test_sign_rule_dead_band(self):
        s = np.array([-1.0, -2e-12, -1e-12, -5e-13, 0.0, 5e-13, 1e-12, 2e-12, 1.0])
        assert simon_sign(s).tolist() == [-1, -1, 0, 0, 0, 0, 0, 1, 1]

    def test_invalid_grids(self):
        ch = ChannelParams.symmetric(0.1)
        with pytest.raises(InvalidGrid):
            esd_boundary_sweep(1.0, ch, [], [1.0])
        with pytest.raises(InvalidGrid):
            esd_boundary_sweep(1.0, ch, [0.0, 0.0], [1.0])
        with pytest.raises(InvalidGrid):
            esd_boundary_sweep(1.0, ch, [0.0, 1.0], [2.0, 1.0])
