import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussesd import (
    ChannelParams,
    CovarianceMatrix,
    GaussianParams,
    InvalidGrid,
    Trajectory,
    cm_from_params,
    count_sign_changes,
    esd_boundary_sweep,
    evolve,
    evolve_cm,
    evolve_symmetric,
    sample_trajectory,
    simon_criterion,
    simon_curve,
    simon_grid,
    symmetric_initial_moments,
)
from conftest import MOMENT_FIELDS, moment_diff, normal, random_setup, rescaled, scale_exponents


def literal_occupation(gamma, nb, t, x):
    """n_i written out from the terms x = (a, b): e (a + b) + (1 - e) nb,
    the initial occupation relaxing toward the bath's, with
    1 - e = -expm1(-2 gamma t) so that it keeps its digits at short times."""
    e = math.exp(-2.0 * gamma * t)
    return e * (x[0] + x[1]) + -math.expm1(-2.0 * gamma * t) * nb


def literal_closed_form(p, ch, t):
    """The closed form written out term by term, the reference for the
    factorized evaluation (same grouping, so the same bits)."""
    e1, e2 = math.exp(-2.0 * ch.gamma1 * t), math.exp(-2.0 * ch.gamma2 * t)
    ec = math.exp(-(ch.gamma1 + ch.gamma2) * t)
    chr2, shr2 = math.cosh(p.r) ** 2, math.sinh(p.r) ** 2
    psum = 1.0 + p.nu1 + p.nu2
    return CovarianceMatrix(
        n1=literal_occupation(ch.gamma1, ch.nb1, t, (
            math.cosh(2.0 * p.z1) * (p.nu1 * chr2 + (1.0 + p.nu2) * shr2), math.sinh(p.z1) ** 2)),
        n2=literal_occupation(ch.gamma2, ch.nb2, t, (
            math.cosh(2.0 * p.z2) * (p.nu2 * chr2 + (1.0 + p.nu1) * shr2), math.sinh(p.z2) ** 2)),
        m1=-e1 * (p.nu1 - p.nu2 + psum * math.cosh(2.0 * p.r)) * math.cosh(p.z1) * math.sinh(p.z1),
        m2=-e2 * (p.nu2 - p.nu1 + psum * math.cosh(2.0 * p.r)) * math.cosh(p.z2) * math.sinh(p.z2),
        ms=-0.5 * ec * psum * math.sinh(2.0 * p.r) * math.sinh(p.z1 + p.z2),
        mc=0.5 * ec * psum * math.cosh(p.z1 + p.z2) * math.sinh(2.0 * p.r),
    )


class TestEvolve:
    def test_matches_literal_closed_form_bitwise(self, rng):
        # each draw holds t = 0, short and long times (2 gamma t up to 360,
        # and from 720 to 1500, past 709.78 where exp(2 gamma t) would
        # overflow a double, on one or both modes) and, on a quarter of the
        # modes, nb = 0 exactly, where the occupation is e (a + b) + 0, the
        # bits that the zero-temperature recipe digests pin; checked through
        # evolve, simon_curve and simon_grid
        for _ in range(500):
            p, ch = random_setup(rng)
            nb1, nb2 = (3.0 * nb if rng.random() < 0.75 else 0.0 for nb in (ch.nb1, ch.nb2))
            ch = ChannelParams(ch.gamma1, ch.gamma2, nb1, nb2)
            late = rng.uniform(720.0, 1500.0) / (2.0 * rng.choice([ch.gamma1, ch.gamma2]))
            times = [float(t) for t in (0.0, rng.uniform(0.0, 5.0), rng.uniform(0.0, 300.0), late)]
            want = [literal_closed_form(p, ch, t) for t in times]
            assert [evolve(p, ch, t) for t in times] == want
            s_want = [simon_criterion(cm) for cm in want]
            curve = simon_curve(p, ch)
            assert [curve(t) for t in times] == s_want
            assert simon_grid([p], ch, times)[0].tolist() == s_want
        for _ in range(100):
            p, _ = random_setup(rng)
            assert cm_from_params(p) == literal_closed_form(p, ChannelParams.symmetric(1.0), 0.0)

    def test_t_zero_matches_initial_moments(self, rng):
        # for every finite rate: here 2 gamma or gamma1 + gamma2 overflows to
        # inf on every other draw, where inf * 0 would give nan
        huge = [ChannelParams(1e308, 0.1), ChannelParams(1e308, 1e308, 0.1, 0.1),
                ChannelParams(0.1, 1.7e308, 0.0, 0.3)]
        for i in range(50):
            p, ch = random_setup(rng)
            if i % 2:
                ch = huge[i % 3]
            s0 = simon_criterion(cm_from_params(p))
            assert evolve(p, ch, 0.0) == cm_from_params(p)
            assert simon_curve(p, ch)(0.0) == s0
            assert simon_grid([p], ch, [0.0]).tolist() == [[s0]]

    def test_long_time_limit_is_bath(self, rng):
        for _ in range(20):
            p, ch = random_setup(rng)
            late = evolve(p, ch, 400.0)
            assert late.n1 == pytest.approx(ch.nb1, abs=1e-10)
            assert late.n2 == pytest.approx(ch.nb2, abs=1e-10)
            for f in ("m1", "m2", "ms", "mc"):
                assert abs(getattr(late, f)) < 1e-10

    def test_tmsv_zero_temperature_decays_to_vacuum(self):
        p = GaussianParams.tmsv(1.0)
        ch = ChannelParams.symmetric(0.1)
        ts = np.linspace(0.0, 200.0, 400)
        s = [simon_criterion(evolve(p, ch, t)) for t in ts]
        assert all(v <= 0.0 for v in s)
        assert s[-1] > -1e-3  # asymptotic approach to the separable boundary

    def test_matches_moment_recursion(self, rng):
        for _ in range(50):
            p, ch = random_setup(rng)
            t = rng.uniform(0.0, 20.0)
            direct = evolve(p, ch, t)
            recursed = evolve_cm(cm_from_params(p), ch, t)
            assert moment_diff(direct, recursed) < 1e-12 * (1 + abs(direct.n1) + abs(direct.n2))

    def test_semigroup_property(self, rng):
        for _ in range(50):
            p, ch = random_setup(rng)
            t1, t2 = rng.uniform(0.0, 8.0, 2)
            one_shot = evolve(p, ch, t1 + t2)
            two_step = evolve_cm(evolve(p, ch, t1), ch, t2)
            assert moment_diff(one_shot, two_step) < 1e-9

    def test_thermal_state_is_fixed_point(self):
        ch = ChannelParams(0.3, 0.2, 0.7, 0.4)
        fixed = CovarianceMatrix(0.7, 0.4, 0.0, 0.0, 0.0, 0.0)
        for t in (0.1, 1.0, 12.0):
            assert evolve_cm(fixed, ch, t) == fixed

    def test_correlations_strictly_decrease(self):
        p = GaussianParams(0.6, -0.2, 0.9, 0.1, 0.0)
        ch = ChannelParams(0.2, 0.35, 0.4, 0.1)
        ts = np.linspace(0.0, 10.0, 80)
        mc = [abs(evolve(p, ch, t).mc) for t in ts]
        ms = [abs(evolve(p, ch, t).ms) for t in ts]
        assert all(b < a for a, b in zip(mc, mc[1:]))
        assert all(b < a for a, b in zip(ms, ms[1:]))

    def test_states_remain_physical(self):
        p = GaussianParams.tmsv(1.0)
        for ch in (
            ChannelParams(0.1, 0.5, 0.2, 0.2),
            ChannelParams(0.1, 0.1, 1.0, 0.0),
            ChannelParams(0.5, 0.5, 0.0, 0.0),
        ):
            for cm in sample_trajectory(p, ch, 40.0, 200).states:
                assert cm.is_physical(tol=1e-10)

    def test_rejects_negative_time(self):
        p, ch = GaussianParams.tmsv(0.5), ChannelParams.symmetric(0.1)
        with pytest.raises(ValueError):
            evolve(p, ch, -0.1)
        with pytest.raises(ValueError, match="time must be >= 0, got nan"):
            evolve(p, ch, math.nan)

    def test_evolve_cm_rejects_negative_time(self):
        cm = cm_from_params(GaussianParams.tmsv(0.5))
        with pytest.raises(ValueError, match="time must be >= 0"):
            evolve_cm(cm, ChannelParams.symmetric(0.1), -0.1)
        with pytest.raises(ValueError, match="time must be >= 0, got nan"):
            evolve_cm(cm, ChannelParams.symmetric(0.1), math.nan)


class TestSymmetricCase:
    def test_identity_at_t_zero(self):
        n0, m0 = symmetric_initial_moments(1.0)
        assert evolve_symmetric(n0, m0, 0.1, 0.0) == (n0, m0)

    @pytest.mark.parametrize("t", [-5.0, math.nan])
    def test_rejects_a_negative_or_nan_time(self, t):
        with pytest.raises(ValueError, match=f"^time must be >= 0, got {t}$"):
            evolve_symmetric(1.0, 0.5, 0.1, t)

    def test_initial_moments_tmsv(self):
        n0, m0 = symmetric_initial_moments(1.0, 0.0)
        assert n0 == pytest.approx(math.sinh(1.0) ** 2, abs=1e-15)
        assert m0 == pytest.approx(0.5 * math.sinh(2.0), abs=1e-15)

    def test_half_life_scaling(self):
        n0, m0 = symmetric_initial_moments(1.0)
        gamma = 0.25
        t_half = 0.5 * math.log(2.0) / gamma
        n, m = evolve_symmetric(n0, m0, gamma, t_half)
        assert n == pytest.approx(n0 / 2, rel=1e-14)
        assert m == pytest.approx(m0 / 2, rel=1e-14)

    @pytest.mark.parametrize("nu0", [0.0, 0.3])
    def test_agrees_with_general_evolution(self, nu0):
        r0, gamma = 0.8, 0.15
        p = GaussianParams(0.0, 0.0, r0, nu0, nu0)
        ch = ChannelParams.symmetric(gamma)
        n0, m0 = symmetric_initial_moments(r0, nu0)
        for t in np.linspace(0.0, 25.0, 100):
            n, m = evolve_symmetric(n0, m0, gamma, t)
            cm = evolve(p, ch, t)
            assert abs(cm.n1 - n) < 1e-12
            assert abs(cm.n2 - n) < 1e-12
            assert abs(cm.mc - m) < 1e-12
            assert abs(cm.m1) == 0.0 and abs(cm.ms) == 0.0


class TestTrajectory:
    def test_grid_includes_endpoints(self):
        traj = sample_trajectory(GaussianParams.tmsv(1.0), ChannelParams.symmetric(0.1), 30.0, 301)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == 30.0
        assert len(traj.times) == len(traj.states) == len(traj.simon) == 301

    def test_heated_equal_channels_cross_once(self):
        # r0 = 1, gamma = 0.1 both, nb = 0.2 both: one crossing, minus to plus
        traj = sample_trajectory(
            GaussianParams.tmsv(1.0), ChannelParams.symmetric(0.1, 0.2), 30.0, 300
        )
        assert count_sign_changes(traj.simon) == 1
        assert traj.simon[0] < 0 < traj.simon[-1]

    def test_one_mode_strongly_squeezed_crosses(self):
        # z1 = 2, z2 = 0, zero temperature: finite-time separation
        traj = sample_trajectory(
            GaussianParams(2.0, 0.0, 1.0), ChannelParams.symmetric(0.1), 30.0, 400
        )
        assert count_sign_changes(traj.simon) == 1

    def test_asymmetric_zero_temperature_never_crosses(self):
        # strictly negative while |S| stays above float cancellation noise ...
        traj = sample_trajectory(
            GaussianParams.tmsv(1.0), ChannelParams(0.1, 0.5), 25.0, 250
        )
        assert all(s < 0 for s in traj.simon)
        # ... and no sign change appears over a much longer window
        long = sample_trajectory(
            GaussianParams.tmsv(1.0), ChannelParams(0.1, 0.5), 50.0, 500
        )
        assert count_sign_changes(long.simon) == 0
        assert not any(s > 1e-12 for s in long.simon)

    def test_matches_pointwise_evolve(self, rng):
        for _ in range(10):
            p, ch = random_setup(rng)
            traj = sample_trajectory(p, ch, float(rng.uniform(1.0, 60.0)), 97)
            want = [evolve(p, ch, t) for t in traj.times]
            assert traj.states == tuple(want)
            assert traj.simon == tuple(simon_criterion(cm) for cm in want)

    def test_invalid_grids(self):
        p, ch = GaussianParams.tmsv(0.5), ChannelParams.symmetric(0.1)
        with pytest.raises(InvalidGrid):
            sample_trajectory(p, ch, 0.0, 10)
        with pytest.raises(InvalidGrid):
            sample_trajectory(p, ch, 10.0, 1)
        for t_max in (math.inf, math.nan):
            with pytest.raises(InvalidGrid, match=f"t_max must be finite and > 0, got {t_max}"):
                sample_trajectory(p, ch, t_max, 4)

    def test_overflowing_grid_refused(self):
        # t_max is finite, but t_max * (n_points - 1) is not: the last point
        # would be inf, so the grid is refused; one point fewer is accepted
        p, ch = GaussianParams.tmsv(0.5), ChannelParams.symmetric(0.1)
        with pytest.raises(InvalidGrid, match=r"t_max \* \(n_points - 1\) overflows"):
            sample_trajectory(p, ch, 1e308, 3)
        assert sample_trajectory(p, ch, 1e308, 2).times == (0.0, 1e308)

    def test_trajectory_validates_lengths(self):
        cm = CovarianceMatrix(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(InvalidGrid):
            Trajectory(times=(0.0, 1.0), states=(cm,), simon=(0.0,))
        with pytest.raises(InvalidGrid):
            Trajectory(times=(0.0, 0.0), states=(cm, cm), simon=(0.0, 0.0))


class TestSimonGrid:
    """The (state x time) evaluation against per-cell scalar calls, bit for
    bit."""

    def test_matches_per_cell_scalar_calls(self, rng):
        for _ in range(5):
            _, ch = random_setup(rng)
            states = [random_setup(rng)[0] for _ in range(7)]
            times = np.sort(rng.uniform(0.0, 80.0, 13)).tolist()
            grid = simon_grid(states, ch, times)
            assert grid.shape == (7, 13)
            want = [[simon_criterion(evolve(p, ch, t)) for t in times] for p in states]
            assert np.array_equal(grid, want)
            curve = simon_curve(states[0], ch)
            assert [curve(t) for t in times] == want[0]

    def test_t_zero_is_the_initial_simon_value(self, rng):
        states = [random_setup(rng)[0] for _ in range(20)]
        got = simon_grid(states, ChannelParams(0.3, 0.2, 0.5, 0.1), [0.0])[:, 0]
        assert got.tolist() == [simon_criterion(cm_from_params(p)) for p in states]

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            simon_grid([GaussianParams.tmsv(1.0)], ChannelParams.symmetric(0.1), [0.0, -1.0])
        with pytest.raises(ValueError, match="time must be >= 0, got nan"):
            simon_grid([GaussianParams.tmsv(1.0)], ChannelParams.symmetric(0.1), [0.0, math.nan])

    @pytest.mark.parametrize("t", [-1.0, math.nan])
    def test_simon_curve_rejects_a_negative_or_nan_time(self, t):
        curve = simon_curve(GaussianParams.tmsv(1.0), ChannelParams.symmetric(0.1))
        with pytest.raises(ValueError, match=f"time must be >= 0, got {t}"):
            curve(t)


class TestOverflow:
    """Moments that overflow give a ValueError naming the Simon value
    (z = 200: cosh(400) is about 1e173).  Under the suite's warnings-as-errors
    setting (pyproject.toml) a numpy RuntimeWarning would fail these tests."""

    P = GaussianParams.symmetric(200.0, 1.0)
    CH = ChannelParams.symmetric(0.1)

    def test_simon_grid(self):
        with pytest.raises(ValueError, match="Simon value is not finite on the grid"):
            simon_grid([GaussianParams.tmsv(1.0), self.P], self.CH, [0.0, 1.0])

    def test_sample_trajectory(self):
        with pytest.raises(ValueError, match="Simon value is not finite on the grid"):
            sample_trajectory(self.P, self.CH, 30.0, 5)

    def test_esd_boundary_sweep(self):
        with pytest.raises(ValueError, match="Simon value is not finite on the grid"):
            esd_boundary_sweep(1.0, self.CH, [0.0, 200.0], [0.0, 1.0])


class TestLongTimes:
    """Past 2 gamma t = 709.78, where exp(2 gamma t) would overflow a double:
    every decay factor is e = exp(-2 gamma t), (1 - e) nb or the cross
    factor, none of which can overflow, so the occupations relax to the bath
    by the same formula at every time."""

    def test_tmsv_relaxes_to_the_bath_past_the_overflow(self):
        late = evolve(GaussianParams.tmsv(1.0), ChannelParams.symmetric(1.0, 0.1), 400.0)
        assert late == CovarianceMatrix(0.1, 0.1, 0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("gamma_t", [354.0, 354.6, 354.8, 354.9, 360.0, 1e6, math.inf])
    def test_occupation_continuous_across_the_overflow(self, gamma_t):
        # gamma t from below to above 354.89, where exp(2 gamma t) would
        # overflow a double
        ch = ChannelParams(1.0, 0.5, 2.0, 0.3)
        cm = evolve(GaussianParams(0.4, -0.2, 0.8, 0.5, 0.1), ch, gamma_t)
        assert cm.n1 == pytest.approx(2.0, abs=1e-12)
        assert cm.n2 == pytest.approx(0.3, abs=1e-12)
        assert max(abs(cm.m1), abs(cm.m2), abs(cm.ms), abs(cm.mc)) < 1e-100
        grid = simon_grid([GaussianParams(0.4, -0.2, 0.8, 0.5, 0.1)], ch, [gamma_t])
        assert grid[0, 0] == simon_criterion(cm)

    def test_occupation_stays_between_its_start_and_the_bath(self, rng):
        # n_i(t) = e n_i(0) + (1 - e) nb_i is a convex combination, so it lies
        # between n_i(0) and nb_i up to rounding, from t = 0 through 2 gamma t
        # = 1e4 on the slower mode and at t = inf; one mode in four has nb = 0
        for _ in range(200):
            p, ch = random_setup(rng)
            nb1, nb2 = (4.0 * nb if rng.random() < 0.75 else 0.0 for nb in (ch.nb1, ch.nb2))
            ch = ChannelParams(ch.gamma1, ch.gamma2, nb1, nb2)
            slow = min(ch.gamma1, ch.gamma2)
            times = [0.0, *(10.0 ** rng.uniform(-3.0, 4.0, 8) / (2.0 * slow)).tolist(), math.inf]
            cm0, curve = cm_from_params(p), simon_curve(p, ch)
            states = [evolve(p, ch, t) for t in times]
            for n0, nb, n in ((cm0.n1, nb1, [cm.n1 for cm in states]),
                              (cm0.n2, nb2, [cm.n2 for cm in states])):
                tol = 4.0 * math.ulp(max(n0, nb))
                assert all(min(n0, nb) - tol <= x <= max(n0, nb) + tol for x in n), (p, ch)
            assert states[0] == cm0
            assert states[-1] == CovarianceMatrix(nb1, nb2, 0.0, 0.0, 0.0, 0.0)
            s = [simon_criterion(cm) for cm in states]
            assert [curve(t) for t in times] == s
            assert simon_grid([p], ch, times)[0].tolist() == s


class TestRateTimeScaling:
    """Rates and times enter only as gamma t, so multiplying both rates by
    2**k and dividing every time by 2**k keeps every bit wherever the scaled
    times are normal, up to rates where 2 gamma or gamma1 + gamma2 overflow."""

    def test_results_keep_their_bits(self, rng):
        overflowed = {"2 gamma": 0, "gamma1 + gamma2": 0}
        for _ in range(100):
            p, ch = random_setup(rng)
            times = [0.0, *rng.uniform(0.0, 5.0, 2).tolist(), float(rng.uniform(0.0, 300.0)),
                     float(rng.uniform(720.0, 1500.0)) / (2.0 * ch.gamma1)]
            cm = evolve(p, ch, float(rng.uniform(0.0, 5.0)))
            n0, m0 = symmetric_initial_moments(p.r, p.nu1)
            curve = simon_curve(p, ch)
            want = {t: (evolve(p, ch, t), curve(t), evolve_cm(cm, ch, t),
                               evolve_symmetric(n0, m0, ch.gamma1, t)) for t in times}
            for k in scale_exponents(rng, ch):
                fast = rescaled(ch, k)
                overflowed["2 gamma"] += 2.0 * max(fast.gamma1, fast.gamma2) == math.inf
                overflowed["gamma1 + gamma2"] += fast.gamma1 + fast.gamma2 == math.inf
                kept = [t for t in want if t == 0.0 or normal(math.ldexp(t, -k))]
                fast_curve = simon_curve(p, fast)
                for t in kept:
                    t_k = math.ldexp(t, -k)
                    assert (evolve(p, fast, t_k), fast_curve(t_k), evolve_cm(cm, fast, t_k),
                            evolve_symmetric(n0, m0, fast.gamma1, t_k)) == want[t], (p, ch, k, t)
                assert (simon_grid([p], fast, [math.ldexp(t, -k) for t in kept]).tolist()
                        == [[want[t][1] for t in kept]])
        assert min(overflowed.values()) > 0, overflowed


class TestRatesNearTheFloatMaximum:
    P = GaussianParams(0.3, 0.2, 1.0, 0.1, 0.2)

    def test_cross_factor_where_the_rate_sum_overflows(self):
        # (gamma1 + gamma2) t is about 2e-3 although gamma1 + gamma2 overflows
        mc = evolve(self.P, ChannelParams(1e308, 1e308), 1e-311).mc
        twin = evolve(self.P, rescaled(ChannelParams(1e308, 1e308), -1000),
                      math.ldexp(1e-311, 1000)).mc
        assert mc == twin == 2.6530209278071464

    def test_evolve_cm_is_the_identity_at_t_zero(self):
        cm = cm_from_params(self.P)
        assert evolve_cm(cm, ChannelParams(1e308, 0.1), 0.0) == cm

    def test_evolve_symmetric_is_the_identity_at_t_zero(self):
        assert evolve_symmetric(1.0, 0.5, 1e308, 0.0) == (1.0, 0.5)


class TestSignCounting:
    def test_plain_crossing(self):
        assert count_sign_changes([-1.0, -0.5, 0.2, 0.8]) == 1

    def test_flicker_around_zero_ignored(self):
        values = [-1.0, -1e-4, -1e-15, 0.0, 1e-16, -1e-15, 1e-13, -1e-4]
        assert count_sign_changes(values) == 0

    def test_down_and_up(self):
        assert count_sign_changes([1.0, -1.0, 1.0]) == 2

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from(
        [1.0, -1.0, 1e-4, -1e-4, 1e-12, -1e-12, 5e-13, -5e-13, 0.0, -0.0, math.nan,
         math.inf, -math.inf]), max_size=40))
    def test_matches_latch_loop(self, values):
        # the latch loop that counted sign flips before the count was built
        # on simon_sign: values within 1e-12 of zero, and NaN, keep the latch
        changes, latched = 0, 0
        for v in values:
            if v > 1e-12:
                s = 1
            elif v < -1e-12:
                s = -1
            else:
                continue
            if latched != 0 and s != latched:
                changes += 1
            latched = s
        assert count_sign_changes(values) == changes


class TestChannelParams:
    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError):
            ChannelParams(0.0, 0.1)
        with pytest.raises(ValueError):
            ChannelParams(0.1, 0.1, -0.2, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, bad):
        for args in ((bad, 0.1), (0.1, bad), (0.1, 0.1, bad), (0.1, 0.1, 0.0, bad)):
            with pytest.raises(ValueError, match="must be finite"):
                ChannelParams(*args)

    def test_symmetric_constructor(self):
        ch = ChannelParams.symmetric(0.3, 0.5)
        assert (ch.gamma1, ch.gamma2, ch.nb1, ch.nb2) == (0.3, 0.3, 0.5, 0.5)
