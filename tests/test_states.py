import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussesd import (
    ChannelParams,
    CovarianceMatrix,
    DomainError,
    ExtractionOutOfDomain,
    GaussianParams,
    NonPhysicalCM,
    cm_from_params,
    invariants,
    locally_squeezed,
    params_from_cm,
    simon_criterion,
    evolve,
    simon_from_moments,
    states,
    symmetric_esd_decay_ratio_alt,
    symmetric_initial_moments,
    two_mode_squeezed,
)
from conftest import MOMENT_FIELDS, moment_diff, param_diff

# Six moments of S1 S2 sigma(0.1, 0.1) S2' S1' with z1 = z2 = 0.3, r = 0.5,
# measured in a truncated Fock basis (cutoff 24, tail < 4e-6); independent of
# the closed-form map under test.
FOCK_MOMENTS_Z03_R05_NU01 = {
    "n1": 0.5975608954154684,
    "n2": 0.5975608954154683,
    "m1": -0.5894420646135131,
    "m2": -0.5894420646135132,
    "ms": -0.4489156064475059,
    "mc": 0.8358941161764217,
}


def random_params(rng, n):
    for _ in range(n):
        yield GaussianParams(
            z1=rng.uniform(-2.0, 2.0),
            z2=rng.uniform(-2.0, 2.0),
            r=rng.uniform(0.0, 2.0),
            nu1=rng.uniform(0.0, 3.0),
            nu2=rng.uniform(0.0, 3.0),
        )


class TestForwardMap:
    def test_vacuum_all_moments_vanish(self):
        cm = cm_from_params(GaussianParams(0.0, 0.0, 0.0))
        assert cm == CovarianceMatrix(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_two_mode_squeezed_vacuum(self):
        r0 = 1.0
        cm = cm_from_params(GaussianParams.tmsv(r0))
        assert cm.n1 == pytest.approx(math.sinh(r0) ** 2, abs=1e-15)
        assert cm.n2 == pytest.approx(math.sinh(r0) ** 2, abs=1e-15)
        assert cm.mc == pytest.approx(0.5 * math.sinh(2 * r0), abs=1e-15)
        assert cm.m1 == cm.m2 == cm.ms == 0.0

    def test_matches_fock_measurement(self):
        cm = cm_from_params(GaussianParams(0.3, 0.3, 0.5, 0.1, 0.1))
        for field, value in FOCK_MOMENTS_Z03_R05_NU01.items():
            assert getattr(cm, field) == pytest.approx(value, abs=1e-4)

    def test_composition_of_squeezers(self, rng):
        # building the state as thermal -> two-mode squeeze -> local squeezes
        # must reproduce the closed-form moments
        for p in random_params(rng, 50):
            thermal = cm_from_params(GaussianParams(0.0, 0.0, 0.0, p.nu1, p.nu2))
            built = locally_squeezed(two_mode_squeezed(thermal, p.r), p.z1, p.z2)
            direct = cm_from_params(p)
            assert moment_diff(built, direct) < 1e-10 * (1.0 + abs(direct.n1))

    def test_outputs_always_physical(self, rng):
        for p in random_params(rng, 200):
            cm = cm_from_params(p)
            a = cm.n1 + 0.5
            b = cm.n2 + 0.5
            assert a * a - cm.m1 * cm.m1 >= 0.25 - 1e-9
            assert b * b - cm.m2 * cm.m2 >= 0.25 - 1e-9
            assert np.linalg.eigvalsh(cm.as_matrix()).min() >= -1e-12 * max(1.0, a, b)


class TestParameterExtraction:
    def test_vacuum(self):
        p = params_from_cm(CovarianceMatrix(0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
        assert p == GaussianParams(0.0, 0.0, 0.0, 0.0, 0.0)

    def test_inverts_tmsv(self):
        n = math.sinh(1.0) ** 2
        p = params_from_cm(CovarianceMatrix(n, n, 0.0, 0.0, 0.0, 0.5 * math.sinh(2.0)))
        assert param_diff(p, GaussianParams.tmsv(1.0)) < 1e-12

    def test_roundtrip_params_cm_params(self, rng):
        worst = 0.0
        for p in random_params(rng, 1000):
            q = params_from_cm(cm_from_params(p))
            worst = max(worst, param_diff(p, q))
        assert worst < 1e-9

    def test_roundtrip_cm_params_cm(self, rng):
        worst = 0.0
        for p in random_params(rng, 300):
            cm = cm_from_params(p)
            worst = max(worst, moment_diff(cm, cm_from_params(params_from_cm(cm))))
        assert worst < 1e-9

    def test_textbook_formulas_fail_roundtrip(self):
        # squeezing comes out sign-flipped ...
        p = GaussianParams(0.4, 0.0, 0.0)
        q = states._params_from_cm_textbook(cm_from_params(p))
        assert q.z1 == pytest.approx(-0.4, abs=1e-12)
        # ... and the occupation expressions are structurally wrong: at
        # z = r = 0 they give (1 + 2 nu)^2 / 4 - 1/2 instead of nu
        p = GaussianParams(0.0, 0.0, 0.0, 0.7, 0.2)
        q = states._params_from_cm_textbook(cm_from_params(p))
        assert q.nu1 == pytest.approx(0.25 * (1 + 2 * 0.7) ** 2 - 0.5, abs=1e-12)
        assert abs(q.nu1 - 0.7) > 0.2

    def test_textbook_failure_rate_documented(self, rng):
        failures = 0
        for p in random_params(rng, 200):
            q = states._params_from_cm_textbook(cm_from_params(p))
            if param_diff(p, q) > 1e-9:
                failures += 1
        assert failures > 190  # corrected extraction is the default for a reason

    def test_rejects_nonphysical(self):
        # det V1 = 0.25 - 0.16 + ... = (0.5)^2 - 0.4^2 = 0.09 < 1/4
        with pytest.raises(NonPhysicalCM):
            params_from_cm(CovarianceMatrix(0.0, 0.0, 0.4, 0.0, 0.0, 0.0))

    def test_extraction_out_of_domain_textbook(self):
        # physical (a chain of squeezers on a thermal state), but the textbook
        # x expression comes out at -2.45, past |x| = 1
        cm = cm_from_params(GaussianParams(0.0, 0.0, 0.0, 0.0, 0.1))
        cm = two_mode_squeezed(locally_squeezed(cm, -0.1, 0.3), 1.0)
        cm = two_mode_squeezed(locally_squeezed(cm, -0.1, -0.1), -1.2)
        assert cm.is_physical()
        with pytest.raises(ExtractionOutOfDomain, match="r: arctanh argument -2.44"):
            states._params_from_cm_textbook(cm)

    def test_thermal_state_too_large_to_test_is_refused(self):
        # the thermal state z = r = 0, nu1 = nu2 = nu is physical at every nu;
        # from nu = 1e154 is_physical's last test is inf - inf, from 1.4e154
        # its scales overflow: a DomainError, never NonPhysicalCM or a bare
        # OverflowError; below that the round trip keeps its bits
        p = GaussianParams(0.0, 0.0, 0.0, 9e153, 9e153)
        assert params_from_cm(cm_from_params(p)) == p
        for nu in (1e154, 1.2e154, 1e160):
            cm = cm_from_params(GaussianParams(0.0, 0.0, 0.0, nu, nu))
            with pytest.raises(DomainError, match="moments too large to test for physicality"):
                cm.is_physical()
            with pytest.raises(DomainError, match="moments too large to test for physicality"):
                params_from_cm(cm)

    def test_tmsv_too_large_to_test_is_refused(self):
        # r = 200: the moments are about 1.3e173, so every square overflows;
        # the invariants are IEEE inf and NaN, and the refusal is named
        cm = cm_from_params(GaussianParams(0.0, 0.0, 200.0))
        inv = invariants(cm)
        assert (inv.i1, inv.i2, inv.i3, inv.i4) == (math.inf, math.inf, -math.inf, math.inf)
        assert math.isnan(inv.iv)
        with pytest.raises(DomainError, match="moments too large to test for physicality"):
            cm.is_physical()
        with pytest.raises(DomainError, match="moments too large to test for physicality"):
            params_from_cm(cm)

    def test_extraction_negative_occupation_rejected(self):
        # mc^2 = 1.44 > (n1 + 1) n2 = 0.3: unwinding the squeezers would leave
        # a negative occupation, but the uncertainty relation rejects it first
        cm = CovarianceMatrix(2.0, 0.1, 0.0, 0.0, 0.0, 1.2)
        assert not cm.is_physical()
        with pytest.raises(NonPhysicalCM):
            params_from_cm(cm)


class TestInvariants:
    def test_vacuum(self):
        inv = invariants(CovarianceMatrix(0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
        assert (inv.i1, inv.i2, inv.i3, inv.i4) == (0.25, 0.25, 0.0, 0.0)
        assert inv.iv == pytest.approx(1.0 / 16.0, abs=1e-16)

    def test_tmsv_block_algebra(self):
        n = math.sinh(1.0) ** 2
        m = 0.5 * math.sinh(2.0)
        inv = invariants(CovarianceMatrix(n, n, 0.0, 0.0, 0.0, m))
        a2 = (n + 0.5) ** 2
        assert inv.i1 == pytest.approx(a2, rel=1e-14)
        assert inv.i2 == pytest.approx(a2, rel=1e-14)
        assert inv.i3 == pytest.approx(-(m**2), rel=1e-14)
        assert inv.i4 == pytest.approx(2.0 * a2 * m**2, rel=1e-14)

    def test_against_generic_matrix_routine(self, rng):
        z = np.diag([1.0, -1.0])
        for p in (list(random_params(rng, 100))):
            cm = cm_from_params(p)
            inv = invariants(cm)
            full = cm.as_matrix()
            v1, v2, c = full[:2, :2], full[2:, 2:], full[:2, 2:]
            scale = max(1.0, abs(inv.i4), abs(inv.iv))
            assert abs(inv.i1 - np.linalg.det(v1)) < 1e-10 * scale
            assert abs(inv.i2 - np.linalg.det(v2)) < 1e-10 * scale
            assert abs(inv.i3 - np.linalg.det(c)) < 1e-10 * scale
            i4 = np.trace(v1 @ z @ c @ z @ v2 @ z @ c.T @ z)
            assert abs(inv.i4 - i4) < 1e-10 * scale
            assert abs(inv.iv - np.linalg.det(full)) < 1e-9 * scale

    def test_invariant_under_phase_flip(self, rng):
        # a pi rotation of mode 1 maps (ms, mc) -> (-ms, -mc)
        for p in random_params(rng, 50):
            cm = cm_from_params(p)
            flipped = CovarianceMatrix(cm.n1, cm.n2, cm.m1, cm.m2, -cm.ms, -cm.mc)
            assert invariants(cm) == invariants(flipped)

    def test_invariant_under_local_squeezing(self, rng):
        # strict 1e-12 on a moderate parameter box
        for _ in range(60):
            p = GaussianParams(
                z1=rng.uniform(-0.8, 0.8),
                z2=rng.uniform(-0.8, 0.8),
                r=rng.uniform(0.0, 0.8),
                nu1=rng.uniform(0.0, 0.5),
                nu2=rng.uniform(0.0, 0.5),
            )
            cm = cm_from_params(p)
            inv = invariants(cm)
            inv2 = invariants(locally_squeezed(cm, rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)))
            for f in ("i1", "i2", "i3", "i4", "iv"):
                assert abs(getattr(inv, f) - getattr(inv2, f)) < 1e-12

    def test_invariant_under_local_squeezing_wide(self, rng):
        # on the wide box invariance holds to rounding of the large products
        for p in random_params(rng, 60):
            cm = cm_from_params(p)
            inv = invariants(cm)
            s1, s2 = rng.uniform(-1.0, 1.0, 2)
            inv2 = invariants(locally_squeezed(cm, s1, s2))
            scale = (1.0 + max(cm.n1, cm.n2, abs(cm.m1), abs(cm.m2), abs(cm.mc))) ** 4
            for f in ("i1", "i2", "i3", "i4", "iv"):
                assert abs(getattr(inv, f) - getattr(inv2, f)) < 1e-13 * scale


class TestSimonCriterion:
    def test_vacuum_is_boundary(self):
        assert simon_criterion(CovarianceMatrix(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)) == 0.0

    def test_tmsv_value(self):
        n = math.sinh(1.0) ** 2
        m = 0.5 * math.sinh(2.0)
        s = simon_criterion(CovarianceMatrix(n, n, 0.0, 0.0, 0.0, m))
        assert s == pytest.approx(-3.288529104502057, abs=1e-12)
        factorized = (m + n) * (m + n + 1) * (m - n) * (m - n - 1)
        assert s == pytest.approx(factorized, abs=1e-12)

    def test_two_mode_thermal_separable(self):
        s = simon_criterion(cm_from_params(GaussianParams(0.0, 0.0, 0.0, 1.0, 1.0)))
        assert s == pytest.approx((9 / 4) ** 2 + 1 / 16 - 9 / 8, abs=1e-14)
        assert s > 0.0

    def test_factorization_identity_symmetric_family(self, rng):
        for _ in range(500):
            n = rng.uniform(0.0, 3.0)
            m = rng.uniform(-3.0, 3.0)
            s = simon_criterion(CovarianceMatrix(n, n, 0.0, 0.0, 0.0, m))
            assert abs(s - (m + n) * (m + n + 1) * (m - n) * (m - n - 1)) < 1e-12

    def test_tmsv_always_entangled(self):
        for r in np.linspace(0.05, 3.0, 40):
            assert simon_criterion(cm_from_params(GaussianParams.tmsv(r))) < 0.0

    def test_invariance_under_local_squeezing(self, rng):
        for _ in range(50):
            p = GaussianParams(
                z1=rng.uniform(-0.8, 0.8),
                z2=rng.uniform(-0.8, 0.8),
                r=rng.uniform(0.0, 0.8),
                nu1=rng.uniform(0.0, 0.5),
                nu2=rng.uniform(0.0, 0.5),
            )
            cm = cm_from_params(p)
            s = simon_criterion(cm)
            s2 = simon_criterion(locally_squeezed(cm, rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)))
            assert abs(s - s2) < 1e-12

    def test_no_squeezing_product_form_equivalent(self, rng):
        from gaussesd import simon_criterion_no_squeezing

        for _ in range(300):
            n1, n2 = rng.uniform(0.0, 4.0, 2)
            bound = math.sqrt((n1 + 0.5) * (n2 + 0.5)) - 0.25
            mc = rng.uniform(-bound, bound)
            cm = CovarianceMatrix(n1, n2, 0.0, 0.0, 0.0, mc)
            s_full = simon_criterion(cm)
            s_prod = simon_criterion_no_squeezing(n1, n2, mc)
            scale = (1.0 + max(n1, n2, abs(mc))) ** 4
            assert abs(s_full - s_prod) < 1e-14 * scale

    def test_sign_matches_ppt_eigenvalue_test(self, rng):
        # independent check in the quadrature representation: entangled iff
        # the smallest symplectic eigenvalue of the partial transpose < 1/2
        j = np.array([[0.0, 1.0], [-1.0, 0.0]])
        omega = np.block([[j, np.zeros((2, 2))], [np.zeros((2, 2)), j]])
        flip = np.diag([1.0, 1.0, 1.0, -1.0])
        for p in random_params(rng, 150):
            cm = cm_from_params(p)
            s = simon_criterion(cm)
            quad = np.array(
                [
                    [cm.n1 + 0.5 - cm.m1, 0.0, cm.mc - cm.ms, 0.0],
                    [0.0, cm.n1 + 0.5 + cm.m1, 0.0, -(cm.mc + cm.ms)],
                    [cm.mc - cm.ms, 0.0, cm.n2 + 0.5 - cm.m2, 0.0],
                    [0.0, -(cm.mc + cm.ms), 0.0, cm.n2 + 0.5 + cm.m2],
                ]
            )
            nu_min = np.sort(np.abs(np.linalg.eigvals(1j * omega @ (flip @ quad @ flip))))[0]
            if abs(s) > 1e-9 and abs(nu_min - 0.5) > 1e-9:
                assert (s < 0) == (nu_min < 0.5)


def literal_simon(cm):
    """S with i4 = tr[V1 Z C Z V2 Z C Z] as explicit 2x2 matrix products."""
    def mm(x, y):
        return [[x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in range(2)] for i in range(2)]

    a, b = cm.n1 + 0.5, cm.n2 + 0.5
    z = [[1.0, 0.0], [0.0, -1.0]]
    zcz = mm(mm(z, [[cm.ms, cm.mc], [cm.mc, cm.ms]]), z)
    prod = mm(mm([[a, cm.m1], [cm.m1, a]], zcz), mm([[b, cm.m2], [cm.m2, b]], zcz))
    i1, i2 = a * a - cm.m1 * cm.m1, b * b - cm.m2 * cm.m2
    i3 = cm.ms * cm.ms - cm.mc * cm.mc
    w = 0.25 - abs(i3)
    return i1 * i2 + w * w - (prod[0][0] + prod[1][1]) - 0.25 * (i1 + i2)


def moment_arrays(cms):
    return [np.array([getattr(cm, f) for cm in cms]) for f in MOMENT_FIELDS]


class TestSimonKernel:
    """The elementwise kernel on arrays against the scalar Simon value, bit
    for bit."""

    def test_arrays_match_scalar_on_random_states(self, rng):
        cms = [cm_from_params(p) for p in random_params(rng, 2000)]
        # moments with independently flipped signs leave the parameterized family
        for cm in cms[:500]:
            f = rng.choice([-1.0, 1.0], 4)
            cms.append(CovarianceMatrix(cm.n1, cm.n2, f[0] * cm.m1, f[1] * cm.m2,
                                        f[2] * cm.ms, f[3] * cm.mc))
        # squaring by pow would move the bits of these states
        w = [0.25 - abs(cm.ms * cm.ms - cm.mc * cm.mc) for cm in cms]
        assert any(x ** 2 != x * x for x in w)
        got = simon_from_moments(*moment_arrays(cms))
        assert got.dtype == np.float64
        assert np.array_equal(got, [simon_criterion(cm) for cm in cms])
        assert np.array_equal(got, [literal_simon(cm) for cm in cms])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.tuples(*[st.floats(-3.0, 3.0)] * 3, *[st.floats(0.0, 5.0)] * 2),
        min_size=1, max_size=12,
    ))
    def test_arrays_match_scalar_property(self, params):
        cms = [cm_from_params(GaussianParams(*p)) for p in params]
        got = simon_from_moments(*moment_arrays(cms))
        assert np.array_equal(got, [simon_criterion(cm) for cm in cms])

    def test_overflowing_square_is_inf_as_on_arrays(self):
        # i3 = 1e200 is finite and (1/4 - |i3|)^2 overflows: a float product
        # overflows to inf and never raises, as on arrays
        moments = (0.0, 0.0, 0.0, 0.0, 1e100, 0.0)
        with np.errstate(over="ignore"):
            got = simon_from_moments(*(np.array([x]) for x in moments))
        assert simon_from_moments(*moments) == got[0] == math.inf

    def test_broadcasts_over_a_grid(self, rng):
        cms = [cm_from_params(p) for p in random_params(rng, 6)]
        n1, n2, m1, m2, ms, mc = moment_arrays(cms)
        scale = rng.uniform(0.0, 1.0, 5)
        got = simon_from_moments(n1[:, None] * scale, n2[:, None] * scale, m1[:, None] * scale,
                                 m2[:, None] * scale, ms[:, None] * scale, mc[:, None] * scale)
        assert got.shape == (6, 5)
        for i, cm in enumerate(cms):
            for j, f in enumerate(scale):
                want = simon_criterion(CovarianceMatrix(*(getattr(cm, k) * f for k in MOMENT_FIELDS)))
                assert got[i, j] == want

    @pytest.mark.parametrize("layout", ["frcrcr", "crfrcr", "rcrcrf"])
    def test_broadcasts_mixed_shapes(self, rng, layout):
        # each moment a float (f), an (S, 1) column (c) or a (T,) row (r);
        # occupations >= 0, the rest of either sign
        shapes = {"f": (), "c": (6, 1), "r": (9,)}
        lows = (0.0, 0.0, -3.0, -3.0, -3.0, -3.0)
        moments = [rng.uniform(lo, 3.0, shapes[k]) for lo, k in zip(lows, layout)]
        moments = [float(x) if x.ndim == 0 else x for x in moments]
        got = simon_from_moments(*moments)
        assert got.shape == (6, 9)
        cells = [np.broadcast_to(x, got.shape) for x in moments]
        for i in range(6):
            for j in range(9):
                want = simon_criterion(CovarianceMatrix(*(float(x[i, j]) for x in cells)))
                assert got[i, j] == want


class TestTypes:
    def test_params_reject_negative_occupation(self):
        with pytest.raises(ValueError):
            GaussianParams(0.0, 0.0, 0.0, -0.1, 0.0)

    def test_params_reject_nonfinite(self):
        with pytest.raises(ValueError):
            GaussianParams(math.inf, 0.0, 0.0)

    def test_cm_rejects_negative_occupation(self):
        with pytest.raises(ValueError):
            CovarianceMatrix(-0.2, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_symmetric_constructor(self):
        p = GaussianParams.symmetric(0.5, 1.0, 0.2)
        assert (p.z1, p.z2, p.nu1, p.nu2) == (0.5, 0.5, 0.2, 0.2)

    def test_is_physical_boundary(self):
        assert CovarianceMatrix(0.0, 0.0, 0.0, 0.0, 0.0, 0.0).is_physical()
        # det V1 = 0.25 - 0.16 < 1/4
        assert not CovarianceMatrix(0.0, 0.0, 0.4, 0.0, 0.0, 0.0).is_physical()
        # det V1 = 1/4 and det V2 = 0.25 - 0.09 < 1/4
        assert not CovarianceMatrix(0.0, 0.0, 0.0, 0.3, 0.0, 0.0).is_physical()
        # PSD violation: n1 + 1/2 = 0.5 but |mc| = 0.6
        assert not CovarianceMatrix(0.0, 0.0, 0.0, 0.0, 0.0, 0.6).is_physical()

    def test_cm_clamps_rounding_below_zero_occupation(self):
        cm = CovarianceMatrix(-1e-12, -5e-13, 0.0, 0.0, 0.0, 0.0)
        assert (cm.n1, cm.n2) == (0.0, 0.0)
        with pytest.raises(ValueError, match="occupations must be >= 0, got n2"):
            CovarianceMatrix(0.0, -1.01e-12, 0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("call, named", [
        (lambda cm: locally_squeezed(cm, 400.0, 0.0), "squeezed moments overflow at s1=400.0, s2=0.0"),
        (lambda cm: two_mode_squeezed(cm, 400.0), "squeezed moments overflow at r=400.0"),
        (lambda cm: symmetric_initial_moments(400.0), "initial moments overflow at r0=400.0"),
        (lambda cm: symmetric_esd_decay_ratio_alt(400.0, 1.0),
         "alt decay ratio overflows at z0=400.0, r0=1.0"),
    ], ids=["locally_squeezed", "two_mode_squeezed", "symmetric_initial_moments",
            "symmetric_esd_decay_ratio_alt"])
    def test_squeezing_overflow_is_a_named_domain_error(self, call, named):
        # cosh and sinh of 800, or cosh(400) squared, overflow: a DomainError
        # naming the squeezing, never a bare OverflowError
        with pytest.raises(DomainError, match=f"^{named}$"):
            call(cm_from_params(GaussianParams.tmsv(0.5)))


def symplectic_eigenvalues(cm):
    """Symplectic eigenvalues from quadrature blocks, independent of the
    invariants: the rotation to (x + y, x - y) of each 2x2 block turns the
    4x4 matrix into X (+) P, whose symplectic spectrum is sqrt(eig(X P))."""
    a, b = cm.n1 + 0.5, cm.n2 + 0.5
    x = np.array([[a - cm.m1, cm.ms - cm.mc], [cm.ms - cm.mc, b - cm.m2]])
    p = np.array([[a + cm.m1, cm.ms + cm.mc], [cm.ms + cm.mc, b + cm.m2]])
    return x, p, np.sort(np.sqrt(np.linalg.eigvals(x @ p).astype(complex)).real)


class TestPhysicality:
    def test_blocks_and_psd_are_not_the_uncertainty_relation(self):
        # det V1 = det V2 = 1/4 and the 4x4 matrix is PSD, but both symplectic
        # eigenvalues are 0.4 < 1/2
        cm = CovarianceMatrix(0.0, 0.0, 0.0, 0.0, 0.0, 0.3)
        inv = invariants(cm)
        assert (inv.i1, inv.i2) == (0.25, 0.25)
        assert np.linalg.eigvalsh(cm.as_matrix()).min() > 0.0
        assert symplectic_eigenvalues(cm)[2] == pytest.approx([0.4, 0.4], abs=1e-12)
        assert not cm.is_physical()
        with pytest.raises(NonPhysicalCM):
            params_from_cm(cm)

    def test_agrees_with_symplectic_spectrum(self, rng):
        # random moments, mostly unphysical; draws within 1e-6 of a boundary
        # are left out
        checked = 0
        for _ in range(4000):
            n1, n2 = rng.uniform(0.0, 2.0, 2)
            m1, m2, ms, mc = rng.uniform(-1.5, 1.5, 4)
            cm = CovarianceMatrix(n1, n2, m1, m2, ms, mc)
            x, p, nu = symplectic_eigenvalues(cm)
            margin = min(*np.linalg.eigvalsh(x), *np.linalg.eigvalsh(p), nu[0] - 0.5)
            if abs(margin) < 1e-6:
                continue
            checked += 1
            assert cm.is_physical() == (margin > 0.0), cm
        assert checked > 3900

    def test_forward_map_and_evolution_are_physical(self, rng):
        # pure states up to |z| = 3.5, where a^2 ~ 3e5 and the rounding of
        # det V1 - 1/4 is ~1e-11, and heated evolved states
        for z in np.linspace(-3.5, 3.5, 29):
            assert cm_from_params(GaussianParams(z, -z / 2, 0.0)).is_physical()
        for p in random_params(rng, 200):
            ch = ChannelParams(*rng.uniform(0.05, 1.0, 2), *rng.uniform(0.0, 2.0, 2))
            for t in (0.0, 0.3, 3.0, 30.0):
                cm = evolve(p, ch, t)
                assert cm.is_physical() and symplectic_eigenvalues(cm)[2][0] > 0.5 - 1e-9
