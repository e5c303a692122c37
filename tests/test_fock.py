import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gaussesd import (
    ChannelParams,
    CutoffInsufficient,
    GaussianParams,
    NonNegligibleImaginaryPart,
    OracleError,
    StepTooLarge,
    cm_from_params,
    evolve,
    fock,
)
from gaussesd.fock import (
    FockDensityMatrix,
    build_initial_state,
    in_certified_domain,
    integrate,
    lindblad_rhs,
    mode_generator,
    moments,
)
from conftest import MOMENT_FIELDS, moment_diff


def basis_state(n1, n2, cutoff):
    d = cutoff * cutoff
    rho = np.zeros((d, d))
    idx = n1 * cutoff + n2
    rho[idx, idx] = 1.0
    return FockDensityMatrix(cutoff=cutoff, data=rho)


def random_state(rng, cutoff):
    """Random real symmetric positive unit-trace two-mode matrix."""
    d = cutoff * cutoff
    x = rng.normal(size=(d, d))
    rho = x @ x.T
    return FockDensityMatrix(cutoff=cutoff, data=rho / np.trace(rho))


class TestBuildInitialState:
    def test_vacuum(self):
        rho = build_initial_state(GaussianParams(0.0, 0.0, 0.0), 4)
        expected = np.zeros((16, 16))
        expected[0, 0] = 1.0
        assert np.max(np.abs(rho.data - expected)) < 1e-14

    def test_tmsv_schmidt_coefficients(self):
        r = 0.5
        cutoff = 20
        rho = build_initial_state(GaussianParams.tmsv(r), cutoff)
        coeff = np.array([math.tanh(r) ** n / math.cosh(r) for n in range(6)])
        for n in range(6):
            for m in range(6):
                entry = rho.data[n * cutoff + n, m * cutoff + m]
                assert entry == pytest.approx(coeff[n] * coeff[m], abs=1e-12)
        # nothing off the |n,n> Schmidt diagonal
        assert abs(rho.data[1 * cutoff + 0, 1 * cutoff + 0]) < 1e-14

    def test_moments_match_forward_map(self):
        p = GaussianParams(0.3, 0.3, 0.5, 0.1, 0.1)
        rho = build_initial_state(p, 24)
        assert moment_diff(moments(rho), cm_from_params(p)) < 1e-4

    def test_validates_invariants(self):
        rho = build_initial_state(GaussianParams(0.2, -0.1, 0.4, 0.1, 0.2), 20)
        assert rho.data.dtype == np.float64
        rho.validate()  # symmetric, unit trace, positive, small tail

    @pytest.mark.parametrize("data, message", [
        (np.diag([0.5, 0.5, 0.0, 0.0]) + np.triu(np.full((4, 4), 1e-9), 1), "not symmetric"),
        (np.diag([0.5, 0.5, 0.0, 1e-7]), "trace deviates"),
        (np.diag([0.75, 0.5, -0.25, 0.0]), "not positive"),
    ], ids=["symmetry", "trace", "positivity"])
    def test_validate_gates_raise_oracle_error(self, data, message):
        rho = FockDensityMatrix(cutoff=2, data=data)
        with pytest.raises(OracleError, match=message) as exc:
            rho.validate(tail_tol=1.0)
        assert not isinstance(exc.value, ValueError)

    @pytest.mark.parametrize("cls", [CutoffInsufficient, StepTooLarge, NonNegligibleImaginaryPart])
    def test_every_oracle_gate_is_an_oracle_error(self, cls):
        assert issubclass(cls, OracleError)

    def test_insufficient_cutoff_raises(self):
        with pytest.raises(CutoffInsufficient):
            build_initial_state(GaussianParams.tmsv(0.6), 6)

    def test_cutoff_cap(self):
        with pytest.raises(ValueError):
            build_initial_state(GaussianParams(0.0, 0.0, 0.0), 40)

    @pytest.mark.parametrize("cutoff", [-1, 0, 1, fock.MAX_CUTOFF + 1])
    def test_cutoff_range_checked_first(self, cutoff):
        with pytest.raises(ValueError, match=r"cutoff .* outside the supported range \[2, 32\]"):
            build_initial_state(GaussianParams(0.0, 0.0, 0.0), cutoff)


class TestLindbladRhs:
    def test_vacuum_is_zero_temperature_fixed_point(self):
        rho = build_initial_state(GaussianParams(0.0, 0.0, 0.0), 6)
        rhs = lindblad_rhs(rho, ChannelParams.symmetric(0.3))
        assert np.max(np.abs(rhs)) == 0.0

    def test_single_photon_decay_rate(self):
        # d<n1>/dt = -2 gamma at t = 0 for |1,0><1,0| in a cold bath
        gamma = 0.35
        rho = basis_state(1, 0, 5)
        rhs = lindblad_rhs(rho, ChannelParams.symmetric(gamma))
        n1_op = np.diag([n1 for n1 in range(5) for _ in range(5)]).astype(float)
        rate = np.trace(n1_op @ rhs).real
        assert rate == pytest.approx(-2.0 * gamma, abs=1e-12)

    def test_thermal_fixed_point(self):
        ch = ChannelParams(0.3, 0.2, 0.6, 0.4)
        rho = build_initial_state(GaussianParams(0.0, 0.0, 0.0, 0.6, 0.4), 16)
        rhs = lindblad_rhs(rho, ch)
        assert np.max(np.abs(rhs)) < 1e-14

    def test_trace_free_and_hermiticity_preserving(self, rng):
        # the operators are real, so L acts on real and imaginary parts
        # separately and a real symmetric state covers the general case
        rhs = lindblad_rhs(random_state(rng, 6), ChannelParams(0.2, 0.4, 0.3, 0.1))
        assert abs(np.trace(rhs)) < 1e-12
        assert np.max(np.abs(rhs - rhs.T)) < 1e-12

    def test_matches_factorized_generator(self, rng):
        cutoff = 6
        d = cutoff * cutoff
        fr = random_state(rng, cutoff)
        rho = fr.data
        ch = ChannelParams(0.2, 0.4, 0.3, 0.1)
        direct = lindblad_rhs(fr, ch)
        # L1 (x) I + I (x) L2 acting on rho regrouped as X[(n1 m1), (n2 m2)]
        total = np.kron(mode_generator(ch.gamma1, ch.nb1, cutoff), np.eye(d)) + np.kron(
            np.eye(d), mode_generator(ch.gamma2, ch.nb2, cutoff)
        )
        regroup = (cutoff,) * 4
        v = rho.reshape(regroup).transpose(0, 2, 1, 3).reshape(-1)
        factorized = (total @ v).reshape(regroup).transpose(0, 2, 1, 3).reshape(d, d)
        assert np.max(np.abs(direct - factorized)) < 1e-13


class TestIntegrate:
    def test_zero_time_is_identity(self):
        rho = build_initial_state(GaussianParams.tmsv(0.4), 12)
        out = integrate(rho, ChannelParams.symmetric(0.2), 0.0)
        assert out is not rho
        assert np.array_equal(out.data, rho.data)

    def test_negative_time_rejected(self):
        rho = build_initial_state(GaussianParams.tmsv(0.4), 12)
        with pytest.raises(ValueError, match="time must be >= 0"):
            integrate(rho, ChannelParams.symmetric(0.2), -1e-9)

    def test_matches_closed_form_tmsv(self):
        # primary oracle-equivalence check at gamma t = 1
        p = GaussianParams.tmsv(0.5)
        ch = ChannelParams.symmetric(0.2)
        rho = integrate(build_initial_state(p, 20), ch, 5.0)
        assert moment_diff(moments(rho), evolve(p, ch, 5.0)) < 1e-4

    def test_matches_closed_form_asymmetric_heated(self):
        # asymmetric rates, one heated bath
        p = GaussianParams(0.3, 0.3, 0.5)
        ch = ChannelParams(0.2, 0.1, 0.5, 0.0)
        rho = integrate(build_initial_state(p, 20), ch, 1.0)
        assert moment_diff(moments(rho), evolve(p, ch, 1.0)) < 1e-3

    def test_thermal_input_is_stationary(self):
        ch = ChannelParams(0.25, 0.25, 0.4, 0.3)
        rho0 = build_initial_state(GaussianParams(0.0, 0.0, 0.0, 0.4, 0.3), 16)
        rho = integrate(rho0, ch, 8.0)  # gamma t = 2
        assert moment_diff(moments(rho), moments(rho0)) < 1e-8

    def test_inconsistent_split_rejected(self, monkeypatch):
        # a 1e-4 error in the half-step factors must trip the split gate
        exact = fock.mode_propagator
        t = 8.0

        def perturbed(gamma, nb, cutoff, s):
            e = exact(gamma, nb, cutoff, s)
            return e * (1.0 + 1e-4) if s < t else e

        monkeypatch.setattr(fock, "mode_propagator", perturbed)
        rho = build_initial_state(GaussianParams.tmsv(0.4), 16)
        with pytest.raises(StepTooLarge):
            integrate(rho, ChannelParams.symmetric(0.25, 0.5), t)

    def test_split_invariance(self):
        p = GaussianParams(0.2, -0.1, 0.3, 0.1, 0.2)
        ch = ChannelParams(0.2, 0.4, 0.3, 0.1)
        rho = build_initial_state(p, 12, tail_tol=1e-3)
        whole = integrate(rho, ch, 3.0, tail_tol=1e-3)
        halves = integrate(integrate(rho, ch, 1.5, tail_tol=1e-3), ch, 1.5, tail_tol=1e-3)
        assert np.max(np.abs(whole.data - halves.data)) < 1e-12

    def test_short_time_derivative_matches_rhs(self):
        # ties the exact propagator to the independent reference generator
        rho = build_initial_state(GaussianParams(0.2, -0.1, 0.3, 0.1, 0.2), 12, tail_tol=1e-3)
        ch = ChannelParams(0.2, 0.4, 0.3, 0.1)
        h = 1e-5
        step = integrate(rho, ch, h, tail_tol=1e-3)
        assert np.max(np.abs((step.data - rho.data) / h - lindblad_rhs(rho, ch))) < 1e-5

    def test_heating_past_cutoff_detected(self):
        # a hot bath drives the truncated state into the tail
        rho = build_initial_state(GaussianParams(0.0, 0.0, 0.0), 8)
        with pytest.raises(CutoffInsufficient):
            integrate(rho, ChannelParams.symmetric(0.3, 3.0), 12.0)

    def test_real_storage(self):
        rho = build_initial_state(GaussianParams.tmsv(0.4), 12)
        out = integrate(rho, ChannelParams(0.2, 0.4, 0.3, 0.1), 1.0, tail_tol=1e-3)
        assert out.data.dtype == np.float64
        assert integrate(rho, ChannelParams.symmetric(0.2), 0.0).data.dtype == np.float64

    def test_cutoff_doubling_converges(self):
        # certified-domain interior point; the relaxed tail gate only
        # affects the low-cutoff reference run
        p = GaussianParams.symmetric(0.1, 0.3, 0.1)
        ch = ChannelParams.symmetric(0.25, 0.25)
        results = []
        for cutoff in (12, 24):
            rho = build_initial_state(p, cutoff, tail_tol=1e-3)
            results.append(moments(integrate(rho, ch, 8.0, tail_tol=1e-3)))
        assert moment_diff(results[0], results[1]) < 1e-5


class TestMoments:
    def test_vacuum(self):
        rho = build_initial_state(GaussianParams(0.0, 0.0, 0.0), 4)
        cm = moments(rho)
        assert all(getattr(cm, f) == 0.0 for f in MOMENT_FIELDS)

    def test_tmsv_values(self):
        rho = build_initial_state(GaussianParams.tmsv(0.5), 20)
        cm = moments(rho)
        assert cm.n1 == pytest.approx(math.sinh(0.5) ** 2, abs=1e-6)
        assert cm.n2 == pytest.approx(math.sinh(0.5) ** 2, abs=1e-6)
        assert cm.mc == pytest.approx(0.5 * math.sinh(1.0), abs=1e-6)
        assert abs(cm.m1) < 1e-10 and abs(cm.ms) < 1e-10

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_matches_dense_traces(self, rng, symmetric):
        # tr((A (x) B) rho) written out literally for each moment; an added
        # antisymmetric part also pins which factor is transposed
        cutoff = 6
        rho = random_state(rng, cutoff)
        if not symmetric:
            y = rng.normal(size=rho.data.shape) / rho.data.size
            rho = FockDensityMatrix(cutoff=cutoff, data=rho.data + y - y.T)
        a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
        eye = np.eye(cutoff)
        cm = moments(rho)

        def tr(op1, op2):
            return np.trace(np.kron(op1, op2) @ rho.data)

        expected = {
            "n1": tr(a.T @ a, eye),
            "n2": tr(eye, a.T @ a),
            "m1": -tr(a @ a, eye),
            "m2": -tr(eye, a @ a),
            "ms": -tr(a, a.T),
            "mc": tr(a, a),
        }
        for f in MOMENT_FIELDS:
            assert abs(getattr(cm, f) - expected[f]) < 1e-14, f

    def test_imaginary_part_rejected(self):
        cutoff = 4
        d = cutoff * cutoff
        psi = np.zeros(d, dtype=complex)
        psi[0 * cutoff + 0] = 1.0 / math.sqrt(2.0)
        psi[2 * cutoff + 0] = 1j / math.sqrt(2.0)  # (|0> + i|2>)/sqrt2 on mode 1
        with pytest.raises(NonNegligibleImaginaryPart):
            FockDensityMatrix(cutoff=cutoff, data=np.outer(psi, psi.conj()))

    def test_small_imaginary_part_rejected(self):
        # no tolerance: any nonzero imaginary part is rejected at entry
        cutoff = 4
        d = cutoff * cutoff
        psi = np.zeros(d, dtype=complex)
        eps = 1e-7
        psi[0] = math.sqrt(1.0 - eps**2)
        psi[2 * cutoff] = 1j * eps  # tiny complex amplitude on |2,0>
        with pytest.raises(NonNegligibleImaginaryPart):
            FockDensityMatrix(cutoff=cutoff, data=np.outer(psi, psi.conj()))

    def test_complex_input_with_zero_imaginary_part_accepted(self):
        rho = FockDensityMatrix(cutoff=3, data=np.eye(9, dtype=complex) / 9.0)
        assert rho.data.dtype == np.float64
        assert np.array_equal(rho.data, np.eye(9) / 9.0)


class TestHelpers:
    def test_certified_domain(self):
        p_in = GaussianParams.symmetric(0.2, 0.4, 0.1)
        p_out = GaussianParams.symmetric(0.2, 2.0, 0.1)
        ch = ChannelParams.symmetric(0.25, 0.5)
        assert in_certified_domain(p_in, ch, 8.0, 20)
        assert not in_certified_domain(p_out, ch, 8.0, 20)
        assert not in_certified_domain(p_in, ch, 100.0, 20)
        assert not in_certified_domain(p_in, ch, 8.0, 10)

    def test_density_matrix_shape_validation(self):
        with pytest.raises(ValueError):
            FockDensityMatrix(cutoff=4, data=np.eye(4))
        with pytest.raises(ValueError):
            FockDensityMatrix(cutoff=1, data=np.eye(1))

    def test_array_like_data_converted(self):
        rho = FockDensityMatrix(cutoff=2, data=(np.eye(4) / 4.0).tolist())
        assert isinstance(rho.data, np.ndarray) and rho.data.dtype == np.float64
        with pytest.raises(ValueError):
            FockDensityMatrix(cutoff=2, data=[[1.0, 0.0], [0.0, 0.0]])

    def test_import_does_not_load_scipy_sparse(self):
        src = str(Path(fock.__file__).resolve().parents[1])
        code = "import sys, gaussesd; print('scipy.sparse' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.strip() == "False"
