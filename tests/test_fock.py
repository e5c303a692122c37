import math
import os
import re
import subprocess
import sys
import tracemalloc
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
from gaussesd.config import MAX_CUTOFF
from gaussesd.fock import (
    FockDensityMatrix,
    build_initial_state,
    in_certified_domain,
    integrate,
    moments,
)
from conftest import MOMENT_FIELDS, moment_diff
from fock_reference import kron_initial_state, lindblad_rhs, mode_generator


def basis_state(n1, n2, cutoff):
    d = cutoff * cutoff
    rho = np.zeros((d, d))
    idx = n1 * cutoff + n2
    rho[idx, idx] = 1.0
    return FockDensityMatrix(cutoff=cutoff, data=rho)


def floored(ch, cutoff, t):
    """Which of both modes' blocks of t L have a 1-norm under theta_13, the
    blocks that _expm does not square."""
    gen = np.concatenate([fock._mode_blocks(ch.gamma1, ch.nb1, cutoff),
                          fock._mode_blocks(ch.gamma2, ch.nb2, cutoff)])
    return np.abs(t * gen).sum(axis=-2).max(axis=-1) < fock._THETA13


def parity(cutoff):
    """The parity of n1 + n2 at each flat index n1 * cutoff + n2."""
    return np.add.outer(np.arange(cutoff), np.arange(cutoff)).ravel() % 2


def same_parity(cutoff):
    """Mask of the entries within the parity blocks of n1 + n2."""
    par = parity(cutoff)
    return par[:, None] == par


def random_matrix(rng, cutoff):
    """Random real symmetric positive unit-trace two-mode matrix."""
    d = cutoff * cutoff
    x = rng.normal(size=(d, d))
    rho = x @ x.T
    return rho / np.trace(rho)


def random_state(rng, cutoff):
    """random_matrix on the parity blocks of n1 + n2, 0 between them: its
    principal blocks, so still positive, and of unit trace."""
    return FockDensityMatrix(cutoff=cutoff, data=random_matrix(rng, cutoff) * same_parity(cutoff))


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

    @pytest.mark.parametrize("cutoff", [2, 8, 20, 32])
    def test_factored_build_matches_kron_construction(self, cutoff):
        p = GaussianParams(0.3, -0.2, 0.4, 0.2, 0.1)
        d = build_initial_state(p, cutoff, tail_tol=1.0).data
        assert np.max(np.abs(d - kron_initial_state(p, cutoff))) < 1e-14
        assert np.array_equal(d, d.T)
        assert abs(np.trace(d) - 1.0) < 1e-14

    def test_validates_invariants(self):
        rho = build_initial_state(GaussianParams(0.2, -0.1, 0.4, 0.1, 0.2), 20)
        assert rho.data.dtype == np.float64
        rho.validate()  # symmetric, unit trace, positive, small tail

    @pytest.mark.parametrize("data, message", [
        (np.diag([0.5, 0.5, 0.0, 0.0]) + np.triu(np.full((4, 4), 1e-9), 1) * same_parity(2),
         "not symmetric"),
        (np.diag([0.5, 0.5, 0.0, 1e-7]), "trace deviates"),
        (np.diag([0.75, 0.5, -0.25, 0.0]), "not positive"),
    ], ids=["symmetry", "trace", "positivity"])
    def test_validate_gates_raise_oracle_error(self, data, message):
        rho = FockDensityMatrix(cutoff=2, data=data)
        with pytest.raises(OracleError, match=message) as exc:
            rho.validate(tail_tol=1.0)
        assert not isinstance(exc.value, ValueError)

    @pytest.mark.parametrize("entries", [[(1, 1)], [(0, 3), (3, 0)]],
                             ids=["diagonal", "off-diagonal"])
    def test_nan_fails_validate(self, entries):
        # NaN - NaN is NaN, also on the diagonal: the symmetry gate fails first
        data = np.eye(4) / 4.0
        for i, j in entries:
            data[i, j] = np.nan
        with pytest.raises(OracleError, match="not symmetric: max asymmetry nan"):
            FockDensityMatrix(cutoff=2, data=data).validate(tail_tol=1.0)

    def test_nan_tail_fails_both_tail_gates(self, monkeypatch):
        # a NaN on the diagonal fails the symmetry gate first, so the tail gates
        # are fed a NaN tail directly
        monkeypatch.setattr(FockDensityMatrix, "tail_population", lambda self: math.nan)
        with pytest.raises(CutoffInsufficient, match="tail population nan exceeds"):
            FockDensityMatrix(cutoff=2, data=np.eye(4) / 4.0).validate(tail_tol=1.0)
        with pytest.raises(CutoffInsufficient, match="initial-state tail population nan"):
            build_initial_state(GaussianParams(0.0, 0.0, 0.0), 4, tail_tol=1.0)

    def test_negative_eigenvalue_in_one_parity_block_rejected(self, rng):
        # cross-parity entries exactly zero, one eigenvalue -0.02 in the odd
        # block of n1 + n2: the message is the whole matrix's, as before
        cutoff = 3
        data = np.zeros((cutoff**2, cutoff**2))
        for par, eigs in ((0, [0.3, 0.2, 0.1, 0.1, 0.0]), (1, [0.22, 0.1, 0.0, -0.02])):
            sel = np.flatnonzero(parity(cutoff) == par)
            q, _ = np.linalg.qr(rng.normal(size=(len(sel), len(sel))))
            data[np.ix_(sel, sel)] = (q * eigs) @ q.T
        rho = FockDensityMatrix(cutoff=cutoff, data=0.5 * (data + data.T))
        whole = np.linalg.eigvalsh(rho.data).min()
        expected = f"density matrix not positive: min eigenvalue {whole:.3e}"
        assert expected.endswith("-2.000e-02")
        with pytest.raises(OracleError, match=re.escape(expected)):
            rho.validate(tail_tol=1.0)

    def test_cross_parity_entries_checked_on_whole_matrix(self):
        # both parity blocks are PSD; the entry linking |0,0> (even) and
        # |0,1> (odd) would make the whole matrix indefinite (eigenvalue
        # -0.15): the block form cannot hold it, so the state is refused by
        # name when it is made
        data = np.eye(4) / 4.0
        data[0, 1] = data[1, 0] = 0.4
        assert np.linalg.eigvalsh(data).min() == pytest.approx(-0.15)
        with pytest.raises(OracleError, match="nonzero entries between the parity blocks") as exc:
            FockDensityMatrix(cutoff=2, data=data)
        assert type(exc.value) is OracleError

    @pytest.mark.parametrize("lowest", [-0.99e-8, -1.01e-8])
    def test_positivity_boundary(self, rng, monkeypatch, lowest):
        # the eigenvalue floor is -1e-8: the Cholesky test alone passes
        # -0.99e-8, and the eigenvalue fallback rejects -1.01e-8
        cutoff = 3
        eigs = {0: [0.4, 0.2, 0.1, 0.1, 0.0], 1: [0.1 - lowest, 0.1, 0.0, lowest]}  # trace 1
        data = np.zeros((cutoff**2, cutoff**2))
        for par in (0, 1):
            sel = np.flatnonzero(parity(cutoff) == par)
            q, _ = np.linalg.qr(rng.normal(size=(len(sel), len(sel))))
            data[np.ix_(sel, sel)] = (q * eigs[par]) @ q.T
        rho = FockDensityMatrix(cutoff=cutoff, data=0.5 * (data + data.T))
        if lowest < -1e-8:
            with pytest.raises(OracleError, match=re.escape("min eigenvalue -1.010e-08")):
                rho.validate(tail_tol=1.0)
        else:
            monkeypatch.setattr(np.linalg, "eigvalsh", lambda b: pytest.fail("eigvalsh ran"))
            rho.validate(tail_tol=1.0)

    def test_parity_blocks_accept_a_built_state(self):
        rho = build_initial_state(GaussianParams(0.2, -0.1, 0.4, 0.1, 0.2), 12, tail_tol=1e-3)
        assert not np.any(rho.data[~same_parity(12)])  # the structural zero
        rho.validate(tail_tol=1e-3)

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
        rhs = lindblad_rhs(rho.data, ChannelParams.symmetric(0.3))
        assert np.max(np.abs(rhs)) == 0.0

    def test_single_photon_decay_rate(self):
        # d<n1>/dt = -2 gamma at t = 0 for |1,0><1,0| in a cold bath
        gamma = 0.35
        rho = basis_state(1, 0, 5)
        rhs = lindblad_rhs(rho.data, ChannelParams.symmetric(gamma))
        n1_op = np.diag([n1 for n1 in range(5) for _ in range(5)]).astype(float)
        rate = np.trace(n1_op @ rhs).real
        assert rate == pytest.approx(-2.0 * gamma, abs=1e-12)

    def test_thermal_fixed_point(self):
        ch = ChannelParams(0.3, 0.2, 0.6, 0.4)
        rho = build_initial_state(GaussianParams(0.0, 0.0, 0.0, 0.6, 0.4), 16)
        rhs = lindblad_rhs(rho.data, ch)
        assert np.max(np.abs(rhs)) < 1e-14

    def test_trace_free_and_hermiticity_preserving(self, rng):
        # the operators are real, so L acts on real and imaginary parts
        # separately and a real symmetric matrix covers the general case
        rhs = lindblad_rhs(random_matrix(rng, 6), ChannelParams(0.2, 0.4, 0.3, 0.1))
        assert abs(np.trace(rhs)) < 1e-12
        assert np.max(np.abs(rhs - rhs.T)) < 1e-12

    def test_matches_factorized_generator(self, rng):
        cutoff = 6
        d = cutoff * cutoff
        rho = random_matrix(rng, cutoff)
        ch = ChannelParams(0.2, 0.4, 0.3, 0.1)
        direct = lindblad_rhs(rho, ch)
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

    @pytest.mark.parametrize("entry, error, message", [
        (math.nan, OracleError, "nan"),
        (0.25, CutoffInsufficient, "tail population 1.000e[+]00 exceeds"),
    ], ids=["nan", "tail"])
    def test_zero_step_goes_through_the_gates(self, entry, error, message):
        # at cutoff 2 every level is in the tail, so the clean state fails the
        # default tail gate; a NaN fails an earlier one
        data = np.eye(4) / 4.0
        data[1, 1] = entry
        with pytest.raises(error, match=message):
            integrate(FockDensityMatrix(cutoff=2, data=data), ChannelParams.symmetric(0.2), 0.0)

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_non_finite_input_is_named(self, entry):
        # the input is checked before the step, so the error is not the split
        # gate's StepTooLarge, and it names the input state
        data = np.eye(4) / 4.0
        data[1, 1] = entry
        with pytest.raises(OracleError, match=f"input state is not finite: .* {entry}") as exc:
            integrate(FockDensityMatrix(cutoff=2, data=data), ChannelParams.symmetric(0.2), 0.0)
        assert not isinstance(exc.value, StepTooLarge)

    def test_negative_time_rejected(self):
        rho = build_initial_state(GaussianParams.tmsv(0.4), 12)
        with pytest.raises(ValueError, match="time must be >= 0"):
            integrate(rho, ChannelParams.symmetric(0.2), -1e-9)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_non_finite_time_rejected(self, t):
        # checked before any arithmetic: no inf * 0 warning, and the error names the time
        rho = build_initial_state(GaussianParams.tmsv(0.4), 12)
        with pytest.raises(ValueError, match="time must be finite"):
            integrate(rho, ChannelParams.symmetric(0.2), t)

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
        exact = fock._step_propagators
        t = 8.0

        def perturbed(ch, cutoff, step, kept):
            ch, step, e, h = exact(ch, cutoff, step, None)
            return ch, step, e, h * (1.0 + 1e-4)

        monkeypatch.setattr(fock, "_step_propagators", perturbed)
        rho = build_initial_state(GaussianParams.tmsv(0.4), 16)
        with pytest.raises(StepTooLarge):
            integrate(rho, ChannelParams.symmetric(0.25, 0.5), t)

    @pytest.mark.parametrize("cutoff", [8, 12, 20])
    def test_one_exponential_per_step_is_the_four_call_reference(self, monkeypatch, cutoff):
        # the four propagators E1(t), E2(t), E1(t/2), E2(t/2) built one by
        # one: E(t/2) from an _expm call on t L / 2 per mode, formed at the
        # rate gamma t / 2, E(t) as its square; a call on t L would square no
        # block of the short step (s = 0) and some of the long one (s >= 1)
        def four_calls(ch, c, t, kept=None):
            modes = ((ch.gamma1, ch.nb1), (ch.gamma2, ch.nb2))
            half = [fock._expm(fock._mode_blocks(g * (0.5 * t), nb, c)) for g, nb in modes]
            return ch, t, np.concatenate([h @ h for h in half]), np.concatenate(half)

        p = GaussianParams(0.3, -0.2, 0.4, 0.2, 0.1)
        ch = ChannelParams(0.3, 0.15, 0.4, 0.2)
        rho = build_initial_state(p, cutoff, tail_tol=1.0)
        fast = fock._step_propagators
        norms = []
        for t in (0.01, 2.0 / 0.3):
            mine, ref = fast(ch, cutoff, t, None), four_calls(ch, cutoff, t)
            assert all(np.array_equal(a, b) for a, b in zip(mine[2:], ref[2:]))
            out = integrate(rho, ch, t, tail_tol=1.0)
            monkeypatch.setattr(fock, "_step_propagators", four_calls)
            assert np.array_equal(out.data, integrate(rho, ch, t, tail_tol=1.0).data)
            monkeypatch.setattr(fock, "_step_propagators", fast)
            norms.append(max(np.abs(t * fock._mode_blocks(g, nb, cutoff)).sum(axis=-2).max()
                             for g, nb in ((ch.gamma1, ch.nb1), (ch.gamma2, ch.nb2))))
        assert norms[0] <= fock._THETA13 < norms[1]

    def test_block_index_cache_holds_one_cutoff(self):
        # cutoffs 8 -> 20 -> 8: the layout and its parity-block index are
        # built anew for the second cutoff-8 step, which gives the first
        # one's bits
        p = GaussianParams(0.3, -0.2, 0.4, 0.2, 0.1)
        ch = ChannelParams(0.3, 0.15, 0.4, 0.2)
        fock._layout.cache_clear()
        outs = [integrate(build_initial_state(p, c, tail_tol=1.0), ch, 2.0, tail_tol=1.0).data
                for c in (8, 20, 8)]
        assert outs[2].tobytes() == outs[0].tobytes()
        info = fock._layout.cache_info()
        assert (info.maxsize, info.currsize, info.misses) == (1, 1, 3)
        index = fock._layout(8)[3]
        assert np.array_equal(np.sort(index), np.arange(index.size))  # a permutation
        with pytest.raises(ValueError, match="read-only"):
            index[0] = 0

    @pytest.mark.parametrize("cutoff", [2, 3, 8, 20])
    def test_dense_round_trip(self, cutoff):
        # dense matrix -> block form -> dense matrix, bit for bit, for a
        # built and an integrated state; the dense matrix is read-only
        p = GaussianParams(0.3, -0.2, 0.4, 0.2, 0.1)
        ch = ChannelParams(0.3, 0.15, 0.4, 0.2)
        built = build_initial_state(p, cutoff, tail_tol=1.0)
        for rho in (built, integrate(built, ch, 2.0, tail_tol=1.0)):
            again = FockDensityMatrix(cutoff=cutoff, data=rho.data)
            assert again.data.tobytes() == rho.data.tobytes()
            assert again._buf.tobytes() == rho._buf.tobytes()
            assert fock._scatter(cutoff, again._buf).tobytes() == rho.data.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                rho.data[0, 0] = 0.0

    def test_cross_parity_input_refused(self):
        # one entry between |0,0> (even n1 + n2) and |0,1> (odd) of a built
        # state: the block form cannot hold it, so the state is refused by
        # name when it is made, and no step or gate ever sees it
        p = GaussianParams(0.3, -0.2, 0.4, 0.2, 0.1)
        data = build_initial_state(p, 8, tail_tol=1.0).data.copy()
        data[0, 1] = 0.4
        with pytest.raises(OracleError, match="nonzero entries between the parity blocks") as exc:
            FockDensityMatrix(cutoff=8, data=data)
        assert type(exc.value) is OracleError

    @pytest.mark.parametrize("entry", [1.0, 5e-324, math.nan, math.inf])
    @pytest.mark.parametrize("cutoff", [2, 3])
    def test_every_cross_parity_entry_refused(self, cutoff, entry):
        # one nonzero entry at each position between the parity blocks, the
        # least subnormal and the non-finite values too, of a state that is
        # accepted without it
        data = np.eye(cutoff**2) / cutoff**2
        FockDensityMatrix(cutoff=cutoff, data=data)
        rows, cols = np.nonzero(~same_parity(cutoff))
        assert len(rows) == {2: 8, 3: 40}[cutoff]  # 2 e o, e and o the block sizes
        for i, j in zip(rows, cols):
            cross = data.copy()
            cross[i, j] = entry
            with pytest.raises(OracleError, match="nonzero entries between the parity blocks"):
                FockDensityMatrix(cutoff=cutoff, data=cross)

    @pytest.mark.parametrize("cutoff", [2, 3])
    def test_signed_zero_cross_entries_accepted(self, rng, cutoff):
        # +0.0 and -0.0 between the parity blocks are zeros: the state is
        # kept, and its dense matrix is the input's bits on the parity blocks
        # and +0.0 between them
        data = random_state(rng, cutoff).data.copy()
        cross = ~same_parity(cutoff)
        data[cross] = np.tile([0.0, -0.0], cross.sum() // 2)
        rho = FockDensityMatrix(cutoff=cutoff, data=data)
        assert rho.data[~cross].tobytes() == data[~cross].tobytes()
        assert not np.signbit(rho.data[cross]).any()

    def test_oracle_op_builds_no_dense_matrix(self, monkeypatch):
        # build, three steps, moments and tail after each, as the benchmark's
        # oracle op runs them: the dense matrix is never scattered; reading
        # data scatters it once
        calls = []
        scatter = fock._scatter
        monkeypatch.setattr(fock, "_scatter", lambda *args: calls.append(1) or scatter(*args))
        ch = ChannelParams(0.25, 0.2, 0.25, 0.1)
        rho = build_initial_state(GaussianParams.symmetric(0.2, 0.4), 20)
        t_prev = 0.0
        for gt in (0.5, 1.0, 2.0):
            rho = integrate(rho, ch, gt / 0.25 - t_prev)
            t_prev = gt / 0.25
            moments(rho)
            rho.tail_population()
        assert calls == []
        assert rho.data is rho.data and calls == [1]

    def test_state_keeps_the_step_that_made_it(self, monkeypatch):
        # steps a, a, 2a, as the times a, 2a, 4a take them: the build
        # exponentiates cutoff + 2 blocks and the first step both modes'
        # 2 cutoff; the second, from a state that the same step made, none;
        # the third, twice that step, only the blocks that _expm does not
        # square at a
        p = GaussianParams(0.3, -0.2, 0.4, 0.2, 0.1)
        ch = ChannelParams(0.3, 0.15, 0.4, 0.2)
        a, cutoff = 0.7, 8
        expm, counts = fock._expm, []
        monkeypatch.setattr(fock, "_expm",
                            lambda stack: counts.append(len(stack)) or expm(stack))
        under = int(np.sum(floored(ch, cutoff, a)))
        assert 0 < under < 2 * cutoff
        rho0 = build_initial_state(p, cutoff, tail_tol=1.0)
        states = [rho0]
        for step in (a, a, 2 * a):
            states.append(integrate(states[-1], ch, step, tail_tol=1.0))
        assert counts == [cutoff + 2, 2 * cutoff, under]
        assert rho0._step is None and states[1]._step is states[2]._step
        assert states[3]._step[:2] == (ch, 2 * a)
        for stack in states[3]._step[2:]:
            with pytest.raises(ValueError, match="read-only"):
                stack[0, 0, 0] = 0
        # the built state's bytes with the kept step 2a, then without a step
        counts.clear()
        hit = integrate(FockDensityMatrix._from_buffer(cutoff, rho0._buf, states[3]._step),
                        ch, 2 * a, tail_tol=1.0)
        assert counts == []
        fresh = integrate(rho0, ch, 2 * a, tail_tol=1.0)
        assert counts == [2 * cutoff]
        assert hit.data.tobytes() == fresh.data.tobytes()

    def test_interleaved_chains_keep_their_steps(self, monkeypatch):
        # two chains on different channels, taken step by step in turn, give
        # the bytes and the exponentials of the two taken one after the other
        p = GaussianParams(0.3, -0.2, 0.4, 0.2, 0.1)
        chs = (ChannelParams(0.3, 0.15, 0.4, 0.2), ChannelParams(0.2, 0.4, 0.3, 0.1))
        a, cutoff = 0.7, 8
        expm, counts = fock._expm, []
        monkeypatch.setattr(fock, "_expm",
                            lambda stack: counts.append(len(stack)) or expm(stack))

        def run(order):
            counts.clear()
            rhos = [build_initial_state(p, cutoff, tail_tol=1.0) for _ in chs]
            for i, step in order:
                rhos[i] = integrate(rhos[i], chs[i], step, tail_tol=1.0)
            return [rho._buf.tobytes() for rho in rhos], sum(counts)

        steps = (a, a, 2 * a)
        after = run([(i, step) for i in (0, 1) for step in steps])
        assert run([(i, step) for step in steps for i in (0, 1)]) == after

    def test_doubled_step_is_a_fresh_call_bit_for_bit(self):
        # a (ch, 2 dt) step taken from the kept (ch, dt) gives both modes'
        # E(2 dt) and E(dt) stacks with a fresh step's bytes; the draws reach
        # steps with every block under the Pade floor at dt, with none, and
        # with some
        rng = np.random.default_rng(2205)
        shares = []
        for _ in range(100):
            cutoff = int(rng.integers(2, MAX_CUTOFF + 1))
            g1, g2 = rng.uniform(0.05, 1.0, 2)
            nb1, nb2 = rng.uniform(0.0, 2.0, 2)
            ch = ChannelParams(float(g1), float(g2), float(nb1), float(nb2))
            dt = float(10.0 ** rng.uniform(-3.0, 1.5))
            shares.append(np.mean(floored(ch, cutoff, dt)))
            kept = fock._step_propagators(ch, cutoff, dt, None)
            doubled = fock._step_propagators(ch, cutoff, 2 * dt, kept)
            fresh = fock._step_propagators(ch, cutoff, 2 * dt, None)
            assert doubled[:2] == fresh[:2] == (ch, 2 * dt)
            for mine, ref in zip(doubled[2:], fresh[2:]):  # both modes' E at 2 dt, then at dt
                assert mine.tobytes() == ref.tobytes()
        assert min(shares) == 0 and max(shares) == 1
        assert any(0 < f < 1 for f in shares)

    @pytest.mark.parametrize("cutoff, a", [(8, 0.7), (12, 0.05), (20, 1.3)])
    def test_chain_does_not_depend_on_the_kept_step(self, cutoff, a):
        # times a, 2a, 4a, whose last step squares the kept one, against the
        # same steps each from the state's bytes with no step kept: the same
        # bytes; at a some blocks sit under the Pade floor (all at cutoff 12)
        p = GaussianParams(0.3, -0.2, 0.4, 0.2, 0.1)
        ch = ChannelParams(0.3, 0.15, 0.4, 0.2)
        kept = fock.chain(p, ch, [a, 2 * a, 4 * a], cutoff, tail_tol=1.0)
        rho = build_initial_state(p, cutoff, tail_tol=1.0)
        t_prev = 0.0
        for t, cm, tail in kept:
            rho = integrate(FockDensityMatrix._from_buffer(cutoff, rho._buf), ch, t - t_prev,
                            tail_tol=1.0)
            t_prev = t
            assert repr((cm, tail)) == repr((moments(rho), rho.tail_population()))

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
        assert np.max(np.abs((step.data - rho.data) / h - lindblad_rhs(rho.data, ch))) < 1e-5

    def test_heating_past_cutoff_detected(self):
        # a hot bath drives the truncated state into the tail
        rho = build_initial_state(GaussianParams(0.0, 0.0, 0.0), 8)
        with pytest.raises(CutoffInsufficient):
            integrate(rho, ChannelParams.symmetric(0.3, 3.0), 12.0)

    def test_chain_is_the_integrate_loop(self):
        p = GaussianParams(0.2, -0.1, 0.3, 0.1, 0.2)
        ch = ChannelParams(0.2, 0.4, 0.3, 0.1)
        times = [0.5, 1.5, 3.0]
        rho = build_initial_state(p, 12, tail_tol=1e-3)
        t_prev = 0.0
        for t, cm, tail in fock.chain(p, ch, times, 12, tail_tol=1e-3):
            rho = integrate(rho, ch, t - t_prev, tail_tol=1e-3)
            t_prev = t
            assert cm == moments(rho) and tail == rho.tail_population()
        assert t_prev == times[-1]

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


def dense_moments(data, cutoff):
    """The six moments as tr((A (x) B) rho), written out literally."""
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    eye = np.eye(cutoff)

    def tr(op1, op2):
        return np.trace(np.kron(op1, op2) @ data)

    return {
        "n1": tr(a.T @ a, eye),
        "n2": tr(eye, a.T @ a),
        "m1": -tr(a @ a, eye),
        "m2": -tr(eye, a @ a),
        "ms": -tr(a, a.T),
        "mc": tr(a, a),
    }


def diagonal_indices(cutoff, k):
    """Indices n * cutoff + m with n - m = k, written out independently."""
    return [n * cutoff + (n - k) for n in range(cutoff) if 0 <= n - k < cutoff]


def regroup(m, cutoff):
    return m.reshape((cutoff,) * 4).transpose(0, 2, 1, 3).reshape(cutoff**2, cutoff**2)


class TestBlocks:
    CASES = [(0.3, 0.0, 6), (0.2, 0.4, 12), (0.25, 0.5, 20)]

    @pytest.mark.parametrize("gamma, nb, cutoff", CASES)
    def test_generator_blocks_match_dense_slices(self, gamma, nb, cutoff):
        dense = mode_generator(gamma, nb, cutoff)
        blocks = fock._mode_blocks(gamma, nb, cutoff)
        assert blocks.shape == (cutoff, cutoff, cutoff)
        for k in range(cutoff):
            sel = diagonal_indices(cutoff, k)
            size = len(sel)
            ref = dense[np.ix_(sel, sel)]
            assert np.max(np.abs(blocks[k, :size, :size] - ref)) < 1e-14
            assert not np.any(blocks[k, size:]) and not np.any(blocks[k, :, size:])
            neg = diagonal_indices(cutoff, -k)
            assert np.array_equal(dense[np.ix_(neg, neg)], ref)  # block -k is block k

    @pytest.mark.parametrize("gamma, nb, cutoff", CASES)
    def test_propagator_blocks_match_dense_expm(self, gamma, nb, cutoff):
        # E(t) and E(t/2) of two different modes; entry |k| serves block k
        from scipy.linalg import expm

        t = 3.0
        ch = ChannelParams(gamma, 0.5 * gamma, nb, nb + 0.25)
        modes = ((ch.gamma1, ch.nb1), (ch.gamma2, ch.nb2))
        for s, stack in zip((t, 0.5 * t), fock._step_propagators(ch, cutoff, t, None)[2:]):
            for (g, n), e in zip(modes, np.split(stack, 2)):
                dense = mode_generator(g, n, cutoff)
                assert e.shape == (cutoff, cutoff, cutoff)
                for k in range(1 - cutoff, cutoff):
                    sel = diagonal_indices(cutoff, k)
                    size = len(sel)
                    ref = expm(s * dense[np.ix_(sel, sel)])
                    assert np.max(np.abs(e[abs(k), :size, :size] - ref)) < 1e-13

    def test_integrate_matches_dense_reference(self):
        from scipy.linalg import expm

        cutoff, t = 12, 2.0
        ch = ChannelParams(0.2, 0.4, 0.3, 0.1)
        rho = build_initial_state(GaussianParams(0.2, -0.1, 0.3, 0.1, 0.2), cutoff, tail_tol=1e-3)
        modes = ((ch.gamma1, ch.nb1), (ch.gamma2, ch.nb2))
        e1, e2 = (expm(t * mode_generator(g, nb, cutoff)) for g, nb in modes)
        ref = regroup(e1 @ regroup(rho.data, cutoff) @ e2.T, cutoff)
        out = integrate(rho, ch, t, tail_tol=1e-3)
        assert np.max(np.abs(out.data - ref)) < 1e-13

    @pytest.mark.parametrize("cutoff", [2, 3, 8, 12, 20])
    def test_split_gate_moments_match_propagated_state(self, cutoff):
        # the gate reads rho and H1 H1 X H2' H2' through backward-propagated
        # observables; the reference assembles H1 and H2 as dense matrices
        # from their blocks, propagates the dense state itself and takes the
        # traces literally; cutoff 2 has no blocks k = +-2
        p = GaussianParams(0.3, -0.2, 0.4, 0.2, 0.1)
        ch = ChannelParams(0.3, 0.15, 0.4, 0.2)
        hs = np.split(fock._step_propagators(ch, cutoff, 2.5, None)[3], 2)
        rho = build_initial_state(p, cutoff, tail_tol=1.0)
        dense = [np.zeros((cutoff**2, cutoff**2)) for _ in hs]
        for h, d in zip(hs, dense):
            for k in range(1 - cutoff, cutoff):
                sel = diagonal_indices(cutoff, k)
                d[np.ix_(sel, sel)] = h[abs(k), : len(sel), : len(sel)]
        x = regroup(rho.data, cutoff)
        split = regroup(dense[0] @ dense[0] @ x @ dense[1].T @ dense[1].T, cutoff)
        for state, got in ((rho.data, fock._moments(rho._buf, cutoff)),
                           (split, fock._moments(rho._buf, cutoff, hs, hs))):
            want = dense_moments(state, cutoff)
            assert np.max(np.abs(got - [want[f] for f in MOMENT_FIELDS])) < 1e-13

    def test_build_matches_dense_squeezer(self):
        from scipy.linalg import expm

        cutoff = 12
        p = GaussianParams(0.2, -0.1, 0.3, 0.1, 0.2)
        a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
        single = a.T @ a.T - a @ a
        s2 = expm(p.r * (np.kron(a.T, a.T) - np.kron(a, a)))
        u = np.kron(expm(0.5 * p.z1 * single), expm(0.5 * p.z2 * single)) @ s2
        w = [(nu / (1 + nu)) ** np.arange(cutoff) for nu in (p.nu1, p.nu2)]
        ref = (u * np.kron(w[0] / w[0].sum(), w[1] / w[1].sum())) @ u.T
        rho = build_initial_state(p, cutoff, tail_tol=1e-3)
        assert np.max(np.abs(rho.data - ref)) < 1e-13


class TestExpm:
    """fock._expm against scipy.linalg.expm as an independent dense reference."""

    @pytest.mark.parametrize("gamma", [0.05, 0.5])
    def test_damping_blocks_match_scipy_in_certified_domain(self, gamma):
        from scipy.linalg import expm

        worst = 0.0
        for cutoff in range(2, 33):
            for nb in (0.0, 0.25, 0.5):
                for gt in (1e-3, 0.1, 0.5, 1.0, 2.0):
                    gen = (gt / gamma) * fock._mode_blocks(gamma, nb, cutoff)
                    worst = max(worst, np.max(np.abs(fock._expm(gen) - expm(gen))))
        assert worst < 1e-13

    def test_damping_blocks_match_scipy_outside_certified_domain(self):
        from scipy.linalg import expm

        gen = 200.0 * fock._mode_blocks(0.5, 2.0, 32)  # gamma t = 100
        assert np.max(np.abs(fock._expm(gen) - expm(gen))) < 1e-11

    @pytest.mark.parametrize("z", [0.4, 1.0, 2.0])
    def test_squeezers_are_orthogonal(self, z):
        cutoff = 32
        a = fock._ladder(cutoff)
        single = 0.5 * z * (a.T @ a.T - a @ a)
        two_mode = fock._tridiagonal(cutoff, lambda n, m: 0.0, -z, z)
        for u in (fock._expm(np.stack([single, -single])), fock._expm(two_mode)):
            assert np.max(np.abs(u @ u.transpose(0, 2, 1) - np.eye(cutoff))) < 1e-13

    @pytest.mark.parametrize("cutoff", [2, 8, 20, 32])
    def test_half_output_is_the_exponential_of_half(self, cutoff):
        # the halving identity that the kept step rests on: where _expm
        # squares A (1-norm above theta_13, s >= 1), A / 2 has s - 1 and the
        # same Pade input, so exp(A) is exp(A / 2) squared bit for bit; on
        # the fixed stacks, which hold matrices of both kinds, then on seeded
        # draws of both modes' blocks (cutoffs 2-32, gamma t 1e-3 to 30, nb <= 2)
        from scipy.linalg import expm

        rng = np.random.default_rng(cutoff)
        stacks = [np.concatenate([(gt / 0.25) * fock._mode_blocks(0.25, nb, cutoff)
                                  for gt in (1e-3, 0.5, 2.0) for nb in (0.0, 0.5)])]
        for _ in range(20):
            c = int(rng.integers(2, MAX_CUTOFF + 1))
            g1, g2 = rng.uniform(0.05, 1.0, 2)
            nb1, nb2 = rng.uniform(0.0, 2.0, 2)
            t = 10.0 ** rng.uniform(-3.0, math.log10(30.0)) / g1
            stacks.append(t * np.concatenate([fock._mode_blocks(g1, nb1, c),
                                              fock._mode_blocks(g2, nb2, c)]))
        for stack in stacks:
            squared = np.abs(stack).sum(axis=-2).max(axis=-1) > fock._THETA13
            h = fock._expm(0.5 * stack)
            assert np.array_equal(fock._expm(stack)[squared], (h @ h)[squared])
            assert np.max(np.abs(h - expm(0.5 * stack))) < 1e-13
        fixed = np.abs(stacks[0]).sum(axis=-2).max(axis=-1) > fock._THETA13
        assert np.any(fixed) and not np.all(fixed)

    def test_zero_stack_gives_exact_identity(self):
        e = fock._expm(np.zeros((3, 5, 5)))
        assert np.array_equal(e, np.broadcast_to(np.eye(5), (3, 5, 5)))


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
        # antisymmetric part also pins which factor is transposed and which
        # off-diagonal is read; at cutoff 2 the diagonals +-2 cutoff are empty
        for cutoff in (2, 3, 6, 20):
            rho = random_state(rng, cutoff)
            if not symmetric:
                y = rng.normal(size=rho.data.shape) / rho.data.size * same_parity(cutoff)
                rho = FockDensityMatrix(cutoff=cutoff, data=rho.data + y - y.T)
            cm = moments(rho)
            expected = dense_moments(rho.data, cutoff)
            for f in MOMENT_FIELDS:
                assert abs(getattr(cm, f) - expected[f]) < 1e-14, (cutoff, f)

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


class TestAllocation:
    CUTOFF = 20

    def state(self):
        return build_initial_state(GaussianParams.symmetric(0.2, 0.4), self.CUTOFF)

    def test_integrate_peak(self):
        # the output buffer and validate's parity blocks, each half a
        # cutoff^4 array, and the propagators' Pade temporaries, computed
        # anew, since the built state keeps no step: measured 1.50 cutoff^4
        # float64 at cutoff 20, bounded at 2 cutoff^4, a margin of one buffer
        rho, ch = self.state(), ChannelParams(0.25, 0.2, 0.25, 0.1)
        peak = traced_peak(lambda: integrate(rho, ch, 4.0))
        assert peak <= 2 * self.CUTOFF**4 * 8, f"{peak / 1e6:.2f} MB"

    def test_build_peak(self):
        # one work array of two cutoff^4 halves, the grid and the spare
        # between which the four squeezer products alternate and in which
        # the gather keeps its temporaries, and the buffer, half a cutoff^4
        # array: measured 2.67 and 2.60 cutoff^4 float64 at cutoffs 20 and 32,
        # bounded at 2.75 cutoff^4
        for cutoff in (20, 32):
            peak = traced_peak(
                lambda: build_initial_state(GaussianParams.symmetric(0.2, 0.4), cutoff))
            assert peak <= 2.75 * cutoff**4 * 8, f"cutoff {cutoff}: {peak / 8 / cutoff**4:.2f} c^4"

    def test_moments_peak(self):
        # vectors of at most cutoff entries and views of rho; no copy of a
        # block, let alone of rho
        for cutoff in (20, 32):
            rho = build_initial_state(GaussianParams.symmetric(0.2, 0.4), cutoff)
            peak = traced_peak(lambda: moments(rho))
            assert peak <= 128 * cutoff, f"cutoff {cutoff}: {peak / 1e3:.1f} kB"


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

    def test_scipy_never_loads(self, tmp_path):
        src = str(Path(fock.__file__).resolve().parents[1])
        cfg = tmp_path / "evolve.cfg"
        cfg.write_text("[state]\nr = 0.5\n[time]\nt_max = 1\nn_points = 3\n")
        out = tmp_path / "out.csv"
        code = (
            "import io, sys, contextlib, gaussesd\n"
            "from gaussesd import cli\n"
            "print('scipy' in sys.modules)\n"
            f"cli.main(['evolve', '--config', {str(cfg)!r}, '--out', {str(out)!r}])\n"
            "print('scipy' in sys.modules)\n"
            "rho = gaussesd.build_initial_state(gaussesd.GaussianParams.tmsv(0.2), 8)\n"
            "print('scipy' in sys.modules)\n"
            "gaussesd.integrate(rho, gaussesd.ChannelParams.symmetric(0.2), 1.0)\n"
            "print('scipy' in sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['oracle-check'])\n"
            "print(code, 'scipy' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.split() == ["False"] * 4 + ["0", "False"]
        assert out.read_text().startswith("t,")
