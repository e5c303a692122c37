"""Brute-force verifier in a truncated two-mode Fock basis.

Builds the initial state by applying the squeezing unitaries (matrix
exponentials of the truncated generators) to a truncated thermal state,
propagates it under the thermal-reservoir master equation with the exact
factorized propagator exp(tL1) (x) exp(tL2), and reads the six second
moments back out.  Everything here is independent of the closed forms in
:mod:`gaussesd.channel`, which is the point: agreement of the two routes
certifies both.

All of it is real arithmetic on dense matrices built from one truncated
single-mode ladder a (real, so a' = a^T): the squeezer generators, the mode
generators, the reference right-hand side and the moment read-out.

Truncation error is controlled operationally: the population of the top two
Fock levels of either mode (the "tail") must stay below a tolerance, else
the cutoff is declared insufficient.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np
from scipy.linalg import expm

from .channel import ChannelParams
from .config import MAX_CUTOFF
from .errors import CutoffInsufficient, NonNegligibleImaginaryPart, OracleError, StepTooLarge
from .states import CovarianceMatrix, GaussianParams

__all__ = ["FockDensityMatrix", "build_initial_state", "lindblad_rhs", "mode_generator",
           "mode_propagator", "integrate", "moments", "in_certified_domain", "CERTIFIED_DOMAIN"]

TAIL_TOL = 1e-6

# Parameter box on which the oracle's truncation error at cutoff 20 has been
# verified small enough to arbitrate the closed forms; outside it results are
# advisory.
CERTIFIED_DOMAIN = {
    "r": 0.6,
    "z": 0.4,
    "nu": 0.3,
    "nb": 0.5,
    "gamma_t": 2.0,
    "cutoff": 20,
}


def in_certified_domain(p: GaussianParams, ch: ChannelParams, t: float, cutoff: int) -> bool:
    d = CERTIFIED_DOMAIN
    return (
        0.0 <= p.r <= d["r"]
        and abs(p.z1) <= d["z"]
        and abs(p.z2) <= d["z"]
        and p.nu1 <= d["nu"]
        and p.nu2 <= d["nu"]
        and ch.nb1 <= d["nb"]
        and ch.nb2 <= d["nb"]
        and max(ch.gamma1, ch.gamma2) * t <= d["gamma_t"]
        and cutoff >= d["cutoff"]
    )


@dataclass
class FockDensityMatrix:
    """Two-mode density operator truncated to ``cutoff`` Fock levels per
    mode, stored as a dense real (float64) matrix in the |n1, n2> basis.

    The storage is real because the dynamics keep it real: the ladder
    operators, the squeezer generators with real z and r, the thermal weights
    and the damping generators all have real Fock matrix elements, so a real
    state stays real (Serafini, *Quantum Continuous Variables*, ch. 5).
    Complex ``data`` is accepted only when its imaginary part is exactly
    zero; otherwise NonNegligibleImaginaryPart is raised here, at entry.
    """

    cutoff: int
    data: np.ndarray

    def __post_init__(self):
        if self.cutoff < 2:
            raise ValueError(f"cutoff must be >= 2, got {self.cutoff}")
        data = np.asarray(self.data)
        d = self.cutoff * self.cutoff
        if data.shape != (d, d):
            raise ValueError(f"data must be {d}x{d} for cutoff {self.cutoff}")
        if np.iscomplexobj(data):
            if np.any(data.imag):
                worst = np.max(np.abs(data.imag))
                raise NonNegligibleImaginaryPart(
                    f"density matrix has imaginary parts up to {worst:.3e}")
            data = data.real
        self.data = np.asarray(data, dtype=np.float64)

    def tail_population(self) -> float:
        """Worst-mode population of the top two Fock levels."""
        n = self.cutoff
        diag = np.diagonal(self.data).reshape(n, n)
        return float(max(diag[n - 2 :, :].sum(), diag[:, n - 2 :].sum()))

    def validate(self, tail_tol: float = TAIL_TOL) -> None:
        """Symmetry to 1e-10 (Hermiticity of a real matrix), unit trace to
        1e-8 and eigenvalues >= -1e-8 (else OracleError), tail below
        tail_tol (else CutoffInsufficient)."""
        asym = float(np.max(np.abs(self.data - self.data.T)))
        if asym > 1e-10:
            raise OracleError(f"density matrix not symmetric: max asymmetry {asym:.3e}")
        tr = float(np.trace(self.data))
        if abs(tr - 1.0) > 1e-8:
            raise OracleError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
        min_eig = float(np.linalg.eigvalsh(self.data).min())
        if min_eig < -1e-8:
            raise OracleError(f"density matrix not positive: min eigenvalue {min_eig:.3e}")
        tail = self.tail_population()
        if tail > tail_tol:
            raise CutoffInsufficient(
                f"tail population {tail:.3e} exceeds {tail_tol:.1e} at cutoff {self.cutoff}"
            )


def _ladder(cutoff: int) -> np.ndarray:
    """Truncated single-mode annihilator a; real, so a' = a^T."""
    return np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)


def _regroup(m: np.ndarray, n: int) -> np.ndarray:
    """rho[(n1 n2), (m1 m2)] -> X[(n1 m1), (n2 m2)]; its own inverse."""
    return np.ascontiguousarray(m.reshape(n, n, n, n).transpose(0, 2, 1, 3)).reshape(n * n, n * n)


def _thermal_weights(nu: float, cutoff: int) -> np.ndarray:
    w = (nu / (1.0 + nu)) ** np.arange(cutoff)  # nu = 0: 0.0 ** 0 = 1, the vacuum
    return w / w.sum()


def build_initial_state(
    p: GaussianParams, cutoff: int, tail_tol: float = TAIL_TOL
) -> FockDensityMatrix:
    """Squeezed thermal state S1(z1,z2) S2(r) sigma(nu1,nu2) S2' S1' in the
    truncated basis.

    The squeezers are matrix exponentials (scaling and squaring) of the
    truncated generators z/2 (a'^2 - a^2) and r (a1' a2' - a1 a2); the
    generators are real and antisymmetric, so the truncated squeezers are
    exactly orthogonal and the construction preserves trace and positivity.
    Raises ValueError unless 2 <= cutoff <= MAX_CUTOFF, and
    CutoffInsufficient when the tail population exceeds ``tail_tol``.
    """
    if not 2 <= cutoff <= MAX_CUTOFF:
        raise ValueError(f"cutoff {cutoff} outside the supported range [2, {MAX_CUTOFF}]")
    a = _ladder(cutoff)
    ada = a.T @ a.T - a @ a
    u1 = expm(0.5 * p.z1 * ada)
    u2 = expm(0.5 * p.z2 * ada)
    s2 = expm(p.r * (np.kron(a.T, a.T) - np.kron(a, a)))
    u = np.kron(u1, u2) @ s2

    w = np.kron(_thermal_weights(p.nu1, cutoff), _thermal_weights(p.nu2, cutoff))
    rho = (u * w) @ u.T
    rho = 0.5 * (rho + rho.T)
    state = FockDensityMatrix(cutoff=cutoff, data=rho)
    tail = state.tail_population()
    if tail > tail_tol:
        raise CutoffInsufficient(
            f"initial-state tail population {tail:.3e} exceeds {tail_tol:.1e} "
            f"at cutoff {cutoff}"
        )
    return state


def lindblad_rhs(rho: FockDensityMatrix, ch: ChannelParams) -> np.ndarray:
    """Right-hand side of the master equation,

        sum_i gamma_i (nb_i + 1)(2 a_i rho a_i' - a_i'a_i rho - rho a_i'a_i)
            + gamma_i nb_i (2 a_i' rho a_i - a_i a_i' rho - rho a_i a_i'),

    as a dense matrix of the same shape, formed directly on the two-mode
    matrix (independent of :func:`mode_generator`).  Trace-free and symmetry
    preserving by construction.
    """
    a = _ladder(rho.cutoff)
    eye = np.eye(rho.cutoff)
    m = rho.data
    out = np.zeros_like(m)
    for c, g, nb in ((np.kron(a, eye), ch.gamma1, ch.nb1), (np.kron(eye, a), ch.gamma2, ch.nb2)):
        for op, rate in ((c, g * (nb + 1.0)), (c.T, g * nb)):
            if rate > 0.0:
                cdc = op.T @ op
                out += rate * (2.0 * op @ m @ op.T - cdc @ m - m @ cdc)
    return out


def mode_generator(gamma: float, nb: float, cutoff: int) -> np.ndarray:
    """Single-mode master-equation generator (the gamma, nb terms of
    :func:`lindblad_rhs` for one mode) acting on the row-major vectorized
    single-mode operator, index n * cutoff + m.  Real, cutoff^2 x cutoff^2."""
    a = _ladder(cutoff)
    eye = np.eye(cutoff)

    def dissipator(c: np.ndarray) -> np.ndarray:
        # 2 c rho c' - c'c rho - rho c'c; row-major vec: vec(A rho B) =
        # kron(A, B^T) vec(rho), and the operators are real
        cdc = c.T @ c
        return 2.0 * np.kron(c, c) - np.kron(cdc, eye) - np.kron(eye, cdc)

    gen = gamma * (nb + 1.0) * dissipator(a)
    if nb > 0.0:
        gen += gamma * nb * dissipator(a.T)
    return gen


def _diagonals(cutoff: int) -> tuple[np.ndarray, ...]:
    """Indices n * cutoff + m of each diagonal k = n - m of a mode operator."""
    idx = np.arange(cutoff * cutoff)
    k = idx // cutoff - idx % cutoff
    return tuple(np.flatnonzero(k == j) for j in range(1 - cutoff, cutoff))


def mode_propagator(gamma: float, nb: float, cutoff: int, t: float) -> np.ndarray:
    """exp(t L) for the single-mode generator L of :func:`mode_generator`.

    L conserves k = n - m, so it is block diagonal over the 2 cutoff - 1
    diagonals, each block at most cutoff x cutoff; every block is
    exponentiated by scaling and squaring (Al-Mohy & Higham, SIAM J. Sci.
    Comput. 33, 488 (2011)) and scattered into the dense factor.
    """
    gen = mode_generator(gamma, nb, cutoff)
    out = np.zeros_like(gen)
    for sel in _diagonals(cutoff):
        block = np.ix_(sel, sel)
        out[block] = expm(t * gen[block])
    return out


def integrate(
    rho0: FockDensityMatrix,
    ch: ChannelParams,
    t: float,
    tail_tol: float = TAIL_TOL,
) -> FockDensityMatrix:
    """Exact propagation of the master equation up to t.

    The generator is L1 (x) 1 + 1 (x) L2 with commuting single-mode terms,
    so exp(tL) = exp(tL1) (x) exp(tL2).  The result E(t) rho is accepted
    only if the split E(t/2) E(t/2) rho, from its own matrix exponentials,
    gives every moment to within 1e-6 (StepTooLarge otherwise).  The
    returned state is validated: symmetry, unit trace, positivity and the
    tail bound (CutoffInsufficient if the bath heats the state past the
    cutoff).
    """
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    if t == 0:
        return FockDensityMatrix(cutoff=rho0.cutoff, data=rho0.data.copy())

    n = rho0.cutoff
    modes = ((ch.gamma1, ch.nb1), (ch.gamma2, ch.nb2))
    e1, e2 = (mode_propagator(g, nb, n, t) for g, nb in modes)
    h1, h2 = (mode_propagator(g, nb, n, 0.5 * t) for g, nb in modes)
    # on the regrouped X[(n1 m1), (n2 m2)] the propagator acts as E1 X E2^T
    x = _regroup(rho0.data, n)
    out = FockDensityMatrix(cutoff=n, data=_regroup(e1 @ x @ e2.T, n))
    split = FockDensityMatrix(cutoff=n, data=_regroup(h1 @ (h1 @ x @ h2.T) @ h2.T, n))

    diff = max(abs(u - v) for u, v in zip(astuple(moments(out)), astuple(moments(split))))
    if not diff < 1e-6:
        raise StepTooLarge(
            f"propagating in two halves changes final moments by {diff:.3e} (>= 1e-6)"
        )
    out.validate(tail_tol=tail_tol)
    return out


def moments(rho: FockDensityMatrix) -> CovarianceMatrix:
    """Second moments n_i = <a_i'a_i>, m_i = -<a_i^2>, m_s = -<a1 a2'>,
    m_c = <a1 a2> as traces against the truncated operators.

    tr((A (x) B) rho) = vec(A^T) . X . vec(B^T) on the regrouped
    X[(n1 m1), (n2 m2)], with row-major vec.
    """
    n = rho.cutoff
    a = _ladder(n)
    eye = np.eye(n)
    x = _regroup(rho.data, n)

    def tr(op1: np.ndarray, op2: np.ndarray) -> float:
        return float(op1.T.ravel() @ x @ op2.T.ravel())

    num = a.T @ a
    # CovarianceMatrix clamps occupations that rounding pushed below zero
    return CovarianceMatrix(
        n1=tr(num, eye),
        n2=tr(eye, num),
        m1=-tr(a @ a, eye),
        m2=-tr(eye, a @ a),
        ms=-tr(a, a.T),
        mc=tr(a, a),
    )
