"""Brute-force verifier in a truncated two-mode Fock basis.

Builds the initial state by applying the squeezing unitaries (matrix
exponentials of the truncated generators) to a truncated thermal state,
propagates it under the thermal-reservoir master equation with the exact
factorized propagator exp(tL1) (x) exp(tL2), and reads the six second
moments back out.  Everything here is independent of the closed forms in
:mod:`gaussesd.channel`, which is the point: agreement of the two routes
certifies both.

Truncation error is controlled operationally: the population of the top two
Fock levels of either mode (the "tail") must stay below a tolerance, else
the cutoff is declared insufficient.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm

from .channel import ChannelParams
from .errors import (
    CutoffInsufficient,
    NonNegligibleImaginaryPart,
    StepTooLarge,
)
from .states import CovarianceMatrix, GaussianParams

__all__ = [
    "FockDensityMatrix",
    "build_initial_state",
    "lindblad_rhs",
    "mode_generator",
    "mode_propagator",
    "integrate",
    "moments",
    "in_certified_domain",
    "CERTIFIED_DOMAIN",
]

MAX_CUTOFF = 32
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
    mode, stored as a dense complex matrix in the |n1, n2> basis."""

    cutoff: int
    data: np.ndarray

    def __post_init__(self):
        if self.cutoff < 2:
            raise ValueError(f"cutoff must be >= 2, got {self.cutoff}")
        d = self.cutoff * self.cutoff
        if self.data.shape != (d, d):
            raise ValueError(f"data must be {d}x{d} for cutoff {self.cutoff}")
        self.data = np.asarray(self.data, dtype=np.complex128)

    def tail_population(self) -> float:
        """Worst-mode population of the top two Fock levels."""
        n = self.cutoff
        diag = np.real(np.diagonal(self.data)).reshape(n, n)
        return float(max(diag[n - 2 :, :].sum(), diag[:, n - 2 :].sum()))

    def validate(self, tail_tol: float = TAIL_TOL) -> None:
        """Hermiticity to 1e-10, unit trace to 1e-8, eigenvalues >= -1e-8,
        tail below tail_tol (else CutoffInsufficient)."""
        herm = float(np.max(np.abs(self.data - self.data.conj().T)))
        if herm > 1e-10:
            raise ValueError(f"density matrix not Hermitian: max asymmetry {herm:.3e}")
        tr = complex(np.trace(self.data))
        if abs(tr - 1.0) > 1e-8:
            raise ValueError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
        min_eig = float(np.linalg.eigvalsh(self.data).min())
        if min_eig < -1e-8:
            raise ValueError(f"density matrix not positive: min eigenvalue {min_eig:.3e}")
        tail = self.tail_population()
        if tail > tail_tol:
            raise CutoffInsufficient(
                f"tail population {tail:.3e} exceeds {tail_tol:.1e} at cutoff {self.cutoff}"
            )


@lru_cache(maxsize=8)
def _operators(cutoff: int):
    """Sparse mode operators and the six moment operators for a cutoff."""
    a = sp.diags(np.sqrt(np.arange(1, cutoff)), 1, format="csr")
    eye = sp.identity(cutoff, format="csr")
    a1 = sp.kron(a, eye, format="csr")
    a2 = sp.kron(eye, a, format="csr")
    ad1 = a1.T.tocsr()  # real matrices: transpose == dagger
    ad2 = a2.T.tocsr()
    return {
        "a1": a1,
        "a2": a2,
        "ad1": ad1,
        "ad2": ad2,
        "n1": (ad1 @ a1).tocsr(),
        "n2": (ad2 @ a2).tocsr(),
        "aad1": (a1 @ ad1).tocsr(),
        "aad2": (a2 @ ad2).tocsr(),
        "a1a1": (a1 @ a1).tocsr(),
        "a2a2": (a2 @ a2).tocsr(),
        "a1ad2": (a1 @ ad2).tocsr(),
        "a1a2": (a1 @ a2).tocsr(),
    }


def _thermal_weights(nu: float, cutoff: int) -> np.ndarray:
    if nu <= 0.0:
        w = np.zeros(cutoff)
        w[0] = 1.0
        return w
    w = (nu / (1.0 + nu)) ** np.arange(cutoff)
    return w / w.sum()


def build_initial_state(
    p: GaussianParams, cutoff: int, tail_tol: float = TAIL_TOL
) -> FockDensityMatrix:
    """Squeezed thermal state S1(z1,z2) S2(r) sigma(nu1,nu2) S2' S1' in the
    truncated basis.

    The squeezers are matrix exponentials (scaling and squaring) of the
    truncated generators z/2 (a'^2 - a^2) and r (a1' a2' - a1 a2); the
    generators are anti-Hermitian, so the truncated squeezers are exactly
    unitary and the construction preserves trace and positivity.  Raises
    CutoffInsufficient when the tail population exceeds ``tail_tol``.
    """
    if cutoff > MAX_CUTOFF:
        raise ValueError(f"cutoff {cutoff} exceeds supported maximum {MAX_CUTOFF}")
    ops = _operators(cutoff)
    a = sp.diags(np.sqrt(np.arange(1, cutoff)), 1, format="csr")
    ada = (a.T @ a.T - a @ a).toarray()
    u1 = expm(0.5 * p.z1 * ada)
    u2 = expm(0.5 * p.z2 * ada)
    s2 = expm((p.r * (ops["ad1"] @ ops["ad2"] - ops["a1"] @ ops["a2"])).toarray())
    u = np.kron(u1, u2) @ s2

    w = np.kron(_thermal_weights(p.nu1, cutoff), _thermal_weights(p.nu2, cutoff))
    rho = (u * w) @ u.conj().T
    rho = 0.5 * (rho + rho.conj().T)
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

    as a dense matrix of the same shape.  Trace-free and Hermiticity
    preserving by construction.
    """
    ops = _operators(rho.cutoff)
    m = rho.data
    out = np.zeros_like(m)
    for i, (g, nb) in ((1, (ch.gamma1, ch.nb1)), (2, (ch.gamma2, ch.nb2))):
        a = ops[f"a{i}"]
        ad = ops[f"ad{i}"]
        n_op = ops[f"n{i}"]
        aad = ops[f"aad{i}"]
        # right products X @ B computed as (B^T @ X^T)^T with real sparse B
        arho = a @ m
        out += g * (nb + 1.0) * (2.0 * (a @ arho.T).T - n_op @ m - (n_op @ m.T).T)
        if nb > 0.0:
            adrho = ad @ m
            out += g * nb * (2.0 * (ad @ adrho.T).T - aad @ m - (aad @ m.T).T)
    return out


def mode_generator(gamma: float, nb: float, cutoff: int) -> np.ndarray:
    """Single-mode master-equation generator (the gamma, nb terms of
    :func:`lindblad_rhs` for one mode) acting on the row-major vectorized
    single-mode operator, index n * cutoff + m.  Real, cutoff^2 x cutoff^2."""
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
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


@lru_cache(maxsize=8)
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


def _apply(e1: np.ndarray, e2: np.ndarray, data: np.ndarray, n: int) -> np.ndarray:
    """exp(tL1) (x) exp(tL2) applied to a two-mode density matrix.

    rho[(n1 n2), (m1 m2)] is regrouped as X[(n1 m1), (n2 m2)], on which the
    propagator acts as E1 X E2^T.  The real factors multiply the real view
    of the complex data, so both products are real matmuls.
    """
    d = n * n
    x = np.ascontiguousarray(data.reshape(n, n, n, n).transpose(0, 2, 1, 3)).reshape(d, d)
    e1x = (e1 @ x.view(np.float64)).view(np.complex128)
    y_t = (e2 @ np.ascontiguousarray(e1x.T).view(np.float64)).view(np.complex128)
    return y_t.T.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(d, d)


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
    returned state is validated: Hermiticity, unit trace, positivity and the
    tail bound (CutoffInsufficient if the bath heats the state past the
    cutoff).
    """
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    if t == 0:
        return FockDensityMatrix(cutoff=rho0.cutoff, data=rho0.data.copy())

    n = rho0.cutoff
    modes = ((ch.gamma1, ch.nb1), (ch.gamma2, ch.nb2))
    full = [mode_propagator(g, nb, n, t) for g, nb in modes]
    half = [mode_propagator(g, nb, n, 0.5 * t) for g, nb in modes]
    out = FockDensityMatrix(cutoff=n, data=_apply(*full, rho0.data, n))
    split = FockDensityMatrix(cutoff=n, data=_apply(*half, _apply(*half, rho0.data, n), n))

    m_out = moments(out)
    m_split = moments(split)
    diff = max(
        abs(getattr(m_out, f) - getattr(m_split, f)) for f in ("n1", "n2", "m1", "m2", "ms", "mc")
    )
    if not diff < 1e-6:
        raise StepTooLarge(
            f"propagating in two halves changes final moments by {diff:.3e} (>= 1e-6)"
        )
    out.validate(tail_tol=tail_tol)
    return out


def moments(rho: FockDensityMatrix) -> CovarianceMatrix:
    """Second moments n_i = <a_i'a_i>, m_i = -<a_i^2>, m_s = -<a1 a2'>,
    m_c = <a1 a2> as traces against the truncated operators.

    Imaginary parts above 1e-6 raise NonNegligibleImaginaryPart; between
    1e-8 and 1e-6 they are discarded with a warning.
    """
    ops = _operators(rho.cutoff)
    m = rho.data

    def tr(op) -> complex:
        # tr(A rho) via elementwise product, avoiding a full matmul
        return complex(op.multiply(m.T).sum())

    raw = {
        "n1": tr(ops["n1"]),
        "n2": tr(ops["n2"]),
        "m1": -tr(ops["a1a1"]),
        "m2": -tr(ops["a2a2"]),
        "ms": -tr(ops["a1ad2"]),
        "mc": tr(ops["a1a2"]),
    }
    worst = max(abs(v.imag) for v in raw.values())
    if worst > 1e-6:
        raise NonNegligibleImaginaryPart(f"moment imaginary part {worst:.3e} exceeds 1e-6")
    if worst > 1e-8:
        warnings.warn(f"discarding moment imaginary parts up to {worst:.3e}", stacklevel=2)
    # occupations may round to -1e-16; clamp only genuinely tiny negatives
    n1 = max(raw["n1"].real, 0.0) if raw["n1"].real > -1e-6 else raw["n1"].real
    n2 = max(raw["n2"].real, 0.0) if raw["n2"].real > -1e-6 else raw["n2"].real
    return CovarianceMatrix(
        n1=n1, n2=n2, m1=raw["m1"].real, m2=raw["m2"].real, ms=raw["ms"].real, mc=raw["mc"].real
    )
