"""Dense references for the Fock oracle's block arithmetic.

The master equation written out on whole matrices, with no blocks and no
matrix exponential: the tests compare :mod:`gaussesd.fock`'s block generators,
propagators and integrated states against these.  The initial state is also
built the direct way, as one Kronecker product and whole-matrix products.
"""

import math

import numpy as np

from gaussesd import ChannelParams, GaussianParams, fock


def ladder(cutoff: int) -> np.ndarray:
    """Truncated single-mode annihilator a; real, so a' = a^T."""
    return np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)


def lindblad_rhs(m: np.ndarray, ch: ChannelParams) -> np.ndarray:
    """Right-hand side of the master equation,

        sum_i gamma_i (nb_i + 1)(2 a_i rho a_i' - a_i'a_i rho - rho a_i'a_i)
            + gamma_i nb_i (2 a_i' rho a_i - a_i a_i' rho - rho a_i a_i'),

    for the dense two-mode matrix m, of any entries, at the cutoff its shape
    gives, as a matrix of the same shape, formed directly on it (independent
    of :func:`mode_generator`).  Trace-free and symmetry preserving by
    construction.
    """
    cutoff = math.isqrt(len(m))
    a = ladder(cutoff)
    eye = np.eye(cutoff)
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
    a = ladder(cutoff)
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


def kron_initial_state(p: GaussianParams, cutoff: int) -> np.ndarray:
    """The initial state's matrix as U sigma U' with U = (u1 (x) u2) S2 formed
    whole: np.kron of the single-mode squeezers, S2 applied by its n1 - n2
    blocks on U's columns, then one cutoff^2-sized matrix product.  The
    exponentials are :func:`gaussesd.fock._expm`'s; only the products differ
    from :func:`gaussesd.fock.build_initial_state`."""
    a = ladder(cutoff)
    ada = a.T @ a.T - a @ a
    u1, u2 = fock._expm(np.stack([0.5 * p.z1 * ada, 0.5 * p.z2 * ada]))
    u = np.kron(u1, u2)
    s2 = fock._expm(fock._tridiagonal(cutoff, lambda n, m: 0.0, -p.r, p.r))
    index = np.arange(cutoff * cutoff).reshape(cutoff, cutoff)
    for k in range(1 - cutoff, cutoff):  # the (n1, n2) with n1 - n2 = k; block -k is block k
        sel = np.diagonal(index, -k)
        u[:, sel] = u[:, sel] @ s2[abs(k), : len(sel), : len(sel)]
    w = np.kron(fock._thermal_weights(p.nu1, cutoff), fock._thermal_weights(p.nu2, cutoff))
    rho = (u * w) @ u.T
    return 0.5 * (rho + rho.T)
