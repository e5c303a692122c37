"""Brute-force verifier in a truncated two-mode Fock basis.

Builds the initial state by applying the squeezing unitaries (matrix
exponentials of the truncated generators) to a truncated thermal state,
propagates it under the thermal-reservoir master equation with the exact
factorized propagator exp(tL1) (x) exp(tL2), and reads the six second
moments back out.  Everything here is independent of the closed forms in
:mod:`gaussesd.channel`, which is the point: agreement of the two routes
certifies both.

All of it is real arithmetic from one truncated ladder a (a' = a^T) on exact
blocks: damping conserves k = n - m per mode, the two-mode squeezer n1 - n2,
and both keep the parity of n1 + n2.  Block -k equals block k, so a block
stack holds k >= 0 only.  The tests hold the dense references: the master
equation and the initial state written out on whole matrices.  Matrix
exponentials are numpy matmuls and solves, so the oracle runs on numpy's BLAS
alone.

A state is held in block form: rho regrouped as X[(n1 m1), (n2 m2)], each
mode's pairs (n, m) in order of the diagonal k = n - m, split into the half
with k1 and k2 both even and the half with both odd, as views into one flat
buffer; the blocks with k1 + k2 odd are exactly 0 and are not held.  Each
half is cutoff^2 / 2 square, half the width of the dense matrix.  The
initial state is formed in the regrouped order, the single-mode squeezers
applied one index at a time with no Kronecker product, and its halves are
taken once; a step propagates each half from one buffer into a new one,
and nothing goes through the dense matrix, which is scattered only when a
caller reads it.  Each
moment is read from the one (k1, k2) block that its observable reaches, a
slice of its half with no copy, and the trace and the tail from block
(0, 0), rho's diagonal.  The checks gather rho's two parity blocks of
n1 + n2 from the buffer once, through an index that depends on the cutoff
alone and is kept, read-only, for the last cutoff.  A state made by a step
remembers it: the channel, the step length and its read-only propagators
(256 kB at cutoff 20, 1 MB at MAX_CUTOFF).  A chain that repeats a step
length, as gamma t = 0.5, 1, 2 does, skips that step's exponential, and a
step twice as long takes it as its half step, with a fresh step's bits.

Every step's input must be finite, and every propagated state, a zero
step's too, is checked.  The same step taken as two half steps must give
the same moments; those are read in the Heisenberg picture,
tr(A H H rho) = tr((H' H' A) rho), by propagating the moment observables
backward instead of the state, by the same read-out as the full step's
moments.  One exponential gives both steps: E(t/2) is that of t L / 2 and
E(t) is its square, so E(t/2)^2 equals E(t) bit for bit and the gate checks
the block arithmetic (block matmuls on the halves, backward-propagated
observables).  The tests tie the Pade step to scipy's expm and, by the
short-time derivative, to the dense master equation.  The state must be
symmetric with unit trace and positive, which a Cholesky factorisation
tests; eigenvalues are computed only to report a failure.

Truncation error is controlled operationally: the population of the top two
Fock levels of either mode (the "tail") must stay below a tolerance, else
the cutoff is declared insufficient.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .channel import ChannelParams
from .config import MAX_CUTOFF
from .errors import CutoffInsufficient, DomainError, NonNegligibleImaginaryPart, OracleError, StepTooLarge
from .states import CovarianceMatrix, GaussianParams, _require_finite

__all__ = ["FockDensityMatrix", "build_initial_state", "integrate", "moments", "chain",
           "in_certified_domain", "CERTIFIED_DOMAIN"]

TAIL_TOL = 1e-6

# Parameter box in which an oracle run at cutoff 20 or more is taken to
# arbitrate the closed forms; outside it results are advisory.  Only part of
# it has been measured: criterion 8 of the acceptance tests checks the
# symmetric nu = 0 grid (z, r and nb on three points each up to these bounds,
# gamma t = 0.5, 1, 2), with the tail gate relaxed to 1e-3, to a worst moment
# deviation of 1.3e-4.  Elsewhere in the box the oracle is known to fail
# (ROADMAP item 11): the strict tail gate rejects the initial state of 150 of
# 400 uniform draws of (z1, z2, r, nu1, nu2), and an asymmetric state with
# unequal channels deviates by 1.83e-3, above the 1e-3 that the checks allow.
CERTIFIED_DOMAIN = {"r": 0.6, "z": 0.4, "nu": 0.3, "nb": 0.5, "gamma_t": 2.0, "cutoff": 20}


def in_certified_domain(p: GaussianParams, ch: ChannelParams, t: float, cutoff: int) -> bool:
    """Whether (p, ch, t, cutoff) lies in the box of CERTIFIED_DOMAIN: 0 <= r
    <= 0.6, |z_i| <= 0.4, nu_i <= 0.3, nb_i <= 0.5, max(gamma_i) t <= 2 and
    cutoff >= 20.  A parameter box only: it does not test the oracle's own
    gates or deviations, and parts of the box fail them (see CERTIFIED_DOMAIN)."""
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


class FockDensityMatrix:
    """Two-mode density operator truncated to ``cutoff`` Fock levels per
    mode, held in block form: the real (float64) entries of rho regrouped as
    X[(n1 m1), (n2 m2)], in the two parity halves of :func:`_layout`, as views
    into one flat buffer.  The entries between the parity blocks of n1 + n2
    are not held; the dynamics keep them 0.

    The storage is real because the dynamics keep it real: the ladder
    operators, the squeezer generators with real z and r, the thermal weights
    and the damping generators all have real Fock matrix elements, so a real
    state stays real (Serafini, *Quantum Continuous Variables*, ch. 5).
    ``FockDensityMatrix(cutoff=..., data=...)`` takes the dense matrix in the
    |n1, n2> basis and keeps its block form alone.  Complex ``data`` is
    accepted only when its imaginary part is exactly zero, else
    NonNegligibleImaginaryPart is raised here, at entry; any ``data`` only
    when its entries between the parity blocks are exactly 0 (NaN and inf
    are nonzero), else OracleError is.
    """

    def __init__(self, cutoff: int, data):
        if cutoff < 2:
            raise DomainError(f"cutoff must be >= 2, got {cutoff}")
        data = np.asarray(data)
        d = cutoff * cutoff
        if data.shape != (d, d):
            raise DomainError(f"data must be {d}x{d} for cutoff {cutoff}")
        if np.iscomplexobj(data):
            if np.any(data.imag):
                worst = np.max(np.abs(data.imag))
                raise NonNegligibleImaginaryPart(
                    f"density matrix has imaginary parts up to {worst:.3e}")
            data = data.real
        _, _, (even, odd), index, _ = _layout(cutoff)
        rows_even, rows_odd = data.take(even, 0), data.take(odd, 0)
        if np.any(rows_even.take(odd, 1)) or np.any(rows_odd.take(even, 1)):
            raise OracleError("density matrix has nonzero entries between the parity blocks "
                              "of n1 + n2")
        # the parity blocks, even then odd, row-major, each entry to its place
        buf = np.empty(index.size)
        buf[index] = np.concatenate([rows_even.take(even, 1), rows_odd.take(odd, 1)], axis=None)
        buf.flags.writeable = False
        self.cutoff, self._buf, self._data, self._step = cutoff, buf, None, None

    @classmethod
    def _from_buffer(cls, cutoff: int, buf: np.ndarray, step=None) -> FockDensityMatrix:
        """The state whose block form is ``buf``, which it takes read-only,
        made by ``step`` (:func:`_step_propagators`), or by none."""
        state = cls.__new__(cls)
        buf.flags.writeable = False
        state.cutoff, state._buf, state._data, state._step = cutoff, buf, None, step
        return state

    @property
    def data(self) -> np.ndarray:
        """The dense matrix rho[(n1 n2), (m1 m2)], read-only, scattered from
        the block form at the first read."""
        if self._data is None:
            self._data = _scatter(self.cutoff, self._buf)
            self._data.flags.writeable = False
        return self._data

    def _diagonal(self) -> np.ndarray:
        """The diagonal of rho as a (cutoff, cutoff) array over (n1, n2): a
        copy of block (0, 0) of the even half."""
        n = self.cutoff
        a = _layout(n)[0][n]
        return _halves(self._buf, n)[0][a : a + n, a : a + n].copy()

    def tail_population(self) -> float:
        """Worst-mode population of the top two Fock levels."""
        n = self.cutoff
        diag = self._diagonal()
        return float(max(diag[n - 2 :, :].sum(), diag[:, n - 2 :].sum()))

    def validate(self, tail_tol: float = TAIL_TOL) -> None:
        """Symmetry to 1e-10 (Hermiticity of a real matrix), unit trace to
        1e-8 and eigenvalues >= -1e-8 (else OracleError), tail below
        tail_tol (else CutoffInsufficient).

        The symmetry and positivity gates work on the two parity blocks of
        n1 + n2, gathered from the buffer in one take through the index of
        :func:`_layout`.  d - d^T is exactly 0 on the entries between them,
        which are 0, so the blocks give the whole matrix's asymmetry.  A block
        passes the positivity gate when its Cholesky factorisation with 1e-8
        added to the diagonal (in place, on the copy) succeeds, that is when
        it is definite (Higham, *Accuracy and Stability of Numerical
        Algorithms*, 2nd ed., ch. 10).  Only when one fails are the
        eigenvalues of the unshifted blocks computed; the smallest must then
        be below -1e-8 to raise, and the message names it.  The trace and the
        tail are read from block (0, 0), rho's diagonal."""
        n = self.cutoff
        blocks = _halves(self._buf[_layout(n)[3]], n)
        # b - b^T is exactly antisymmetric in floating point, so its maximum
        # is its largest modulus; each gate is written so that NaN fails it,
        # and the reduction over blocks is numpy's, which keeps a NaN
        asym = float(np.max([np.max(b - b.T) for b in blocks]))
        if not asym <= 1e-10:
            raise OracleError(f"density matrix not symmetric: max asymmetry {asym:.3e}")
        tr = float(self._diagonal().sum())
        if not abs(tr - 1.0) <= 1e-8:
            raise OracleError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
        diags = [b.diagonal().copy() for b in blocks]
        try:
            for b, diag in zip(blocks, diags):
                np.fill_diagonal(b, diag + 1e-8)
                np.linalg.cholesky(b)
        except np.linalg.LinAlgError:
            for b, diag in zip(blocks, diags):
                np.fill_diagonal(b, diag)
            min_eig = float(min(np.linalg.eigvalsh(b).min() for b in blocks))
            if min_eig < -1e-8:
                raise OracleError(
                    f"density matrix not positive: min eigenvalue {min_eig:.3e}") from None
        tail = self.tail_population()
        if not tail <= tail_tol:
            raise CutoffInsufficient(
                f"tail population {tail:.3e} exceeds {tail_tol:.1e} at cutoff {self.cutoff}"
            )


def _ladder(cutoff: int) -> np.ndarray:
    """Truncated single-mode annihilator a; real, so a' = a^T."""
    return np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)


def _tridiagonal(cutoff: int, diag, up: float, down: float) -> np.ndarray:
    """Zero-padded blocks j >= 0 of a generator conserving j = n - m, position p
    at (p + j, p): diag(n, m) on it, up * s above, down * s below, s = sqrt((n+1)(m+1))."""
    p = np.arange(cutoff)
    n = np.add.outer(p, p)  # over (j, p); m = p
    s = np.where(n + 1 < cutoff, np.sqrt((n + 1) * (p + 1)), 0.0)[:, :-1]
    gen = np.zeros((cutoff,) * 3)
    gen[:, p, p] = np.where(n < cutoff, diag(n, p), 0.0)
    gen[:, p[:-1], p[1:]] = up * s
    gen[:, p[1:], p[:-1]] = down * s
    return gen


# degree-13 Pade coefficients b_0..b_13 and the 1-norm theta_13 up to which
# the approximant's backward error stays below the double unit roundoff
# (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)); divided by b_0 so
# that V = I and U = 0 for a zero matrix, whose exponential is then exactly I
_PADE13 = np.array([64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
                    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
                    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0,
                    1.0]) / 64764752532480000.0
_THETA13 = 5.371920351148152


def _exponents(stack: np.ndarray) -> np.ndarray:
    """The scaling exponent s of each matrix of a (k, n, n) stack, the least
    with 1-norm / 2^s < theta_13 (at most 0 for a norm below theta_13)."""
    return np.frexp(np.abs(stack).sum(axis=-2).max(axis=-1) / _THETA13)[1]


def _expm(stack: np.ndarray) -> np.ndarray:
    """exp of each matrix of a (k, n, n) stack by degree-13 Pade with scaling
    and squaring (Higham 2005): each matrix is scaled by 2^-s to 1-norm at
    most theta_13, the whole stack goes through one Pade step of matmuls and
    one solve, and each result is squared s times."""
    s = np.maximum(_exponents(stack), 0)
    a = np.ldexp(stack, -s[:, None, None])
    b = _PADE13
    eye = np.eye(stack.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    e = np.linalg.solve(v - u, v + u)
    for i in range(s.max()):
        sq = s > i
        e[sq] = e[sq] @ e[sq]
    return e


def _thermal_weights(nu: float, cutoff: int) -> np.ndarray:
    w = (nu / (1.0 + nu)) ** np.arange(cutoff)  # nu = 0: 0.0 ** 0 = 1, the vacuum
    return w / w.sum()


def build_initial_state(p: GaussianParams, cutoff: int,
                        tail_tol: float = TAIL_TOL) -> FockDensityMatrix:
    """Squeezed thermal state S1(z1,z2) S2(r) sigma(nu1,nu2) S2' S1' in the
    truncated basis.

    The squeezers are matrix exponentials (scaling and squaring) of the
    truncated generators z/2 (a'^2 - a^2) and r (a1' a2' - a1 a2), all three
    from one :func:`_expm` call; the generators are real and antisymmetric,
    so the truncated squeezers are exactly orthogonal and the construction
    preserves trace and positivity.  The two-mode squeezer conserves n1 - n2
    and is exponentiated by those blocks, and so is M = S2 sigma S2' formed,
    by one batched product, and placed into a grid in the regrouped order
    X[(n1 m1), (n2 m2)] (:func:`_grid_index`).  S1 = u1 (x) u2 then applies
    one factor per index, as four cutoff x cutoff by cutoff x cutoff^3
    products, and each half of the block form is taken from the grid on its
    pairs and symmetrized by the pair swap (n, m) -> (m, n); the entries
    between the halves are exactly 0, since every factor keeps the parity.
    The largest temporary is one work array of two cutoff^4 float64 halves,
    the grid and a spare between which the products alternate and in which
    the takes keep theirs (traced peak 2.67 cutoff^4 float64 at cutoff 20).
    Raises DomainError unless 2 <= cutoff <= MAX_CUTOFF, and
    CutoffInsufficient when the tail population exceeds ``tail_tol``.
    """
    if not 2 <= cutoff <= MAX_CUTOFF:
        raise DomainError(f"cutoff {cutoff} outside the supported range [2, {MAX_CUTOFF}]")
    n = cutoff
    a = _ladder(n)
    ada = a.T @ a.T - a @ a
    e = _expm(np.concatenate([[0.5 * p.z1 * ada, 0.5 * p.z2 * ada],
                              _tridiagonal(n, lambda n, m: 0.0, -p.r, p.r)]))
    l1, l2, inside, at = _grid_index(n)
    b = e[2 + np.abs(np.arange(1 - n, n))]  # block -k of S2 is block k
    w = _thermal_weights(p.nu1, n)[l1] * _thermal_weights(p.nu2, n)[l2]
    grid, spare = np.empty((2, n**4))  # the products alternate between the two
    grid.fill(0.0)
    grid[at] = ((b * w[:, None, :]) @ b.transpose(0, 2, 1))[inside]
    x, y = grid.reshape(n, -1), spare.reshape(n, -1)
    for u in (e[0], e[0], e[1], e[1]):  # u on the leading index, which then moves last
        np.matmul(x.T, u.T, out=y.reshape(-1, n))
        x, y = y, x
    x = grid.reshape(n * n, n * n)  # after an even number of products
    buf = np.empty((n**4 + 1) // 2)
    for half, (pairs, swaps) in zip(_halves(buf, n), _layout(n)[4]):
        # the half's rows of the grid, then its columns, and the half by the
        # pair swap (n, m) -> (m, n), rho's transpose; every temporary in the
        # spare, every take unbuffered ("clip")
        m = len(pairs)
        rows = np.take(x, pairs, 0, out=spare[: m * n * n].reshape(m, -1), mode="clip")
        np.take(rows, pairs, 1, out=half, mode="clip")
        swapped = np.take(half, swaps, 0, out=spare[: m * m].reshape(m, m), mode="clip")
        half += np.take(swapped, swaps, 1, out=spare[m * m : 2 * m * m].reshape(m, m), mode="clip")
    buf *= 0.5
    state = FockDensityMatrix._from_buffer(cutoff, buf)
    tail = state.tail_population()
    if not tail <= tail_tol:
        raise CutoffInsufficient(
            f"initial-state tail population {tail:.3e} exceeds {tail_tol:.1e} "
            f"at cutoff {cutoff}"
        )
    return state


def _mode_blocks(gamma: float, nb: float, cutoff: int) -> np.ndarray:
    """Blocks k >= 0 of the single-mode generator L = gamma (nb + 1) D[a] +
    gamma nb D[a'], D[c] rho = 2 c rho c' - c'c rho - rho c'c, on the
    row-major vectorized operator, index n * cutoff + m: 2 a rho a' above the
    diagonal, 2 a' rho a below, number terms on it (the truncated a a' ends
    in 0)."""
    def diag(n: np.ndarray, m: np.ndarray) -> np.ndarray:
        aad = np.where(n < cutoff - 1, n + 1.0, 0.0) + np.where(m < cutoff - 1, m + 1.0, 0.0)
        return gamma * (nb + 1.0) * -(n + m) + gamma * nb * -aad
    return _tridiagonal(cutoff, diag, 2.0 * gamma * (nb + 1.0), 2.0 * gamma * nb)


def _apply(f1: np.ndarray, f2: np.ndarray, y: np.ndarray, out: np.ndarray,
           spans) -> np.ndarray:
    """out <- F1 y F2^T, for y and out one half of a state in block form with
    the (|k|, lo, hi) ``spans`` of its diagonals (:func:`_layout`), and F1,
    F2 one mode's block stacks of :func:`_step_propagators`: one small
    matmul per diagonal on its rows, from y into out, then on its columns,
    in place.  Returns out."""
    for k, lo, hi in spans:
        np.matmul(f1[k, : hi - lo, : hi - lo], y[lo:hi], out=out[lo:hi])
    for k, lo, hi in spans:
        out[:, lo:hi] = out[:, lo:hi] @ f2[k, : hi - lo, : hi - lo].T
    return out


def _moments(buf: np.ndarray, cutoff: int, *steps: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The six moments, in CovarianceMatrix order, of the state that the
    steps (F1, F2) make of the state in block form ``buf``, each F1 X F2^T in
    turn on rho regrouped as X[(n1 m1), (n2 m2)], for F1, F2 one mode's block
    stacks of :func:`_step_propagators`; of that state itself with no steps.

    Each moment is sign tr((A (x) B) rho) = sign u^T X v with u = vec(A^T),
    v = vec(B^T), row-major.  A and B have entries on one diagonal k1 = n1 -
    m1 and k2 = n2 - m2 only, so u and v live on block (k1, k2) of X alone,
    which E1 (x) E2 conserves: the observables go backward through the steps
    instead of the state forward, u <- F1^T u and v <- F2^T v on that block,
    and the block is read as a slice of its half, with no copy.  Every
    moment's block has k1 + k2 even.  Each side has four observables, a'a, 1,
    a^2 and a on diagonals 0, 0, 2 and 1, and a's diagonal -1 shares block
    1's propagator, so each is propagated once for the moments that read it.
    The pair (n, m) sits at position min(n, m) along its diagonal.
    """
    lo = _layout(cutoff)[0]
    halves = _halves(buf, cutoff)
    s = np.sqrt(np.arange(1.0, cutoff))  # a[p, p + 1]
    ks = (0, 0, 2, 1)
    us = [np.arange(cutoff, dtype=np.float64), np.ones(cutoff), s[:-1] * s[1:], s]
    vs = list(us)
    for f1, f2 in reversed(steps):
        for i, k in enumerate(ks):
            if us[i].size:  # cutoff 2 has no block 2, nor entry 2
                us[i] = f1[k, : us[i].size, : us[i].size].T @ us[i]
                vs[i] = f2[k, : vs[i].size, : vs[i].size].T @ vs[i]
    # (observable of mode 1, its diagonal k1, of mode 2, k2, sign) per moment
    ops = ((0, 0, 1, 0, 1.0), (1, 0, 0, 0, 1.0), (2, 2, 1, 0, -1.0),
           (1, 0, 2, 2, -1.0), (3, 1, 3, -1, -1.0), (3, 1, 3, 1, 1.0))
    out = np.empty(len(ops))
    for j, (i1, k1, i2, k2, sign) in enumerate(ops):
        u, v, a, b = us[i1], vs[i2], lo[k1 + cutoff], lo[k2 + cutoff]
        out[j] = sign * (u @ (halves[k1 % 2][a : a + u.size, b : b + v.size] @ v))
    return out


def _step_propagators(ch: ChannelParams, cutoff: int, t: float, kept):
    """The step (ch, t, E(t), E(t/2)) for both modes' blocks of t L
    (:func:`_mode_blocks` at gamma t / 2, formed first so that a rate near
    the float maximum meets t before nb + 1), given ``kept``, the step that
    made the input state at ``cutoff``, or None.  Each E is a (2 cutoff,
    cutoff, cutoff) block stack, mode 1's entries then mode 2's: entry k
    holds exp(t L_k), k = n - m >= 0, in its leading cutoff - k rows and
    columns; block -k is read from entry k.

    E(t/2) is :func:`_expm` of a = t L / 2 and E(t) is its square, one
    batched product; both are read-only (256 kB at cutoff 20, 1 MB at
    MAX_CUTOFF).  The same (ch, t) as ``kept`` returns ``kept``.  A step
    twice the kept one, as the chains gamma t = 0.5, 1, 2 take (Delta t,
    Delta t, 2 Delta t), takes its E as E(t/2) on the blocks that _expm
    scales by 2^-s with s >= 1, where halving the kept length is exact: a / 2,
    whose exponential the kept E squares, has exponent s - 1 and the same
    Pade input 2^-s a (barring overflow and subnormal entries), so exp(a) is
    exp(a / 2)^2 bit for bit (Higham 2005).  A subnormal kept length, as a
    rate near 1e308 gives, can round when halved.  The other blocks, and
    every other step, are exponentiated anew.  Every result has a fresh
    step's bits."""
    if kept is not None and kept[:2] == (ch, t):
        return kept
    a = np.concatenate([_mode_blocks(ch.gamma1 * (0.5 * t), ch.nb1, cutoff),
                        _mode_blocks(ch.gamma2 * (0.5 * t), ch.nb2, cutoff)])
    if kept is not None and kept[:2] == (ch, 0.5 * t) and 0.5 * kept[1] * 2.0 == kept[1]:
        h = kept[2].copy()
        fresh = _exponents(a) < 1
        if fresh.any():
            h[fresh] = _expm(a[fresh])
    else:
        h = _expm(a)
    e = h @ h
    e.flags.writeable = h.flags.writeable = False
    return ch, t, e, h


@functools.lru_cache(maxsize=1)
def _layout(cutoff: int):
    """The block form of a state at ``cutoff``: (lo, spans, rows, index,
    pairs).

    Along either mode, block order lists the pairs (n, m) by diagonal k = n -
    m ascending, at position min(n, m) along it.  Half q of X holds the
    rows and columns on diagonals k = q (mod 2); the blocks with k1 + k2 odd
    are exactly 0 and are not held.  lo[k + cutoff] is where diagonal k
    starts along its half, for |k| <= cutoff (empty at |k| = cutoff, so that
    block 2 exists at cutoff 2); spans[q] lists (|k|, lo, hi) of each
    diagonal along half q; rows are the flat indices n1 * cutoff + n2 with
    n1 + n2 even, then odd; and index is the position in the buffer
    (:func:`_halves`) of each entry of rho's even, then odd, parity block,
    row-major, a permutation of the buffer; pairs[q] lists, for each
    position along half q, its pair n * cutoff + m and the position of the
    pair (m, n).  Kept for the last cutoff only and read-only (the index
    640 kB at cutoff 20, 4 MB at MAX_CUTOFF), which serves a chain of steps
    at one cutoff."""
    n = cutoff
    size = np.maximum(n - np.abs(np.arange(-n, n + 1)), 0)
    lo = np.zeros_like(size)
    for q in (0, 1):
        lo[q::2] = np.cumsum(size[q::2]) - size[q::2]
    spans = ([], [])
    for k in range(1 - n, n):
        spans[k % 2].append((abs(k), lo[k + n], lo[k + n] + size[k + n]))
    p = np.arange(n)
    k = p[:, None] - p
    along = lo[k + n] + np.minimum(p[:, None], p)  # of the pair (n, m) in its half
    rows = (np.flatnonzero((p[:, None] + p) % 2 == 0), np.flatnonzero((p[:, None] + p) % 2))
    e, o = rows[0].size, rows[1].size
    pairs = np.empty(n * n, dtype=np.intp)
    pairs[np.where(k % 2, e + along, along).ravel()] = np.arange(n * n)
    swaps = along.T.ravel()[pairs]  # where the pair (m, n) sits, for each (n, m)
    pairs = ((pairs[:e], swaps[:e]), (pairs[e:], swaps[e:]))
    start = np.where(k % 2, e * e + along * o, along * e)  # of the row of mode 1's (n, m)
    index = np.empty(e * e + o * o, dtype=np.intp)
    for r, block in zip(rows, _halves(index, n)):
        # an entry's mode-1 pair picks its half and row, mode 2's its column
        n1, n2 = np.divmod(r, n)
        np.take(start[n1], n1, axis=1, out=block, mode="clip")  # unbuffered
        block += along[n2][:, n2]
    for a in (lo, *rows, index, *pairs[0], *pairs[1]):
        a.flags.writeable = False
    return lo, tuple(map(tuple, spans)), rows, index, pairs


@functools.lru_cache(maxsize=1)
def _grid_index(cutoff: int):
    """Where :func:`build_initial_state` puts M = S2 sigma S2', kept for the
    last cutoff only and read-only: block k of M lies on the diagonal n1 - n2
    = m1 - m2 = k, at mode 1's levels l1[k + cutoff - 1, p] and mode 2's
    l2[k + cutoff - 1, p] along it (clipped past its end); at is the grid
    position of each entry of the blocks that inside marks, in their order."""
    n = cutoff
    k = np.arange(1 - n, n)[:, None]
    p = np.arange(n)
    l1 = np.minimum(p + np.maximum(k, 0), n - 1)
    l2 = np.minimum(p + np.maximum(-k, 0), n - 1)
    inside = p < n - np.abs(k)
    inside = inside[:, :, None] & inside[:, None, :]
    at = ((l1[:, :, None] * n + l1[:, None, :]) * n + l2[:, :, None]) * n + l2[:, None, :]
    at = at[inside]
    for a in (l1, l2, inside, at):
        a.flags.writeable = False
    return l1, l2, inside, at


def _halves(buf: np.ndarray, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """The even and the odd half of a state's buffer, as square views; of
    the buffer's take through :func:`_layout`'s index, rho's parity blocks."""
    e, o = (cutoff * cutoff + 1) // 2, cutoff * cutoff // 2
    return buf[: e * e].reshape(e, e), buf[e * e :].reshape(o, o)


def _scatter(cutoff: int, buf: np.ndarray) -> np.ndarray:
    """The dense matrix rho[(n1 n2), (m1 m2)] of the state in block form
    ``buf``, 0 between its parity blocks."""
    _, _, rows, index, _ = _layout(cutoff)
    d = np.zeros((cutoff * cutoff,) * 2)
    for r, b in zip(rows, _halves(buf[index], cutoff)):
        d[np.ix_(r, r)] = b
    return d


def integrate(rho0: FockDensityMatrix, ch: ChannelParams, t: float,
              tail_tol: float = TAIL_TOL) -> FockDensityMatrix:
    """Exact propagation of the master equation up to t.

    The generator is L1 (x) 1 + 1 (x) L2 with commuting single-mode terms,
    so exp(tL) = exp(tL1) (x) exp(tL2), which acts as E1 X E2^T on rho
    regrouped as X[(n1 m1), (n2 m2)].  E1 and E2 conserve the diagonals k1
    and k2 of X, hence the halves of its block form (:func:`_layout`): the
    2 cutoff - 1 block matmuls per side split between the halves, each on
    its own diagonals, from the input's buffer into a new one, and the
    result stays in block form; no step scatters it back to the dense
    matrix.  The returned state remembers its step, and a step from it
    reads that step's propagators (:func:`_step_propagators`): a chain whose
    steps repeat a length, as :func:`chain` over gamma t = 0.5, 1, 2 does,
    computes them once for both, and takes them as the half step of its
    third step, twice as long, with a fresh step's bits.  The step is
    accepted only if the split E(t/2) E(t/2) gives every moment to within
    1e-6 (StepTooLarge otherwise).  :func:`_moments` reads the split moments
    from the input, propagating the backward observables through the half
    steps instead of the state forward, and the full-step ones from the
    output, the numbers that :func:`moments` reports.  E(t) is E(t/2)
    squared, so E(t/2) E(t/2) is E(t) bit for bit and the gate checks the
    block arithmetic.  The input must be finite, which one sum over its
    buffer tests (OracleError otherwise).
    The returned state is validated: symmetry, unit trace, positivity (a
    Cholesky test) and the tail bound (CutoffInsufficient if the bath heats
    the state past the cutoff).  A zero step takes the same path; its blocks
    are exactly I.
    """
    t = _require_finite("time", t)
    if t < 0:
        raise DomainError(f"time must be >= 0, got {t}")
    # NaN and inf propagate through the sum; finite entries overflow it only
    # far beyond a density matrix's range
    total = float(np.sum(rho0._buf))
    if not math.isfinite(total):
        raise OracleError(f"input state is not finite: its entries sum to {total}")
    n = rho0.cutoff
    step = _step_propagators(ch, n, t, rho0._step)
    _, _, e, h = step
    half = h[:n], h[n:]
    split = _moments(rho0._buf, n, half, half)
    buf = np.empty_like(rho0._buf)
    for y, out, spans in zip(_halves(rho0._buf, n), _halves(buf, n), _layout(n)[1]):
        _apply(e[:n], e[n:], y, out, spans)
    out = FockDensityMatrix._from_buffer(n, buf, step)

    diff = float(np.max(np.abs(_moments(buf, n) - split)))
    if not diff < 1e-6:
        raise StepTooLarge(
            f"propagating in two halves changes final moments by {diff:.3e} (>= 1e-6)"
        )
    out.validate(tail_tol=tail_tol)
    return out


def moments(rho: FockDensityMatrix) -> CovarianceMatrix:
    """Second moments n_i = <a_i'a_i>, m_i = -<a_i^2>, m_s = -<a1 a2'>,
    m_c = <a1 a2> as traces against the truncated operators, each read from
    its one block of rho by :func:`_moments`.
    """
    # CovarianceMatrix clamps occupations that rounding pushed below zero
    return CovarianceMatrix(*_moments(rho._buf, rho.cutoff).tolist())


def chain(p: GaussianParams, ch: ChannelParams, times, cutoff: int,
          tail_tol: float = TAIL_TOL) -> list[tuple[float, CovarianceMatrix, float]]:
    """Build the initial state once and propagate it through ``times`` in
    turn (each :func:`integrate` runs over t - t_prev, from 0), returning
    (t, moments, tail population) at each time."""
    rho = build_initial_state(p, cutoff, tail_tol=tail_tol)
    out = []
    t_prev = 0.0
    for t in times:
        rho = integrate(rho, ch, t - t_prev, tail_tol=tail_tol)
        t_prev = t
        out.append((t, moments(rho), rho.tail_population()))
    return out
