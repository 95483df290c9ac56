"""Finite-basis orbital theory for few-fermion Coulomb problems.

A single-center basis of s-type Gaussians gives analytic one- and
two-body Coulomb integrals.  On top of it:

  * relaxed minimization over density matrices 0 <= gamma <= 1 with
    fixed trace: one spectral projected-gradient descent on the convex
    set, started from the aufbau projection of h0,
  * aufbau self-consistent field over orthogonal-projection states,
    seeded from that relaxed minimizer and stopped when the projection
    commutes with its own Fock matrix, ||[F(P), P]|| small,
  * exact diagonalization of the second-quantized Hamiltonian in each
    fermion-number sector, an upper-bound oracle for everything else.

The relaxed and projection minima agree (dropping the idempotency
constraint does not lower the minimum), which the tests verify over
random bases; the exact sector energies sit below both.

Conventions: spinless fermions, kinetic operator -Laplace (no 1/2),
chemists' index order eri[i,j,k,l] = (ij|kl).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations
from math import comb

import numpy as np

from .errors import BasisError, CapacityError, ConvergenceError, ParameterError

__all__ = [
    "OneBodyBasis",
    "DensityMatrixState",
    "FockSpectrum",
    "build_sgauss_basis",
    "hf_energy",
    "fock_matrix",
    "solve_hf_scf",
    "solve_hf_relaxed",
    "exact_diagonalization",
    "spectrum_scan",
    "random_basis",
]

# Largest n-fermion sector exact_diagonalization builds: its dense float64
# Hamiltonian takes 8 SECTOR_CAP^2 bytes, 128 MiB at 4096 states.
SECTOR_CAP = 4096
_RELAXED_MAX_ITER = 600  # projected-gradient steps of solve_hf_relaxed
_RELAXED_TOL = 1e-9      # its stopping aufbau gap, relative to 1 + |E|
_SCAN_TOL = 1e-10        # spectrum_scan's violation threshold, relative
_SCF_MAX_ITER = 300      # aufbau iterations of solve_hf_scf
_SCF_TOL = 1e-11         # its stopping commutator norm, relative to 1 + |tr h0|


@dataclass(frozen=True)
class OneBodyBasis:
    """Orthonormalized one-body space with Coulomb tensors."""

    dim: int
    h0: np.ndarray           # kinetic + nuclear attraction
    eri: np.ndarray          # (ij|kl), 8-fold symmetric
    z: float
    exponents: np.ndarray

    def __post_init__(self):
        for arr in (self.h0, self.eri, self.exponents):
            np.asarray(arr).setflags(write=False)

    @cached_property
    def two_body(self) -> np.ndarray:
        """W[(ij),(kl)] = (ij|kl) - (ik|jl), the (d^2, d^2) Fock kernel.

        Symmetric by the 8-fold symmetry of the ERIs, and made so to the bit
        by averaging with its transpose.  Built on first use, so a hand-built
        basis need not carry a full ERI tensor.
        """
        d = self.dim
        w = (self.eri - np.transpose(self.eri, (0, 2, 1, 3))).reshape(d * d, d * d)
        w = 0.5 * (w + w.T)
        w.setflags(write=False)
        return w


@dataclass(frozen=True)
class DensityMatrixState:
    gamma: np.ndarray
    energy: float
    converged: bool = True
    iterations: int = 0
    stationarity_gap: float = 0.0
    fermi_degenerate: bool = False
    relaxed: DensityMatrixState | None = None  # SCF states: the relaxed seed

    def __post_init__(self):
        np.asarray(self.gamma).setflags(write=False)


@dataclass(frozen=True)
class FockSpectrum:
    energies: np.ndarray  # E_N for N = 0..d
    monotonicity_violations: tuple
    convexity_violations: tuple


def build_sgauss_basis(z: float, exponents) -> OneBodyBasis:
    """s-type Gaussian shells exp(-a r^2) on a single center.

    All integrals are closed forms; the two-body ones reduce to the
    F0 Boys integral at zero argument for concentric shells, where
    F0(0) = 1, so that factor drops out.  The basis is symmetrically
    (Loewdin) orthonormalized; near-linear dependence (overlap condition
    number above 1e10) is rejected, and so are a charge and exponents
    whose one-body integrals overflow.
    """
    if not z > 0:
        raise ParameterError(f"charge must be positive, got {z}")
    a = np.asarray(sorted(float(x) for x in exponents))
    if a.size == 0 or not np.all(a > 0):
        raise ParameterError("need a nonempty list of positive exponents")
    d = a.size

    with np.errstate(over="ignore", invalid="ignore"):
        norms = (2.0 * a / np.pi) ** 0.75
        p = a[:, None] + a[None, :]
        s = (np.pi / p) ** 1.5 * norms[:, None] * norms[None, :]
        t = 6.0 * np.outer(a, a) / p * (np.pi / p) ** 1.5 * norms[:, None] * norms[None, :]
        v = -z * 2.0 * np.pi / p * norms[:, None] * norms[None, :]
    if not np.isfinite([s, t, v]).all():
        raise ParameterError(
            f"one-body integrals of charge {z:g} and exponents {a.tolist()} are not finite"
        )

    cond = np.linalg.cond(s)
    if not np.isfinite(cond) or cond > 1e10:
        raise BasisError(f"overlap condition number {cond:.2e} exceeds 1e10")

    pq = p[:, :, None, None] + p[None, None, :, :]
    eri = 2.0 * np.pi**2.5 / (p[:, :, None, None] * p[None, None, :, :] * np.sqrt(pq))
    eri = (
        eri
        * norms[:, None, None, None]
        * norms[None, :, None, None]
        * norms[None, None, :, None]
        * norms[None, None, None, :]
    )

    evals, evecs = np.linalg.eigh(s)
    x = evecs @ np.diag(evals**-0.5) @ evecs.T  # symmetric orthonormalizer
    h0 = x @ (t + v) @ x
    h0 = 0.5 * (h0 + h0.T)
    eri = np.einsum("pi,qj,rk,sl,pqrs->ijkl", x, x, x, x, eri, optimize=True)
    return OneBodyBasis(dim=d, h0=h0, eri=eri, z=float(z), exponents=a)


def hf_energy(gamma: np.ndarray, basis: OneBodyBasis) -> float:
    """Tr(h0 gamma) + (1/2) sum (ij|kl)[g_ij g_kl - g_ik g_jl]  (real),
    the pair term as (1/2) vec(gamma)^T W vec(gamma) with W = basis.two_body."""
    g = np.asarray(gamma, dtype=float)
    v = g.ravel()
    return float(np.sum(basis.h0 * g) + 0.5 * (v @ (basis.two_body @ v)))


def fock_matrix(gamma: np.ndarray, basis: OneBodyBasis) -> np.ndarray:
    """h0 + J(gamma) - K(gamma) = h0 + W vec(gamma), the energy gradient at gamma."""
    g = np.asarray(gamma, dtype=float)
    f = basis.h0 + (basis.two_body @ g.ravel()).reshape(g.shape)
    return 0.5 * (f + f.T)


def _electron_count(n, dim: int, least: int) -> int:
    """n as an int in least..dim; ParameterError for an n that is not an
    integer (a bool included) or lies outside that range."""
    try:
        k = None if isinstance(n, bool) else operator.index(n)
    except TypeError:
        k = None
    if k is None:
        raise ParameterError(f"the electron count must be an integer, got {n!r}")
    if not least <= k <= dim:
        raise ParameterError(f"need {least} <= n <= dim, got n={k}, dim={dim}")
    return k


def _aufbau(fock: np.ndarray, n: int):
    evals, evecs = np.linalg.eigh(fock)
    c = evecs[:, :n]
    gamma = c @ c.T
    degenerate = bool(n < evals.size and n >= 1 and (evals[n] - evals[n - 1]) < 1e-9)
    return gamma, degenerate


def solve_hf_scf(basis: OneBodyBasis, n: int, seed: int = 0) -> DensityMatrixState:
    """Aufbau SCF over projections, started from the relaxed minimizer.

    The relaxed minimum over 0 <= gamma <= 1 is the projection minimum
    (Lieb's variational principle), so the aufbau projection of the Fock
    matrix at ``solve_hf_relaxed(basis, n)`` lies in the global basin.
    From there P <- aufbau(F(P)), undamped, until the commutator
    ||F(P) P - P F(P)|| falls below _SCF_TOL * (1 + |Tr h0|); after
    _SCF_MAX_ITER iterations it raises ConvergenceError.  The returned
    gamma is that projection, idempotent by construction, and the
    state's ``relaxed`` is the seeding relaxed minimizer.  ``seed`` is
    ignored: the seeding relaxed solve draws no random start.
    """
    d = basis.dim
    n = _electron_count(n, d, 1)
    relaxed = solve_hf_relaxed(basis, n)
    proj, degenerate = _aufbau(fock_matrix(relaxed.gamma, basis), n)
    scale = 1.0 + abs(float(np.trace(basis.h0)))
    for it in range(1, _SCF_MAX_ITER + 1):
        f = fock_matrix(proj, basis)
        if np.linalg.norm(f @ proj - proj @ f) < _SCF_TOL * scale:
            return DensityMatrixState(
                gamma=proj,
                energy=hf_energy(proj, basis),
                converged=True,
                iterations=it,
                fermi_degenerate=degenerate,
                relaxed=relaxed,
            )
        proj, degenerate = _aufbau(f, n)
    raise ConvergenceError(
        f"scf stage: aufbau iteration did not reach self-consistency within "
        f"{_SCF_MAX_ITER} iterations (n={n}, dim={d})",
        iterations=_SCF_MAX_ITER,
    )


def _project_box_trace(sym: np.ndarray, n: float) -> np.ndarray:
    """Euclidean projection onto {0 <= gamma <= 1, Tr gamma = n}.

    Unitarily invariant set: project the eigenvalues onto the permuted
    box-with-sum (water filling with clipping).  The filled trace
    t(theta) = sum clip(lambda_i - theta, 0, 1) is nonincreasing and
    piecewise linear with breakpoints lambda_i and lambda_i - 1, so the
    level theta with t(theta) = n is exact from the sorted breakpoints
    (the capped-simplex projection of Wang & Lu).
    """
    evals, evecs = np.linalg.eigh(sym)
    bps = np.sort(np.concatenate((evals - 1.0, evals)))
    t = np.clip(evals - bps[:, None], 0.0, 1.0).sum(axis=1)
    k = int(np.count_nonzero(t > n))  # t[k-1] > n >= t[k]; t[0] = dim, t[-1] = 0
    theta = bps[0] if k == 0 else (
        bps[k - 1] + (t[k - 1] - n) / (t[k - 1] - t[k]) * (bps[k] - bps[k - 1])
    )
    occ = np.clip(evals - theta, 0.0, 1.0)
    return (evecs * occ) @ evecs.T


def solve_hf_relaxed(
    basis: OneBodyBasis,
    n: int,
    seed: int = 0,
) -> DensityMatrixState:
    """Spectral projected-gradient minimization over {0 <= gamma <= 1, Tr = n}.

    One descent, started from the aufbau projection of h0.  The relaxed
    minimum is the projection minimum (Lieb's variational principle), and
    further starts only land on copies of the same minimum to within the
    stopping tolerance, so none are drawn; ``seed`` is ignored.

    Each step projects once, d = P(gamma - alpha F) - gamma, and backtracks
    along the feasible segment gamma + t d by halving t (Armijo with
    constant 1e-4, plus a 1e-14 (1 + |E|) rounding slack; at most 40
    halvings).  The next alpha is the Barzilai-Borwein step s.s / s.y of
    the accepted step s and the change y of the Fock matrix, clipped to
    [1e-10, 1e10], and 1e10 when s.y <= 0 (Birgin, Martinez & Raydan,
    SIAM J. Optim. 10, 2000); the Fock matrix at the new point is also
    the next gradient, so each step builds one.  The first alpha is
    0.5 / (1 + ||h0||).

    First-order optimality is measured by the aufbau gap
    Tr(F gamma) - sum of the n lowest eigenvalues of F, which is
    nonnegative on the feasible set and zero exactly at a stationary
    point of the relaxed problem.  The descent stops once the gap falls
    below _RELAXED_TOL * (1 + |E|); a failed line search or
    _RELAXED_MAX_ITER steps end it with converged=False.
    """
    d = basis.dim
    n = _electron_count(n, d, 0)
    if n == 0:
        return DensityMatrixState(gamma=np.zeros((d, d)), energy=0.0)
    gamma = _aufbau(basis.h0, n)[0]
    energy = hf_energy(gamma, basis)
    f = fock_matrix(gamma, basis)
    alpha = 0.5 / (1.0 + np.linalg.norm(basis.h0))
    gap = np.inf
    scale = 1.0
    it = 0
    for it in range(1, _RELAXED_MAX_ITER + 1):
        evals = np.linalg.eigvalsh(f)
        gap = float(np.sum(f * gamma) - np.sum(evals[:n]))
        scale = 1.0 + abs(energy)
        if gap < _RELAXED_TOL * scale:
            break
        step = _project_box_trace(gamma - alpha * f, n) - gamma
        slope = float(np.sum(f * step))  # at most -|step|^2 / alpha
        t = 1.0
        for _ in range(40):
            cand = gamma + t * step
            e_cand = hf_energy(cand, basis)
            if e_cand <= energy + 1e-4 * t * slope + 1e-14 * scale:
                break
            t *= 0.5
        else:
            break
        f_cand = fock_matrix(cand, basis)
        s = cand - gamma
        sy = float(np.sum(s * (f_cand - f)))
        alpha = min(max(float(np.sum(s * s)) / sy, 1e-10), 1e10) if sy > 0 else 1e10
        gamma, energy, f = cand, e_cand, f_cand
    return DensityMatrixState(
        gamma=gamma,
        energy=energy,
        converged=bool(gap < _RELAXED_TOL * scale),
        iterations=it,
        stationarity_gap=gap,
    )


@cache
def _excitations(d: int, n: int):
    """The images of one-body hops E_pq = a+_p a_q on the n-fermion sector.

    Determinants are the occupied-orbital tuples of
    itertools.combinations(range(d), n), in that (lexicographic) order.
    Column J lists the K = n (d - n + 1) nonzero images E_pq|J>, q occupied
    and p empty or p = q: ``target[J, k]`` is the index of the image,
    ``sign[J, k]`` its Jordan-Wigner sign (-1)^(occupied orbitals strictly
    between p and q) and ``pair[J, k]`` = p d + q.  An image is ranked by
    the combinatorial number system, rank(c) = D - 1 - sum_i C(d-1-c_i, n-i)
    for sorted c, whose terms never exceed D = C(d, n).  Cached; read-only.
    """
    size = comb(d, n)
    occ = np.array(list(combinations(range(d), n)), dtype=np.intp).reshape(size, n)
    rows = np.arange(size)[:, None]
    filled = np.zeros((size, d), dtype=bool)
    filled[rows, occ] = True
    below = np.cumsum(filled, axis=1) - filled  # occupied orbitals below each one
    empty = np.nonzero(~filled)[1].reshape(size, d - n)
    q = np.repeat(occ, d - n + 1, axis=1)
    p = np.concatenate(
        (np.broadcast_to(empty[:, None, :], (size, n, d - n)), occ[:, :, None]), axis=2
    ).reshape(size, -1)
    parity = below[rows, p] + below[rows, q] - (q < p)
    sign = 1.0 - 2.0 * (parity % 2)
    images = np.repeat(occ[:, None, :], q.shape[1], axis=1)
    images[images == q[:, :, None]] = p.ravel()
    images.sort(axis=2)
    # C(d-1-x, n-i) for orbital x in slot i; entries above D occur in no determinant
    terms = np.array(
        [[min(comb(d - 1 - x, n - i), size) for i in range(n)] for x in range(d)],
        dtype=np.intp,
    )
    target = size - 1 - terms[images, np.arange(n)].sum(axis=2)
    tables = (target, sign, p * d + q)
    for t in tables:
        t.setflags(write=False)
    return tables


def _sector_hamiltonian(basis: OneBodyBasis, n: int) -> np.ndarray:
    """Dense second-quantized Hamiltonian in the n-fermion sector.

    H = sum h_pq a+_p a_q + (1/2) sum <pq|rs> a+_p a+_q a_s a_r with the
    physicists' element <pq|rs> = (pr|qs).  Normal ordering gives
    a+_p a+_q a_s a_r = E_pr E_qs - delta_qr E_ps, so
    H = sum (h_ps - (1/2) sum_q (pq|qs)) E_ps + (1/2) sum (pr|qs) E_pr E_qs,
    read off the excitation table of ``_excitations``: the pair term of
    column J composes the table with itself, J -> K -> I.  Columns go in
    blocks of at most max(D^2/8, 4096) composed hops.  The gathers of a
    block hold about six 8-byte arrays of that length, so they stay below
    the bytes of H from D = 181 states up and below 200 KB under it; the
    whole build peaks at 2.5 times the bytes of H at (d, n) = (10, 5).
    """
    d = basis.dim
    target, sign, pair = _excitations(d, n)
    size, k = target.shape
    eri = basis.eri.reshape(d * d, d * d)
    one = (basis.h0 - 0.5 * np.einsum("pqqs->ps", basis.eri)).ravel()
    h = np.empty((size, size))
    block = max(1, max(size * size // 8, 4096) // max(k * k, 1))
    for start in range(0, size, block):
        cols = slice(start, min(start + block, size))
        width = cols.stop - start
        base = np.arange(width)[:, None] * size
        mid = target[cols]  # K, shape (width, k)
        # row J of h is column J of H: h is H^T until the symmetrization
        h[cols] = (
            np.bincount((base + mid).ravel(), weights=(sign[cols] * one[pair[cols]]).ravel(),
                        minlength=width * size)
            + np.bincount(
                (base[:, :, None] + target[mid]).ravel(),
                weights=(0.5 * eri[pair[mid], pair[cols][:, :, None]]
                         * (sign[cols][:, :, None] * sign[mid])).ravel(),
                minlength=width * size,
            )
        ).reshape(width, size)
    return 0.5 * (h + h.T)


def exact_diagonalization(basis: OneBodyBasis, n: int) -> float:
    """Ground energy of the n-fermion sector; E_0 = 0 by convention."""
    d = basis.dim
    n = _electron_count(n, d, 0)
    if comb(d, n) > SECTOR_CAP:
        raise CapacityError(f"sector dimension C({d},{n}) exceeds {SECTOR_CAP}")
    if n == 0:
        return 0.0
    h = _sector_hamiltonian(basis, n)
    return float(np.linalg.eigvalsh(h)[0])


def spectrum_scan(basis: OneBodyBasis) -> FockSpectrum:
    """E_N for every sector, with monotonicity/convexity flags.

    In a finite basis nothing can escape to infinity, so E_N <= E_{N-1}
    can fail at weak binding; violations are reported, not asserted.
    """
    d = basis.dim
    energies = np.array([exact_diagonalization(basis, n) for n in range(d + 1)])
    scale = 1.0 + float(np.max(np.abs(energies)))
    mono = tuple(
        (n, float(energies[n] - energies[n - 1]))
        for n in range(1, d + 1)
        if energies[n] > energies[n - 1] + _SCAN_TOL * scale
    )
    convex = tuple(
        (n, float(energies[n + 1] + energies[n - 1] - 2.0 * energies[n]))
        for n in range(1, d)
        if energies[n + 1] + energies[n - 1] - 2.0 * energies[n] < -_SCAN_TOL * scale
    )
    return FockSpectrum(
        energies=energies, monotonicity_violations=mono, convexity_violations=convex
    )


def random_basis(rng: np.random.Generator, dim: int) -> OneBodyBasis:
    """Well-conditioned random test basis: jittered geometric exponents."""
    if dim < 1:
        raise ParameterError("dimension must be at least 1")
    z = float(rng.uniform(0.5, 4.0))
    base = 0.08 * 3.1 ** np.arange(dim)
    a = base * np.exp(rng.uniform(-0.25, 0.25, size=dim))
    return build_sgauss_basis(z, a)
