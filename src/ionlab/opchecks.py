"""Discrete certificates for one-body operator inequalities.

Each check builds the relevant symmetric matrix from the reduced radial
operators, reports an extremal eigenvalue, and grades it against the
inequality's bound at the caller's tolerance.  Matrices are
``radial.Tridiagonal`` records; the pentadiagonal double commutator is
held by rows.  Before any eigen-solve a check refuses, with DomainError,
a grid with fewer than 10 points per unit of log r (log step >
MAX_LOG_STEP = 0.1): coarser grids have discrete minima that are grid
artifacts (Hardy reads -28489 on make_log_grid(1e-6, 1e4, 12)), while
lowest modes held at the walls appear only at 7.2 points or fewer.

The double-commutator check is special: on a graded (log) mesh the raw
matrix [A,[A,r^3]] carries large positive spurious modes, sub-grid
checkerboards near r_min and wall layers near r_max, so the inequality
is certified on a Galerkin dictionary of smooth compactly supported
bumps in log r instead (see check_double_commutator_cube).  It also
refuses a dictionary whose roughest unit vector has a second difference
of norm above MAX_BUMP_ROUGHNESS = 2: a wave sampled at k points per
wavelength has second difference 4 sin^2(pi/k) times its norm, so 2 is
4 points per wavelength, below which the checkerboards couple in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, ParameterError
from .radial import RadialGrid, Tridiagonal, extremal_eigs, reduced_laplacian

__all__ = [
    "InequalityReport",
    "check_hardy",
    "check_lieb_symmetrization",
    "check_ims_x2",
    "check_double_commutator_cube",
    "symmetrized_product",
    "commutator_with_diagonal",
    "double_commutator_matrix",
    "bump_dictionary",
]

MAX_LOG_STEP = 0.1        # at least 10 grid points per unit of log r
MAX_BUMP_ROUGHNESS = 2.0  # at least 4 grid points per wavelength

BUMP_HALF_WIDTHS = (1.0, 2.0, 4.0)  # in log r
BUMP_PER_WIDTH = 40
BUMP_WALL_CLEARANCE_NODES = 10

# Sharp lower bound of the |x|^2 check: the Hardy constant 1/4 minus |grad|x||^2 = 1.
IMS_BOUND = 0.25 - 1.0


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one operator-inequality check on a grid it resolves.

    ``side`` is "lower" when the claim is extremal_eigenvalue >= bound and
    "upper" when it is <= bound.  ``passed`` applies ``tolerance``, the
    caller's, on the claimed side and nothing else; ``details`` reports
    what a check measured beside its eigenvalue, ungraded.
    """

    name: str
    extremal_eigenvalue: float
    tolerance: float
    passed: bool
    grid_descriptor: str
    bound: float = 0.0
    side: str = "lower"
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "extremal_eigenvalue": self.extremal_eigenvalue,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "grid": self.grid_descriptor,
            "bound": self.bound,
            "side": self.side,
        }
        d.update(self.details)
        return d


def _admit(grid: RadialGrid, tol: float) -> float:
    """The tolerance as a float: ParameterError if negative, DomainError
    if the grid is coarser than MAX_LOG_STEP."""
    if not tol >= 0:
        raise ParameterError(f"tolerance must be nonnegative, got {tol}")
    if grid.log_step > MAX_LOG_STEP:
        raise DomainError(f"grid {grid.descriptor()} has fewer than 10 points per unit of log r")
    return float(tol)


def _report(name, value, grid, tol, bound=0.0, side="lower", details=None):
    """Grade value >= bound - tol on side "lower", value <= bound + tol on
    side "upper": the one rule of all four checks."""
    ok = value >= bound - tol if side == "lower" else value <= bound + tol
    return InequalityReport(
        name=name,
        extremal_eigenvalue=value,
        tolerance=tol,
        passed=bool(ok),
        grid_descriptor=grid.descriptor(),
        bound=bound,
        side=side,
        details=details or {},
    )


def _smallest(matrix) -> float:
    return float(extremal_eigs(matrix, k=1)[0][0])


def symmetrized_product(a: Tridiagonal, g: np.ndarray) -> Tridiagonal:
    """A G + G A for diagonal G = diag(g): entries A_ij g_j + g_i A_ij."""
    ag = a.diag * g
    return Tridiagonal(ag + ag, a.off * g[1:] + a.off * g[:-1])


def check_hardy(grid: RadialGrid, tol: float) -> InequalityReport:
    """-Laplace >= 1/(4 |x|^2): smallest eigenvalue of A - 1/(4 r^2)."""
    tol = _admit(grid, tol)
    a = reduced_laplacian(grid)
    return _report("hardy", _smallest(Tridiagonal(a.diag - 0.25 / grid.r**2, a.off)), grid, tol)


def check_lieb_symmetrization(grid: RadialGrid, tol: float) -> InequalityReport:
    """(-Laplace)|x| + |x|(-Laplace) >= 0 via the symmetrized product."""
    tol = _admit(grid, tol)
    s_op = symmetrized_product(reduced_laplacian(grid), grid.r)
    return _report("lieb_symmetrization", _smallest(s_op), grid, tol)


def check_ims_x2(grid: RadialGrid, tol: float, bound: float = IMS_BOUND) -> InequalityReport:
    """Smallest eigenvalue of S = (r^2 A + A r^2)/2, graded against ``bound``.

    The identity S = R A R - I is reported, not graded, as
    ``details["identity_rel_deviation"]``, |S - (R A R - I)|_F / |A|_F.  On a
    log grid S - (R A R - I) is tridiag(-1/2, 1, -1/2) exactly, so the
    deviation is sqrt(1.5 n - 0.5) / |A|_F, a property of the grid alone.

    The default bound is the sharp -3/4.  With the kinetic operator
    -Laplace (no 1/2), S = |x|(-Laplace)|x| - |grad|x||^2 = R A R - I,
    and Hardy's inequality |x|(-Laplace)|x| >= 1/4 is sharp, so
    inf S = 1/4 - 1.  For radial f put g = |x| f, r = e^s and
    g = e^(-s/2) h(s): then <f, S f>/||f||^2 = (int h'^2 + 1/4 int h^2)
    / int h^2 - 1.  On a log box of length L with Dirichlet ends its
    minimum is 1/4 + (pi/L)^2 - 1; on the grid L = ln(r_max/r_min) + 2h
    (ghost cells, h the log step) and the discrete eigenvalue agrees
    with it to O(h^2), from above.  The bound -3/8 holds only for the
    kinetic operator -Laplace/2, and fails here once L > pi/sqrt(3/8).
    """
    tol = _admit(grid, tol)
    a = reduced_laplacian(grid)
    r = grid.r
    s_op = symmetrized_product(a, 0.5 * r**2)
    dev = Tridiagonal(s_op.diag - (r * a.diag * r - 1.0),  # S - (R A R - I)
                      s_op.off - r[:-1] * a.off * r[1:])
    frob2 = [t.diag @ t.diag + 2.0 * (t.off @ t.off) for t in (dev, a)]
    rel_dev = np.sqrt(frob2[0] / frob2[1])
    return _report(
        "ims_x2", _smallest(s_op), grid, tol, bound=bound,
        details={"identity_rel_deviation": float(rel_dev)},
    )


def commutator_with_diagonal(a: Tridiagonal, g: np.ndarray) -> np.ndarray:
    """[A, G] for diagonal G = diag(g), entrywise C_ij = A_ij (g_j - g_i):
    antisymmetric, so the superdiagonal alone is returned.

    The entrywise form avoids the catastrophic cancellation of forming
    A G - G A from products whose entries dwarf the commutator.
    """
    return a.off * (g[1:] - g[:-1])


def double_commutator_matrix(grid: RadialGrid) -> np.ndarray:
    """[Laplace, [Laplace, r^3]] restricted to the radial sector, by rows:
    ``m[i, s]`` is M_(i, i-2+s), zero outside the matrix.

    M = A C - C A with A the reduced -Laplace and C = [A, r^3]; the double
    commutator is even in the sign of A.  Each entry is written out as
    the difference of the two products' entries, exactly symmetric.
    """
    a = reduced_laplacian(grid)
    c = commutator_with_diagonal(a, grid.r ** 3.0)
    m = np.zeros((grid.n, 5))
    m[2:, 0] = m[:-2, 4] = c[1:] * a.off[:-1] - a.off[1:] * c[:-1]
    m[1:, 1] = m[:-1, 3] = c * a.diag[:-1] - c * a.diag[1:]
    m[:, 2] = -2.0 * np.diff(np.pad(a.off * c, 1))
    return m


def _band_product(m: np.ndarray, q: np.ndarray) -> np.ndarray:
    """M q for M by rows, rows 0, 1, n-2 and n-1 left zero: exact when q, like
    the bumps (zero within BUMP_WALL_CLEARANCE_NODES), is zero near each wall."""
    mq = np.zeros_like(q)
    np.einsum("ns,nks->nk", m[2:-2], sliding_window_view(q, 5, axis=0), out=mq[2:-2])
    return mq


def _smooth_bump(t: np.ndarray) -> np.ndarray:
    """exp(1 - 1/(1-t^2)) inside |t| < 1, exactly zero outside."""
    out = np.zeros_like(t)
    m = np.abs(t) < 1.0
    out[m] = np.exp(1.0 - 1.0 / (1.0 - t[m] ** 2))
    return out


def _bump_matrix(grid: RadialGrid) -> np.ndarray:
    """The raw bumps of ``bump_dictionary``, one column each.

    Each bump is evaluated on its support |log r - c| < half only, found by
    bisection and widened by one node on each side against rounding; every
    node outside it is the exact zero the whole-grid evaluation gives.
    """
    x = np.log(grid.r)
    s = np.sqrt(4.0 * np.pi * grid.mass)
    lo, hi = x[0], x[-1]
    clear = BUMP_WALL_CLEARANCE_NODES * grid.log_step
    bumps = []
    for half in BUMP_HALF_WIDTHS:
        cmin = lo + clear + half
        cmax = hi - clear - half
        if cmin < cmax:
            bumps += [(c, half) for c in np.linspace(cmin, cmax, BUMP_PER_WIDTH)]
    if not bumps:
        raise DomainError(f"no bump of the dictionary fits on grid {grid.descriptor()}")
    rows = np.zeros((len(bumps), x.size))
    for row, (c, half) in zip(rows, bumps):
        i = max(int(np.searchsorted(x, c - half)) - 1, 0)
        j = int(np.searchsorted(x, c + half)) + 1
        row[i:j] = s[i:j] * _smooth_bump((x[i:j] - c) / half)
    return rows.T


def bump_dictionary(grid: RadialGrid) -> np.ndarray:
    """Orthonormal basis of smooth compactly supported bumps in log r.

    BUMP_PER_WIDTH bumps of each of the BUMP_HALF_WIDTHS.  Columns live
    in the weighted (psi) representation and vanish identically within
    BUMP_WALL_CLEARANCE_NODES of both ends, so wall layers cannot couple
    in.

    The bumps are orthonormalized through their small Gram matrix
    B^T B = V diag(lam) V^T (SVQB; Stathopoulos & Wu, SIAM J. Sci.
    Comput. 23, 2002): Q = B V lam^(-1/2) spans the same space as the
    thin SVD of B, from level-3 products and a 120x120 eigen-solve.
    Near-dependent combinations are pruned by the singular-value rule
    sigma > 1e-6 sigma_max, which on the Gram is lam > 1e-12 lam_max.
    The pass runs twice.  Forming the Gram squares the condition number,
    and kept columns reach sigma/sigma_max = 1.1e-6, so one pass leaves
    max|Q^T Q - I| at 6e-7 to 1.5e-6 on make_log_grid(1e-4, 100, n),
    n = 500 to 8000.  The second pass starts from that near-identity Gram,
    prunes nothing, and leaves at most 3.3e-15.
    """
    b = _bump_matrix(grid)
    lam, v = np.linalg.eigh(b.T @ b)
    keep = lam > 1e-12 * lam[-1]
    q = b @ (v[:, keep] / np.sqrt(lam[keep]))
    lam, v = np.linalg.eigh(q.T @ q)
    return q @ (v / np.sqrt(lam))


def check_double_commutator_cube(grid: RadialGrid, tol: float) -> InequalityReport:
    """[Laplace, [Laplace, |x|^3]] <= 0, certified on resolved functions.

    The matrix is exact, but its raw extremal eigenvalue on a log grid is
    dominated by sub-grid checkerboard modes near r_min (growing like
    n^2) and by wall layers near r_max where the r^3 weight amplifies the
    Dirichlet truncation.  Neither represents the continuum operator, so
    the largest eigenvalue is taken over the Galerkin restriction to the
    smooth interior bump dictionary, on which the discrete quadratic form
    matches the continuum one to discretization accuracy.  A dictionary
    that the grid does not resolve is refused: DomainError when some
    unit vector of its span has a second difference of norm above
    MAX_BUMP_ROUGHNESS.
    """
    tol = _admit(grid, tol)
    q = bump_dictionary(grid)
    d = np.diff(q, 2, axis=0)
    # spectral norm of d from its small Gram matrix, several times cheaper than an SVD
    roughness = float(np.sqrt(np.linalg.eigvalsh(d.T @ d)[-1]))
    # before M q: at n = 8000 this check sets the peak RSS of a
    # certificates pass, 94.5 MB with the del and 101.7 MB without it
    del d
    if roughness > MAX_BUMP_ROUGHNESS:
        raise DomainError(f"bump dictionary on grid {grid.descriptor()} has roughness "
                          f"{roughness:.3g}: fewer than 4 points per wavelength")
    mred = q.T @ _band_product(double_commutator_matrix(grid), q)
    vals = np.linalg.eigvalsh(0.5 * (mred + mred.T))
    return _report(
        "double_commutator_r3", float(vals[-1]), grid, tol, side="upper",
        details={"dictionary_size": int(q.shape[1])},
    )
