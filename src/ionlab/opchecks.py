"""Discrete certificates for one-body operator inequalities.

Each check builds the relevant symmetric matrix from the reduced radial
operators, reports an extremal eigenvalue, and grades it against the
inequality's bound at the caller's tolerance.  The three lower checks
grade twice: by the smallest eigenvalue, and by whether T - (bound - tol) I
is positive definite (one LDL^T factorization), and raise
ConvergenceError if the verdicts differ.  Matrices are
``radial.Tridiagonal`` records; the double commutator enters only through
its two tridiagonal factors.  Before any eigen-solve a check refuses,
with DomainError, a grid with fewer than 10 points per unit of log r
(log step > MAX_LOG_STEP = 0.1): coarser grids have discrete minima that
are grid artifacts (Hardy reads -28489 on make_log_grid(1e-6, 1e4, 12)),
while lowest modes held at the walls appear only at 7.2 points or fewer.
The three lower checks also refuse a matrix with a non-finite entry or an
off-diagonal whose square overflows: LAPACK's bisection and LDL^T pivots
square the off-diagonal, and in a scan of r_min the bisection failed on
exactly these matrices (Hardy's from r_min near 1e-76, Lieb's and IMS's
near 1e-152, at n = 4000).

The double-commutator check is special: on a graded (log) mesh the raw
matrix [A,[A,r^3]] carries large positive spurious modes, sub-grid
checkerboards near r_min and wall layers near r_max, so the inequality
is certified on a Galerkin dictionary of smooth compactly supported
bumps in log r instead, from three 120x120 Gram matrices of the raw
bumps summed over row tiles (see _bump_grams), so that no n x 120 array
is formed.  It also refuses a dictionary whose roughest unit vector has
a second difference of norm above MAX_BUMP_ROUGHNESS = 2: a wave sampled
at k points per wavelength has second difference 4 sin^2(pi/k) times
its norm, so 2 is 4 points per wavelength, below which the
checkerboards couple in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError, ParameterError
from .radial import RadialGrid, Tridiagonal, extremal_eigs, reduced_laplacian, spectrum_above

__all__ = [
    "InequalityReport",
    "check_hardy",
    "check_lieb_symmetrization",
    "check_ims_x2",
    "check_double_commutator_cube",
    "symmetrized_product",
    "commutator_with_diagonal",
]

MAX_LOG_STEP = 0.1        # at least 10 grid points per unit of log r
MAX_BUMP_ROUGHNESS = 2.0  # at least 4 grid points per wavelength

BUMP_HALF_WIDTHS = (1.0, 2.0, 4.0)  # in log r
BUMP_PER_WIDTH = 40
BUMP_WALL_CLEARANCE_NODES = 10
GRAM_TILE_WIDTH = 1.5  # in log r: the row tiles the Gram matrices are summed over

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


def _graded_lower(name, t, grid, tol, bound=0.0, details=None):
    """Grade the smallest eigenvalue of t against bound - tol, and again by
    whether t - (bound - tol) I is positive definite, which holds exactly
    when the check passes: ConvergenceError naming both verdicts if the
    two disagree, and naming the check and the grid if the eigenvalue
    bisection fails.  DomainError, naming both, refuses before either a t
    with a non-finite entry or an off-diagonal whose square overflows."""
    with np.errstate(over="ignore"):
        in_range = np.isfinite(t.diag).all() and np.isfinite(np.square(t.off)).all()
    if not in_range:
        raise DomainError(
            f"{name} on grid {grid.descriptor()}: the matrix has an entry or a squared "
            f"off-diagonal entry past the float range, which LAPACK cannot bisect or factor")
    try:
        value = float(extremal_eigs(t, k=1)[0])
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"{name} on grid {grid.descriptor()}: the smallest eigenvalue was not found "
            f"({exc})") from exc
    rep = _report(name, value, grid, tol, bound=bound, details=details)
    definite = spectrum_above(t, bound - tol)
    if definite != rep.passed:
        raise ConvergenceError(
            f"{name} on grid {grid.descriptor()}: the eigenvalue "
            f"{rep.extremal_eigenvalue!r} {'passes' if rep.passed else 'fails'} the bound "
            f"{bound - tol!r}, but the factorization finds the shifted matrix "
            f"{'positive definite' if definite else 'not positive definite'}")
    return rep


def symmetrized_product(a: Tridiagonal, g: np.ndarray) -> Tridiagonal:
    """A G + G A for diagonal G = diag(g): entries A_ij g_j + g_i A_ij."""
    ag = a.diag * g
    return Tridiagonal(ag + ag, a.off * g[1:] + a.off * g[:-1])


def check_hardy(grid: RadialGrid, tol: float) -> InequalityReport:
    """-Laplace >= 1/(4 |x|^2): smallest eigenvalue of A - 1/(4 r^2)."""
    tol = _admit(grid, tol)
    a = reduced_laplacian(grid)
    return _graded_lower("hardy", Tridiagonal(a.diag - 0.25 / grid.r**2, a.off), grid, tol)


def check_lieb_symmetrization(grid: RadialGrid, tol: float) -> InequalityReport:
    """(-Laplace)|x| + |x|(-Laplace) >= 0 via the symmetrized product."""
    tol = _admit(grid, tol)
    s_op = symmetrized_product(reduced_laplacian(grid), grid.r)
    return _graded_lower("lieb_symmetrization", s_op, grid, tol)


def check_ims_x2(grid: RadialGrid, tol: float, bound: float = IMS_BOUND) -> InequalityReport:
    """Smallest eigenvalue of S = (r^2 A + A r^2)/2, graded against ``bound``.

    The identity S = R A R - I is reported, not graded, as
    ``details["identity_rel_deviation"]``, |S - (R A R - I)|_F / |A|_F.  On a
    log grid S - (R A R - I) is tridiag(-1/2, 1, -1/2) exactly, so the
    deviation is sqrt(1.5 n - 0.5) / |A|_F, a property of the grid alone.
    Each Frobenius sum is taken over entries scaled by a power of two near
    the largest, which is exact, so no square overflows near r_min = 1e-100
    and the ratio is the unscaled one wherever that is finite.

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
    scaled = []
    for t in (dev, a):
        e = int(np.frexp(max(np.abs(t.diag).max(), np.abs(t.off).max(initial=0.0)))[1])
        d, o = np.ldexp(t.diag, -e), np.ldexp(t.off, -e)
        scaled.append((d @ d + 2.0 * (o @ o), e))
    (f_dev, e_dev), (f_a, e_a) = scaled
    rel_dev = np.ldexp(np.sqrt(f_dev / f_a), e_dev - e_a)
    return _graded_lower(
        "ims_x2", s_op, grid, tol, bound=bound,
        details={"identity_rel_deviation": float(rel_dev)},
    )


def commutator_with_diagonal(a: Tridiagonal, g: np.ndarray) -> np.ndarray:
    """[A, G] for diagonal G = diag(g), entrywise C_ij = A_ij (g_j - g_i):
    antisymmetric, so the superdiagonal alone is returned.

    The entrywise form avoids the catastrophic cancellation of forming
    A G - G A from products whose entries dwarf the commutator.
    """
    return a.off * (g[1:] - g[:-1])


def _smooth_bump(t: np.ndarray) -> np.ndarray:
    """exp(1 - 1/(1-t^2)) inside |t| < 1, exactly zero outside.

    Written without a gather: 1 - t^2 is clipped at 0, where -1/0 = -inf
    and exp(1 - inf) = 0; inside, each entry takes the arithmetic of the
    formula, and |t| < 1 exactly when t^2 < 1.
    """
    u = t * t
    np.subtract(1.0, u, out=u)
    np.maximum(u, 0.0, out=u)
    with np.errstate(divide="ignore"):
        np.divide(-1.0, u, out=u)
    u += 1.0
    return np.exp(u, out=u)


def _bumps(grid: RadialGrid) -> np.ndarray:
    """The dictionary's bumps, one (centre, half-width) row each, in log r.

    BUMP_PER_WIDTH bumps of each of the BUMP_HALF_WIDTHS that fits,
    centred so that each vanishes identically within
    BUMP_WALL_CLEARANCE_NODES of both ends, where wall layers would couple
    in.  DomainError when none fits.
    """
    lo, hi = np.log(grid.r[[0, -1]])
    clear = BUMP_WALL_CLEARANCE_NODES * grid.log_step
    bumps = [(c, half)
             for half in BUMP_HALF_WIDTHS if lo + clear + half < hi - clear - half
             for c in np.linspace(lo + clear + half, hi - clear - half, BUMP_PER_WIDTH)]
    if not bumps:
        raise DomainError(f"no bump of the dictionary fits on grid {grid.descriptor()}")
    return np.array(bumps)


def _bump_matrix(grid: RadialGrid, start: int = 0, stop: int | None = None,
                 bumps: np.ndarray | None = None) -> np.ndarray:
    """Rows start:stop of the n x k matrix B of the dictionary's raw bumps,
    one per column, in the weighted (psi) representation: of every bump of
    ``_bumps(grid)``, or of the rows ``bumps`` of it.

    Each entry is evaluated in the arithmetic of the whole-grid evaluation,
    so a block is bit for bit the rows and columns it cuts out of B.
    """
    if bumps is None:
        bumps = _bumps(grid)
    x = np.log(grid.r[start:stop])
    s = np.sqrt(4.0 * np.pi * grid.mass[start:stop])
    return s[:, None] * _smooth_bump((x[:, None] - bumps[:, 0]) / bumps[:, 1])


def _bump_grams(grid: RadialGrid):
    """The three k x k Gram matrices of the raw bumps B: B^T B, (D B)^T (D B)
    with D the second difference, and B^T M B with M = A C - C A the double
    commutator, A the reduced -Laplace and C = [A, r^3].

    A is symmetric and C antisymmetric, so B^T M B = G + G^T with
    G = (A B)^T (C B), and M is never formed.  On (1e-4, 100, 2000),
    (1e-4, 100, 8000) and (0.5, 1.2e4, 3000) this sum is 3.6e-13, 2.1e-12
    and 7.3e-13 of the largest entry off a long-double evaluation;
    B^T (M B), from the five bands of M, is 8.8e-12, 2.0e-10 and 4.4e-11
    off.

    Summed over row tiles GRAM_TILE_WIDTH wide in log r.  On each tile,
    with two halo rows on each side, only the bumps whose support (found
    by bisection and widened by one node against rounding) meets it are
    evaluated, and a tile that none meets adds nothing; so no n x k array
    is formed.  D takes the two rows after each of its rows, A B and C B
    one on each side; rows 0 and n - 1 of A B and C B are skipped, where
    the bumps and their images vanish.  Each sum is B's product with its
    terms grouped by tile, equal to the whole-grid one to rounding.  D B,
    A B and C B are written into three buffers sized to the widest tile
    and reused by every tile, bit for bit the arithmetic of fresh arrays;
    on (1e-4, 100, 8000) the tracemalloc peak is 3.1 MiB (4.0 MiB with
    fresh arrays per tile).
    """
    bumps = _bumps(grid)
    n, k = grid.n, len(bumps)
    x = np.log(grid.r)
    first = np.searchsorted(x, bumps[:, 0] - bumps[:, 1]) - 1
    stop = np.searchsorted(x, bumps[:, 0] + bumps[:, 1]) + 1
    lap = reduced_laplacian(grid)
    c = commutator_with_diagonal(lap, grid.r ** 3.0)
    g0, g2, gac = np.zeros((3, k, k))
    height = max(1, round(GRAM_TILE_WIDTH / grid.log_step))
    starts = range(0, n, height)
    tile_cols = [np.flatnonzero((first < min(i + height + 2, n)) & (stop > max(i - 2, 0)))
                 for i in starts]
    # the first difference of D B takes one more row than a tile has
    width = max(cols.size for cols in tile_cols)
    bufs = np.empty((3, (min(height, n) + 1) * width))

    def add_tile(i, cols):
        # a tile's arrays die with the call, before the next tile's bumps
        j = min(i + height, n)
        a, b = max(i - 2, 0), min(j + 2, n)
        blk = _bump_matrix(grid, a, b, bumps[cols])

        def view(k, rows):  # buffer k as a contiguous rows x len(cols) array
            return bufs[k, :rows * cols.size].reshape(rows, cols.size)

        tile = blk[i - a:j - a]
        rows = blk[i - a:min(j, n - 2) + 2 - a]
        d1 = np.subtract(rows[1:], rows[:-1], out=view(2, len(rows) - 1))
        # rows i.. of D B, as np.diff(rows, 2)
        d = np.subtract(d1[1:], d1[:-1], out=view(1, max(len(rows) - 2, 0)))
        ix = np.ix_(cols, cols)
        g0[ix] += tile.T @ tile
        g2[ix] += d.T @ d
        lo, hi = max(i, 1), min(j, n - 1)  # rows lo..hi-1 of A B and C B
        below, mid, above = (blk[lo + s - a:hi + s - a] for s in (-1, 0, 1))
        ab, cb, term = (view(k, hi - lo) for k in range(3))
        np.multiply(lap.diag[lo:hi, None], mid, out=ab)
        ab += np.multiply(lap.off[lo - 1:hi - 1, None], below, out=term)
        ab += np.multiply(lap.off[lo:hi, None], above, out=term)
        np.multiply(c[lo:hi, None], above, out=cb)
        cb -= np.multiply(c[lo - 1:hi - 1, None], below, out=term)
        gac[ix] += ab.T @ cb

    for i, cols in zip(starts, tile_cols):
        if cols.size:
            add_tile(i, cols)
    return g0, g2, gac + gac.T


def _canonical_coefficients(g0: np.ndarray) -> np.ndarray:
    """C with B C an orthonormal basis of span(B), from the Gram G0 = B^T B.

    Canonical orthogonalization (Loewdin): G0 = V diag(lam) V^T and
    C = V lam^(-1/2), with near-dependent combinations pruned by the
    singular-value rule sigma > 1e-6 sigma_max of B, which on the Gram
    is lam > 1e-12 lam_max.  The pass runs twice (SVQB; Stathopoulos &
    Wu, SIAM J. Sci. Comput. 23, 2002): after one, C^T G0 C is 4.6e-7 to
    7.9e-7 off the identity on make_log_grid(1e-4, 100, n), n = 500 to
    8000, and the second pass starts from it and prunes nothing.  The
    Gram squares the condition number of B, so B C formed explicitly is
    orthonormal only to 4e-7 to 1.6e-6 there; it spans the thin SVD's
    space to rounding, and the Ritz values on it match the SVD's to
    1.5e-10 relative.
    """
    lam, v = np.linalg.eigh(g0)
    keep = lam > 1e-12 * lam[-1]
    c = v[:, keep] / np.sqrt(lam[keep])
    lam, v = np.linalg.eigh(c.T @ g0 @ c)
    return c @ (v / np.sqrt(lam))


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

    Every number reported is a Ritz value of a k x k problem (k <= 120),
    so the check forms neither an orthonormal n x k basis nor B itself:
    with B the raw bumps and C = _canonical_coefficients(B^T B), the
    roughness is sqrt(lam_max(C^T (D B)^T (D B) C)), D the second
    difference, and the value is lam_max(C^T B^T M B C), from the three
    Grams that ``_bump_grams`` sums over row tiles.
    """
    tol = _admit(grid, tol)
    g0, g2, gm = _bump_grams(grid)
    c = _canonical_coefficients(g0)
    # spectral norm of D B C, the roughest unit vector's second difference
    roughness = float(np.sqrt(np.linalg.eigvalsh(c.T @ g2 @ c)[-1]))
    if roughness > MAX_BUMP_ROUGHNESS:
        raise DomainError(f"bump dictionary on grid {grid.descriptor()} has roughness "
                          f"{roughness:.3g}: fewer than 4 points per wavelength")
    mred = c.T @ gm @ c
    vals = np.linalg.eigvalsh(0.5 * (mred + mred.T))
    return _report(
        "double_commutator_r3", float(vals[-1]), grid, tol, side="upper",
        details={"dictionary_size": int(c.shape[1])},
    )
