"""Discrete certificates for one-body operator inequalities.

Each check builds the relevant symmetric matrix from the reduced radial
operators, reports an extremal eigenvalue, and compares it against the
inequality's bound at a caller-supplied tolerance.  Eigenvectors whose
mass concentrates within 5 grid points of either end are flagged as
Dirichlet-truncation artifacts and skipped.

The double-commutator check is special: on a graded (log) mesh the raw
matrix [A,[A,r^3]] carries large positive spurious modes, sub-grid
checkerboards near r_min and wall layers near r_max, so the inequality
is certified on a Galerkin dictionary of smooth compactly supported
bumps in log r instead (see check_double_commutator_cube).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .errors import ParameterError
from .radial import RadialGrid, extremal_eigs, reduced_laplacian

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

EDGE_NODES = 5          # boundary-artifact window at each grid end
EDGE_MASS_FRACTION = 0.5
FILTER_CANDIDATES = 8   # lowest eigenpairs screened for edge concentration

BUMP_HALF_WIDTHS = (1.0, 2.0, 4.0)  # in log r
BUMP_PER_WIDTH = 40
BUMP_WALL_CLEARANCE_NODES = 10

# Sharp lower bound of the |x|^2 check: the Hardy constant 1/4 minus |grad|x||^2 = 1.
IMS_BOUND = 0.25 - 1.0


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one operator-inequality check.

    ``side`` is "lower" when the claim is extremal_eigenvalue >= bound and
    "upper" when it is <= bound.  ``passed`` applies the tolerance on the
    claimed side.
    """

    name: str
    extremal_eigenvalue: float
    tolerance: float
    passed: bool
    grid_descriptor: str
    bound: float = 0.0
    side: str = "lower"
    boundary_skipped: int = 0
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
            "boundary_skipped": self.boundary_skipped,
        }
        d.update(self.details)
        return d


def _check_tol(tol: float) -> float:
    if tol < 0:
        raise ParameterError(f"tolerance must be nonnegative, got {tol}")
    return float(tol)


def _filtered_extremal(matrix, grid: RadialGrid):
    """Smallest eigenvalue skipping edge-concentrated eigenvectors.

    Returns (eigenvalue, skipped).  If all FILTER_CANDIDATES candidates
    look like boundary artifacts the smallest is reported anyway, with
    the skip count equal to their number as a warning sign.
    """
    vals, vecs = extremal_eigs(matrix, k=min(FILTER_CANDIDATES, grid.n))
    skipped = 0
    for j in range(len(vals)):
        v2 = vecs[:, j] ** 2
        edge = v2[:EDGE_NODES].sum() + v2[-EDGE_NODES:].sum()
        if edge <= EDGE_MASS_FRACTION * v2.sum():
            return float(vals[j]), skipped
        skipped += 1
    return float(vals[0]), skipped


def _lower_report(
    name: str,
    matrix,
    grid: RadialGrid,
    tol: float,
    bound: float = 0.0,
    identity_ok: bool = True,
    details: dict | None = None,
) -> InequalityReport:
    """Report the claim: smallest resolved eigenvalue of matrix >= bound - tol.

    ``identity_ok`` is an extra condition the check computed beside the
    eigenvalue; the report passes only if it holds too.
    """
    tol = _check_tol(tol)
    val, skipped = _filtered_extremal(matrix, grid)
    return InequalityReport(
        name=name,
        extremal_eigenvalue=val,
        tolerance=tol,
        passed=bool(identity_ok and val >= bound - tol),
        grid_descriptor=grid.descriptor(),
        bound=bound,
        side="lower",
        boundary_skipped=skipped,
        details=details or {},
    )


def symmetrized_product(a: scipy.sparse.csr_matrix, b: scipy.sparse.csr_matrix):
    """a b + b a, the symmetrized operator product, as CSR."""
    return (a @ b + b @ a).tocsr()


def check_hardy(grid: RadialGrid, tol: float) -> InequalityReport:
    """-Laplace >= 1/(4 |x|^2): smallest eigenvalue of A - 1/(4 r^2)."""
    v = scipy.sparse.diags(1.0 / (4.0 * grid.r**2), format="csr")
    return _lower_report("hardy", reduced_laplacian(grid) - v, grid, tol)


def check_lieb_symmetrization(grid: RadialGrid, tol: float) -> InequalityReport:
    """(-Laplace)|x| + |x|(-Laplace) >= 0 via the symmetrized product."""
    r_op = scipy.sparse.diags(grid.r, format="csr")
    return _lower_report(
        "lieb_symmetrization", symmetrized_product(reduced_laplacian(grid), r_op), grid, tol
    )


def check_ims_x2(grid: RadialGrid, tol: float, bound: float = IMS_BOUND) -> InequalityReport:
    """Two-part check on S = (r^2 A + A r^2)/2.

    (a) S agrees with R A R - I up to the discrete double-commutator
        defect, which is O(1) and therefore vanishes relative to |A|;
    (b) the smallest eigenvalue of S is compared against ``bound``.

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
    a = reduced_laplacian(grid)
    r_op = scipy.sparse.diags(grid.r, format="csr")
    r2_op = scipy.sparse.diags(grid.r**2, format="csr")
    s_op = 0.5 * symmetrized_product(a, r2_op)

    ident = scipy.sparse.identity(grid.n, format="csr")
    rar = (r_op @ a @ r_op).tocsr()
    dev = s_op - (rar - ident)
    rel_dev = np.sqrt((dev.multiply(dev)).sum() / (a.multiply(a)).sum())
    return _lower_report(
        "ims_x2", s_op, grid, tol, bound=bound, identity_ok=rel_dev < 1e-8,
        details={"identity_rel_deviation": float(rel_dev)},
    )


def commutator_with_diagonal(op: scipy.sparse.spmatrix, diag_values: np.ndarray):
    """[A, G] for diagonal G, assembled entrywise: C_ij = A_ij (g_j - g_i).

    The entrywise form avoids the catastrophic cancellation of forming
    A G - G A from products whose entries dwarf the commutator.
    """
    coo = op.tocoo()
    data = coo.data * (diag_values[coo.col] - diag_values[coo.row])
    return scipy.sparse.csr_matrix((data, (coo.row, coo.col)), shape=op.shape)


def double_commutator_matrix(grid: RadialGrid) -> scipy.sparse.csr_matrix:
    """[Laplace, [Laplace, r^3]] restricted to the radial sector.

    Equal to [A, [A, r^3]] with A the reduced -Laplace; the double
    commutator is even in the sign of A.
    """
    a = reduced_laplacian(grid)
    c1 = commutator_with_diagonal(a, grid.r ** 3.0)
    m = a @ c1 - c1 @ a
    m = 0.5 * (m + m.T)
    return m.tocsr()


def _smooth_bump(t: np.ndarray) -> np.ndarray:
    """exp(1 - 1/(1-t^2)) inside |t| < 1, exactly zero outside."""
    out = np.zeros_like(t)
    m = np.abs(t) < 1.0
    out[m] = np.exp(1.0 - 1.0 / (1.0 - t[m] ** 2))
    return out


def bump_dictionary(grid: RadialGrid) -> np.ndarray:
    """Orthonormal basis of smooth compactly supported bumps in log r.

    BUMP_PER_WIDTH bumps of each of the BUMP_HALF_WIDTHS.  Columns live
    in the weighted (psi) representation and vanish identically within
    BUMP_WALL_CLEARANCE_NODES of both ends, so wall layers cannot couple
    in.  Near-dependent combinations are pruned.
    """
    x = np.log(grid.r)
    s = np.sqrt(4.0 * np.pi * grid.mass)
    lo, hi = x[0], x[-1]
    clear = BUMP_WALL_CLEARANCE_NODES * grid.log_step
    cols = []
    for half in BUMP_HALF_WIDTHS:
        cmin = lo + clear + half
        cmax = hi - clear - half
        if cmin >= cmax:
            continue
        for c in np.linspace(cmin, cmax, BUMP_PER_WIDTH):
            cols.append(s * _smooth_bump((x - c) / half))
    if not cols:
        raise ParameterError("grid too small for the bump dictionary")
    b = np.array(cols).T
    q, sv, _ = np.linalg.svd(b, full_matrices=False)
    return q[:, sv > 1e-6 * sv[0]]


def check_double_commutator_cube(grid: RadialGrid, tol: float) -> InequalityReport:
    """[Laplace, [Laplace, |x|^3]] <= 0, certified on resolved functions.

    The matrix is exact, but its raw extremal eigenvalue on a log grid is
    dominated by sub-grid checkerboard modes near r_min (growing like
    n^2) and by wall layers near r_max where the r^3 weight amplifies the
    Dirichlet truncation.  Neither represents the continuum operator, so
    the largest eigenvalue is taken over the Galerkin restriction to the
    smooth interior bump dictionary, on which the discrete quadratic form
    matches the continuum one to discretization accuracy.
    """
    tol = _check_tol(tol)
    m = double_commutator_matrix(grid)
    q = bump_dictionary(grid)
    mred = q.T @ (m @ q)
    vals = np.linalg.eigvalsh(0.5 * (mred + mred.T))
    val = float(vals[-1])
    return InequalityReport(
        name="double_commutator_r3",
        extremal_eigenvalue=val,
        tolerance=tol,
        passed=bool(val <= tol),
        grid_descriptor=grid.descriptor(),
        bound=0.0,
        side="upper",
        boundary_skipped=0,
        details={"dictionary_size": int(q.shape[1])},
    )
