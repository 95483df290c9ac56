"""The Newton-Krylov driver of the radial models: inexact Newton with a
right-preconditioned GMRES step and backtracking on a merit function
(Knoll & Keyes, J. Comput. Phys. 193, 2004).

GMRES (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986) lives here as
one restart cycle, ``_gmres``, that follows the arithmetic of SciPy's
``gmres(A, b, rtol=1e-4, restart=40, maxiter=1)`` step for step but
leaves out its trailing residual product, which a Newton step never reads.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dlartg

from .errors import ConvergenceError

# Newton steps per solve before ConvergenceError: TF takes 9 to 23, TFW and
# Hartree 6 to 21 on their default grids.
MAX_NEWTON_STEPS = 50
# Krylov steps per Newton step, and the relative residual at which they stop.
GMRES_RESTART = 40
GMRES_RTOL = 1e-4


def _gmres(matvec, b):
    """One GMRES cycle for matvec(x) = b from x = 0.

    Arnoldi by modified Gram-Schmidt, Givens rotations from LAPACK lartg,
    and a stop once the rotated residual falls to GMRES_RTOL |b|, after
    GMRES_RESTART steps, or at an exact breakdown.  Returns x after one
    matvec per Krylov step and no other.
    """
    n = b.size
    bnrm2 = np.linalg.norm(b)
    if bnrm2 == 0:
        return b
    eps = np.finfo(float).eps
    restart = min(GMRES_RESTART, n)
    # SciPy's stopping threshold, written as it rounds there.
    ptol = bnrm2 * min(1.0, GMRES_RTOL * bnrm2 / bnrm2)
    v = np.empty([restart + 1, n])
    v[0] = b * (1 / bnrm2)
    h = np.zeros([restart, restart + 1])  # row col holds Hessenberg column col
    givens = np.zeros([restart, 2])
    rhs = np.zeros(restart + 1)  # the rotated residual vector
    rhs[0] = bnrm2
    for col in range(restart):
        w = matvec(v[col])
        h0 = np.linalg.norm(w)
        for k in range(col + 1):
            h[col, k] = np.dot(v[k], w)
            w -= h[col, k] * v[k]
        h1 = np.linalg.norm(w)
        v[col + 1] = w
        breakdown = h1 <= eps * h0
        if breakdown:
            h[col, col + 1] = 0
        else:
            h[col, col + 1] = h1
            v[col + 1] *= 1 / h1
        for k in range(col):
            c, s = givens[k]
            n0, n1 = h[col, k], h[col, k + 1]
            h[col, k], h[col, k + 1] = c * n0 + s * n1, -s * n0 + c * n1
        c, s, h[col, col] = dlartg(h[col, col], h[col, col + 1])
        givens[col] = c, s
        h[col, col + 1] = 0
        rhs[col + 1] = -s * rhs[col]
        rhs[col] = c * rhs[col]
        if np.abs(rhs[col + 1]) <= ptol or breakdown:
            break
    if h[col, col] == 0:
        rhs[col] = 0
    # Back-substitution on the triangular h, skipping zero entries.
    y = rhs[: col + 1].copy()
    for k in range(col, 0, -1):
        if y[k] != 0:
            y[k] /= h[k, k]
            y[:k] -= y[k] * h[k, :k]
    if y[0] != 0:
        y[0] /= h[0, 0]
    x = np.zeros(n)
    x += y @ v[: col + 1]  # onto zeros, as SciPy does: a -0.0 reads 0.0
    return x


def newton_krylov(x, defect, linearize, tol, stage, case):
    """Newton-GMRES from x until the residual drops below tol.

    ``defect(x)`` returns (F, merit, residual, state) and ``linearize(x,
    state)`` returns (jac, precond, step): the Jacobian-vector product, the
    right preconditioner and the map from the GMRES solution to the Newton
    step.  Each Newton step runs one ``_gmres`` cycle on jac(precond(.)),
    one Jacobian product per Krylov step.  Steps halve until the merit
    falls by the fraction 1e-4 of the step.  Returns (state, residual,
    Newton steps); raises ConvergenceError, naming stage and case, if the
    starting merit is not finite, or once MAX_NEWTON_STEPS steps pass or
    the step underflows.
    """
    # a start that overflows is refused on its merit, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        f, merit, res, state = defect(x)
    if not np.isfinite(merit):
        raise ConvergenceError(
            f"{stage} cannot start: the merit of the starting defect is {merit} ({case})",
            residual=res,
            iterations=0,
        )
    for it in range(MAX_NEWTON_STEPS + 1):
        if res < tol:
            return state, res, it
        if it == MAX_NEWTON_STEPS:
            break
        jac, precond, step_of = linearize(x, state)
        y = _gmres(lambda y: jac(precond(y)), -f)
        dx, step = step_of(y), 1.0
        while step >= 1e-10:
            trial = defect(x + step * dx)
            if trial[1] <= (1.0 - 1e-4 * step) * merit:
                break
            step *= 0.5
        else:
            break
        x = x + step * dx
        f, merit, res, state = trial
    raise ConvergenceError(
        f"{stage} stalled at residual {res:.3e} after {it} Newton steps ({case})",
        residual=res,
        iterations=it,
    )
