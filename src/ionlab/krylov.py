"""The Newton-Krylov driver of the radial models: inexact Newton with a
right-preconditioned GMRES step and backtracking on a merit function
(Knoll & Keyes, J. Comput. Phys. 193, 2004)."""

from __future__ import annotations

import scipy.sparse.linalg

from .errors import ConvergenceError

# Newton steps per solve before ConvergenceError: TF takes 9 to 23, TFW and
# Hartree 6 to 21 on their default grids.
MAX_NEWTON_STEPS = 50


def newton_krylov(x, defect, linearize, tol, stage, case):
    """Newton-GMRES from x until the residual drops below tol.

    ``defect(x)`` returns (F, merit, residual, state) and ``linearize(x,
    state)`` returns (jac, precond, step): the Jacobian-vector product, the
    right preconditioner and the map from the GMRES solution to the Newton
    step.  Steps halve until the merit falls by the fraction 1e-4 of the
    step.  Returns (x, state, residual, Newton steps); raises
    ConvergenceError, naming stage and case, once MAX_NEWTON_STEPS steps
    pass or the step underflows.
    """
    f, merit, res, state = defect(x)
    for it in range(MAX_NEWTON_STEPS + 1):
        if res < tol:
            return x, state, res, it
        if it == MAX_NEWTON_STEPS:
            break
        jac, precond, step_of = linearize(x, state)
        op = scipy.sparse.linalg.LinearOperator(
            (f.size, f.size), matvec=lambda y: jac(precond(y)), dtype=float
        )
        y, _ = scipy.sparse.linalg.gmres(op, -f, rtol=1e-4, restart=40, maxiter=1)
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
