"""Gradient-corrected density functional, with an optional mass cap.

Minimizes, over u >= 0 with int u^2 <= N (N = infinity by default),

    E(u) = c_tf int u^(10/3) + c_w int |grad u|^2
           - Z int u^2/|x| + (1/2) int u^2 (u^2 * 1/|x|),

whose unique positive radial minimizer without a cap carries a total
mass n_c strictly above Z: the excess charge q = n_c - Z is the model's
maximum ionization.  The stationarity condition is

    (c_w (-Laplace) + (5/3) c_tf u^(4/3) - Phi) u = lambda u,
    Phi = Z/|x| - u^2 * 1/|x|,

with lambda = 0 unless the cap binds, i.e. the uncapped minimizer is a
zero-mode of its own mean-field operator.  c_tf = 0 with Z = 1 is the
rescaled product-state functional of ``hartree``.

Solver: Newton-GMRES on the stationarity equation, with the exact
Jacobian-vector product (one Coulomb solve each) and the tridiagonal part
of the Jacobian as right preconditioner (Knoll & Keyes, J. Comput. Phys.
193, 2004).  Every charge starts from its own seed, so an answer never
depends on another charge.  A binding cap adds lambda as an unknown,
bordered by the mass row; that solve starts from the uncapped minimizer
rescaled onto the cap.  Eigenvalue-replacement SCF is useless here: at the
minimizer the local potential cancels against the bulk term, so the
linearized operator is nearly flat and its ground state is a box mode, not
the solution.  The Newton loop is ``krylov.newton_krylov``, shared with ``tf``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, ParameterError
from .krylov import newton_krylov
from .radial import (
    RadialField,
    RadialGrid,
    Tridiagonal,
    coulomb_potential,
    integrate_3d,
    make_log_grid,
    newton_potential,
    reduced_laplacian,
    tridiagonal_solver,
)
from .tf import C_TF_DEFAULT, EnergyTerms, TFParams, energy_terms, solve_tf

__all__ = [
    "TFWParams",
    "TFWSolution",
    "MajorantCheck",
    "default_tfw_grid",
    "solve_tfw",
    "excess_charge_sweep",
    "subharmonic_majorant_check",
]

# Newton stops below this relative stationarity residual, which floors near
# 2e-10 on the default grid.
_RESIDUAL_TOL = 1e-9
# subharmonic_majorant_check scores q <= bound + _MAJORANT_TOL, and only on
# states within _MAJORANT_RESIDUAL_CAP of stationarity.
_MAJORANT_TOL = 1e-6
_MAJORANT_RESIDUAL_CAP = 1e-8


@dataclass(frozen=True)
class TFWParams:
    z: float
    c_tf: float = C_TF_DEFAULT
    c_w: float = 1.0

    def __post_init__(self):
        if not (self.z > 0 and self.c_tf >= 0 and self.c_w > 0):
            raise ParameterError("Z and c_w must be positive and c_tf nonnegative")


@dataclass(frozen=True)
class TFWSolution:
    u: RadialField
    phi: RadialField  # Z/|x| - u^2 * 1/|x|
    n_c: float
    q: float
    terms: EnergyTerms
    residual: float  # relative stationarity defect
    iterations: int  # Newton steps
    params: TFWParams


def default_tfw_grid() -> RadialGrid:
    return make_log_grid(1e-4, 100.0, 2000)


@dataclass(frozen=True)
class _State:
    """The final state of one Newton solve, the one source of every answer
    read off it: the profile u, the multiplier lambda (0 off the cap), the
    Hartree potential vh = u^2 * 1/|x| of u, the residual and the steps."""

    u: np.ndarray
    lam: float
    vh: np.ndarray
    residual: float
    iterations: int


class _TFWModel:
    def __init__(self, params: TFWParams, grid: RadialGrid):
        self.params = params
        self.grid = grid
        self.a = reduced_laplacian(grid)
        self.wm = grid.w / grid.mass  # mass = sum wm psi^2

    def coulomb(self, u: np.ndarray) -> np.ndarray:
        """Hartree potential u^2 * 1/|x|: the one Coulomb solve per density.

        The methods below take it as vh; a solved state carries its own."""
        return newton_potential(RadialField(self.grid, u * u)).values

    def local_potential(self, u: np.ndarray, vh: np.ndarray) -> np.ndarray:
        p = self.params
        return (5.0 / 3.0) * p.c_tf * np.abs(u) ** (4.0 / 3.0) - (p.z / self.grid.r - vh)

    def terms(self, u: np.ndarray, vh: np.ndarray) -> EnergyTerms:
        psi = self.grid.sr * u
        gradient = self.params.c_w * float(psi @ (self.a @ psi))
        return energy_terms(self.grid, self.params.z, self.params.c_tf, u * u, vh, gradient)

    def mass(self, u: np.ndarray) -> float:
        return float(integrate_3d(RadialField(self.grid, u * u)))

    def stationarity(self, u: np.ndarray, vh: np.ndarray, lam: float = 0.0):
        """F = (c_w A + vloc - lambda) psi, and its norm relative to the
        sizes of its kinetic and potential parts."""
        psi = self.grid.sr * u
        kin_part = self.params.c_w * (self.a @ psi)
        pot_part = (self.local_potential(u, vh) - lam) * psi
        f = kin_part + pot_part
        scale = np.linalg.norm(kin_part) + np.linalg.norm(pot_part)
        # The null state solves F = 0 trivially; it is never a minimizer.
        return f, (float(np.linalg.norm(f) / scale) if scale > 0.0 else np.inf)

    def seed(self) -> np.ndarray:
        """Starting profile.  Without a bulk term: exp(-r/2) at Z = c_w = 1,
        carried to other Z and c_w by the exact scaling of that functional,
        u -> c_w^(1/2) b^2 u(b r) with b = Z/c_w; its mass 8 pi Z lies well
        above the minimizer's.  With it: the square root of the
        gradient-free neutral density, the c_w -> 0 bulk limit and a good
        starting profile at every Z."""
        p = self.params
        if p.c_tf == 0.0:
            b = p.z / p.c_w
            return np.sqrt(p.c_w) * b * b * np.exp(-0.5 * b * self.grid.r)
        tf0 = solve_tf(TFParams(z=p.z, n_electrons=p.z, c_tf=p.c_tf), self.grid)
        return np.sqrt(np.clip(tf0.rho.values, 0.0, None)) + 1e-30

    def newton(self, u: np.ndarray, cap: float | None, stage: str):
        """Newton-GMRES on F(psi) = (c_w A + vloc(u) - lambda) psi = 0.

        Without a cap lambda = 0.  Under a cap lambda is a second unknown,
        bordered by the quadrature mass row sum (w/m) psi^2 - cap and
        started at the Rayleigh quotient of u.  The Jacobian-vector product

            c_w A d + (vloc + (20/9) c_tf |u|^(4/3) - lambda) d
                    + psi (2 u d/(s r)) * 1/|x|

        costs one Coulomb solve.  GMRES is right-preconditioned by the
        tridiagonal part T, bordered under a cap, at one LU per Newton step
        and one back-substitution per Krylov step, and steps backtrack on
        |F|.  The null state solves F = 0 too, and from the hydrogenic
        seed (c_tf = 0, no cap) plain Newton can run into it; there the
        steps are deflated (Farrell, Birkisson & Funke, SIAM J. Sci.
        Comput. 37, 2015): Newton on F/|psi|^2, whose step is F's divided
        by 1 + 2 <psi, d>/|psi|^2, backtracking on |F|/|psi|^2.
        Undeflated Newton from a seed of 1 to 2 times the hydrogenic
        amplitude lost 61 down to 1 of the 276 uncapped c_tf = 0 solves
        the deflated path converges (Z = 0.1-100, c_w = 0.1-10, 7 grids),
        and the 2x seed took 11 steps for 10 at Z = c_w = 1, so deflation
        stays.

        The residual is the relative stationarity defect, under a cap the
        larger of it and the relative mass defect.  Returns the ``_State``
        unpacked from the final defect evaluation, whose vh is that of the
        returned u: no Coulomb solve follows the solve.
        """
        n = self.grid.n
        c_w, c_tf = self.params.c_w, self.params.c_tf
        deflate = cap is None and c_tf == 0.0
        x = self.grid.sr * u
        if cap is not None:
            x = np.append(x, float(x @ self.stationarity(u, self.coulomb(u))[0]) / float(x @ x))

        def defect(x):
            psi = x[:n]
            lam = x[n] if cap is not None else 0.0
            u = psi / self.grid.sr
            vh = self.coulomb(u)
            f, rel = self.stationarity(u, vh, lam)
            if cap is not None:
                dm = float(self.wm @ (psi * psi)) - cap
                f = np.append(f, dm)
                rel = max(rel, abs(dm) / cap)
            merit = np.linalg.norm(f) / (psi @ psi if deflate else 1.0)
            return f, merit, rel, (psi, lam, u, vh)

        def linearize(x, state):
            psi, lam, u, vh = state
            bulk = (20.0 / 9.0) * c_tf * np.abs(u) ** (4.0 / 3.0)
            diag = self.local_potential(u, vh) + bulk - lam
            t_solve = tridiagonal_solver(Tridiagonal(c_w * self.a.diag + diag, c_w * self.a.off))
            g = 2.0 * u / self.grid.sr
            if cap is not None:
                c = 2.0 * self.wm * psi
                t_psi = t_solve(psi)

            def jac(y):
                d = y[:n]
                dvh = coulomb_potential(RadialField(self.grid, g * d)).values
                out = c_w * (self.a @ d) + diag * d + psi * dvh
                if cap is None:
                    return out
                return np.append(out - y[n] * psi, 2.0 * self.wm @ (psi * d))

            def precond(y):
                # Block elimination of the bordered T under a cap.
                z = t_solve(y[:n])
                if cap is None:
                    return z
                t = (y[n] - c @ z) / (c @ t_psi)
                return np.append(z + t * t_psi, t)

            def step(y):
                dx = precond(y)
                if deflate:
                    dx /= 1.0 + 2.0 * (psi @ dx) / (psi @ psi)
                return dx

            return jac, precond, step

        case = f"Z={self.params.z:g}" + ("" if cap is None else f", N={cap:g}")
        (_, lam, u, vh), rel, steps = newton_krylov(
            x, defect, linearize, _RESIDUAL_TOL, stage, case
        )
        return _State(u, float(lam), vh, rel, steps)

    @functools.cached_property
    def uncapped(self) -> _State:
        """The state of the uncapped minimizer (lambda = 0), solved once per
        model."""
        state = self.newton(self.seed(), None, "unconstrained stage")
        state.u.setflags(write=False)  # every minimize() call shares it
        return state

    def minimize(self, cap: float | None = None) -> _State:
        """The minimizer under an optional mass cap: the one driver of the
        gradient-corrected and product-state solves.

        The uncapped minimizer stands unless it carries more than cap;
        then a bordered Newton solve follows, started from it rescaled
        onto the cap.  Returns that solve's ``_State``, its iterations the
        steps of both stages.
        """
        free = self.uncapped
        mass = self.mass(free.u)
        if cap is None or mass <= cap:
            return free
        state = self.newton(np.sqrt(cap / mass) * free.u, cap, "constrained stage")
        return replace(state, iterations=free.iterations + state.iterations)


def solve_tfw(params: TFWParams, grid: RadialGrid | None = None) -> TFWSolution:
    """Fully unconstrained minimizer; its mass is the critical particle
    number n_c and q = n_c - Z > 0 is the excess charge.

    Solved by Newton from the model's own seed, so the answer at Z does
    not depend on any other charge.
    """
    grid = grid if grid is not None else default_tfw_grid()
    model = _TFWModel(params, grid)
    st = model.minimize()
    n_c = model.mass(st.u)
    return TFWSolution(
        u=RadialField(grid, st.u, nonnegative=True),
        phi=RadialField(grid, params.z / grid.r - st.vh),
        n_c=n_c,
        q=n_c - params.z,
        terms=model.terms(st.u, st.vh),
        residual=st.residual,
        iterations=st.iterations,
        params=params,
    )


def excess_charge_sweep(
    zs,
    c_tf: float = C_TF_DEFAULT,
    c_w: float = 1.0,
    grid: RadialGrid | None = None,
):
    """Rows (z, q, u(1), phi(1)), one per charge in the order given, each
    row the ``solve_tfw`` answer at its charge.

    Over increasing charges, successive differences of each column
    contract as the large-Z limits emerge.
    """
    zs = [float(z) for z in zs]
    if not zs:
        raise ParameterError("need at least one charge")
    if not all(z > 0 for z in zs):
        raise ParameterError("charges must be positive")
    grid = grid if grid is not None else default_tfw_grid()

    rows = []
    for z in zs:
        sol = solve_tfw(TFWParams(z=z, c_tf=c_tf, c_w=c_w), grid)
        u1 = float(np.interp(1.0, grid.r, sol.u.values))
        phi1 = float(np.interp(1.0, grid.r, sol.phi.values))
        rows.append((z, sol.q, u1, phi1))
    return rows


@dataclass(frozen=True)
class MajorantCheck:
    q_bound: float
    passed: bool
    monotone_beyond_bulk: bool
    bulk_radius: float


def subharmonic_majorant_check(sol: TFWSolution) -> MajorantCheck:
    """Excess-charge bound from the subharmonic majorant
    p = (4 pi c_w u^2 + Phi^2)^(1/2).

    r p(r) decreases to q at infinity, so q <= min of r p(r) over
    1 <= r <= r_bulk (DomainError if no node lies there), r_bulk the bulk
    of the density; further out r p(r) is q to 3e-7 and says nothing.
    The check also verifies the decrease beyond the bulk.  Inputs that do
    not satisfy the stationarity equation (relative residual above
    _MAJORANT_RESIDUAL_CAP) are rejected rather than scored.
    """
    grid = sol.u.grid
    model = _TFWModel(sol.params, grid)
    _, res = model.stationarity(sol.u.values, model.coulomb(sol.u.values))
    if res > _MAJORANT_RESIDUAL_CAP:
        raise DomainError(
            f"input does not solve the stationarity equation (residual {res:.2e})"
        )
    p = np.sqrt(4.0 * np.pi * sol.params.c_w * sol.u.values**2 + sol.phi.values**2)
    rp = grid.r * p

    # Bulk radius: smallest r enclosing all but 1e-3 of the orbital mass.
    cum = np.cumsum(grid.w * grid.r**2 * sol.u.values**2)
    cum /= cum[-1]
    bulk_idx = int(np.searchsorted(cum, 1.0 - 1e-3))
    bulk_idx = min(bulk_idx, grid.n - 2)
    window = rp[np.searchsorted(grid.r, 1.0):bulk_idx + 1]
    if not window.size:
        raise DomainError(f"no grid node lies in [1, r_bulk = {grid.r[bulk_idx]:.3g}]")
    q_bound = float(np.min(window))
    tail = rp[bulk_idx:]
    monotone = bool(np.all(np.diff(tail) <= 1e-9 * np.max(np.abs(tail))))
    return MajorantCheck(
        q_bound=q_bound,
        passed=bool(sol.q <= q_bound + _MAJORANT_TOL),
        monotone_beyond_bulk=monotone,
        bulk_radius=float(grid.r[bulk_idx]),
    )
