"""Gradient-free density functional solver (kinetic term ~ rho^(5/3)).

Minimizes the relaxed problem over {rho >= 0, int rho <= N}, whose
Euler-Lagrange equation is

    (5/3) c_tf rho^(2/3) = [Phi]_+,   Phi = Z/r - rho * 1/|x| - mu.

The unknown is the bare potential V = Phi + mu = Z/r - rho * 1/|x|.
Newton-GMRES, the driver the gradient-corrected and product-state models
share (``krylov``), solves G(V) = V - Z/r + rho(V) * 1/|x| = 0, where
rho(V) = ((3/(5 c_tf)) [V - mu]_+)^(3/2) and each evaluation picks
mu >= 0 so that rho carries mass min(N_cap, mass at mu = 0).  The model
binds exactly Z (Lieb & Simon, Adv. Math. 23, 1977), so the cap binds
exactly when N < Z: one solve runs with N_cap = N below Z and with no
cap (mu = 0) from Z on.  The mass stays a projection inside each
evaluation rather than a bordered row: Newton bordered by the mass row
and started from the neutral state took damped steps of 2e-4 to 4e-3 at
Z = 5, N = 3, and after 58 steps had shed only 0.17 of the 2 units of
mass.

Each solve starts from Sommerfeld's closed-form atom (``_initial_density``):
three quarters of its potential V_S plus a quarter of Z/r less the potential
of its density.  The neutral solves on the default grid then take 4 Newton
steps and the far-tail boxes 7 to 9, where a screened-core start with a
bare r^-4 tail took 9 to 10 and 13 to 17, creeping for 5 to 8 steps before
Newton turned quadratic.  V_S alone is within 10% of the solution out to
r ~ 1e3, but full steps from it drive V below 0 in the far tail.

The default grid reaches r_max = 400: the neutral potential has the
universal r^-4 tail, and the density mass beyond r ~ 100 is ~3e-3, too
much for per-mille mass checks on a shorter box.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, ParameterError
from .krylov import _gmres, newton_krylov
from .radial import (
    RadialField,
    RadialGrid,
    Tridiagonal,
    _poisson_laplacian,
    coulomb_potential,
    integrate_3d,
    make_log_grid,
    newton_potential,
    tridiagonal_solver,
)

__all__ = [
    "C_TF_DEFAULT",
    "EnergyTerms",
    "TFParams",
    "TFSolution",
    "TailFit",
    "default_tf_grid",
    "default_tail_window",
    "energy_terms",
    "neutral_tail_solution",
    "solve_tf",
    "tf_scaling_check",
    "tf_tail_exponent",
    "sommerfeld_amplitude",
]

# Spinless semiclassical constant (3/5)(3 pi^2)^(2/3); every asserted
# property (max mass, scaling, tail exponent) is independent of it.
C_TF_DEFAULT = 0.6 * (3.0 * np.pi**2) ** (2.0 / 3.0)


@dataclass(frozen=True)
class TFParams:
    z: float
    n_electrons: float
    c_tf: float = C_TF_DEFAULT

    def __post_init__(self):
        if not (self.z > 0 and self.n_electrons > 0 and self.c_tf > 0):
            raise ParameterError("Z, N and c_tf must all be positive")


@dataclass(frozen=True)
class EnergyTerms:
    """The terms of E = c_w int |grad u|^2 + c_tf int rho^(5/3) - Z int rho/|x|
    + (1/2) int rho (rho * 1/|x|), each nonnegative.  The virial defect (2K + P)/|P|,
    K = gradient + bulk and P = hartree - attraction, is 0 at a continuum minimizer."""

    gradient: float
    bulk: float
    attraction: float
    hartree: float

    @property
    def total(self) -> float:
        return self.gradient + self.bulk - self.attraction + self.hartree

    @property
    def virial_defect(self) -> float:
        potential = self.hartree - self.attraction
        return (2.0 * (self.gradient + self.bulk) + potential) / abs(potential)


@dataclass(frozen=True)
class TFSolution:
    rho: RadialField
    phi: RadialField  # Z/r - rho * 1/|x| - mu
    mu: float
    terms: EnergyTerms
    mass: float
    residual: float
    iterations: int
    params: TFParams


@dataclass(frozen=True)
class TailFit:
    exponent: float | None
    amplitude: float | None
    compact_support: bool
    window: tuple


def default_tf_grid() -> RadialGrid:
    return make_log_grid(1e-4, 400.0, 2200)


def energy_terms(grid: RadialGrid, z: float, c_tf: float, rho: np.ndarray, vh: np.ndarray,
                 gradient: float = 0.0) -> EnergyTerms:
    """The terms at a density rho >= 0 with vh = rho * 1/|x|, given the gradient term."""
    return EnergyTerms(
        gradient=gradient,
        bulk=c_tf * integrate_3d(RadialField(grid, rho ** (5.0 / 3.0))),
        attraction=z * integrate_3d(RadialField(grid, rho), radial_power=-1),
        hartree=0.5 * integrate_3d(RadialField(grid, rho * vh)),
    )


def _mass_of_target(grid: RadialGrid, coeff: float, phi_bare: np.ndarray, mu: float):
    target = coeff * np.clip(phi_bare - mu, 0.0, None) ** 1.5
    return integrate_3d(RadialField(grid, target)), target


# Newton on the multiplier settles in 9-21 steps from mu = 0 on the
# default grid (80 bisection steps before); the cap only catches a
# mass(mu) that is not the convex decreasing map the iteration relies on.
_MU_NEWTON_STEPS = 100


def _projected_target(
    grid: RadialGrid, params: TFParams, phi_bare: np.ndarray, n_cap: float
):
    """The density of the bare potential phi_bare and its multiplier.

    Picks mu >= 0 so the density carries mass min(N, mass at mu=0).
    Returns (mu, density).
    """
    coeff = (3.0 / (5.0 * params.c_tf)) ** 1.5
    mass, target = _mass_of_target(grid, coeff, phi_bare, 0.0)
    if mass <= n_cap:
        return 0.0, target
    # Newton from mu = 0 on mass(mu) = N.  mass is convex and decreasing,
    # so every tangent step lands left of the root: the iterates rise
    # monotonically and the first step that fails to raise mu means mu
    # has settled to rounding.
    weight = 4.0 * np.pi * grid.w * grid.r**2
    mu = 0.0
    for _ in range(_MU_NEWTON_STEPS):
        slope = -1.5 * coeff * float(
            np.dot(weight, np.sqrt(np.clip(phi_bare - mu, 0.0, None)))
        )
        if not slope < 0.0:
            break
        mu_next = mu - (mass - n_cap) / slope
        if not mu_next > mu:
            return mu, target
        mu = mu_next
        mass, target = _mass_of_target(grid, coeff, phi_bare, mu)
    raise ConvergenceError(
        f"multiplier stage: Newton on mass(mu) = N did not settle "
        f"(mu={mu:.6g}, mass={mass:.9g}, Z={params.z:g}, N={n_cap:g})",
        residual=abs(mass - n_cap) / n_cap,
    )


def _initial_density(grid: RadialGrid, params: TFParams):
    """Sommerfeld's closed-form TF potential V_S = Z chi_S(r/b)/r
    (Z. Phys. 78, 1932), chi_S(x) = (1 + (x/144^(1/3))^0.772)^(-3/0.772),
    on the TF length b = (4 pi)^(-2/3) (5 c_tf/3) Z^(-1/3) of this
    functional, so that its r^-4 tail is the universal one,
    144 b^3 Z = sommerfeld_amplitude(c_tf); and the density of V_S,
    scaled to the neutral mass Z.  Under a cap N < Z the first evaluation
    projects it onto mass N.  Returns (V_S, density).  A charge whose
    profile is not finite on the grid is refused, rather than handed to
    the solver."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            b = ((4.0 * np.pi) ** (-2.0 / 3.0) * (5.0 * params.c_tf / 3.0)
                 * params.z ** (-1.0 / 3.0))
            x = grid.r / (b * 144.0 ** (1.0 / 3.0))
            v_s = params.z / grid.r * (1.0 + x**0.772) ** (-3.0 / 0.772)
            rho = (3.0 / (5.0 * params.c_tf) * v_s) ** 1.5
            return v_s, params.z / integrate_3d(RadialField(grid, rho)) * rho
    except ArithmeticError:
        raise ParameterError(
            f"charge Z = {params.z:g} with c_tf = {params.c_tf:g} is out of range: "
            "its starting density is not finite"
        ) from None


def _newton(
    stage: str, grid: RadialGrid, params: TFParams, phi, n_cap: float, *, tol: float
):
    """Newton-GMRES on G(V) from the bare potential phi, with rho(V) of
    mass at most n_cap (n_cap = inf is the mu = 0 problem).

    With rho' = (3/2) coeff [V - mu]_+^(1/2) and q = 4 pi w r^2, the
    Jacobian-vector product d + (rho' (d - <q rho', d>/sum q rho')) * 1/|x|
    costs one Coulomb solve; the projection term holds the mass at n_cap
    and enters only while mu > 0.  Poisson's equation makes 1/|x| equal
    4 pi A^(-1) on reduced weighted functions s r f, so the right
    preconditioner (A + 4 pi rho')^(-1) A, at one LU per Newton step and
    one back-substitution per Krylov step, inverts the Jacobian up to the
    projection term.  Its A, ``radial._poisson_laplacian`` on the mass
    lumping, has a Neumann last row: past the box the
    quadrature potential is Q/r, so r phi is flat at the edge, not zero as
    the Dirichlet ghost cell of ``reduced_laplacian`` has it.  From the
    same starts, the eight TF solves of a benchmark density pass make 78
    Krylov steps with it and 110 with the Dirichlet row.  Steps backtrack
    on |sqrt(q) G|; the stopping residual is the L1(R3) norm of the
    Euler-Lagrange defect at rho(V).  Returns ((mu, rho, vh), residual,
    Newton steps), the state unpacked from the final defect evaluation, with
    vh = rho * 1/|x| of the returned rho: no Coulomb solve follows the solve.
    """
    coeff = (3.0 / (5.0 * params.c_tf)) ** 1.5
    q = 4.0 * np.pi * grid.w * grid.r**2
    sqrt_q = np.sqrt(q)
    a = _poisson_laplacian(grid, grid.mass)

    def defect(phi):
        mu, rho = _projected_target(grid, params, phi, n_cap)
        vh = newton_potential(RadialField(grid, rho)).values
        phi_rho = params.z / grid.r - vh
        g = phi - phi_rho
        el = (5.0 / 3.0) * params.c_tf * rho ** (2.0 / 3.0) - np.clip(phi_rho - mu, 0.0, None)
        res = integrate_3d(RadialField(grid, np.abs(el)))
        return g, float(np.linalg.norm(sqrt_q * g)), res, (mu, rho, vh)

    def linearize(phi, state):
        mu = state[0]
        drho = 1.5 * coeff * np.sqrt(np.clip(phi - mu, 0.0, None))
        qd = q * drho
        solve = tridiagonal_solver(Tridiagonal(a.diag + 4.0 * np.pi * drho, a.off))

        def jac(d):
            shift = (qd @ d) / qd.sum() if mu > 0.0 else 0.0
            dv = coulomb_potential(RadialField(grid, drho * (d - shift)))
            return d + dv.values

        def precond(y):
            return solve(a @ (grid.sr * y)) / grid.sr

        return lambda rhs: precond(_gmres(lambda y: jac(precond(y)), rhs))

    case = f"Z={params.z:g}, N={params.n_electrons:g}"
    # The residual norm is extensive and scales like Z^(1/3) under the
    # natural rescaling; keep the stopping rule equally strict at all Z.
    scaled_tol = tol * max(1.0, params.z) ** (1.0 / 3.0)
    return newton_krylov(phi, defect, linearize, scaled_tol, stage, case)


def solve_tf(
    params: TFParams, grid: RadialGrid | None = None, tol: float = 1e-8
) -> TFSolution:
    """Solve the relaxed minimization over {rho >= 0, int rho <= N}.

    The model binds exactly Z, so the mass cap N is imposed when N < Z
    and dropped (mu = 0) otherwise.  tol bounds the L1 Euler-Lagrange
    defect, scaled by Z^(1/3).
    """
    if not tol > 0:
        raise ParameterError(f"tolerance must be positive, got {tol}")
    grid = grid if grid is not None else default_tf_grid()
    capped = params.n_electrons < params.z
    # a quarter of the potential of Sommerfeld's density holds the tail up
    v_s, rho0 = _initial_density(grid, params)
    vh0 = newton_potential(RadialField(grid, rho0)).values
    phi = 0.75 * v_s + 0.25 * (params.z / grid.r - vh0)
    (mu, rho, vh), res, steps = _newton(
        "constrained stage" if capped else "unconstrained stage",
        grid, params, phi, params.n_electrons if capped else np.inf, tol=tol,
    )
    return TFSolution(
        rho=RadialField(grid, rho, nonnegative=True),
        phi=RadialField(grid, params.z / grid.r - vh - mu),
        mu=mu,
        terms=energy_terms(grid, params.z, params.c_tf, rho, vh),
        mass=integrate_3d(RadialField(grid, rho)),
        residual=res,
        iterations=steps,
        params=params,
    )


def tf_scaling_check(params: TFParams, grid: RadialGrid | None = None) -> float:
    """Relative defect of E(N, Z) = Z^(7/3) E(N/Z, 1).

    The (N, Z) problem is solved on the base grid shrunk by Z^(-1/3), the
    scale mapping the reference problem onto the charged one.
    """
    grid = grid if grid is not None else default_tf_grid()
    scale = params.z ** (-1.0 / 3.0)
    scaled_grid = replace(grid, r_min=grid.r_min * scale, r_max=grid.r_max * scale)
    e_z = solve_tf(params, scaled_grid).terms.total
    ref = TFParams(z=1.0, n_electrons=params.n_electrons / params.z, c_tf=params.c_tf)
    e_1 = solve_tf(ref, grid).terms.total
    return float(abs(e_z - params.z ** (7.0 / 3.0) * e_1) / abs(e_z))


def sommerfeld_amplitude(c_tf: float = C_TF_DEFAULT) -> float:
    """A solving 12 A = 4 pi (3 A / (5 c_tf))^(3/2): the amplitude of the
    universal Phi ~ A r^-4 far tail of the neutral solution."""
    return 9.0 * (5.0 * c_tf / 3.0) ** 3 / np.pi**2


# Far-tail box at Z = 1 and its stopping tolerance, both carried to other
# Z by neutral_tail_solution.
_TAIL_R_MAX = 12000.0
_TAIL_GRID_N = 3400
_TAIL_TOL = 5e-7


def neutral_tail_solution(z: float) -> TFSolution:
    """Neutral solution at C_TF_DEFAULT on a box rescaled by Z^(-1/3),
    for far-tail work.

    The solve commutes with the natural rescaling, so working on the
    scaled box converges exactly like the Z = 1 problem; the residual is
    an extensive quantity, and solve_tf scales _TAIL_TOL by Z^(1/3).
    """
    s = z ** (-1.0 / 3.0)
    grid = make_log_grid(1e-4 * s, _TAIL_R_MAX * s, _TAIL_GRID_N)
    return solve_tf(TFParams(z=z, n_electrons=z), grid, _TAIL_TOL)


def default_tail_window(z: float) -> tuple:
    """Fit window (1500, 3000) Z^(-1/3): a scale-invariant range deep
    enough in the asymptotic regime that the measured local slope sits
    within 0.05 of -4.  The approach to the power law is slow (the
    correction decays like r^-0.772), so early windows are still in the
    core-to-tail crossover; e.g. Z = 1 on [5, 50] has local slopes only
    -2.2 to -3.4.  Windows must also stay ~half a decade clear of the
    box wall, whose charge deficit bends the slope back up."""
    s = z ** (-1.0 / 3.0)
    return (1500.0 * s, 3000.0 * s)


def tf_tail_exponent(sol: TFSolution, fit_window: tuple | None = None) -> TailFit:
    """Least-squares fit of log Phi vs log r on the window.

    Neutral solutions give exponent near -4; ionized solutions (mu > 0)
    have compactly supported densities and no power tail, so the fit is
    refused with the compact_support flag.
    """
    if fit_window is None:
        fit_window = default_tail_window(sol.params.z)
    lo, hi = fit_window
    grid = sol.rho.grid
    mask = (grid.r >= lo) & (grid.r <= hi)
    if not (grid.r_min <= lo < hi <= grid.r_max and np.count_nonzero(mask) >= 2):
        raise ParameterError(f"fit window {fit_window} is off the grid or holds < 2 nodes")
    if sol.mu > 1e-8 or np.any(sol.phi.values[mask] <= 0.0):
        return TailFit(None, None, compact_support=True, window=fit_window)
    x = np.log(grid.r[mask])
    y = np.log(sol.phi.values[mask])
    slope, _ = np.polyfit(x, y, 1)
    # Amplitude of the nearest pure r^-4 law (exponent pinned at -4);
    # a free-intercept fit would slave the amplitude to the slope error.
    amplitude = float(np.exp(np.mean(y + 4.0 * x)))
    return TailFit(
        exponent=float(slope),
        amplitude=amplitude,
        compact_support=False,
        window=fit_window,
    )
