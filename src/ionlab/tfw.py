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

Solver: backward-Euler gradient flow with the full frozen linearized
operator treated implicitly (a log grid makes any explicit treatment of
the local terms unstable), energy-monotone step control, and a
projection back onto the cap after each step (the normalized gradient
flow of Bao & Du, SIAM J. Sci. Comput. 25, 2004).  Charge continuation:
each Z is seeded by rescaling the previous rung's solution, starting
from the gradient-free density at the bottom rung.  Eigenvalue-
replacement SCF is useless here: at the minimizer the local potential
cancels against the bulk term, so the linearized operator is nearly
flat and its ground state is a box mode, not the solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, DomainError, ParameterError
from .radial import (
    RadialField,
    RadialGrid,
    integrate_3d,
    make_log_grid,
    newton_potential,
    reduced_laplacian,
)
from .tf import C_TF_DEFAULT, TFParams, TFSolverOptions, solve_tf

__all__ = [
    "TFWParams",
    "TFWOptions",
    "TFWSolution",
    "MajorantCheck",
    "default_tfw_grid",
    "solve_tfw",
    "excess_charge_sweep",
    "subharmonic_majorant_check",
]


@dataclass(frozen=True)
class TFWParams:
    z: float
    c_tf: float = C_TF_DEFAULT
    c_w: float = 1.0

    def __post_init__(self):
        if self.z <= 0 or self.c_tf < 0 or self.c_w <= 0:
            raise ParameterError("Z and c_w must be positive and c_tf nonnegative")


@dataclass(frozen=True)
class TFWOptions:
    # Relative stationarity residuals floor around 2e-7 for Z ~ 1 and
    # drift upward with Z; 2e-6 is attainable through Z = 64 on the
    # default grid within the iteration budget.
    rel_residual_tol: float = 2e-6
    max_iter: int = 16_000


# Initial backward-Euler step size; the energy-monotone control adapts it.
_ETA0 = 0.1


@dataclass(frozen=True)
class TFWSolution:
    u: RadialField
    phi: RadialField  # Z/|x| - u^2 * 1/|x|
    n_c: float
    q: float
    energy: float
    residual: float  # relative stationarity defect
    iterations: int
    params: TFWParams


def default_tfw_grid() -> RadialGrid:
    return make_log_grid(1e-4, 100.0, 2000)


class _TFWModel:
    def __init__(self, params: TFWParams, grid: RadialGrid):
        self.params = params
        self.grid = grid
        self.a = reduced_laplacian(grid).matrix
        self.s = np.sqrt(4.0 * np.pi * grid.mass)
        upper = np.zeros((2, grid.n))
        upper[1] = self.a.diagonal()
        upper[0, 1:] = self.a.diagonal(1)
        self.kin_band = upper

    def to_psi(self, u: np.ndarray) -> np.ndarray:
        return self.s * self.grid.r * u

    def to_u(self, psi: np.ndarray) -> np.ndarray:
        return psi / (self.s * self.grid.r)

    def coulomb(self, u: np.ndarray) -> np.ndarray:
        """Hartree potential u^2 * 1/|x|: the one Coulomb solve per density.

        The methods below take it as an optional vh and compute it only
        when it is not given."""
        return newton_potential(RadialField(self.grid, u * u)).values

    def phi_of(self, u: np.ndarray, vh: np.ndarray | None = None) -> np.ndarray:
        if vh is None:
            vh = self.coulomb(u)
        return self.params.z / self.grid.r - vh

    def local_potential(self, u: np.ndarray, vh: np.ndarray | None = None) -> np.ndarray:
        p = self.params
        return (5.0 / 3.0) * p.c_tf * np.abs(u) ** (4.0 / 3.0) - self.phi_of(u, vh)

    def energy(self, u: np.ndarray, vh: np.ndarray | None = None) -> float:
        grid = self.grid
        p = self.params
        if vh is None:
            vh = self.coulomb(u)
        u2 = RadialField(grid, u * u)
        psi = self.to_psi(u)
        kin = p.c_w * float(psi @ (self.a @ psi))
        bulk = p.c_tf * integrate_3d(RadialField(grid, np.abs(u) ** (10.0 / 3.0)))
        attract = p.z * integrate_3d(u2, radial_power=-1)
        hart = 0.5 * integrate_3d(RadialField(grid, u * u * vh))
        return float(kin + bulk - attract + hart)

    def mass(self, u: np.ndarray) -> float:
        return float(integrate_3d(RadialField(self.grid, u * u)))

    def rel_residual(
        self, u: np.ndarray, on_cap: bool = False, vh: np.ndarray | None = None
    ):
        """Stationarity defect of (c_w A + vloc - lambda) u relative to the
        sizes of its kinetic and potential parts, and lambda itself.

        lambda is the Rayleigh quotient <psi, H psi>/<psi, psi> while u
        sits on a mass cap, and 0 otherwise.
        """
        p = self.params
        psi = self.to_psi(u)
        kin_part = p.c_w * (self.a @ psi)
        pot_part = self.local_potential(u, vh) * psi
        lam = float(psi @ (kin_part + pot_part)) / float(psi @ psi) if on_cap else 0.0
        pot_part = pot_part - lam * psi
        scale = np.linalg.norm(kin_part) + np.linalg.norm(pot_part)
        if scale == 0.0:
            return 0.0, lam
        return float(np.linalg.norm(kin_part + pot_part) / scale), lam

    def seed(self) -> np.ndarray:
        """Starting profile: the hydrogenic ground state exp(-Z r/(2 c_w))
        without a bulk term, else the square root of the gradient-free
        neutral density, the c_w -> 0 bulk limit and a good starting
        profile at every Z."""
        p = self.params
        if p.c_tf == 0.0:
            return np.exp(-0.5 * p.z / p.c_w * self.grid.r)
        tf0 = solve_tf(
            TFParams(z=p.z, n_electrons=p.z, c_tf=p.c_tf),
            self.grid,
            TFSolverOptions(residual_tol=1e-6, max_iter=6000),
        )
        return np.sqrt(np.clip(tf0.rho.values, 0.0, None)) + 1e-30

    def _onto_cap(self, u: np.ndarray, cap: float | None):
        """u scaled down to mass cap if it carries more, and whether it
        now sits on the cap."""
        if cap is None:
            return u, False
        m = self.mass(u)
        if m < cap:
            return u, False
        return np.sqrt(cap / m) * u, True

    def implicit_flow(
        self, u0: np.ndarray, max_iter: int, tol: float, cap: float | None = None
    ):
        """Backward-Euler descent psi <- (I + 2 eta H[u])^{-1} psi with
        energy-monotone step adaptation; H is tridiagonal, so each step
        is one banded solve.  With a mass cap, each step that ends above
        it is scaled back onto it.

        Returns (u, rel, iterations, lambda), with rel and lambda from
        ``rel_residual`` at the returned u.  Stops when rel < tol, when
        the step size underflows, or after max_iter steps; iterations
        counts the steps actually taken, and callers judge by rel.

        Each candidate density costs one Coulomb solve: the accepted
        state (u, e, vh) carries its Hartree potential into the next
        step's residual, local potential and banded system.
        """
        u, on_cap = self._onto_cap(np.abs(u0) + 1e-30, cap)
        vh = self.coulomb(u)
        e = self.energy(u, vh)
        eta = _ETA0
        n = self.grid.n
        for it in range(1, max_iter + 1):
            rel, lam = self.rel_residual(u, on_cap, vh)
            if rel < tol:
                return u, rel, it, lam
            psi = self.to_psi(u)
            vloc = self.local_potential(u, vh)
            diag = 1.0 + 2.0 * eta * (self.params.c_w * self.kin_band[1] + vloc)
            off = 2.0 * eta * self.params.c_w * self.kin_band[0]
            ab = np.zeros((3, n))
            ab[0] = off
            ab[1] = diag
            ab[2, :-1] = off[1:]
            try:
                psi_new = scipy.linalg.solve_banded((1, 1), ab, psi)
            except (ValueError, np.linalg.LinAlgError):
                eta *= 0.5
                continue
            u_new, new_on_cap = self._onto_cap(np.abs(self.to_u(psi_new)), cap)
            vh_new = self.coulomb(u_new)
            e_new = self.energy(u_new, vh_new)
            if e_new <= e + 1e-13 * abs(e):
                u, e, vh, on_cap = u_new, e_new, vh_new, new_on_cap
                eta = min(1.3 * eta, 1e4)
            else:
                eta *= 0.5
                if eta < 1e-12:
                    return u, rel, it, lam
        rel, lam = self.rel_residual(u, on_cap, vh)
        return u, rel, max_iter, lam


def _ladder(z: float) -> list:
    """Charges to visit on the way up: geometric rungs ending at z."""
    rungs = [z]
    while rungs[-1] > 2.5:
        rungs.append(rungs[-1] / 2.0)
    return rungs[::-1]


def _rescale_seed(grid: RadialGrid, u: np.ndarray, factor: float) -> np.ndarray:
    """Map a solution at charge Z onto a seed at charge factor*Z using the
    bulk scaling u -> factor * u(factor^(1/3) r)."""
    return factor * np.interp(grid.r * factor ** (1.0 / 3.0), grid.r, u, right=0.0)


def _continuation(zs: list, c_tf: float, c_w: float, grid: RadialGrid, opts: TFWOptions):
    """Uncapped minimizers at the increasing charges zs, solved along one
    combined ladder with each rung seeded by rescaling the previous one.

    Returns ([(model, u, rel)] for each z in zs, total flow steps).  A
    rung that misses its tolerance raises ConvergenceError naming its Z.
    """
    points = sorted(set(zs) | {r for z in zs for r in _ladder(z)})
    solved = []
    steps = 0
    u = z_prev = None
    for z in points:
        model = _TFWModel(TFWParams(z=z, c_tf=c_tf, c_w=c_w), grid)
        seed = model.seed() if u is None else _rescale_seed(grid, u, z / z_prev)
        wanted = z in zs
        # Filler rungs only seed the next rung.
        tol = opts.rel_residual_tol if wanted else max(5e-6, opts.rel_residual_tol)
        u, rel, iters, _ = model.implicit_flow(seed, opts.max_iter, tol)
        steps += iters
        if rel >= tol:
            raise ConvergenceError(
                f"flow stalled at relative residual {rel:.3e} for Z={z:g}",
                residual=rel,
                iterations=steps,
            )
        if wanted:
            solved.append((model, u, rel))
        z_prev = z
    return solved, steps


def solve_tfw(
    params: TFWParams,
    grid: RadialGrid | None = None,
    opts: TFWOptions | None = None,
) -> TFWSolution:
    """Fully unconstrained minimizer; its mass is the critical particle
    number n_c and q = n_c - Z > 0 is the excess charge.

    The excess charge is an O(0.1) difference of O(Z) quantities, so its
    resolution degrades with Z at fixed grid size; on the default grid
    the bias stays well below q through Z ~ 100.
    """
    grid = grid if grid is not None else default_tfw_grid()
    opts = opts or TFWOptions()
    [(model, u, rel)], steps = _continuation(
        [params.z], params.c_tf, params.c_w, grid, opts
    )
    n_c = model.mass(u)
    vh = model.coulomb(u)
    return TFWSolution(
        u=RadialField(grid, u, nonnegative=True),
        phi=RadialField(grid, model.phi_of(u, vh)),
        n_c=n_c,
        q=n_c - params.z,
        energy=model.energy(u, vh),
        residual=rel,
        iterations=steps,
        params=params,
    )


def excess_charge_sweep(
    zs,
    c_tf: float = C_TF_DEFAULT,
    c_w: float = 1.0,
    grid: RadialGrid | None = None,
    opts: TFWOptions | None = None,
):
    """Rows (z, q, u(1), phi(1)) over increasing charges.

    Solutions are continued from one charge to the next, and successive
    differences of each column contract as the large-Z limits emerge.
    """
    zs = [float(z) for z in zs]
    if not zs:
        raise ParameterError("need at least one charge")
    if any(z <= 0 for z in zs) or sorted(zs) != zs or len(set(zs)) != len(zs):
        raise ParameterError("charges must be positive and strictly increasing")
    grid = grid if grid is not None else default_tfw_grid()
    opts = opts or TFWOptions()

    solved, _ = _continuation(zs, c_tf, c_w, grid, opts)
    rows = []
    for model, u, _ in solved:
        z = model.params.z
        u1 = float(np.interp(1.0, grid.r, u))
        phi1 = float(np.interp(1.0, grid.r, model.phi_of(u)))
        rows.append((z, model.mass(u) - z, u1, phi1))
    return rows


@dataclass(frozen=True)
class MajorantCheck:
    q_bound: float
    passed: bool
    monotone_beyond_bulk: bool
    bulk_radius: float


def subharmonic_majorant_check(
    sol: TFWSolution, tol: float = 1e-6, residual_cap: float = 1e-4
) -> MajorantCheck:
    """Excess-charge bound from the subharmonic majorant
    p = (4 pi c_w u^2 + Phi^2)^(1/2).

    r p(r) decreases to q at infinity, so q <= min over r >= 1 of r p(r);
    the check also verifies the decrease beyond the bulk of the density.
    Inputs that do not satisfy the stationarity equation (relative
    residual above residual_cap) are rejected rather than scored.
    """
    grid = sol.u.grid
    model = _TFWModel(sol.params, grid)
    res, _ = model.rel_residual(sol.u.values)
    if res > residual_cap:
        raise DomainError(
            f"input does not solve the stationarity equation (residual {res:.2e})"
        )
    p = np.sqrt(4.0 * np.pi * sol.params.c_w * sol.u.values**2 + sol.phi.values**2)
    rp = grid.r * p
    mask = grid.r >= 1.0
    q_bound = float(np.min(rp[mask]))

    # Bulk radius: smallest r enclosing all but 1e-3 of the orbital mass.
    cum = np.cumsum(grid.w * grid.r**2 * sol.u.values**2)
    cum /= cum[-1]
    bulk_idx = int(np.searchsorted(cum, 1.0 - 1e-3))
    bulk_idx = min(bulk_idx, grid.n - 2)
    tail = rp[bulk_idx:]
    monotone = bool(np.all(np.diff(tail) <= 1e-9 * np.max(np.abs(tail))))
    return MajorantCheck(
        q_bound=q_bound,
        passed=bool(sol.q <= q_bound + tol),
        monotone_beyond_bulk=monotone,
        bulk_radius=float(grid.r[bulk_idx]),
    )
