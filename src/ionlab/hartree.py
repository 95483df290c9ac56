"""Mean-field energy of product states and its critical bound mass.

The rescaled problem minimizes, over radial orbitals v >= 0 with
int |v|^2 <= t,

    e(t) = int |grad v|^2 - |v|^2/|x| + (1/2) |v|^2 (|v|^2 * 1/|x|),

which is the gradient-corrected functional of ``tfw`` with c_tf = 0,
c_w = 1 and Z = 1, so both share its Newton solver.  The uncapped
minimizer carries the critical mass t_c.  Below t_c the cap binds and
the multiplier mu = -lambda is positive; from t_c on the bound mass
saturates and e(t) stays flat at the uncapped minimum.  The same solver,
with charge Z and cap N - 1, evaluates the unscaled product-state
energy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, ParameterError
from .radial import RadialField, RadialGrid
from .tf import EnergyTerms
from .tfw import TFWParams, _TFWModel, default_tfw_grid

__all__ = [
    "HartreeState",
    "default_hartree_grid",
    "minimize_e",
    "compute_tc",
    "e_curve",
    "hartree_energy_direct",
]


@dataclass(frozen=True)
class HartreeState:
    v: RadialField
    t: float
    mu: float
    terms: EnergyTerms
    bound_mass: float
    residual: float  # relative stationarity defect
    iterations: int


# The rescaled functional is the gradient-corrected one at c_tf = 0, on its grid.
default_hartree_grid = default_tfw_grid


def _model(grid: RadialGrid | None, z: float = 1.0) -> _TFWModel:
    """The c_tf = 0 functional at charge z."""
    grid = grid if grid is not None else default_hartree_grid()
    return _TFWModel(TFWParams(z=z, c_tf=0.0), grid)


def _state(model: _TFWModel, t: float) -> HartreeState:
    """The minimizer at cap t, read off its solve's final state."""
    st = model.minimize(t)
    return HartreeState(
        v=RadialField(model.grid, st.u, nonnegative=True),
        t=float(t),
        mu=0.0 - st.lam,  # +0.0, not -0.0, off the cap
        terms=model.terms(st.u, st.vh),
        bound_mass=model.mass(st.u),
        residual=st.residual,
        iterations=st.iterations,
    )


def minimize_e(t: float, grid: RadialGrid | None = None) -> HartreeState:
    """Minimize the rescaled product-state functional over int v^2 <= t.

    Below t_c the minimizer sits on the cap with mu > 0; from t_c on it
    leaves the cap, with mu = 0, bound mass t_c and the flat energy e(t_c).
    """
    if not t > 0:
        raise ParameterError(f"target mass must be positive, got {t}")
    return _state(_model(grid), t)


def compute_tc(grid: RadialGrid | None = None, tol: float = 0.01) -> float:
    """Critical mass: the mass of the uncapped minimizer.

    Certified by the multiplier one tolerance below: mu(t_c - tol) > 0,
    i.e. the cap still binds there.
    """
    if not tol > 0:
        raise ParameterError(f"tolerance must be positive, got {tol}")
    model = _model(grid)
    tc = model.mass(model.minimize().u)
    if not tol < tc:
        raise ParameterError(f"tolerance {tol} must lie below t_c = {tc}")
    mu = 0.0 - model.minimize(tc - tol).lam
    if not mu > 0:
        raise ConvergenceError(
            f"t_c = {tc:.6g} not certified: mu(t_c - {tol:g}) = {mu:.3e} "
            "is not positive"
        )
    return tc


def e_curve(ts, grid: RadialGrid | None = None):
    """Rows (t, e, mu, bound_mass) for each requested mass, all from one
    uncapped solve."""
    ts = list(ts)
    if not ts:
        raise ParameterError("need at least one mass value")
    if not all(t > 0 for t in ts):
        raise ParameterError("masses must be positive")
    model = _model(grid)
    rows = []
    for t in ts:
        st = _state(model, t)
        rows.append((float(t), st.terms.total, st.mu, st.bound_mass))
    return rows


def hartree_energy_direct(
    n_particles: float, z: float, grid: RadialGrid | None = None
) -> float:
    """Product-state energy at physical charge and particle number:
    N inf over normalized u of int |grad u|^2 - Z u^2/|x|
    + ((N-1)/2) u^2 (u^2 * 1/|x|).  A second route, at charge Z, used to
    validate the rescaling onto e(t).

    With w = (N-1)^(1/2) u this is N/(N-1) times the charge-Z minimum
    over int w^2 = N - 1, so the cap N - 1 must bind.
    """
    if not n_particles > 1:
        raise ParameterError("need more than one particle for the pair term")
    if not z > 0:
        raise ParameterError("charge must be positive")
    model = _model(grid, z)
    st = model.minimize(n_particles - 1.0)
    if not st.lam < 0:
        raise DomainError(
            f"cap N - 1 = {n_particles - 1.0:g} does not bind at Z = {z:g}: "
            "it exceeds the critical mass"
        )
    return float(n_particles) / (n_particles - 1.0) * model.terms(st.u, st.vh).total
