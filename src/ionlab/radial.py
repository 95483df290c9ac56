"""Radial grid, quadrature and reduced one-body operators.

Spherically symmetric functions f(|x|) are sampled on a logarithmic
radial grid.  One-body operators act on reduced functions phi(r) = r*f(r)
with Dirichlet conditions at both grid ends, which turns -Laplace into a
symmetric tridiagonal matrix.  All integrals use trapezoidal quadrature
in log r, plus a small rectangle correction for the untabulated interval
[0, r_min].

Atomic units throughout: the kinetic operator is -Laplace with no 1/2.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import DomainError, ParameterError

__all__ = [
    "RadialGrid",
    "RadialField",
    "make_log_grid",
    "integrate_3d",
    "coulomb_potential",
    "newton_potential",
    "Tridiagonal",
    "reduced_laplacian",
    "tridiagonal_solver",
    "extremal_eigs",
]


@dataclass(frozen=True)
class RadialGrid:
    """The logarithmic grid of n points from r_min to r_max, equal to
    another grid exactly when the three numbers are.

    Derived once, read-only: the radii ``r``, evenly spaced in log r with
    step ``log_step``; the weights ``w`` of integrals int_0^r_max g(r) dr,
    trapezoid in log r plus a constant-extrapolation rectangle of width
    r_min on [0, r_min], which for r^2-weighted (3D) integrands costs
    O(r_min^3); the uniform-in-log cell widths ``mass``, the lumped mass of
    the reduced operators (no origin rectangle: reduced functions vanish at
    0); and ``sr = sqrt(4 pi mass) r``, which maps u to the weighted
    representation psi = sr * u that ``reduced_laplacian`` acts in.
    ParameterError refuses an n that is not an integer (a bool included)
    and a grid whose derived arrays are not all finite.
    """

    r_min: float
    r_max: float
    n: int

    def __post_init__(self):
        if not (0 < self.r_min < self.r_max < np.inf):
            raise ParameterError(
                f"need 0 < r_min < r_max < inf, got [{self.r_min}, {self.r_max}]"
            )
        try:
            n = None if isinstance(self.n, bool) else operator.index(self.n)
        except TypeError:
            n = None
        if n is None:
            raise ParameterError(f"the number of grid points must be an integer, got {self.n!r}")
        if n < 4:
            raise ParameterError(f"need n >= 4 grid points, got {n}")
        object.__setattr__(self, "n", n)
        x = np.linspace(np.log(self.r_min), np.log(self.r_max), n)
        h = x[1] - x[0]
        r = np.exp(x)
        if not np.all(np.diff(r) > 0):
            raise ParameterError(f"{n} radii on [{self.r_min}, {self.r_max}] do not increase")
        c = np.ones(n)
        c[0] = c[-1] = 0.5
        # near r_max = float max the weights overflow; refused below
        with np.errstate(over="ignore"):
            w = h * r * c
            w[0] += self.r_min
            mass = 2.0 * np.sinh(0.5 * h) * r
            sr = np.sqrt(4.0 * np.pi * mass) * r
        for name, arr in (("r", r), ("w", w), ("mass", mass), ("sr", sr)):
            if not np.isfinite(arr).all():
                raise ParameterError(
                    f"grid [{self.r_min}, {self.r_max}] n={n} has non-finite {name}"
                )
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "log_step", float(h))

    def descriptor(self) -> str:
        return f"log[{self.r_min:.3g},{self.r_max:.3g}] n={self.n}"


def make_log_grid(r_min: float, r_max: float, n: int) -> RadialGrid:
    """The grid of n points from r_min to r_max: ``RadialGrid(r_min, r_max, n)``."""
    return RadialGrid(r_min, r_max, n)


@dataclass(frozen=True)
class RadialField:
    """Samples f(r_i) of a spherically symmetric function f(|x|)."""

    grid: RadialGrid
    values: np.ndarray
    nonnegative: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n,):
            raise ParameterError(
                f"field has {v.shape} values for a grid of size {self.grid.n}"
            )
        if self.nonnegative and np.any(v < -1e-13 * max(1.0, np.max(np.abs(v)))):
            raise DomainError("field tagged nonnegative has negative entries")
        object.__setattr__(self, "values", v)
        v.setflags(write=False)


def integrate_3d(f: RadialField, radial_power: int = 0) -> float:
    """int_R3 f(|x|) |x|^p dx = 4 pi sum_i w_i r_i^(2+p) f(r_i).

    Requires p >= -2 so that bounded f stays integrable at the origin.
    """
    if radial_power < -2:
        raise ParameterError(f"radial_power must be >= -2, got {radial_power}")
    r = f.grid.r
    return float(4.0 * np.pi * np.dot(f.grid.w, r ** (2 + radial_power) * f.values))


def _cumulative_integral(grid: RadialGrid, integrand: np.ndarray, inward=False):
    """Running integral int_{r_1}^{r_i} integrand dr at every node, or
    int_{r_i}^{r_n} inward: summed from the end it starts at, so that small
    far-field integrals keep their digits.

    Trapezoid in log coordinates with the Euler-Maclaurin endpoint
    correction -h^2/12 (g'(x_i) - g'(x_1)), mirrored inward, which lifts the
    cumulative rule to fourth order for smooth integrands.
    """
    h = grid.log_step
    g = integrand * grid.r
    seg = 0.5 * h * (g[:-1] + g[1:])
    # g' by central differences inside and one-sided ones at the ends.
    gp = np.empty_like(g)
    gp[1:-1] = (g[2:] - g[:-2]) / (2.0 * h)
    gp[0] = (g[1] - g[0]) / h
    gp[-1] = (g[-1] - g[-2]) / h
    c = h * h / 12.0
    if inward:
        return np.append(np.cumsum(seg[::-1])[::-1], 0.0) - c * (gp[-1] - gp)
    return np.append(0.0, np.cumsum(seg)) - c * (gp - gp[0])


def coulomb_potential(rho: RadialField) -> RadialField:
    """Coulomb potential of a radial charge density of either sign.

    Phi(r) = M(r)/r + int_{|y|>r} rho/|y| dy with M(r) the charge enclosed
    in the ball of radius r; this is the shell decomposition
    (rho * 1/|x|)(x) = int rho(y)/max(|x|,|y|) dy.  Linear in rho.
    """
    grid = rho.grid
    r = grid.r
    vals = rho.values

    # Constant extrapolation of rho onto [0, r_min] for the enclosed mass.
    enclosed = _cumulative_integral(grid, vals * r**2) + vals[0] * r[0] ** 3 / 3.0

    outer = _cumulative_integral(grid, vals * r, inward=True)

    phi = 4.0 * np.pi * (enclosed / r + outer)
    return RadialField(grid, phi)


def newton_potential(rho: RadialField) -> RadialField:
    """Coulomb potential of a nonnegative radial density; rounding-level
    negative entries are clipped to zero."""
    if not rho.nonnegative and np.any(rho.values < 0):
        scale = max(1.0, float(np.max(np.abs(rho.values))))
        if np.min(rho.values) < -1e-12 * scale:
            raise DomainError("newton_potential needs a nonnegative density")
    return coulomb_potential(RadialField(rho.grid, np.clip(rho.values, 0.0, None)))


@dataclass(frozen=True)
class Tridiagonal:
    """Symmetric tridiagonal matrix: ``diag`` (n) and ``off`` (n - 1), the
    super- and subdiagonal alike.  ``t @ x`` is the matrix-vector product."""

    diag: np.ndarray
    off: np.ndarray

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        y = self.diag * x
        y[1:] += self.off * x[:-1]
        y[:-1] += self.off * x[1:]
        return y


def reduced_laplacian(grid: RadialGrid) -> Tridiagonal:
    """-d^2/dr^2 on phi = r*f with Dirichlet at both grid ends.

    Assembled as the piecewise-linear stiffness matrix, with ghost nodes
    extending the log spacing one step past each end where phi = 0, then
    symmetrized against the lumped mass:  A = M^(-1/2) K M^(-1/2).  The
    matrix acts in the weighted representation psi_i = sqrt(4 pi m_i) phi_i,
    in which the Euclidean inner product equals the L2(R3) product of the
    underlying radial functions.  Multiplication operators are diagonal and
    identical in both representations.
    """
    r = grid.r
    n = grid.n
    h = grid.log_step
    dr = np.diff(r)
    dr_lo = r[0] - r[0] * np.exp(-h)   # ghost cell below r_min
    dr_hi = r[-1] * np.exp(h) - r[-1]  # ghost cell above r_max

    inv = 1.0 / dr
    diag = np.empty(n)
    diag[0] = 1.0 / dr_lo + inv[0]
    diag[1:-1] = inv[:-1] + inv[1:]
    diag[-1] = inv[-1] + 1.0 / dr_hi

    s = 1.0 / np.sqrt(grid.mass)
    return Tridiagonal(diag * s * s, -inv * s[:-1] * s[1:])


def tridiagonal_solver(t: Tridiagonal):
    """Solve with the symmetric tridiagonal t, factored once.

    LU with partial pivoting (LAPACK gttrf), then one gttrs substitution per
    right-hand side: the arithmetic of ``scipy.linalg.solve_banded((1, 1),
    band, rhs)``, which refactors on every call.  Raises ValueError on a
    non-finite or misshapen t or rhs and LinAlgError on a singular t.
    """
    if not (np.all(np.isfinite(t.diag)) and np.all(np.isfinite(t.off))):
        raise ValueError("array must not contain infs or NaNs")
    dl, d, du, du2, ipiv, info = dgttrf(t.off, t.diag, t.off)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")

    def solve(rhs: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(rhs)):
            raise ValueError("array must not contain infs or NaNs")
        return dgttrs(dl, d, du, du2, ipiv, rhs)[0]

    return solve


def extremal_eigs(t: Tridiagonal, k: int = 1) -> np.ndarray:
    """The k smallest eigenvalues of the symmetric tridiagonal t, ascending,
    by bisection (LAPACK stebz), O(n k) in time and memory; k <= n, and a
    misshapen t raises ValueError.
    """
    # stebz's default tolerance is eps * ||T||_1, far too loose on graded
    # matrices whose spectrum spans many decades; ask for full accuracy.
    return scipy.linalg.eigh_tridiagonal(
        t.diag, t.off, eigvals_only=True, select="i", select_range=(0, k - 1),
        lapack_driver="stebz", tol=2.0 * np.finfo(float).tiny,
    )
