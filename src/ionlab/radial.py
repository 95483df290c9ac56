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

import importlib.machinery
import importlib.util
import operator
import os
import sys
from dataclasses import dataclass

import numpy as np

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
    "coupled_solver",
    "spectrum_above",
    "extremal_eigs",
]

# The Noda bracket of extremal_eigs is converged once its width is NODA_RTOL
# of the eigenvalue.  It is then widened by NODA_RTOL on each side: on the
# graded certificate matrices its ends and stebz's value disagree by up to
# 7e-11 relative.  Past NODA_MAX_STEPS steps the bracket is given up.
NODA_RTOL = 1e-8
NODA_MAX_STEPS = 30
# stebz's default tolerance is eps * ||T||_1, far too loose on graded
# matrices whose spectrum spans many decades; ask for full accuracy.
_STEBZ_TOL = 2.0 * np.finfo(float).tiny


def _load_flapack():
    """SciPy's compiled LAPACK wrappers, the extension module
    ``scipy.linalg._flapack``, loaded without running the ``scipy.linalg``
    package.  After NumPy, with one BLAS thread, the extension alone loads
    in about 4 ms; the package takes 0.20-0.28 s and 28 MB of peak RSS.
    The module is registered under its own name, so a later ``import
    scipy.linalg`` reuses it and ``scipy.linalg.lapack`` hands out the same
    compiled functions; an entry already there is reused."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")  # finds scipy, does not import it
    spec = scipy_spec and importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(d, "linalg") for d in scipy_spec.submodule_search_locations])
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


_flapack = _load_flapack()
dgttrf, dgttrs = _flapack.dgttrf, _flapack.dgttrs
dgbtrf, dgbtrs = _flapack.dgbtrf, _flapack.dgbtrs
dpttrf, dpttrs = _flapack.dpttrf, _flapack.dpttrs
dstebz = _flapack.dstebz


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


def reduced_laplacian(grid: RadialGrid, mass: np.ndarray | None = None) -> Tridiagonal:
    """-d^2/dr^2 on phi = r*f with Dirichlet at both grid ends.

    Assembled as the piecewise-linear stiffness matrix, with ghost nodes
    extending the log spacing one step past each end where phi = 0, then
    symmetrized against the lumped mass m (``grid.mass`` by default) as
    A = M^(-1/2) K M^(-1/2), acting in the weighted representation
    psi_i = sqrt(4 pi m_i) phi_i, whose Euclidean inner product is the
    m-lumped L2(R3) product.  Multiplication operators are diagonal and
    identical in both representations.  DomainError, naming the grid,
    refuses a grid whose entries, about 2 / (h r_min)^2, pass the float range.
    """
    r = grid.r
    n = grid.n
    h = grid.log_step
    dr = np.diff(r)
    dr_lo = r[0] - r[0] * np.exp(-h)   # ghost cell below r_min
    dr_hi = r[-1] * np.exp(h) - r[-1]  # ghost cell above r_max

    with np.errstate(over="ignore", divide="ignore"):
        inv = 1.0 / dr
        diag = np.empty(n)
        diag[0] = 1.0 / dr_lo + inv[0]
        diag[1:-1] = inv[:-1] + inv[1:]
        diag[-1] = inv[-1] + 1.0 / dr_hi

        s = 1.0 / np.sqrt(grid.mass if mass is None else mass)
        t = Tridiagonal(diag * s * s, -inv * s[:-1] * s[1:])
    if not (np.isfinite(t.diag).all() and np.isfinite(t.off).all()):
        raise DomainError(f"grid {grid.descriptor()}: reduced Laplacian entries overflow")
    return t


def _poisson_laplacian(grid: RadialGrid, mass: np.ndarray) -> Tridiagonal:
    """``reduced_laplacian(grid, mass)`` with a Neumann last row and no
    ghost cell: the operator of Poisson's equation for the potential of a
    charge inside the box, which is Q/r past it, so r phi is flat at the
    edge rather than zero."""
    a = reduced_laplacian(grid, mass)
    diag = a.diag.copy()
    diag[-1] = (1.0 / (grid.r[-1] - grid.r[-2])) / mass[-1]
    return Tridiagonal(diag, a.off)


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


def coupled_solver(t: Tridiagonal, a: Tridiagonal, upper: np.ndarray, lower: np.ndarray):
    """Solve [T, diag(upper); diag(lower), A] (x, w) = (y, 0) for x, factored
    once, T and A symmetric tridiagonal of one size.

    With the unknowns interleaved as (x_0, w_0, x_1, w_1, ...) the matrix is
    a band with two sub- and two superdiagonals: LU with partial pivoting
    (LAPACK gbtrf) on the band, held in Fortran order so that the wrapper
    factors it in place, then one gbtrs substitution per right-hand side.
    Raises ValueError on a non-finite or misshapen entry or rhs and
    LinAlgError on a singular matrix.
    """
    m = 2 * t.diag.size
    # entry (i, j) at ab[4 + i - j, j]; rows 0 and 1 take the fill-in
    ab = np.zeros((7, m), order="F")
    ab[2, 2::2] = ab[6, :-2:2] = t.off
    ab[2, 3::2] = ab[6, 1:-2:2] = a.off
    ab[3, 1::2] = upper
    ab[4, ::2] = t.diag
    ab[4, 1::2] = a.diag
    ab[5, ::2] = lower
    if not np.isfinite(ab).all():
        raise ValueError("array must not contain infs or NaNs")
    lu, ipiv, info = dgbtrf(ab, 2, 2, overwrite_ab=1)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")

    def solve(rhs: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(rhs)):
            raise ValueError("array must not contain infs or NaNs")
        b = np.zeros(m)
        b[::2] = rhs
        return dgbtrs(lu, 2, 2, b, ipiv, overwrite_b=1)[0][::2]

    return solve


def spectrum_above(t: Tridiagonal, shift: float) -> bool:
    """Whether every eigenvalue of the symmetric tridiagonal t exceeds shift:
    whether t - shift I is positive definite, which one LDL^T factorization
    (LAPACK pttrf) decides in O(n).  Its pivots d_i - e_(i-1)^2 / p_(i-1)
    read the off-diagonal squared only, so they are those of
    T' = (diag, -|off|) as well."""
    return dpttrf(t.diag - shift, t.off)[2] == 0


def _noda_bracket(t: Tridiagonal):
    """A bracket (lo, hi) with lo < lambda_1 certified, or None.

    T' = (diag, -|off|) is a Z-matrix with t's spectrum, so for sigma below
    lambda_1 the inverse of T' - sigma is entrywise nonnegative, and for any
    x > 0 and y = (T' - sigma)^(-1) x the Collatz-Wielandt bounds give
    sigma + 1/max(y/x) <= lambda_1 <= sigma + 1/min(y/x).  Noda's inverse
    iteration (Numer. Math. 17, 1971) moves sigma to the lower bound and x
    to y, from the Gershgorin bound and x = 1.  Each sigma is certified
    below lambda_1 by its own pttrf before it is used, and so is the
    widened lower end.  None when a factorization fails, y or the next x
    is not positive and finite, or NODA_MAX_STEPS pass without the bracket
    narrowing to NODA_RTOL: a reducible t, such as a diagonal one, and
    graded ones whose eigenvector is so small at some nodes that the
    ratios there carry no digits.
    """
    d = t.diag
    e = -np.abs(t.off)
    # on entries near the float range the Gershgorin radii, the shifted
    # diagonal or a bound overflow; the checks below then fail, and the
    # index range answers without a warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        radius = np.zeros_like(d)
        radius[1:] -= e
        radius[:-1] -= e
        sigma = float(np.min(d - radius))
        sigma -= NODA_RTOL * abs(sigma)
        x = np.ones_like(d)
        for _ in range(NODA_MAX_STEPS):
            p, l, info = dpttrf(d - sigma, e)
            if info:
                return None
            y = dpttrs(p, l, x)[0]
            q = y / x
            qmin, qmax = q.min(), q.max()
            if not (qmin > 0.0 and qmax < np.inf):
                return None
            lo, hi = sigma + 1.0 / qmax, sigma + 1.0 / qmin
            scale = NODA_RTOL * max(abs(lo), abs(hi))
            if hi - lo <= scale:
                pad = hi - lo + scale
                lo, hi = lo - pad, hi + pad
                return (lo, hi) if spectrum_above(t, lo) else None
            sigma = lo
            x = y / y.max()
            if not x.min() > 0.0:
                return None
    return None


def extremal_eigs(t: Tridiagonal, k: int = 1) -> np.ndarray:
    """The k smallest eigenvalues of the symmetric tridiagonal t, ascending,
    by bisection (LAPACK stebz) at full accuracy.  ValueError refuses a
    misshapen or non-finite t and a k outside 1..n; LinAlgError, naming
    LAPACK's info, a bisection that fails.

    For k = 1 the bisection runs on the value range of ``_noda_bracket``,
    whose lower end is certified below lambda_1, and the smallest value
    stebz finds there is the answer: a few O(n) Noda steps and a short
    bisection in place of one over the whole Gershgorin interval.  Without
    a bracket, or with nothing found in it, and for k > 1, the bisection
    is over the index range 0..k-1, O(n k) in time and memory: the call and
    the answer of ``scipy.linalg.eigh_tridiagonal(diag, off,
    eigvals_only=True, select="i", select_range=(0, k - 1),
    lapack_driver="stebz", tol=_STEBZ_TOL)``.
    """
    n = t.diag.size
    if t.off.shape != (n - 1,):
        raise ValueError(f"off-diagonal of length {t.off.size} for a diagonal of {n}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got k = {k}")
    if not (np.all(np.isfinite(t.diag)) and np.all(np.isfinite(t.off))):
        raise ValueError("array must not contain infs or NaNs")
    if n == 1:  # as eigh_tridiagonal does; the wrappers take no 1 x 1 pttrf
        return t.diag.astype(float)
    if k == 1:
        bracket = _noda_bracket(t)
        if bracket is not None:
            m, w, _, _, info = dstebz(t.diag, t.off, 1, *bracket, 1, 1, _STEBZ_TOL, "E")
            if info == 0 and m > 0:
                return w[:1].copy()
    m, w, _, _, info = dstebz(t.diag, t.off, 2, 0.0, 1.0, 1, k, _STEBZ_TOL, "E")
    if info:
        raise np.linalg.LinAlgError(f"stebz did not converge (LAPACK info={info})")
    return w[:m].copy()
