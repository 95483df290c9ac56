"""Classical point-charge functionals: the beta constant, the pair
infimum 1/2 and Sigal-type configuration inequalities.

All functionals here are homogeneous of degree zero, so values are
invariant under uniform rescaling of a configuration; optimizers exploit
this by renormalizing the scale freely.

beta_optimize and pair_infimum_scan descend with the in-module L-BFGS
``_lbfgs`` (memory 10, Armijo backtracking that also rejects non-finite
trial values), on analytic gradients and NumPy alone.  It descends a
stack of starts in lockstep, one row per start: every step evaluates the
objective once for all rows still descending, through batched kernels
that take a (..., D) stack.  Each row stops on its own, when its max-abs
gradient is <= 1e-10, when one step lowers its value by
<= 2.22e-9 * max(|f|, |f_new|, 1) (the default factr * eps of L-BFGS-B),
or after 500 iterations, and then leaves the stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError

__all__ = [
    "PointConfig",
    "beta_value",
    "beta_optimize",
    "pair_infimum",
    "pair_infimum_scan",
    "sigal_check",
    "sigal_margin",
    "fibonacci_sphere",
]

_MIN_SEP = 1e-12
# beta_optimize descends its restarts in groups of at most this many
# R * n * n elements, the size of each (R, n, n) buffer of the batched
# kernel, so its memory does not grow with the number of restarts.
_GROUP_ELEMENTS = 2**19


@dataclass(frozen=True)
class PointConfig:
    """Finite configuration of distinct nonzero points in R^3."""

    points: np.ndarray

    def __post_init__(self):
        p = np.atleast_2d(np.asarray(self.points, dtype=float))
        if p.ndim != 2 or p.shape[1] != 3 or p.shape[0] < 1:
            raise ParameterError("points must be an (n, 3) array")
        if not np.isfinite(p).all():
            raise ParameterError("points must be finite")
        if np.min(np.linalg.norm(p, axis=1)) <= _MIN_SEP:
            raise DomainError("configuration contains a point at the origin")
        if p.shape[0] > 1 and np.min(_pair_distances(p)) <= _MIN_SEP:
            raise DomainError("configuration contains coincident points")
        object.__setattr__(self, "points", p)
        p.setflags(write=False)

    @property
    def n(self) -> int:
        return self.points.shape[0]


def _pair_distances(p: np.ndarray) -> np.ndarray:
    """|p_i - p_j| of an (n, 3) array, inf on the diagonal, summed into one
    (n, n) array a coordinate at a time, so bit-identical to np.linalg.norm.
    The Gram form of _beta_value_grad cancels for close points: 1e-9 apart
    at radius 1e4 it gives beta = inf where this form gives 2.2e12."""
    d, t = np.zeros((len(p), len(p))), np.empty((len(p), len(p)))
    for x in p.T:
        d += np.square(np.subtract.outer(x, x, out=t), out=t)
    np.fill_diagonal(np.sqrt(d, out=d), np.inf)
    return d


def beta_value(config: PointConfig) -> float:
    """Empirical-measure ratio [sum_{i<j} (r_i^2+r_j^2)/d_ij] / (n sum_i r_i).

    The denominator n*sum r_i makes the discrete value consistent with
    the continuum functional on atomic probability measures (a uniform
    unit sphere gives 1 in the large-n limit).
    """
    if config.n < 2:
        raise ParameterError("beta_value needs at least 2 points")
    p = config.points
    r = np.linalg.norm(p, axis=1)
    d = _pair_distances(p)
    num = 0.5 * np.sum((r[:, None] ** 2 + r[None, :] ** 2) / d)
    return float(num / (config.n * np.sum(r)))


def _beta_value_grad(X: np.ndarray, n: int, work: np.ndarray | None = None):
    """beta_value and its gradient for each configuration in X, shape (..., 3n).

    A 1-D X gives (float, 1-D gradient); a stack gives arrays over its
    leading shape.  The squared distances are one product
    [p, r^2, 1] [-2p, 1, r^2]^T, the numerator is sum_i r_i^2 sum_j 1/d_ij,
    and with c = 1/d^3 every pair sum of the gradient comes from the one
    product c @ [1, r^2, p, r^2 p].  The two (n, n) buffers of each
    configuration live in work (at least 2 * X.size * n / 3 floats) when it
    is given, so a caller that evaluates many stacks allocates them once.
    """
    X = np.asarray(X, dtype=float)
    batch = X.shape[:-1]
    size = X.size // 3 * n
    buf = np.empty(2 * size) if work is None else work[: 2 * size]
    d2, inv_d = buf[:size].reshape(batch + (n, n)), buf[size:].reshape(batch + (n, n))
    p = X.reshape(batch + (n, 3))
    r2 = np.einsum("...ij,...ij->...i", p, p)[..., None]
    one = np.ones_like(r2)
    lhs = np.concatenate([p, r2, one], -1)
    rhs = np.concatenate([-2.0 * p, one, r2], -1).swapaxes(-1, -2).copy()
    np.matmul(lhs, rhs, out=d2)
    d2.reshape(batch + (n * n,))[..., :: n + 1] = np.inf
    np.sqrt(d2, out=inv_d)
    np.divide(1.0, inv_d, out=inv_d)
    row = (inv_d @ one)[..., 0]
    c = np.multiply(inv_d, inv_d, out=d2)
    c *= inv_d
    m = c @ np.concatenate([one, r2, p, r2 * p], -1)
    r2 = r2[..., 0]
    r = np.sqrt(r2)
    den = n * r.sum(axis=-1)
    val = np.einsum("...i,...i->...", r2, row) / den
    coef = 2.0 * row - r2 * m[..., 0] - m[..., 1] - (n * val)[..., None] / r
    grad = (coef[..., None] * p + r2[..., None] * m[..., 2:5] + m[..., 5:]) / den[..., None, None]
    grad = grad.reshape(X.shape)
    return (float(val), grad) if X.ndim == 1 else (val, grad)


def _lbfgs(fun_grad, x0: np.ndarray):
    """Minimize a smooth function from every row of x0 by L-BFGS, in lockstep.

    fun_grad maps a (k, D) stack to its (k,) values and (k, D) gradients.
    Each row follows the rules of a lone descent: memory 10, a pair kept
    only when s.y > eps * y.y, a step that backtracks by halving from the
    quasi-Newton step (from min(1, 1/|g|) while its memory is empty) until
    the Armijo condition holds, and at most 60 trials.  A row stops by the
    rules of the module docstring, or when all 60 trials fail; stopped rows
    are dropped from the stack, and only rows whose trial failed are
    evaluated again.  The direction H g comes from the compact form of
    Byrd, Nocedal & Schnabel (Math. Prog. 63, 1994), with the inverse of
    the triangular block [s_i.y_j] updated in place as pairs come and go.
    Returns (x, values, steps), with steps the accepted steps of each row.
    """
    mem, eps = 10, np.finfo(float).eps
    x = np.array(x0, dtype=float)
    f, g = fun_grad(x)
    k, dim = x.shape
    x_out, f_out = np.empty_like(x), np.empty(k)
    steps = np.zeros(k, dtype=int)
    rows = np.arange(k)  # the x0 row of each row still descending
    w = np.zeros((k, 2 * mem, dim))  # slot j holds s_j at j and y_j at mem + j
    rinv = np.tile(np.eye(mem), (k, 1, 1))  # [s_i.y_j, i no newer than j]^-1, I on empty slots
    yy = np.zeros((k, mem, mem))  # y_i.y_j
    sy = np.zeros((k, mem))  # s_j.y_j
    gam = np.ones(k)  # s.y / y.y of the newest pair, so H0 = gam * I
    last = np.full(k, -1)  # slot of the newest pair, -1 while the memory is empty
    live = ~(np.abs(g).max(axis=1) <= 1e-10)  # a NaN gradient does not stop a row
    for _ in range(500):
        if not live.all():
            x_out[rows[~live]], f_out[rows[~live]] = x[~live], f[~live]
            rows, x, f, g, w, rinv, yy, sy, gam, last = (
                a[live] for a in (rows, x, f, g, w, rinv, yy, sy, gam, last))
            if not rows.size:
                return x_out, f_out, steps
        # q = H g = gam g + S p - gam Y u, with u = R^-1 S^T g and
        # p = R^-T ((D + gam Y^T Y) u - gam Y^T g), D = diag(s_j.y_j)
        ab = (w @ g[:, :, None])[..., 0]
        u = (rinv @ ab[:, :mem, None])[..., 0]
        v = sy * u + gam[:, None] * ((yy @ u[:, :, None])[..., 0] - ab[:, mem:])
        coef = np.concatenate([(v[:, None, :] @ rinv)[:, 0], -gam[:, None] * u], axis=1)
        q = gam[:, None] * g + (coef[:, None, :] @ w)[:, 0]
        t = np.ones(len(rows))
        fresh = last < 0
        if fresh.any():
            t[fresh] = np.minimum(1.0, 1.0 / np.linalg.norm(g[fresh], axis=1))
        slope = -np.einsum("ij,ij->i", g, q)
        x_new = x - t[:, None] * q
        f_new, g_new = fun_grad(x_new)
        bad = ~(np.isfinite(f_new) & (f_new <= f + 1e-4 * t * slope))
        for _ in range(59):
            if not bad.any():
                break
            i = bad.nonzero()[0]
            t[i] *= 0.5
            x_new[i] = x[i] - t[i, None] * q[i]
            f_new[i], g_new[i] = fun_grad(x_new[i])
            bad[i] = ~(np.isfinite(f_new[i]) & (f_new[i] <= f[i] + 1e-4 * t[i] * slope[i]))
        s, y = x_new - x, g_new - g
        s_y, y_y = np.einsum("ij,ij->i", s, y), np.einsum("ij,ij->i", y, y)
        keep = ~bad & (s_y > eps * y_y)
        if keep.any():
            i = keep.nonzero()[0]
            j = last[i] = (last[i] + 1) % mem
            w[i, j], w[i, mem + j] = s[i], y[i]
            # the oldest pair's column of R^-1 is its diagonal alone, so
            # clearing its row leaves R^-1 of the pairs that stay
            rinv[i, j] = 0.0
            wy = (w @ y[:, :, None])[i, :, 0]
            rinv[i, :, j] = -(rinv[i] @ wy[:, :mem, None])[..., 0] / s_y[i, None]
            rinv[i, j, j] = 1.0 / s_y[i]
            yy[i, j], yy[i, :, j] = wy[:, mem:], wy[:, mem:]
            sy[i, j] = s_y[i]
            gam[i] = s_y[i] / y_y[i]
        live = ~bad & (f - f_new > 2.22e-9 * np.maximum(np.maximum(np.abs(f), np.abs(f_new)), 1.0))
        if bad.any():
            x_new[bad], f_new[bad], g_new[bad] = x[bad], f[bad], g[bad]
        x, f, g = x_new, f_new, g_new
        steps[rows] += ~bad
        live &= ~(np.abs(g).max(axis=1) <= 1e-10)
    x_out[rows], f_out[rows] = x, f
    return x_out, f_out, steps


def fibonacci_sphere(n: int) -> np.ndarray:
    """Deterministic quasi-uniform points on the unit sphere."""
    k = np.arange(n)
    phi = np.pi * (3.0 - np.sqrt(5.0)) * k
    z = 1.0 - (2.0 * k + 1.0) / n
    rho = np.sqrt(1.0 - z * z)
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])


def _beta_starts(n: int, restarts: int, seed: int) -> list[np.ndarray]:
    """The Fibonacci sphere, then restarts - 1 random (n, 3) starts."""
    rng = np.random.default_rng(seed)
    starts = [fibonacci_sphere(n)]
    for _ in range(restarts - 1):
        pts = rng.normal(size=(n, 3))
        pts /= np.maximum(np.linalg.norm(pts, axis=1)[:, None], 0.3)
        starts.append(pts)
    return starts


def beta_optimize(n: int, restarts: int = 10, seed: int = 0):
    """Local minimization of beta_value with random restarts.

    One restart always starts from the Fibonacci sphere, so the best
    value never exceeds the sphere's (which tends to 1 from below).  The
    restarts descend together, in groups small enough that each kernel
    buffer stays under 2^19 floats (all ten restarts at n = 50, three at
    n = 400), sharing one workspace.  Returns (best_value, best_config).
    """
    if n < 2:
        raise ParameterError("beta_optimize needs n >= 2")
    if restarts < 1:
        raise ParameterError("need at least one restart")
    starts = np.reshape(_beta_starts(n, restarts, seed), (restarts, 3 * n))
    group = max(1, _GROUP_ELEMENTS // (n * n))
    work = np.empty(2 * min(group, restarts) * n * n)
    best_val, best_pts = np.inf, None
    for lo in range(0, restarts, group):
        x, vals, _ = _lbfgs(lambda X: _beta_value_grad(X, n, work), starts[lo : lo + group])
        k = np.argmin(vals)
        if vals[k] < best_val:
            best_val, best_pts = float(vals[k]), x[k].reshape(n, 3)
    del work  # free it before PointConfig's (n, n) distance check allocates
    scale = np.mean(np.linalg.norm(best_pts, axis=1))
    return best_val, PointConfig(best_pts / scale)


def pair_infimum(x: np.ndarray, y: np.ndarray) -> float:
    """(|x|x - |y|y).(x - y)/|x - y|^3 for a single pair."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = x - y
    dist = np.linalg.norm(d)
    if dist <= _MIN_SEP:
        raise DomainError("pair_infimum needs x != y")
    u = np.linalg.norm(x) * x - np.linalg.norm(y) * y
    return float(np.dot(u, d) / dist**3)


def _pair_value_grad(X: np.ndarray):
    """pair_infimum at (x, y) = X[..., :3], X[..., 3:] and its gradient.

    A 1-D X gives (float, 1-D gradient); a stack gives arrays over its
    leading shape.
    """
    X = np.asarray(X, dtype=float)
    x, y = X[..., :3], X[..., 3:]
    d = x - y
    rx = np.linalg.norm(x, axis=-1)[..., None]
    ry = np.linalg.norm(y, axis=-1)[..., None]
    u = rx * x - ry * y
    ud = np.sum(u * d, axis=-1)[..., None]
    dist2 = np.sum(d * d, axis=-1)[..., None]
    inv_d3 = dist2**-1.5
    force = 3.0 * ud * inv_d3 / dist2 * d
    gx = (rx * d + np.sum(x * d, axis=-1)[..., None] / rx * x + u) * inv_d3 - force
    gy = force - (ry * d + np.sum(y * d, axis=-1)[..., None] / ry * y + u) * inv_d3
    val = (ud * inv_d3)[..., 0]
    grad = np.concatenate([gx, gy], axis=-1)
    return (float(val), grad) if X.ndim == 1 else (val, grad)


def pair_infimum_scan(samples: int, seed: int = 0):
    """Random sampling plus local descent of the pair functional.

    Returns (min_found, argmin) with argmin a (2, 3) array.  The
    functional is bounded below by 1/2, attained on antipodal pairs.
    """
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(samples, 3))
    y = rng.normal(size=(samples, 3))
    d = x - y
    dist = np.linalg.norm(d, axis=1)
    ok = dist > _MIN_SEP
    u = np.linalg.norm(x, axis=1)[:, None] * x - np.linalg.norm(y, axis=1)[:, None] * y
    vals = np.full(samples, np.inf)
    vals[ok] = np.einsum("ij,ij->i", u[ok], d[ok]) / dist[ok] ** 3
    order = np.argsort(vals)

    best_val = float(vals[order[0]])
    best_arg = np.concatenate([x[order[0]], y[order[0]]])
    top = order[: min(8, samples)]
    args, found, _ = _lbfgs(_pair_value_grad, np.concatenate([x[top], y[top]], axis=1))
    k = np.argmin(found)
    if found[k] < best_val:
        best_val, best_arg = float(found[k]), args[k]
    return best_val, best_arg.reshape(2, 3)


def sigal_margin(config: PointConfig, threshold: float) -> float:
    """max_j [ sum_{i != j} 1/|x_i - x_j| - threshold/|x_j| ]."""
    if config.n < 2:
        raise ParameterError("sigal inequality needs at least 2 points")
    p = config.points
    r = np.linalg.norm(p, axis=1)
    d = _pair_distances(p)
    repulsion = np.sum(1.0 / d, axis=1)
    return float(np.max(repulsion - threshold / r))


def sigal_check(config: PointConfig, epsilon: float = 0.1, improved: bool = False) -> bool:
    """Configuration inequality: some particle's repulsion beats z/|x_j|.

    Basic mode uses the nuclear-charge threshold z = (n-1)/2, the largest
    value for which the triangle-inequality proof makes the statement
    hold for every configuration.  Improved mode replaces z by
    (1-epsilon)*n, which is only guaranteed for large n and needs
    0 < epsilon < 1: epsilon >= 1 makes it vacuous, and epsilon <= 0
    asks for more than any theorem gives.
    """
    if improved:
        if not 0.0 < epsilon < 1.0:
            raise ParameterError(f"need 0 < epsilon < 1, got {epsilon}")
        threshold = (1.0 - epsilon) * config.n
    else:
        threshold = 0.5 * (config.n - 1)
    return sigal_margin(config, threshold) >= 0.0
