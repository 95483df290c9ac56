"""Classical point-charge functionals: the beta constant, the pair
infimum 1/2, Sigal-type configuration inequalities, and the triangle
symmetrization ratio.

All functionals here are homogeneous of degree zero, so values are
invariant under uniform rescaling of a configuration; optimizers exploit
this by renormalizing the scale freely.

beta_optimize and pair_infimum_scan descend with the in-module L-BFGS
``_lbfgs`` (memory 10, Armijo backtracking that also rejects non-finite
trial values), on analytic gradients and NumPy alone.  It stops when the
max-abs gradient is <= 1e-10, when one step lowers the value by
<= 2.22e-9 * max(|f|, 1) (the default factr * eps of L-BFGS-B), or after
500 iterations.
"""

from __future__ import annotations

from collections import deque
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
    "triangle_symmetrization_check",
    "fibonacci_sphere",
]

_MIN_SEP = 1e-12


@dataclass(frozen=True)
class PointConfig:
    """Finite configuration of distinct nonzero points in R^3."""

    points: np.ndarray

    def __post_init__(self):
        p = np.atleast_2d(np.asarray(self.points, dtype=float))
        if p.ndim != 2 or p.shape[1] != 3 or p.shape[0] < 1:
            raise ParameterError("points must be an (n, 3) array")
        radii = np.linalg.norm(p, axis=1)
        if np.min(radii) <= _MIN_SEP:
            raise DomainError("configuration contains a point at the origin")
        if p.shape[0] > 1:
            d = np.linalg.norm(p[:, None, :] - p[None, :, :], axis=-1)
            np.fill_diagonal(d, np.inf)
            if np.min(d) <= _MIN_SEP:
                raise DomainError("configuration contains coincident points")
        object.__setattr__(self, "points", p)
        p.setflags(write=False)

    @property
    def n(self) -> int:
        return self.points.shape[0]


def _pair_distances(p: np.ndarray) -> np.ndarray:
    d = np.linalg.norm(p[:, None, :] - p[None, :, :], axis=-1)
    np.fill_diagonal(d, np.inf)
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


def _beta_value_grad(flat: np.ndarray, n: int):
    """beta_value and its gradient in the flattened coordinates.

    Distances come from the Gram matrix p p^T and the pair-force sum is
    w @ p, so no (n, n, 3) difference tensor is formed.
    """
    p = flat.reshape(n, 3)
    gram = p @ p.T
    r2 = gram.diagonal().copy()
    rsq = r2[:, None] + r2[None, :]
    d2 = rsq - 2.0 * gram
    np.fill_diagonal(d2, np.inf)
    inv_d = 1.0 / np.sqrt(d2)
    r = np.sqrt(r2)
    den = n * np.sum(r)
    val = 0.5 * np.sum(rsq * inv_d) / den

    w = rsq * inv_d**3
    grad_num = p * (2.0 * np.sum(inv_d, axis=1) - np.sum(w, axis=1))[:, None] + w @ p
    grad = (grad_num - val * n * p / r[:, None]) / den
    return val, grad.ravel()


def _lbfgs(fun_grad, x0: np.ndarray):
    """Minimize a smooth function by L-BFGS; returns (x, value).

    fun_grad(x) returns (value, gradient).  Each step backtracks by
    halving from the full quasi-Newton step (from min(1, 1/|g|) while the
    memory is empty) until the Armijo condition holds, and gives up after
    60 halvings.  The stopping rule is the one in the module docstring.
    """
    x = np.array(x0, dtype=float)
    f, g = fun_grad(x)
    memory = deque(maxlen=10)  # (s, y, 1 / s.y), oldest first
    for _ in range(500):
        if np.max(np.abs(g)) <= 1e-10:
            break
        q = g.copy()
        alphas = []
        for s, y, rho in reversed(memory):
            alphas.append(rho * (s @ q))
            q -= alphas[-1] * y
        if memory:
            s, y, rho = memory[-1]
            q /= rho * (y @ y)
            t = 1.0
        else:
            t = min(1.0, 1.0 / np.linalg.norm(g))
        for (s, y, rho), a in zip(memory, reversed(alphas)):
            q += (a - rho * (y @ q)) * s
        slope = -(g @ q)
        for _ in range(60):
            x_new = x - t * q
            f_new, g_new = fun_grad(x_new)
            if np.isfinite(f_new) and f_new <= f + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break
        s, y = x_new - x, g_new - g
        sy = s @ y
        if sy > np.finfo(float).eps * (y @ y):
            memory.append((s, y, 1.0 / sy))
        small_step = f - f_new <= 2.22e-9 * max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        if small_step:
            break
    return x, float(f)


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
    value never exceeds the sphere's (which tends to 1 from below).
    Returns (best_value, best_config).
    """
    if n < 2:
        raise ParameterError("beta_optimize needs n >= 2")
    if restarts < 1:
        raise ParameterError("need at least one restart")
    best_val, best_pts = np.inf, None
    for pts in _beta_starts(n, restarts, seed):
        x, val = _lbfgs(lambda flat: _beta_value_grad(flat, n), pts.ravel())
        if val < best_val:
            best_val, best_pts = val, x.reshape(n, 3)
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


def _pair_value_grad(flat: np.ndarray):
    """pair_infimum at (x, y) = flat[:3], flat[3:] and its gradient."""
    x, y = flat[:3], flat[3:]
    d = x - y
    rx, ry = np.linalg.norm(x), np.linalg.norm(y)
    u = rx * x - ry * y
    ud = u @ d
    dist2 = d @ d
    inv_d3 = dist2**-1.5
    force = 3.0 * ud * inv_d3 / dist2 * d
    gx = (rx * d + (x @ d) / rx * x + u) * inv_d3 - force
    gy = force - (ry * d + (y @ d) / ry * y + u) * inv_d3
    return ud * inv_d3, np.concatenate([gx, gy])


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
    for idx in order[: min(8, samples)]:
        arg, val = _lbfgs(_pair_value_grad, np.concatenate([x[idx], y[idx]]))
        if val < best_val:
            best_val, best_arg = val, arg
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


def triangle_symmetrization_check(samples: int, seed: int = 0) -> float:
    """Sampled minimum of (|x|+|y|)/|x-y| over random pairs; >= 1 always."""
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(samples, 3))
    y = rng.normal(size=(samples, 3))
    d = np.linalg.norm(x - y, axis=1)
    keep = d > _MIN_SEP
    ratio = (np.linalg.norm(x, axis=1) + np.linalg.norm(y, axis=1))[keep] / d[keep]
    return float(np.min(ratio))
