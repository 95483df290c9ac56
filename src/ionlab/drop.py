"""Gamow liquid drop model on disjoint unions of balls.

Closed forms for the perimeter and Coulomb self-energy of balls, the
splitting threshold m*, the binding-gap machinery around f(s), and the
slicing/averaging identities used in the large-mass nonexistence
argument.  Everything here reduces to balls, where Newton's theorem
makes cross terms exact point-charge interactions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError

__all__ = [
    "Ball",
    "BallConfiguration",
    "BallEnergy",
    "PERIMETER_UNIT_BALL",
    "COULOMB_UNIT_BALL",
    "ball_energy",
    "configuration_energy",
    "mstar",
    "mstar_from_splitting",
    "f_of_s",
    "minimize_f",
    "binding_gap_lower_bound",
    "half_space_average",
    "cavalieri_volume",
    "cutting_identities_check",
    "CuttingReport",
    "nonexistence_certificate",
    "mc_ball_coulomb",
]

# Unit-volume ball B_1: Per(B_1) = (36 pi)^(1/3), D(B_1) = (3/5)(4 pi/3)^(1/3).
PERIMETER_UNIT_BALL = (36.0 * np.pi) ** (1.0 / 3.0)
COULOMB_UNIT_BALL = 0.6 * (4.0 * np.pi / 3.0) ** (1.0 / 3.0)
_HALF_SPACE_POLAR = 16    # Gauss-Legendre nodes per half of half_space_average
_HALF_SPACE_AZIMUTH = 8   # its uniform azimuthal nodes
_CAVALIERI_NODES = 12     # Gauss-Legendre nodes per ball in cavalieri_volume


@dataclass(frozen=True)
class BallEnergy:
    perimeter: float
    coulomb: float

    @property
    def total(self) -> float:
        return self.perimeter + self.coulomb


def ball_energy(m: float) -> BallEnergy:
    """Perimeter and Coulomb self-energy of the ball of volume m.  From
    about m = 9e184 on the Coulomb term overflows a float: such a volume,
    like an infinite one, is refused."""
    if not 0 < m < np.inf:
        raise ParameterError(f"volume must be positive and finite, got {m}")
    try:
        coulomb = COULOMB_UNIT_BALL * float(m) ** (5.0 / 3.0)
    except OverflowError:
        raise ParameterError(f"the energy of volume {m} overflows a float") from None
    return BallEnergy(perimeter=PERIMETER_UNIT_BALL * m ** (2.0 / 3.0), coulomb=coulomb)


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float).reshape(3)
        if not self.radius > 0:
            raise ParameterError("ball radius must be positive")
        object.__setattr__(self, "center", c)
        c.setflags(write=False)

    @property
    def volume(self) -> float:
        return 4.0 * np.pi * self.radius**3 / 3.0


@dataclass(frozen=True)
class BallConfiguration:
    balls: tuple

    def __post_init__(self):
        balls = tuple(
            b if isinstance(b, Ball) else Ball(center=b[0], radius=b[1])
            for b in self.balls
        )
        if not balls:
            raise ParameterError("configuration needs at least one ball")
        object.__setattr__(self, "balls", balls)

    def is_disjoint(self) -> bool:
        for i, a in enumerate(self.balls):
            for b in self.balls[i + 1 :]:
                if np.linalg.norm(a.center - b.center) <= a.radius + b.radius:
                    return False
        return True


def configuration_energy(config: BallConfiguration) -> float:
    """Total liquid-drop energy of disjoint balls.

    Per-ball closed forms plus the exact cross terms m_i m_j / |c_i-c_j|,
    since disjoint uniform balls interact like point charges.
    """
    if not config.is_disjoint():
        raise DomainError("balls overlap; cross terms need disjoint supports")
    total = sum(ball_energy(b.volume).total for b in config.balls)
    for i, a in enumerate(config.balls):
        for b in config.balls[i + 1 :]:
            total += a.volume * b.volume / np.linalg.norm(a.center - b.center)
    return float(total)


def mstar() -> float:
    """Splitting threshold 5 (2 - 2^(2/3)) / (2^(2/3) - 1) ~ 3.5121."""
    c = 2.0 ** (2.0 / 3.0)
    return 5.0 * (2.0 - c) / (c - 1.0)


def mstar_from_splitting() -> float:
    """Root of E(m) = 2 E(m/2): where one ball ties two half-volume balls
    at infinite separation.  Independent numerical route to mstar()."""
    import scipy.optimize

    gap = lambda m: ball_energy(m).total - 2.0 * ball_energy(0.5 * m).total
    return float(scipy.optimize.brentq(gap, 1.0, 8.0, xtol=1e-13, rtol=1e-15))


def f_of_s(s):
    """f(s) = (s^(2/3) + (1-s)^(2/3) - 1) / (1 - s^(5/3) - (1-s)^(5/3))."""
    s = np.asarray(s, dtype=float)
    if not np.all((s > 0.0) & (s < 1.0)):
        raise ParameterError("f_of_s needs 0 < s < 1")
    num = s ** (2.0 / 3.0) + (1.0 - s) ** (2.0 / 3.0) - 1.0
    den = 1.0 - s ** (5.0 / 3.0) - (1.0 - s) ** (5.0 / 3.0)
    out = num / den
    return float(out) if out.ndim == 0 else out


def minimize_f():
    """(s*, f(s*)) by golden-section search with parabolic refinement.

    Bracketing alone stalls at the sqrt(eps) floor of the flat quadratic
    minimum; one parabolic vertex step recovers full precision.
    """
    import scipy.optimize

    res = scipy.optimize.minimize_scalar(
        f_of_s, bounds=(1e-9, 1.0 - 1e-9), method="bounded",
        options={"xatol": 1e-12},
    )
    s = float(res.x)
    delta = 1e-4
    f_m, f_0, f_p = f_of_s(s - delta), f_of_s(s), f_of_s(s + delta)
    curv = f_p - 2.0 * f_0 + f_m
    if curv > 0:
        s = s - 0.5 * delta * (f_p - f_m) / curv
    return float(s), float(f_of_s(s))


def binding_gap_lower_bound(m: float, s: float) -> float:
    """Certified lower bound on E(sm) + E((1-s)m) - E(m).

    Positive for every s in (0,1) exactly when m is below the splitting
    threshold; changes sign at m = 5 min f = mstar().
    """
    if not m > 0:
        raise ParameterError(f"volume must be positive, got {m}")
    concavity = s ** (5.0 / 3.0) + (1.0 - s) ** (5.0 / 3.0) - 1.0
    return float(
        concavity
        * (COULOMB_UNIT_BALL * m - f_of_s(s) * PERIMETER_UNIT_BALL)
        * m ** (2.0 / 3.0)
    )


def _orthonormal_frame(z: np.ndarray):
    e3 = z / np.linalg.norm(z)
    probe = np.array([1.0, 0.0, 0.0])
    if abs(np.dot(probe, e3)) > 0.9:
        probe = np.array([0.0, 1.0, 0.0])
    e1 = probe - np.dot(probe, e3) * e3
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(e3, e1)
    return e1, e2, e3


def half_space_average(z: np.ndarray) -> float:
    """Spherical quadrature of int [nu . z]_+ dnu / (4 pi).

    Gauss-Legendre in cos(theta) (_HALF_SPACE_POLAR nodes), split at the
    kink circle nu.z = 0 so each half is polynomial, times a uniform
    _HALF_SPACE_AZIMUTH-node azimuthal rule; exact to roundoff.  Equals |z|/4.
    """
    z = np.asarray(z, dtype=float).reshape(3)
    if np.linalg.norm(z) == 0.0:
        raise ParameterError("direction-averaging needs z != 0")
    e1, e2, e3 = _orthonormal_frame(z)
    nodes, weights = np.polynomial.legendre.leggauss(_HALF_SPACE_POLAR)
    total = 0.0
    for lo, hi in ((-1.0, 0.0), (0.0, 1.0)):
        zeta = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        wz = 0.5 * (hi - lo) * weights
        for phi in (2.0 * np.pi / _HALF_SPACE_AZIMUTH) * np.arange(_HALF_SPACE_AZIMUTH):
            sin_t = np.sqrt(np.clip(1.0 - zeta**2, 0.0, None))
            nu = (
                np.outer(sin_t * np.cos(phi), e1)
                + np.outer(sin_t * np.sin(phi), e2)
                + np.outer(zeta, e3)
            )
            vals = np.clip(nu @ z, 0.0, None)
            total += np.dot(wz, vals) * (2.0 * np.pi / _HALF_SPACE_AZIMUTH)
    return float(total / (4.0 * np.pi))


def cavalieri_volume(config: BallConfiguration, nu: np.ndarray) -> float:
    """Total volume as int over ell of the slice areas, _CAVALIERI_NODES Gauss nodes a ball."""
    nu = np.asarray(nu, dtype=float)
    nu = nu / np.linalg.norm(nu)
    nodes, weights = np.polynomial.legendre.leggauss(_CAVALIERI_NODES)
    total = 0.0
    for b in config.balls:
        c = float(np.dot(b.center, nu))
        ell = b.radius * nodes + c
        w = b.radius * weights
        areas = np.pi * np.clip(b.radius**2 - (ell - c) ** 2, 0.0, None)
        total += np.dot(w, areas)
    return float(total)


@dataclass(frozen=True)
class CuttingReport:
    quad_value: float
    exact_value: float
    quad_error: float
    cavalieri_value: float
    cavalieri_expected: float
    cavalieri_error: float
    mc_value: float | None = None
    mc_error: float | None = None

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def cutting_identities_check(
    z: np.ndarray, mc_nodes: int = 0, seed: int = 0
) -> CuttingReport:
    """Check the two averaging identities of the slicing argument.

    (i) the direction average of [nu . z]_+ equals |z|/4, and
    (ii) Cavalieri for the unit-radius ball: slice areas integrate to
    its volume 4 pi / 3.  Optionally cross-checks (i) by Monte Carlo.
    """
    z = np.asarray(z, dtype=float).reshape(3)
    zn = float(np.linalg.norm(z))
    if zn == 0.0:
        raise ParameterError("cutting identity needs z != 0")
    if mc_nodes < 0:
        raise ParameterError(f"Monte Carlo node count must be >= 0, got {mc_nodes}")
    quad = half_space_average(z)
    exact = zn / 4.0

    ball = BallConfiguration(balls=(Ball(center=np.zeros(3), radius=1.0),))
    cav = cavalieri_volume(ball, np.array([0.0, 0.0, 1.0]))
    cav_expected = 4.0 * np.pi / 3.0

    mc_value = mc_error = None
    if mc_nodes > 0:
        rng = np.random.default_rng(seed)
        nu = rng.normal(size=(mc_nodes, 3))
        nu /= np.linalg.norm(nu, axis=1)[:, None]
        mc_value = float(np.mean(np.clip(nu @ z, 0.0, None)))
        mc_error = abs(mc_value - exact)

    return CuttingReport(
        quad_value=quad,
        exact_value=exact,
        quad_error=abs(quad - exact),
        cavalieri_value=cav,
        cavalieri_expected=cav_expected,
        cavalieri_error=abs(cav - cav_expected),
        mc_value=mc_value,
        mc_error=mc_error,
    )


def nonexistence_certificate(m: float) -> bool:
    """Whether the averaged slicing chain excludes a minimizer of volume m.

    The chain concludes 2|O| >= |O|^2/4 for a minimizer, so volumes above
    8 are excluded (strictly).  The two supporting identities are
    re-verified on every call.
    """
    if not m > 0:
        raise ParameterError(f"volume must be positive, got {m}")
    report = cutting_identities_check(np.array([0.0, 0.0, 1.0]))
    if report.quad_error > 1e-8 or report.cavalieri_error > 1e-6:
        raise DomainError("averaging identities failed; certificate unavailable")
    return m > 8.0


def mc_ball_coulomb(m: float, pairs: int, seed: int = 0) -> float:
    """Monte Carlo estimate of the Coulomb self-energy of the volume-m ball.

    Independent stochastic oracle for ball_energy(m).coulomb:
    (m^2/2) E[1/|p-q|] over uniform pairs in the ball.
    """
    if not m > 0:
        raise ParameterError(f"volume must be positive, got {m}")
    if pairs < 1:
        raise ParameterError("need at least one sample pair")
    radius = (3.0 * m / (4.0 * np.pi)) ** (1.0 / 3.0)
    rng = np.random.default_rng(seed)

    def sample(k):
        v = rng.normal(size=(k, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        return v * (radius * rng.random(k) ** (1.0 / 3.0))[:, None]

    p = sample(pairs)
    q = sample(pairs)
    d = np.linalg.norm(p - q, axis=1)
    d = d[d > 1e-12]
    energy = float(0.5 * m * m * np.mean(1.0 / d))
    if not np.isfinite(energy):
        raise ParameterError(f"the Monte Carlo energy of volume {m} overflows a float")
    return energy
