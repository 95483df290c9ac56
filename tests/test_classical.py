import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionlab.classical import (
    PointConfig,
    _beta_starts,
    _beta_value_grad,
    _lbfgs,
    _pair_value_grad,
    beta_optimize,
    beta_value,
    fibonacci_sphere,
    pair_infimum,
    pair_infimum_scan,
    sigal_check,
    sigal_margin,
    triangle_symmetrization_check,
)
from ionlab.errors import DomainError, ParameterError


class TestBetaValue:
    def test_antipodal_pair(self):
        cfg = PointConfig(np.array([[1.0, 0, 0], [-1.0, 0, 0]]))
        assert beta_value(cfg) == pytest.approx(0.25, abs=1e-14)

    def test_uniform_sphere_near_one(self, rng):
        pts = rng.normal(size=(500, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        assert 0.9 <= beta_value(PointConfig(pts)) <= 1.05

    def test_fibonacci_sphere_near_one(self):
        assert 0.9 <= beta_value(PointConfig(fibonacci_sphere(500))) <= 1.05

    def test_single_point_rejected(self):
        with pytest.raises(ParameterError):
            beta_value(PointConfig(np.array([[1.0, 0, 0]])))

    @settings(max_examples=20, deadline=None)
    @given(scale=st.floats(0.01, 100.0), seed=st.integers(0, 10_000))
    def test_scale_invariance(self, scale, seed):
        pts = np.random.default_rng(seed).normal(size=(8, 3)) + 0.1
        cfg, scaled = PointConfig(pts), PointConfig(scale * pts)
        assert beta_value(scaled) == pytest.approx(beta_value(cfg), rel=1e-12)

    def test_rotation_invariance(self, rng):
        pts = rng.normal(size=(12, 3))
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        assert beta_value(PointConfig(pts @ q.T)) == pytest.approx(
            beta_value(PointConfig(pts)), rel=1e-12
        )

    def test_origin_point_rejected(self):
        with pytest.raises(DomainError):
            PointConfig(np.array([[0.0, 0, 0], [1.0, 0, 0]]))

    def test_coincident_points_rejected(self):
        with pytest.raises(DomainError):
            PointConfig(np.array([[1.0, 0, 0], [1.0, 0, 0]]))


def _central_difference(fun, x, h=1e-6):
    grad = np.empty_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        grad[k] = (fun(x + e) - fun(x - e)) / (2 * h)
    return grad


class TestGradients:
    @pytest.mark.parametrize("n", [2, 8, 50])
    def test_beta_gradient_matches_central_differences(self, rng, n):
        pts = rng.normal(size=(n, 3))
        val, grad = _beta_value_grad(pts.ravel(), n)
        assert val == pytest.approx(beta_value(PointConfig(pts)), rel=1e-12)
        fd = _central_difference(lambda v: _beta_value_grad(v, n)[0], pts.ravel())
        assert np.max(np.abs(grad - fd)) < 1e-7 * max(1.0, np.max(np.abs(grad)))

    def test_pair_gradient_matches_central_differences(self, rng):
        for _ in range(5):
            flat = rng.normal(size=6)
            val, grad = _pair_value_grad(flat)
            assert val == pytest.approx(pair_infimum(flat[:3], flat[3:]), rel=1e-12)
            fd = _central_difference(lambda v: _pair_value_grad(v)[0], flat)
            assert np.max(np.abs(grad - fd)) < 1e-7 * max(1.0, np.max(np.abs(grad)))


class TestLbfgs:
    def test_quadratic_reaches_gradient_stop(self):
        b = np.arange(5.0)
        x, val = _lbfgs(lambda v: (1.5 * v @ v - b @ v, 3.0 * v - b), np.zeros(5))
        assert np.max(np.abs(3.0 * x - b)) <= 1e-10
        assert val == pytest.approx(-b @ b / 6.0, rel=1e-14)

    def test_rosenbrock_minimizer(self):
        # From the classic start the relative-decrease rule ends the descent
        # at a max-abs gradient of about 3e-7, before the 1e-10 gradient stop.
        def rosen(v):
            a, b = v
            return (1 - a) ** 2 + 100 * (b - a * a) ** 2, np.array(
                [-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a)]
            )

        x, val = _lbfgs(rosen, np.array([-1.2, 1.0]))
        assert np.max(np.abs(x - 1.0)) < 1e-6
        assert val < 1e-12
        assert np.max(np.abs(rosen(x)[1])) < 1e-5

    def test_backtracks_from_non_finite_trial(self):
        # The secant step from x = 10 overshoots into x < 0, where the
        # objective is infinite; backtracking must recover the minimum x = 1.
        trials = []

        def fun_grad(v):
            trials.append(v[0])
            if v[0] <= 0:
                return np.inf, np.array([np.nan])
            return v[0] + 1 / v[0], np.array([1 - v[0] ** -2])

        x, val = _lbfgs(fun_grad, np.array([10.0]))
        assert min(trials) < 0
        assert x[0] == pytest.approx(1.0, abs=1e-6)
        assert val == pytest.approx(2.0, abs=1e-12)


class TestBetaOptimize:
    FLOOR = staticmethod(lambda n: 0.82 - 1.55 * n ** (-2.0 / 3.0))

    def test_two_points_antipodal_optimum(self):
        best, cfg = beta_optimize(2, restarts=6, seed=1)
        assert best == pytest.approx(0.25, abs=1e-3)

    def test_n50_floor_and_ceiling(self):
        best, _ = beta_optimize(50, restarts=8, seed=2)
        assert self.FLOOR(50) <= best <= 1.05

    def test_values_stabilize_with_n(self):
        v50, _ = beta_optimize(50, restarts=4, seed=3)
        v200, _ = beta_optimize(200, restarts=4, seed=3)
        assert v200 >= v50 - 0.05

    @pytest.mark.parametrize("n", [8, 20, 50])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scipy_lbfgsb_from_same_starts(self, n, seed):
        import scipy.optimize

        best, cfg = beta_optimize(n, restarts=10, seed=seed)
        reference = min(
            scipy.optimize.minimize(
                _beta_value_grad, pts.ravel(), args=(n,), jac=True,
                method="L-BFGS-B", options={"maxiter": 500, "gtol": 1e-10},
            ).fun
            for pts in _beta_starts(n, 10, seed)
        )
        assert abs(best - reference) < 1e-7
        assert best <= beta_value(PointConfig(fibonacci_sphere(n)))
        assert beta_value(cfg) == pytest.approx(best, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            beta_optimize(1, restarts=2)
        with pytest.raises(ParameterError):
            beta_optimize(5, restarts=0)


class TestPairInfimum:
    def test_antipodal_exactly_half(self):
        assert pair_infimum([1.0, 0, 0], [-1.0, 0, 0]) == 0.5

    def test_collinear_same_direction(self):
        assert pair_infimum([2.0, 0, 0], [1.0, 0, 0]) == pytest.approx(3.0)

    def test_scale_invariance(self, rng):
        x, y = rng.normal(size=3), rng.normal(size=3)
        assert pair_infimum(7.3 * x, 7.3 * y) == pytest.approx(
            pair_infimum(x, y), rel=1e-12
        )

    def test_scan_brackets_half(self):
        best, arg = pair_infimum_scan(100_000, seed=4)
        assert 0.5 - 1e-6 <= best <= 0.5 + 1e-3
        x, y = arg
        # the minimizer is an antipodal pair
        assert np.linalg.norm(x / np.linalg.norm(x) + y / np.linalg.norm(y)) < 1e-3

    @pytest.mark.parametrize("samples", [50, 10_000])
    @pytest.mark.parametrize("seed", range(5))
    def test_scan_descends_to_half(self, samples, seed):
        best, (x, y) = pair_infimum_scan(samples, seed=seed)
        assert abs(best - 0.5) <= 1e-12
        assert np.linalg.norm(x / np.linalg.norm(x) + y / np.linalg.norm(y)) < 1e-6

    def test_scan_needs_samples(self):
        with pytest.raises(ParameterError):
            pair_infimum_scan(0)

    def test_coincident_rejected(self):
        with pytest.raises(DomainError):
            pair_infimum([1.0, 0, 0], [1.0, 0, 0])


class TestSigal:
    def test_basic_holds_on_random_configs(self, rng):
        for _ in range(200):
            cfg = PointConfig(rng.normal(size=(10, 3)))
            assert sigal_check(cfg)

    def test_single_point_rejected(self):
        with pytest.raises(ParameterError):
            sigal_check(PointConfig(np.array([[1.0, 0, 0]])))

    def test_improved_mode_small_n_failures_logged(self, rng):
        failures = 0
        trials = 200
        for _ in range(trials):
            cfg = PointConfig(rng.normal(size=(8, 3)))
            if not sigal_check(cfg, epsilon=0.1, improved=True):
                failures += 1
        # small systems may fail the improved inequality; just record
        print(f"improved-mode failures at n=8: {failures}/{trials}")

    def test_margin_matches_direct_formula(self, rng):
        pts = rng.normal(size=(6, 3))
        cfg = PointConfig(pts)
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        np.fill_diagonal(d, np.inf)
        rep = np.sum(1.0 / d, axis=1)
        expected = np.max(rep - 2.0 / np.linalg.norm(pts, axis=1))
        assert sigal_margin(cfg, 2.0) == pytest.approx(expected, rel=1e-12)


class TestTriangleSymmetrization:
    def test_sampled_minimum_above_one(self):
        assert triangle_symmetrization_check(100_000, seed=5) >= 1.0 - 1e-12

    def test_antipodal_equality_case(self):
        x = np.array([1.0, 0, 0])
        ratio = (np.linalg.norm(x) + np.linalg.norm(-x)) / np.linalg.norm(2 * x)
        assert ratio == 1.0

    def test_collinear_half_ratio(self):
        y = np.array([2.0, 0, 0])
        x = y / 2
        assert (np.linalg.norm(x) + np.linalg.norm(y)) / np.linalg.norm(x - y) == 3.0

    def test_needs_samples(self):
        with pytest.raises(ParameterError):
            triangle_symmetrization_check(0)
