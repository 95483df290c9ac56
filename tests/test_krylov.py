import numpy as np
import pytest

import ionlab.krylov
from ionlab.errors import ConvergenceError
from ionlab.krylov import _gmres, newton_krylov

B = np.linspace(-2.0, 3.0, 7)


def _defect(x):
    f = x**3 + x - B
    return f, float(np.linalg.norm(f)), float(np.max(np.abs(f))), x


def _linearize(x, state, turn=1.0):
    slope = 3.0 * x**2 + 1.0
    return lambda rhs: turn * rhs / slope


class TestNewtonKrylov:
    def test_converges_on_componentwise_cubic(self):
        x, res, steps = newton_krylov(
            np.zeros_like(B), _defect, _linearize, 1e-12, "test stage", "case"
        )
        assert res < 1e-12
        assert 0 < steps < ionlab.krylov.MAX_NEWTON_STEPS
        assert np.allclose(x**3 + x, B, rtol=0.0, atol=1e-12)

    def test_converged_start_takes_no_step(self):
        x0 = np.ones(3)
        x, res, steps = newton_krylov(
            x0, lambda x: (np.zeros(3), 0.0, 0.0, x), None, 1e-9, "s", "c"
        )
        assert steps == 0 and res == 0.0 and x is x0

    def test_step_cap_names_stage_and_case(self, monkeypatch):
        monkeypatch.setattr(ionlab.krylov, "MAX_NEWTON_STEPS", 1)
        with pytest.raises(ConvergenceError, match=r"^test stage stalled .*\(Z=2\)$"):
            newton_krylov(np.zeros_like(B), _defect, _linearize, 1e-12, "test stage", "Z=2")

    def test_uphill_direction_raises(self):
        def uphill(x, state):
            return _linearize(x, state, turn=-1.0)

        with pytest.raises(ConvergenceError, match="after 0 Newton steps") as err:
            newton_krylov(np.zeros_like(B), _defect, uphill, 1e-12, "test stage", "c")
        assert err.value.iterations == 0

    @pytest.mark.parametrize("merit", [np.inf, np.nan])
    def test_start_without_a_finite_merit_raises(self, merit):
        def defect(x):
            return x, merit, np.inf, x

        with pytest.raises(ConvergenceError, match=r"^test stage cannot start: .*\(Z=2\)$") as err:
            newton_krylov(np.ones(3), defect, None, 1e-12, "test stage", "Z=2")
        assert err.value.iterations == 0

    def test_one_jacobian_product_per_krylov_step(self):
        """A Newton step whose map is one ``_gmres`` cycle makes one
        Jacobian product per GMRES iteration, as counted by SciPy's GMRES on
        the same system, and no trailing residual product."""
        import scipy.sparse.linalg

        products, krylov_steps = [], []

        def unpreconditioned(x, state):
            slope = 3.0 * x**2 + 1.0
            f = x**3 + x - B
            inner = []
            scipy.sparse.linalg.gmres(
                np.diag(slope), -f, rtol=1e-4, restart=40, maxiter=1,
                callback=inner.append, callback_type="pr_norm",
            )
            krylov_steps.append(len(inner))
            products.append(0)

            def jac(d):
                products[-1] += 1
                return slope * d

            return lambda rhs: _gmres(jac, rhs)

        _, res, steps = newton_krylov(
            np.zeros_like(B), _defect, unpreconditioned, 1e-12, "test stage", "c"
        )
        assert res < 1e-12
        assert len(products) == steps
        assert max(krylov_steps) > 1
        assert products == krylov_steps


def _three_eigenvalues(rng, n=30):
    s = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
    return s @ np.diag(np.repeat([1.0, 2.0, 5.0], n // 3)) @ np.linalg.inv(s)


def _system(case, rng):
    if case == "converges early":
        n = 60
        a = np.eye(n) + 0.2 * rng.standard_normal((n, n)) / np.sqrt(n)
        return a, rng.standard_normal(n)
    if case == "all 40 steps":
        n = 200
        a = np.diag(np.linspace(1.0, 1e3, n)) + rng.standard_normal((n, n))
        return a, rng.standard_normal(n)
    if case == "exact breakdown":
        # b lies in one eigenspace of a matrix with 3 distinct eigenvalues,
        # in dyadic numbers: the first Arnoldi vector is exactly invariant.
        b = np.zeros(12)
        b[:4] = 1.0
        return np.diag(np.repeat([2.0, 3.0, 5.0], 4)), b
    if case == "three eigenvalues":
        return _three_eigenvalues(rng), rng.standard_normal(30)
    return _three_eigenvalues(rng), np.zeros(30)


class TestGmres:
    """One GMRES cycle against SciPy's gmres(rtol=1e-4, restart=40,
    maxiter=1), whose arithmetic it follows."""

    @pytest.mark.parametrize(
        "case, steps",
        [
            ("converges early", 6),
            ("all 40 steps", 40),
            ("exact breakdown", 1),
            ("three eigenvalues", 3),
            ("b = 0", 0),
        ],
    )
    def test_matches_scipy_cycle(self, case, steps):
        import scipy.sparse.linalg

        a, b = _system(case, np.random.default_rng(7))
        calls = []

        def matvec(x):
            calls.append(1)
            return a @ x

        x = _gmres(matvec, b)
        inner = []
        expected, _ = scipy.sparse.linalg.gmres(
            a, b, rtol=1e-4, restart=40, maxiter=1,
            callback=inner.append, callback_type="pr_norm",
        )
        assert np.allclose(x, expected, rtol=1e-12, atol=0.0)
        assert len(calls) == len(inner) == steps
        if case != "all 40 steps":
            assert np.linalg.norm(b - a @ x) <= 1e-4 * np.linalg.norm(b)
