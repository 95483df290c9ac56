import numpy as np
import pytest

import ionlab.krylov
from ionlab.errors import ConvergenceError
from ionlab.krylov import newton_krylov

B = np.linspace(-2.0, 3.0, 7)


def _defect(x):
    f = x**3 + x - B
    return f, float(np.linalg.norm(f)), float(np.max(np.abs(f))), None


def _linearize(x, state, turn=1.0):
    slope = 3.0 * x**2 + 1.0

    def jac(d):
        return slope * d

    def precond(y):
        return y / slope

    return jac, precond, lambda y: turn * precond(y)


class TestNewtonKrylov:
    def test_converges_on_componentwise_cubic(self):
        x, _, res, steps = newton_krylov(
            np.zeros_like(B), _defect, _linearize, 1e-12, "test stage", "case"
        )
        assert res < 1e-12
        assert 0 < steps < ionlab.krylov.MAX_NEWTON_STEPS
        assert np.allclose(x**3 + x, B, rtol=0.0, atol=1e-12)

    def test_converged_start_takes_no_step(self):
        x0 = np.ones(3)
        x, _, res, steps = newton_krylov(
            x0, lambda x: (np.zeros(3), 0.0, 0.0, "s"), None, 1e-9, "s", "c"
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
